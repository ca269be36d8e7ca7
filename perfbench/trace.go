package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one call into a layer, recorded by the harness around the
// layer's exported function. Spans of one build share a build id.
type span struct {
	parent     int // index+1 of the enclosing span, 0 at a build's root
	build      int
	name       string
	module     string
	start, end time.Duration // since the tracer's epoch
	alloc      uint64        // heap bytes allocated while open, children included
}

// tracer keeps every span in memory; the trace file is written once, at
// the end of the run. The replay is single-threaded, so an open-span
// stack gives each span its parent and runtime/metrics' cumulative
// allocation counter attributes bytes to the innermost open span.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int
	build  int
	kinds  map[int]string // build id -> kind of operation
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		kinds:  map[int]string{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// do runs fn inside a span. With a nil tracer it runs fn bare, which is
// the untraced replay the tracing overhead is measured against.
func (t *tracer) do(name, module string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1] + 1
	}
	t.spans = append(t.spans, span{parent: parent, build: t.build, name: name, module: module})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	a0 := t.allocBytes()
	t.spans[idx].start = time.Since(t.epoch)
	err := fn()
	t.spans[idx].end = time.Since(t.epoch)
	t.spans[idx].alloc = t.allocBytes() - a0
	t.open = t.open[:len(t.open)-1]
	return err
}

// buildSpan opens a new build id of the given kind and runs fn as its
// root span.
func (t *tracer) buildSpan(kind string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.build++
	t.kinds[t.build] = kind
	return t.do("build", kind, fn)
}

// layerStats is one layer's self time and self allocation, summed over
// the builds it was taken from.
type layerStats struct {
	self  time.Duration
	alloc uint64
}

// layers sums self time and self allocation per span name over the
// builds for which keep returns true and returns them with the number of
// builds. A span's self time is its duration minus the part its children
// cover.
func (t *tracer) layers(keep func(build int) bool) (map[string]*layerStats, int) {
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent > 0 {
			childDur[s.parent-1] += s.end - s.start
			childAlloc[s.parent-1] += s.alloc
		}
	}
	out := map[string]*layerStats{}
	builds := map[int]bool{}
	for i, s := range t.spans {
		if !keep(s.build) {
			continue
		}
		builds[s.build] = true
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		ls.self += s.end - s.start - childDur[i]
		ls.alloc += s.alloc - childAlloc[i]
	}
	return out, len(builds)
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// the toolchain's own telemetry exports, so Perfetto opens both. Each
// build is its own track (tid); args carry the span's parent and module.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"traceEvents":[` + "\n")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		ev := map[string]any{
			"name": s.name, "cat": "layer", "ph": "X", "pid": 1, "tid": s.build,
			"ts":  float64(s.start.Nanoseconds()) / 1e3,
			"dur": float64((s.end - s.start).Nanoseconds()) / 1e3,
			"args": map[string]any{
				"span": i + 1, "parent": s.parent, "build": s.build,
				"kind": t.kinds[s.build], "module": s.module, "alloc_bytes": s.alloc,
			},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ofKind selects the builds of one kind of operation.
func (t *tracer) ofKind(kind string) func(int) bool {
	return func(b int) bool { return t.kinds[b] == kind }
}

// glue names the harness's own grouping spans: time in them outside a
// child is the pipeline's glue, not a layer's.
var glue = map[string]bool{"build": true, "phase1": true, "phase2": true}

// layerTime is the self time of the layer spans of the latest build.
func (t *tracer) layerTime() time.Duration {
	ls, _ := t.layers(func(b int) bool { return b == t.build })
	var d time.Duration
	for name, l := range ls {
		if !glue[name] {
			d += l.self
		}
	}
	return d
}

// layerMetricName maps a span name to its BENCHMARK.json metric stem:
// "minic.parse" -> "minic.parse_ms", "irgen" -> "irgen.ms".
func layerMetricName(spanName, suffix string) string {
	if strings.Contains(spanName, ".") {
		return spanName + "_" + suffix
	}
	return spanName + "." + suffix
}

// cpuSampler reads the runtime's GC and total CPU-time estimates, so the
// GC share of a stretch of work is the ratio of their deltas.
type cpuSampler struct{ s []metrics.Sample }

func newCPUSampler() *cpuSampler {
	return &cpuSampler{s: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (c *cpuSampler) read() (gc, total float64) {
	metrics.Read(c.s)
	return c.s[0].Value.Float64(), c.s[1].Value.Float64()
}
