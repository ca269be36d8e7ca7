package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"ipra"
)

// stepper measures a sequence of states of one program in process, for
// the traced runs. Each state is built four ways: ipra.Build against a
// persistent build directory (what mcc -incremental and the daemon run),
// the layer replay of the same rebuild set without spans and then with
// spans, and a clean ipra.Build, the byte-identity reference.
type stepper struct {
	cfg ipra.Config
	dir string
	r   *replay
	t   *tracer
	cpu *cpuSampler
	ops map[string]*opStats // by kind of operation
}

// opStats accumulates the measurements of one kind of operation.
type opStats struct {
	inc, clean, untraced, traced   []float64 // wall ms
	layers                         []float64 // self ms of the traced replay's layer spans
	p1, p2, webs, fallbacks, words []float64
	dirMB                          []float64
	gcCPU, totalCPU                float64
}

func newStepper(cfg ipra.Config, t *tracer) *stepper {
	cfg.Jobs = 1
	return &stepper{cfg: cfg, t: t, cpu: newCPUSampler(), ops: map[string]*opStats{}}
}

// reset starts a new program history: an empty build directory and no
// replayed artifacts.
func (s *stepper) reset(dir string) {
	s.dir = dir
	s.r = &replay{cfg: s.cfg}
}

// step builds one program state and returns the reference executable's
// bytes. Mismatches between the four builds are recorded on res.
func (s *stepper) step(ctx context.Context, srcs []ipra.Source, kind string, res *result) ([]byte, error) {
	st := s.ops[kind]
	if st == nil {
		st = &opStats{}
		s.ops[kind] = st
	}
	res.attempted++

	// A fresh mcc process starts with an empty phase-1 cache.
	ipra.ResetPhase1Cache()
	start := time.Now()
	inc, err := ipra.Build(ctx, srcs, s.cfg, ipra.WithBuildDir(s.dir))
	if err != nil {
		return nil, fmt.Errorf("%s build: %w", kind, err)
	}
	st.inc = append(st.inc, ms(time.Since(start)))
	incExe := exeBytes(inc.Exe)
	out := inc.Incremental
	p1 := make([]bool, len(srcs))
	p2 := make([]bool, len(srcs))
	for i, a := range out.Actions {
		p1[i], p2[i] = a.Phase1Rebuilt, a.Phase2Rebuilt
	}
	st.p1 = append(st.p1, float64(out.Phase1Rebuilds))
	st.p2 = append(st.p2, float64(out.Phase2Rebuilds))
	st.dirMB = append(st.dirMB, dirMB(s.dir))
	analyzer := out.Analyzer
	inc = nil

	// The replay runs twice from the same starting state, without and
	// with spans, in alternating order so that neither side always
	// inherits the other's garbage.
	prevState := s.r.state
	var plain, traced *replayOut
	for pass := 0; pass < 2; pass++ {
		s.r.state = prevState
		if (pass+len(st.inc))%2 == 0 {
			start = time.Now()
			plain, err = s.r.build(ctx, nil, srcs, p1, p2, true)
			if err != nil {
				return nil, fmt.Errorf("%s replay: %w", kind, err)
			}
			st.untraced = append(st.untraced, ms(time.Since(start)))
			continue
		}
		gc0, total0 := s.cpu.read()
		start = time.Now()
		err = s.t.buildSpan(kind, func() (err error) {
			traced, err = s.r.build(ctx, s.t, srcs, p1, p2, true)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s traced replay: %w", kind, err)
		}
		st.traced = append(st.traced, ms(time.Since(start)))
		st.layers = append(st.layers, ms(s.t.layerTime()))
		gc1, total1 := s.cpu.read()
		st.gcCPU += gc1 - gc0
		st.totalCPU += total1 - total0
	}
	st.webs = append(st.webs, float64(traced.websRebuilt))
	st.words = append(st.words, float64(traced.words))
	fb := 0.0
	if traced.fallback {
		fb = 1
	}
	st.fallbacks = append(st.fallbacks, fb)

	ipra.ResetPhase1Cache()
	start = time.Now()
	ref, err := ipra.Build(ctx, srcs, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s reference build: %w", kind, err)
	}
	st.clean = append(st.clean, ms(time.Since(start)))
	refExe := exeBytes(ref.Exe)

	bad := ""
	switch {
	case !bytes.Equal(incExe, refExe):
		bad = "incremental ipra.Build"
	case !bytes.Equal(exeBytes(plain.exe), refExe):
		bad = "untraced replay"
	case !bytes.Equal(exeBytes(traced.exe), refExe):
		bad = "traced replay"
	case analyzer != nil && (analyzer.Fallback != "") != traced.fallback:
		bad = "replayed analyzer fallback"
	case analyzer != nil && analyzer.Fallback == "" && analyzer.WebsRebuilt != traced.websRebuilt:
		bad = "replayed analyzer webs_rebuilt"
	}
	if bad != "" {
		res.fail("%s step %d: %s differs from the clean ipra.Build", kind, len(st.inc), bad)
	}
	return refExe, nil
}

// layerMetrics turns the spans of the builds keep selects into the
// per-layer metrics, per operation. ops is the number of operations the
// spans cover (0: one per build id).
func layerMetrics(res *result, t *tracer, ops int, keep func(int) bool) {
	layers, builds := t.layers(keep)
	if ops == 0 {
		ops = builds
	}
	if ops == 0 {
		return
	}
	var allocMB float64
	for name, ls := range layers {
		self := ms(ls.self) / float64(ops)
		alloc := float64(ls.alloc) / (1 << 20) / float64(ops)
		allocMB += alloc
		if glue[name] {
			continue
		}
		res.metrics[layerMetricName(name, "ms")] = self
		switch name {
		case "summary", "opt", "codegen":
			res.metrics[layerMetricName(name, "alloc_mb")] = alloc
		}
	}
	res.metrics["runtime.alloc_mb"] = allocMB
}

// stepMetrics adds what a stepper measured for one kind of operation.
// The residuals (incremental.ms, trace.overhead_ms) are differences of
// separately timed builds; each is the median of its per-operation
// differences and carries the host's timing noise.
func stepMetrics(res *result, s *stepper, kind string) {
	st := s.ops[kind]
	if st == nil {
		return
	}
	layerMetrics(res, s.t, 0, s.t.ofKind(kind))
	res.metrics["incremental.ms"] = median(sub(st.inc, st.layers))
	res.metrics["incremental.phase1_rebuilds"] = mean(st.p1)
	res.metrics["incremental.phase2_rebuilds"] = mean(st.p2)
	res.metrics["incremental.dir_mb"] = mean(st.dirMB)
	res.metrics["core.webs_rebuilt"] = mean(st.webs)
	res.metrics["core.fallbacks"] = mean(st.fallbacks)
	res.metrics["codegen.words"] = mean(st.words)
	res.metrics["trace.overhead_ms"] = median(sub(st.traced, st.untraced))
	if st.totalCPU > 0 {
		res.metrics["runtime.gc_cpu_frac"] = st.gcCPU / st.totalCPU
	}
	for _, name := range []string{"incremental.phase1_rebuilds", "incremental.phase2_rebuilds",
		"core.webs_rebuilt", "core.fallbacks", "codegen.words"} {
		res.counts[kind+"/"+name] = res.metrics[name]
	}
	n := len(st.inc)
	res.report(kind+": in-process ipra.Build(WithBuildDir) p50", median(st.inc), "ms", n)
	res.report(kind+": in-process clean ipra.Build p50", median(st.clean), "ms", n)
	res.report(kind+": replay untraced p50", median(st.untraced), "ms", n)
	res.report(kind+": replay traced p50", median(st.traced), "ms", n)
	res.report(kind+": replayed layer self time p50", median(st.layers), "ms", n)
	for i, v := range st.p2 {
		res.report(fmt.Sprintf("%s #%d: phase-2 rebuilds", kind, i+1), v, "modules", 1)
	}
}

// sub is the element-wise difference a - b.
func sub(a, b []float64) []float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// writeTrace writes the run's spans next to the count ledger.
func writeTrace(e *env, workload string, t *tracer) error {
	path := filepath.Join(e.state, fmt.Sprintf("trace-%s-seed%d.json", workload, e.seed))
	if err := t.writeChrome(path); err != nil {
		return err
	}
	fmt.Printf("perfbench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}
