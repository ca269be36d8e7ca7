package ipra

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"ipra/internal/telemetry"
)

// tracedProgram is a small two-module program with cross-module globals
// (so the analyzer finds webs to color and clusters to form) and enough
// calls in a loop for a profiled training run to be meaningful.
func tracedProgram() []Source {
	return []Source{
		src("main.mc", `
extern int total;
extern int step;
int bump(int x);
int main() {
	int i;
	total = 0;
	step = 3;
	for (i = 0; i < 1000; i++) {
		bump(i);
	}
	return total & 127;
}
`),
		src("lib.mc", `
int total;
int step;
int bump(int x) {
	total += step + (x & 1);
	return total;
}
`),
	}
}

// chromeEvent mirrors the subset of the Chrome trace-event format the
// exporter emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// span returns the half-open interval of an X event.
func (e *chromeEvent) end() float64 { return e.Ts + e.Dur }

// contains reports whether inner lies within outer, with a small epsilon
// for the nanosecond -> float microsecond conversion.
func contains(outer, inner *chromeEvent) bool {
	const eps = 1e-6
	return outer.Ts-eps <= inner.Ts && inner.end() <= outer.end()+eps
}

// validateTrace checks the trace is structurally a Chrome trace: every
// event carries a name and a known phase, and the X slices on each track
// are properly nested (no partial overlap). It returns the X events by
// name and the final counter values.
func validateTrace(t *testing.T, data []byte) (map[string][]*chromeEvent, map[string]float64) {
	t.Helper()
	var tr chromeFile
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	byName := make(map[string][]*chromeEvent)
	counters := make(map[string]float64)
	perTid := make(map[int][]*chromeEvent)
	for i := range tr.TraceEvents {
		e := &tr.TraceEvents[i]
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Errorf("slice %q has negative duration %v", e.Name, e.Dur)
			}
			byName[e.Name] = append(byName[e.Name], e)
			perTid[e.Tid] = append(perTid[e.Tid], e)
		case "i":
			byName[e.Name] = append(byName[e.Name], e)
		case "C":
			if v, ok := e.Args["value"].(float64); ok {
				counters[e.Name] = v
			} else {
				t.Errorf("counter %q has no numeric value", e.Name)
			}
		default:
			t.Errorf("event %q has unexpected phase %q", e.Name, e.Ph)
		}
	}

	// Chrome renders each tid as one track of nested slices; partial
	// overlap within a track would render garbage.
	const eps = 1e-6
	for tid, evs := range perTid {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []*chromeEvent
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].end() <= e.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && !contains(stack[len(stack)-1], e) {
				top := stack[len(stack)-1]
				t.Errorf("tid %d: slice %q [%v,%v] partially overlaps %q [%v,%v]",
					tid, e.Name, e.Ts, e.end(), top.Name, top.Ts, top.end())
			}
			stack = append(stack, e)
		}
	}
	return byName, counters
}

// requireNested asserts every slice named child lies inside some slice
// named parent.
func requireNested(t *testing.T, byName map[string][]*chromeEvent, parent, child string) {
	t.Helper()
	parents := byName[parent]
	children := byName[child]
	if len(children) == 0 {
		t.Errorf("no %q spans in trace", child)
		return
	}
	for _, c := range children {
		ok := false
		for _, p := range parents {
			if contains(p, c) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%q span [%v,%v] not nested inside any %q span", child, c.Ts, c.end(), parent)
		}
	}
}

// nestedInAny reports whether e lies inside one of the slices.
func nestedInAny(outer []*chromeEvent, e *chromeEvent) bool {
	for _, o := range outer {
		if contains(o, e) {
			return true
		}
	}
	return false
}

// checkModuleSubSpans asserts, on the report tree, that every phase-1
// module's summarize span has exactly the children level1, summary and
// estimate, and every phase-2 module span exactly directives, opt and
// codegen; and that there are want1 and want2 such modules.
func checkModuleSubSpans(t *testing.T, rep *telemetry.Report, want1, want2 int) {
	t.Helper()
	names := func(s *telemetry.ReportSpan) []string {
		var out []string
		for _, c := range s.Children {
			out = append(out, c.Name)
		}
		return out
	}
	same := func(got []string, want ...string) bool {
		sort.Strings(got)
		sort.Strings(want)
		return strings.Join(got, ",") == strings.Join(want, ",")
	}
	n1, n2 := 0, 0
	// phase is the nearest enclosing phase span; modules may sit under
	// pool "worker" spans.
	var walk func(ss []*telemetry.ReportSpan, phase string)
	walk = func(ss []*telemetry.ReportSpan, phase string) {
		for _, m := range ss {
			switch {
			case m.Name == "phase1" || m.Name == "phase2":
				phase = m.Name
			case m.Name == "module" && phase == "phase1":
				n1++
				var sum *telemetry.ReportSpan
				for _, c := range m.Children {
					if c.Name == "summarize" {
						sum = c
					}
				}
				if sum == nil {
					t.Errorf("phase-1 module %v has no summarize span", m.Attrs["module"])
				} else if got := names(sum); !same(got, "level1", "summary", "estimate") {
					t.Errorf("phase-1 module %v: summarize children %v, want level1, summary, estimate", m.Attrs["module"], got)
				}
			case m.Name == "module" && phase == "phase2":
				n2++
				if got := names(m); !same(got, "directives", "opt", "codegen") {
					t.Errorf("phase-2 module %v: children %v, want directives, opt, codegen", m.Attrs["module"], got)
				}
			}
			walk(m.Children, phase)
		}
	}
	walk(rep.Spans, "")
	if n1 != want1 || n2 != want2 {
		t.Errorf("module spans with sub-spans: %d in phase 1, %d in phase 2; want %d and %d", n1, n2, want1, want2)
	}
}

// TestTracedBuildChromeTrace is the golden telemetry test: a traced
// profile-guided ConfigF build must export a well-formed Chrome
// trace-event JSON with properly nested spans for both compiler phases,
// the summary computation, every analyzer stage, and the link, alongside
// the analyzer's counters.
func TestTracedBuildChromeTrace(t *testing.T) {
	cfg := MustPreset("F")
	cfg.Jobs = 4

	tr := telemetry.New()
	res, err := Build(context.Background(), tracedProgram(), cfg, WithTelemetry(tr), WithProfile(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Train == nil {
		t.Fatal("profiled build returned no training run")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	byName, counters := validateTrace(t, buf.Bytes())

	// Top-level shape: one build span holding two compile passes (train +
	// final) and the training run.
	if n := len(byName["build"]); n != 1 {
		t.Errorf("build spans = %d, want 1", n)
	}
	if n := len(byName["compile"]); n != 2 {
		t.Errorf("compile spans = %d, want 2 (train + final)", n)
	}
	requireNested(t, byName, "build", "compile")
	requireNested(t, byName, "build", "train-run")

	// Pipeline stages nest inside a compile pass.
	for _, stage := range []string{"phase1", "analyze", "phase2", "link"} {
		requireNested(t, byName, "compile", stage)
	}
	// Per-module spans: 2 modules in phase 1 of the training pass, and 2
	// in phase 2 of each pass.
	if n := len(byName["module"]); n != 6 {
		t.Errorf("module spans = %d, want 6 (2 modules x (1 phase-1 + 2 phase-2 passes))", n)
	}
	// The frontend and summary computation run per module in the training
	// pass only: phase 1 depends only on the sources, so the final pass
	// reuses the training pass's phase-1 output.
	requireNested(t, byName, "module", "frontend")
	requireNested(t, byName, "module", "summarize")
	if n := len(byName["frontend"]); n != 2 {
		t.Errorf("frontend spans = %d, want 2 (the final pass reuses the training pass's phase 1)", n)
	}
	if n := len(byName["summarize"]); n != 2 {
		t.Errorf("summarize spans = %d, want 2 (the final pass reuses the training pass's phase 1)", n)
	}

	// Every analyzer stage nests inside the analyze span. Phase 2 has
	// "directives" spans of its own, one per module and pass; the other
	// two are the analyzer's, one per pass.
	for _, stage := range []string{"callgraph", "refsets", "webs", "coloring", "clusters"} {
		requireNested(t, byName, "analyze", stage)
	}
	var analyzerDirectives []*chromeEvent
	phase2Directives := 0
	for _, e := range byName["directives"] {
		if nestedInAny(byName["phase2"], e) {
			phase2Directives++
		} else {
			analyzerDirectives = append(analyzerDirectives, e)
		}
	}
	requireNested(t, map[string][]*chromeEvent{"analyze": byName["analyze"], "directives": analyzerDirectives}, "analyze", "directives")
	if a := len(analyzerDirectives); a != 2 || phase2Directives != 4 {
		t.Errorf("directives spans: %d in the analyzer, %d in phase 2; want 2 and 4", a, phase2Directives)
	}

	// Each module's compile work splits into sub-spans: summarize into
	// level1, summary and estimate in phase 1, and the module span into
	// directives, opt and codegen in phase 2.
	checkModuleSubSpans(t, res.Report, 2, 4)

	for _, c := range []string{"analyzer.webs", "analyzer.webs_colored"} {
		if _, ok := counters[c]; !ok {
			t.Errorf("counter %q missing from trace", c)
		}
	}

	// The structured report sees the same build.
	if res.Report == nil {
		t.Fatal("BuildResult.Report is nil with telemetry attached")
	}
	if res.Report.Find("build") == nil {
		t.Error("report has no build span")
	}
	if got, want := res.Report.Counters["analyzer.webs"], counters["analyzer.webs"]; float64(got) != want {
		t.Errorf("report analyzer.webs = %d, trace has %v", got, want)
	}
	var rbuf bytes.Buffer
	if err := res.Report.WriteJSON(&rbuf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rbuf.Bytes()) {
		t.Error("report JSON does not parse")
	}
}

// TestBuildKeepsNoStateAcrossCalls pins that Build keeps no phase-1
// state between calls: two identical builds each run the frontend and the
// summary computation once per module. A profiled build into an empty
// build directory runs them once per module in total, because its final
// pass takes the training pass's phase-1 output through the build-dir
// phase-1 hook.
func TestBuildKeepsNoStateAcrossCalls(t *testing.T) {
	sources := tracedProgram()
	traced := func(t *testing.T, cfg Config, opts ...BuildOption) (*BuildResult, map[string][]*chromeEvent) {
		t.Helper()
		tr := telemetry.New()
		res, err := Build(context.Background(), sources, cfg, append(opts, WithTelemetry(tr))...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		byName, _ := validateTrace(t, buf.Bytes())
		return res, byName
	}

	for build := 1; build <= 2; build++ {
		_, byName := traced(t, MustPreset("C"))
		for _, name := range []string{"frontend", "summarize"} {
			if n := len(byName[name]); n != len(sources) {
				t.Errorf("build %d: %s spans = %d, want %d (one per module)", build, name, n, len(sources))
			}
		}
	}

	res, byName := traced(t, MustPreset("F"), WithProfile(10_000_000), WithBuildDir(t.TempDir()))
	for _, name := range []string{"frontend", "summarize"} {
		if n := len(byName[name]); n != len(sources) {
			t.Errorf("profiled build-dir build: %s spans = %d, want %d (phase 1 once per module)", name, n, len(sources))
		}
	}
	clean, err := Build(context.Background(), sources, MustPreset("F"), WithProfile(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exeBytes(t, clean.Exe), exeBytes(t, res.Exe)) {
		t.Error("profiled build-dir build differs from the clean profiled build")
	}
}

// TestNoBuildDirDoesNoPersistenceWork pins that a Build without a build
// directory runs the driver with no store: no persist span, and the
// analyzer keeps no incremental state (so no invalidate-analyzer event
// for its missing state). Every module's phase-1 invalidation names the
// missing directory. The same build into a directory records both.
func TestNoBuildDirDoesNoPersistenceWork(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		tr := telemetry.New()
		res, err := Build(context.Background(), tracedProgram(), MustPreset("C"), WithBuildDir(dir), WithTelemetry(tr))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		byName, _ := validateTrace(t, buf.Bytes())
		want := 1
		if dir == "" {
			want = 0
			if n, m := len(byName["invalidate-phase1"]), len(tracedProgram()); n != m {
				t.Errorf("no-dir build: invalidate-phase1 events = %d, want %d", n, m)
			}
			for _, ev := range byName["invalidate-phase1"] {
				if r := ev.Args["reason"]; r != "no build directory" {
					t.Errorf("no-dir build: invalidate-phase1 reason = %v, want \"no build directory\"", r)
				}
			}
		}
		if (res.Incremental != nil) != (dir != "") {
			t.Errorf("build dir %q: Incremental = %+v", dir, res.Incremental)
		}
		for _, name := range []string{"persist", "invalidate-analyzer"} {
			if n := len(byName[name]); n != want {
				t.Errorf("build dir %q: %s events = %d, want %d", dir, name, n, want)
			}
		}
	}
}

// TestTracedParallelBuildDeterminism runs a traced wide-parallel build
// and an untraced sequential build of the same program and requires
// byte-identical executables: telemetry must never perturb output, and
// under -race this doubles as the tracer's concurrency test on the real
// build path.
func TestTracedParallelBuildDeterminism(t *testing.T) {
	sources := tracedProgram()

	seqCfg := MustPreset("C")
	seqCfg.Jobs = 1
	seq, err := Build(context.Background(), sources, seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := MustPreset("C")
	parCfg.Jobs = 8
	tr := telemetry.New()
	par, err := Build(context.Background(), sources, parCfg, WithTelemetry(tr))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
		t.Error("traced parallel build produced a different executable than the untraced sequential build")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	byName, _ := validateTrace(t, buf.Bytes())
	if len(byName["worker"]) == 0 {
		t.Error("parallel traced build recorded no worker spans")
	}
}

// TestDisabledTelemetryZeroAllocOnBuildPath pins the nil-sink fast path
// at the API boundary: the exact telemetry calls the build pipeline makes
// must not allocate when no tracer is attached.
func TestDisabledTelemetryZeroAllocOnBuildPath(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, span := telemetry.StartSpan(ctx, "phase1")
		span.SetStr("module", "main.mc")
		span.SetInt("jobs", 8)
		telemetry.Count(sctx, "incremental.analyzer_incremental", 1)
		ev := telemetry.Event(sctx, "invalidate-phase1")
		ev.SetStr("reason", "source changed")
		ev.End()
		span.End()
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocates %.1f times per span on the build path, want 0", allocs)
	}
}

// BenchmarkCompileParallelTraced is BenchmarkCompileParallel with a live
// tracer attached; compare allocs/op and ns/op against the untraced
// variant to see the cost of tracing (and its absence when disabled).
func BenchmarkCompileParallelTraced(b *testing.B) {
	sources := tracedProgram()
	cfg := MustPreset("C")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), sources, cfg, WithTelemetry(telemetry.New())); err != nil {
			b.Fatal(err)
		}
	}
}
