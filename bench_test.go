// Benchmark harness regenerating the paper's evaluation:
//
//	go test -bench=Table4 .    Table 4 — % cycle improvement over level 2
//	go test -bench=Table5 .    Table 5 — % singleton memory ref reduction
//	go test -bench=. .         everything, plus compiler/analyzer/VM
//	                           throughput benchmarks
//
// Each Table benchmark compiles one Table 3 analog under one configuration
// (A–F), runs it on the PARV simulator, and reports the paper's metric via
// b.ReportMetric; `cmd/ipra-bench` prints the same data as tables.
package ipra_test

import (
	"context"
	"testing"

	"ipra"
	"ipra/internal/benchprogs"
	"ipra/internal/core"
	"ipra/internal/pipeline"
	"ipra/internal/progen"
)

func sourcesOf(b *testing.B, bm benchprogs.Benchmark) []ipra.Source {
	b.Helper()
	files, err := bm.Sources()
	if err != nil {
		b.Fatal(err)
	}
	var out []ipra.Source
	for _, f := range files {
		out = append(out, ipra.Source{Name: f.Name, Text: f.Text})
	}
	return out
}

// measureCell compiles and runs one (benchmark, config) cell plus the L2
// baseline, returning the paper's two percentages.
func measureCell(b *testing.B, bm benchprogs.Benchmark, cfg ipra.Config) (cycleImp, singletonRed float64) {
	b.Helper()
	sources := sourcesOf(b, bm)
	base, err := ipra.Build(context.Background(), sources, ipra.MustPreset("L2"))
	if err != nil {
		b.Fatal(err)
	}
	baseRes, err := base.Run(bm.MaxInstrs, false)
	if err != nil {
		b.Fatal(err)
	}
	var opts []ipra.BuildOption
	if cfg.WantProfile {
		opts = append(opts, ipra.WithProfile(bm.MaxInstrs))
	}
	p, err := ipra.Build(context.Background(), sources, cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.Run(bm.MaxInstrs, false)
	if err != nil {
		b.Fatal(err)
	}
	if res.Exit != baseRes.Exit {
		b.Fatalf("behaviour mismatch: %s exit %d vs L2 %d", cfg.Name, res.Exit, baseRes.Exit)
	}
	cycleImp = pct(baseRes.Stats.Cycles, res.Stats.Cycles)
	singletonRed = pct(baseRes.Stats.SingletonRefs(), res.Stats.SingletonRefs())
	return cycleImp, singletonRed
}

func pct(base, v uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(base) - float64(v)) / float64(base)
}

// BenchmarkTable4 regenerates Table 4: percentage performance improvement
// (simulator cycles, no cache model) over level-2 optimization for
// configurations A–F on every benchmark program.
func BenchmarkTable4(b *testing.B) {
	for _, bm := range benchprogs.All() {
		for _, cfg := range ipra.Configs() {
			b.Run(bm.Name+"/"+cfg.Name, func(b *testing.B) {
				var imp float64
				for i := 0; i < b.N; i++ {
					imp, _ = measureCell(b, bm, cfg)
				}
				b.ReportMetric(imp, "improvement_%")
			})
		}
	}
}

// BenchmarkTable5 regenerates Table 5: percent reduction in dynamic
// singleton memory references over level-2 optimization.
func BenchmarkTable5(b *testing.B) {
	for _, bm := range benchprogs.All() {
		for _, cfg := range ipra.Configs() {
			b.Run(bm.Name+"/"+cfg.Name, func(b *testing.B) {
				var red float64
				for i := 0; i < b.N; i++ {
					_, red = measureCell(b, bm, cfg)
				}
				b.ReportMetric(red, "reduction_%")
			})
		}
	}
}

// BenchmarkWebCensus regenerates the §6.2 web statistics experiment on a
// generated large program (the PA-optimizer shape).
func BenchmarkWebCensus(b *testing.B) {
	mods := progen.Generate(progen.DefaultCensusConfig())
	var sources []ipra.Source
	for _, m := range mods {
		sources = append(sources, ipra.Source{Name: m.Name, Text: []byte(m.Text)})
	}
	var stats core.Stats
	for i := 0; i < b.N; i++ {
		p, err := ipra.Build(context.Background(), sources, ipra.MustPreset("C"))
		if err != nil {
			b.Fatal(err)
		}
		stats = p.Analysis.Stats
	}
	b.ReportMetric(float64(stats.WebsFound), "webs")
	b.ReportMetric(float64(stats.WebsConsidered), "considered")
	b.ReportMetric(float64(stats.WebsColored), "colored")
}

// BenchmarkExtensions is the ablation over the §7 extensions: config C
// alone, plus web re-merging (§7.6.1), plus caller-saves preallocation
// (§7.6.2), and all combined, on every benchmark program. Reported as
// cycle improvement over level 2.
func BenchmarkExtensions(b *testing.B) {
	variants := []struct {
		name  string
		merge bool
		cs    bool
	}{
		{"C", false, false},
		{"C+merge", true, false},
		{"C+callersaves", false, true},
		{"C+both", true, true},
	}
	for _, bm := range benchprogs.All() {
		for _, v := range variants {
			b.Run(bm.Name+"/"+v.name, func(b *testing.B) {
				cfg := ipra.MustPreset("C")
				cfg.Analyzer.MergeWebs = v.merge
				cfg.Analyzer.CallerSavesPreallocation = v.cs
				var imp float64
				for i := 0; i < b.N; i++ {
					imp, _ = measureCell(b, bm, cfg)
				}
				b.ReportMetric(imp, "improvement_%")
			})
		}
	}
}

// BenchmarkCompile measures whole-pipeline compiler throughput on the
// largest hand-written benchmark.
func BenchmarkCompile(b *testing.B) {
	bm, err := benchprogs.ByName("paopt")
	if err != nil {
		b.Fatal(err)
	}
	sources := sourcesOf(b, bm)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ipra.Build(context.Background(), sources, ipra.MustPreset("C")); err != nil {
			b.Fatal(err)
		}
	}
}

// suiteSources loads every benchmark program's modules once.
func suiteSources(b *testing.B) [][]ipra.Source {
	b.Helper()
	var out [][]ipra.Source
	for _, bm := range benchprogs.All() {
		out = append(out, sourcesOf(b, bm))
	}
	return out
}

// benchCompileSuite compiles the whole benchprogs suite under config C,
// fanning across suiteJobs benchmarks at a time with moduleJobs workers
// inside each compile.
func benchCompileSuite(b *testing.B, suiteJobs, moduleJobs int) {
	suite := suiteSources(b)
	cfg := ipra.MustPreset("C")
	cfg.Jobs = moduleJobs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pipeline.ForEach(suiteJobs, len(suite), func(j int) error {
			_, err := ipra.Build(context.Background(), suite[j], cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSequential is the old single-worker pipeline: one
// benchmark at a time, one module at a time.
func BenchmarkCompileSequential(b *testing.B) { benchCompileSuite(b, 1, 1) }

// BenchmarkCompileParallel is the parallel pipeline at full width: all
// benchmarks in flight, modules fanned across GOMAXPROCS. Compare
// against BenchmarkCompileSequential; with GOMAXPROCS >= 4 the wall
// clock should drop by >= 2x (the analyzer and linker stay serial).
func BenchmarkCompileParallel(b *testing.B) { benchCompileSuite(b, 0, 0) }

// BenchmarkAnalyzer isolates the program analyzer (call graph, refsets,
// webs, clusters) on the census-sized program.
func BenchmarkAnalyzer(b *testing.B) {
	mods := progen.Generate(progen.DefaultCensusConfig())
	var sources []ipra.Source
	for _, m := range mods {
		sources = append(sources, ipra.Source{Name: m.Name, Text: []byte(m.Text)})
	}
	p, err := ipra.Build(context.Background(), sources, ipra.MustPreset("L2"))
	if err != nil {
		b.Fatal(err)
	}
	sums := p.Summaries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(context.Background(), sums, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVM measures simulator speed in instructions per second on the
// Dhrystone analog (reported as instrs/op).
func BenchmarkVM(b *testing.B) {
	bm, err := benchprogs.ByName("dhrystone")
	if err != nil {
		b.Fatal(err)
	}
	p, err := ipra.Build(context.Background(), sourcesOf(b, bm), ipra.MustPreset("C"))
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := p.Run(bm.MaxInstrs, false)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Stats.Instrs
	}
	b.ReportMetric(float64(instrs), "instrs")
}
