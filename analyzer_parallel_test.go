package ipra

import (
	"bytes"
	"context"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/callgraph"
	"ipra/internal/core"
	"ipra/internal/progen"
	"ipra/internal/refsets"
	"ipra/internal/webs"
)

// TestAnalyzerParallelDeterminism is the golden-directive test for the
// parallel bitset analyzer: across the baseline and every Table 4
// configuration, an analyzer fanning per-variable web construction over 8
// workers must emit byte-identical pdb directives — and therefore
// byte-identical final executables — to the sequential analyzer.
func TestAnalyzerParallelDeterminism(t *testing.T) {
	for _, b := range []string{"dhrystone", "crtool"} {
		bm, err := benchprogs.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		sources := benchSources(t, bm)
		for _, cfg := range determinismConfigs() {
			seqCfg := cfg
			seqCfg.Jobs = 1
			parCfg := cfg
			parCfg.Jobs = 8

			seq, err := Build(context.Background(), sources, seqCfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", b, cfg.Name, err)
			}
			par, err := Build(context.Background(), sources, parCfg)
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", b, cfg.Name, err)
			}

			if (seq.DB == nil) != (par.DB == nil) {
				t.Fatalf("%s/%s: database presence differs", b, cfg.Name)
			}
			if seq.DB != nil && seq.DB.Hash() != par.DB.Hash() {
				t.Errorf("%s/%s: directive database hash differs between jobs=1 and jobs=8",
					b, cfg.Name)
			}
			if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
				t.Errorf("%s/%s: parallel-analyzer executable differs from sequential", b, cfg.Name)
			}
		}
	}
}

// TestAnalyzerParallelDeterminismSynth covers a call graph far larger than
// the benchmark programs: the 2000-procedure synthesized workload, analyzed
// sequentially and with a full worker fan-out, must produce identical
// directive databases and web structures.
func TestAnalyzerParallelDeterminismSynth(t *testing.T) {
	cfg, err := progen.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	sums := progen.GenerateSummaries(cfg)

	seqOpt := core.DefaultOptions()
	seqOpt.Jobs = 1
	seq, err := core.Analyze(context.Background(), sums, seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	parOpt := core.DefaultOptions()
	parOpt.Jobs = 8
	par, err := core.Analyze(context.Background(), sums, parOpt)
	if err != nil {
		t.Fatal(err)
	}

	if seq.DB.Hash() != par.DB.Hash() {
		t.Error("synthesized program: directive database differs between jobs=1 and jobs=8")
	}
	if len(seq.Webs) != len(par.Webs) {
		t.Fatalf("web count differs: %d sequential, %d parallel", len(seq.Webs), len(par.Webs))
	}
	for i, sw := range seq.Webs {
		pw := par.Webs[i]
		if sw.ID != pw.ID || sw.Var != pw.Var || sw.Color != pw.Color || !sw.Nodes.Equal(pw.Nodes) {
			t.Fatalf("web %d differs between sequential and parallel construction", sw.ID)
		}
	}
}

// TestParallelWebBuilderRace drives the per-variable web fan-out directly
// on the 2000-procedure synthesized call graph. Run under -race it checks
// that the workers share only read-only state.
func TestParallelWebBuilderRace(t *testing.T) {
	cfg, err := progen.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	sums := progen.GenerateSummaries(cfg)
	g, err := callgraph.Build(sums)
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	sets := refsets.Compute(g, refsets.EligibleGlobals(g))

	ws := webs.IdentifyJobs(g, sets, 8)
	ref := webs.IdentifyJobs(g, sets, 1)
	if len(ws) == 0 {
		t.Fatal("no webs found on the synthesized program")
	}
	if len(ws) != len(ref) {
		t.Fatalf("web count differs: %d with 8 workers, %d sequential", len(ws), len(ref))
	}
	for i := range ws {
		if ws[i].Var != ref[i].Var || !ws[i].Nodes.Equal(ref[i].Nodes) {
			t.Fatalf("web %d differs between worker counts", ws[i].ID)
		}
	}
}
