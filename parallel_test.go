package ipra

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/parv"
	"ipra/internal/pipeline"
)

// exeBytes canonically serializes an executable for comparison, using the
// wire encoding (deterministic by construction, maps included).
func exeBytes(t testing.TB, exe *parv.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// determinismConfigs is the determinism matrix: the baseline plus Table 4 A–F.
func determinismConfigs() []Config {
	return append([]Config{MustPreset("L2")}, Configs()...)
}

// TestParallelCompileDeterminism checks the tentpole guarantee: a
// parallel Build produces byte-identical executables and identical
// analyzer reports to a sequential one, for the baseline and every
// Table 4 configuration.
func TestParallelCompileDeterminism(t *testing.T) {
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
			if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
				t.Errorf("%s/%s: parallel executable differs from sequential", b, cfg.Name)
			}
			if !reflect.DeepEqual(seq.Exe, par.Exe) {
				t.Errorf("%s/%s: parallel executable struct differs from sequential", b, cfg.Name)
			}
			if (seq.Analysis == nil) != (par.Analysis == nil) {
				t.Fatalf("%s/%s: analysis presence differs", b, cfg.Name)
			}
			if seq.Analysis != nil && seq.Analysis.Report() != par.Analysis.Report() {
				t.Errorf("%s/%s: analyzer report differs:\nseq:\n%spar:\n%s",
					b, cfg.Name, seq.Analysis.Report(), par.Analysis.Report())
			}
		}
	}
}

// TestParallelCompileProfiledDeterminism covers the profile-guided path
// (compile, train on the VM, re-analyze, re-compile) the same way.
func TestParallelCompileProfiledDeterminism(t *testing.T) {
	bm, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	sources := benchSources(t, bm)

	seqCfg := MustPreset("F")
	seqCfg.Jobs = 1
	seq, err := Build(context.Background(), sources, seqCfg, WithProfile(bm.MaxInstrs))
	if err != nil {
		t.Fatal(err)
	}

	parCfg := MustPreset("F")
	parCfg.Jobs = 8
	par, err := Build(context.Background(), sources, parCfg, WithProfile(bm.MaxInstrs))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
		t.Error("profiled executable differs between sequential and parallel compilation")
	}
	if seq.Analysis.Report() != par.Analysis.Report() {
		t.Error("profiled analyzer report differs between sequential and parallel compilation")
	}
}

// TestParallelCompileRace saturates the worker pool: every benchmark of
// the suite compiles concurrently, each itself fanning modules across
// workers. Run under -race this checks the phase-1/phase-2 concurrency.
func TestParallelCompileRace(t *testing.T) {
	suite := benchprogs.All()
	err := pipeline.ForEach(4, len(suite), func(i int) error {
		sources := benchSources(t, suite[i])
		cfg := MustPreset("C")
		cfg.Jobs = 8
		_, err := Build(context.Background(), sources, cfg)
		if err != nil {
			return err
		}
		// Second compile of the same program under another
		// configuration while sibling benchmarks are still compiling.
		cfg2 := MustPreset("L2")
		cfg2.Jobs = 8
		_, err = Build(context.Background(), sources, cfg2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
