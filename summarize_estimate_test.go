package ipra

import (
	"context"
	"fmt"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/ir"
	"ipra/internal/opt"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// freshLevel2Estimates is the callee-saves estimate as phase 1 defines
// it: level 2 on a fresh clone of the unoptimized module, never on the
// level-1 scratch the summary comes from. It is the oracle of
// TestSummarizeEstimateMatchesFreshLevel2.
func freshLevel2Estimates(m *ir.Module) map[string]int {
	local := make(map[string]bool)
	for _, g := range m.Globals {
		if g.Scalar && g.Defined && !g.AddrTaken && g.Size <= 4 {
			local[g.Name] = true
		}
	}
	out := make(map[string]int)
	for _, f := range m.Clone().Funcs {
		opt.Level2(f, local, nil)
		out[f.Name] = summary.EstimateCalleeSaves(f)
	}
	return out
}

// TestSummarizeEstimateMatchesFreshLevel2 guards summarizeModule's level-2
// estimate against shortcuts such as reusing the level-1 scratch: on
// progen small and medium (seeds 1-3), every benchmark analog and two
// hand-written functions, each procedure's CalleeSavesNeeded must equal
// the estimate from a fresh clone.
func TestSummarizeEstimateMatchesFreshLevel2(t *testing.T) {
	programs := make(map[string][]Source)
	for _, preset := range []string{"small", "medium"} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg, err := progen.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			var srcs []Source
			for _, m := range progen.Generate(cfg) {
				srcs = append(srcs, Source{Name: m.Name, Text: []byte(m.Text)})
			}
			programs[fmt.Sprintf("%s-seed%d", preset, seed)] = srcs
		}
	}
	for _, b := range benchprogs.All() {
		files, err := b.Sources()
		if err != nil {
			t.Fatal(err)
		}
		var srcs []Source
		for _, f := range files {
			srcs = append(srcs, Source{Name: f.Name, Text: f.Text})
		}
		programs[b.Name] = srcs
	}

	// progen and the benchmark analogs never give a level-2 estimate that
	// differs from the level-1 one. This function does: each round folds
	// one branch on s and merges one pair of blocks, level 1's two rounds
	// merge the blocks around the call, and only level 2 optimizes the
	// merged block and reuses the first a*b + c*d; 1 value crosses the
	// call instead of 5. The test fails unless some estimate moves.
	programs["cse-after-merge"] = []Source{src("cse.mc", `
int h(int v);
int f(int a, int b, int c, int d) {
	int k = 1;
	int s;
	if (k) { s = 2; } else { s = 3; }
	h(a * b + c * d);
	if (s == 2) { s = 4; } else { s = 5; }
	return a * b + c * d + s;
}
`)}
	// One more link in the chain: level 2 on a fresh clone stops after
	// three rounds, before the round that would reuse a*b + c*d, so its
	// estimate stays 5. Level 2 on the level-1 scratch gets five rounds
	// in all and reaches 1, so reusing the scratch fails here.
	programs["cse-after-two-merges"] = []Source{src("cse2.mc", `
int h(int v);
int f(int a, int b, int c, int d) {
	int k = 1;
	int s;
	if (k) { s = 2; } else { s = 3; }
	h(a * b + c * d);
	if (s == 2) { s = 4; } else { s = 5; }
	if (s == 4) { s = 6; } else { s = 7; }
	return a * b + c * d + s;
}
`)}

	procs, moved := 0, 0
	for prog, srcs := range programs {
		for _, s := range srcs {
			m, err := Phase1(s)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog, s.Name, err)
			}
			want := freshLevel2Estimates(m)
			ms := summarizeModule(context.Background(), m)
			for _, rec := range ms.Procs {
				procs++
				if rec.CalleeSavesNeeded != rec.CalleeSavesBase {
					moved++
				}
				if w, ok := want[rec.Name]; !ok {
					t.Errorf("%s: %s has no fresh-clone estimate", prog, rec.Name)
				} else if rec.CalleeSavesNeeded != w {
					t.Errorf("%s: %s: CalleeSavesNeeded = %d, fresh level 2 gives %d", prog, rec.Name, rec.CalleeSavesNeeded, w)
				}
			}
			if len(ms.Procs) != len(want) {
				t.Errorf("%s/%s: %d records for %d functions", prog, s.Name, len(ms.Procs), len(want))
			}
		}
	}
	if moved == 0 {
		t.Error("no procedure's level-2 estimate differs from its level-1 one; the comparison cannot tell the methods apart")
	}
	t.Logf("%d procedures compared, %d with a level-2 estimate unlike the level-1 one", procs, moved)
}
