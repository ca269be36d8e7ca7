package ipra

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/core"
	"ipra/internal/progen"
)

var updateStrategyGolden = flag.Bool("update-strategy", false, "rewrite testdata/strategy_goldens.json from the current default allocator")

const strategyGoldenPath = "testdata/strategy_goldens.json"

// goldenPrograms returns the fixed program set the default-strategy golden
// hashes are pinned over: the dhrystone benchmark analog plus a small
// generated program with recursion, statics, and indirect calls.
func goldenPrograms(t testing.TB) map[string][]Source {
	t.Helper()
	out := make(map[string][]Source)

	b, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	files, err := b.Sources()
	if err != nil {
		t.Fatal(err)
	}
	var dhry []Source
	for _, f := range files {
		dhry = append(dhry, Source{Name: f.Name, Text: f.Text})
	}
	out["dhrystone"] = dhry

	mods := progen.Generate(progen.Config{
		Seed: 424242, Modules: 6, ProcsPerModule: 9, Globals: 48,
		SubsystemSize: 5, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 1,
	})
	var gen []Source
	for _, m := range mods {
		gen = append(gen, Source{Name: m.Name, Text: []byte(m.Text)})
	}
	out["progen6x9"] = gen
	return out
}

func exeHash(t testing.TB, res *BuildResult) string {
	t.Helper()
	sum := sha256.Sum256(exeBytes(t, res.Exe))
	return hex.EncodeToString(sum[:])
}

// TestDefaultStrategyGoldens pins the default (paper priority-coloring)
// allocation strategy byte-for-byte: the executable hashes under every
// preset configuration must match the goldens captured from the
// pre-Strategy-refactor allocator. Any diff here means the refactor (or a
// later change) altered the default allocator's output; if that is
// intentional, refresh with `go test -run TestDefaultStrategyGoldens
// -update-strategy`.
func TestDefaultStrategyGoldens(t *testing.T) {
	programs := goldenPrograms(t)
	got := make(map[string]string)
	for prog, sources := range programs {
		for _, name := range PresetNames() {
			cfg, err := PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var opts []BuildOption
			if cfg.WantProfile {
				// Keep the training runs cheap; the budget is part of the
				// pinned configuration.
				opts = append(opts, WithProfile(5_000_000))
			}
			res, err := Build(context.Background(), sources, cfg, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog, name, err)
			}
			got[prog+"/"+name] = exeHash(t, res)
		}
	}

	checkExeGoldens(t, strategyGoldenPath, got, *updateStrategyGolden, "-update-strategy")
}

// checkExeGoldens compares got, executable hashes keyed by program and
// configuration, with the golden file at path. With update set it
// rewrites the file from got instead; updateFlag names the flag that
// does so.
func checkExeGoldens(t *testing.T, path string, got map[string]string, update bool, updateFlag string) {
	t.Helper()
	if update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range keys {
			comma := ","
			if i == len(keys)-1 {
				comma = ""
			}
			fmt.Fprintf(&buf, "  %q: %q%s\n", k, got[k], comma)
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with %s)", err, updateFlag)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: no measurement for golden entry", k)
		} else if g != w {
			t.Errorf("%s: executable hash %s differs from golden %s", k, g, w)
		}
	}
}

// TestNoPromotionMatchesL2 pins the lower bound of the analyzer's
// configuration space: with spill motion off and no web promotion, every
// procedure keeps the standard linkage convention, so each Table 4
// column must compile to exactly the level-2 executable — profiled
// columns included, since call counts only steer what is switched off.
func TestNoPromotionMatchesL2(t *testing.T) {
	ctx := context.Background()
	for prog, sources := range goldenPrograms(t) {
		base, err := Build(ctx, sources, MustPreset("L2"))
		if err != nil {
			t.Fatal(err)
		}
		want := exeBytes(t, base.Exe)
		for _, cfg := range Configs() {
			cfg.Analyzer.SpillMotion = false
			cfg.Analyzer.Promotion = core.PromoteNone
			var opts []BuildOption
			if cfg.WantProfile {
				opts = append(opts, WithProfile(5_000_000))
			}
			res, err := Build(ctx, sources, cfg, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog, cfg.Name, err)
			}
			if !bytes.Equal(exeBytes(t, res.Exe), want) {
				t.Errorf("%s/%s: no-promotion, no-spill-motion executable differs from L2", prog, cfg.Name)
			}
		}
	}
}
