package ipra

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestPresetRegistry pins the preset registry: names in Table 4 order,
// analyzer wiring per column, and no Strategy set on any preset.
func TestPresetRegistry(t *testing.T) {
	wantNames := []string{"L2", "A", "B", "C", "D", "E", "F"}
	if got := PresetNames(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("PresetNames() = %v, want %v", got, wantNames)
	}

	for _, name := range PresetNames() {
		reg := MustPreset(name)
		if reg.Name != name {
			t.Errorf("MustPreset(%q).Name = %q", name, reg.Name)
		}
		if reg.UseAnalyzer != (name != "L2") {
			t.Errorf("MustPreset(%q).UseAnalyzer = %t", name, reg.UseAnalyzer)
		}
		if reg.WantProfile != (name == "B" || name == "F") {
			t.Errorf("MustPreset(%q).WantProfile = %t", name, reg.WantProfile)
		}
		if reg.Strategy != "" || reg.Analyzer.Strategy != "" {
			t.Errorf("MustPreset(%q) sets Strategy %q/%q, want empty",
				name, reg.Strategy, reg.Analyzer.Strategy)
		}
		byName, err := PresetByName(name)
		if err != nil {
			t.Errorf("PresetByName(%q): %v", name, err)
		} else if !reflect.DeepEqual(byName, reg) {
			t.Errorf("PresetByName(%q) differs from MustPreset(%q)", name, name)
		}
	}

	// Configs is the sweep: registry order minus the baseline.
	sweep := Configs()
	if len(sweep) != 6 {
		t.Fatalf("Configs() has %d entries, want 6", len(sweep))
	}
	for i, c := range sweep {
		if c.Name != wantNames[i+1] {
			t.Errorf("Configs()[%d].Name = %q, want %q", i, c.Name, wantNames[i+1])
		}
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"L2", "l2", "C", "c", "f"} {
		cfg, err := PresetByName(name)
		if err != nil {
			t.Errorf("PresetByName(%q): %v", name, err)
			continue
		}
		if !strings.EqualFold(cfg.Name, name) {
			t.Errorf("PresetByName(%q).Name = %q", name, cfg.Name)
		}
	}
	if _, err := PresetByName("Z"); err == nil {
		t.Error("PresetByName(\"Z\") should fail")
	}
	// Registry values are fresh copies: mutating one must not leak into
	// the next lookup.
	a, _ := PresetByName("C")
	a.Analyzer.ColoringRegs = 99
	b, _ := PresetByName("C")
	if b.Analyzer.ColoringRegs == 99 {
		t.Error("PresetByName returns shared Config values")
	}
}

func TestMustPreset(t *testing.T) {
	if got := MustPreset("c").Name; got != "C" {
		t.Errorf("MustPreset(\"c\").Name = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPreset(\"Z\") should panic")
		}
	}()
	MustPreset("Z")
}

// TestStrategyAPI covers what is left of the strategy surface: the
// Config.Strategy field accepts "" and "priority" (the paper's coloring,
// the only policy) and fails the build loudly on a removed policy name
// instead of silently building with priority coloring.
func TestStrategyAPI(t *testing.T) {
	ctx := context.Background()
	def, err := Build(ctx, tracedProgram(), MustPreset("C"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := MustPreset("C")
	cfg.Strategy = "priority"
	named, err := Build(ctx, tracedProgram(), cfg)
	if err != nil {
		t.Fatalf("Build with Strategy %q: %v", cfg.Strategy, err)
	}
	if !bytes.Equal(exeBytes(t, def.Exe), exeBytes(t, named.Exe)) {
		t.Error(`Strategy "priority" differs from the default build`)
	}
	for _, name := range []string{"tiling", "firstfit", "spill-everywhere", "Priority"} {
		cfg := MustPreset("C")
		cfg.Strategy = name
		if _, err := Build(ctx, tracedProgram(), cfg); err == nil {
			t.Errorf("Build with Strategy %q should fail", name)
		}
	}
}

// TestBuildEntryPoints exercises the Build options that replaced the
// retired v1 wrappers (Compile, CompileProfiled, CompileIncremental):
// plain, profiled, and incremental builds must agree byte-for-byte.
func TestBuildEntryPoints(t *testing.T) {
	sources := tracedProgram()
	cfg := MustPreset("C")

	plain, err := Build(context.Background(), sources, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pcfg := MustPreset("F")
	prof, err := Build(context.Background(), sources, pcfg, WithProfile(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Train == nil {
		t.Error("profiled Build recorded no training run")
	}

	dir := t.TempDir()
	incr, err := Build(context.Background(), sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if incr.Incremental == nil {
		t.Error("incremental Build recorded no outcome")
	}
	if !bytes.Equal(exeBytes(t, plain.Exe), exeBytes(t, incr.Exe)) {
		t.Error("incremental Build output differs from in-memory Build output")
	}
}

// TestBuildWithBuildDir covers the incremental option on the unified
// entry point: a second identical Build over the same directory reuses
// everything, and the outcome is recorded on the result.
func TestBuildWithBuildDir(t *testing.T) {
	sources := tracedProgram()
	cfg := MustPreset("C")
	dir := t.TempDir()

	clean, err := Build(context.Background(), sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Incremental == nil {
		t.Fatal("WithBuildDir build has no Incremental outcome")
	}
	if clean.Incremental.Phase1Rebuilds != len(sources) {
		t.Errorf("clean build phase-1 rebuilds = %d, want %d", clean.Incremental.Phase1Rebuilds, len(sources))
	}

	again, err := Build(context.Background(), sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if again.Incremental.Phase1Rebuilds != 0 || again.Incremental.Phase2Rebuilds != 0 {
		t.Errorf("no-op rebuild recompiled %d/%d modules, want 0/0",
			again.Incremental.Phase1Rebuilds, again.Incremental.Phase2Rebuilds)
	}
	if !bytes.Equal(exeBytes(t, clean.Exe), exeBytes(t, again.Exe)) {
		t.Error("incremental rebuild changed the executable")
	}
}

// TestBuildWithStderr routes the incremental explanations through the
// option.
func TestBuildWithStderr(t *testing.T) {
	var buf bytes.Buffer
	_, err := Build(context.Background(), tracedProgram(), MustPreset("C"),
		WithBuildDir(t.TempDir()), WithStderr(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WithStderr received no explain output")
	}
}
