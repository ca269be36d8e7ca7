package ipra

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/core"
	"ipra/internal/incremental"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

// incrementalTestSources is a three-module program with two cross-module
// globals: acc is hot everywhere (always web-colored under the analyzer
// configurations), aux is cold in lib2.mc until the "coloring" edit below
// turns it hot there, which changes its web's promotion decisions.
func incrementalTestSources() []Source {
	return []Source{
		{Name: "main.mc", Text: []byte(`
extern int acc;
extern int aux;
int work(int n);
int mix(int n);
int main() {
	int i;
	for (i = 0; i < 40; i++) { acc += work(i); }
	for (i = 0; i < 8; i++) { acc += mix(i); }
	return (acc + aux) & 255;
}
`)},
		{Name: "lib1.mc", Text: []byte(`
int acc;
int aux;
int work(int n) {
	int j; int t;
	t = 0;
	for (j = 0; j < 5; j++) { t += n + j; acc += 1; }
	return t;
}
`)},
		{Name: "lib2.mc", Text: []byte(`
extern int acc;
extern int aux;
int mix(int n) {
	return acc + n;
}
`)},
	}
}

// editSource returns sources with one module's text substituted.
func editSource(t *testing.T, sources []Source, name, old, new string) []Source {
	t.Helper()
	out := append([]Source(nil), sources...)
	for i, s := range out {
		if s.Name != name {
			continue
		}
		if !strings.Contains(string(s.Text), old) {
			t.Fatalf("%s does not contain %q", name, old)
		}
		out[i] = Source{Name: name, Text: []byte(strings.Replace(string(s.Text), old, new, 1))}
		return out
	}
	t.Fatalf("no module %s", name)
	return nil
}

// canonicalExe is the canonical on-disk encoding — the byte-identity the
// incremental subsystem guarantees against a clean build.
func canonicalExe(t *testing.T, exe *parv.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const incrTestMaxInstrs = 20_000_000

// compileBoth produces the clean-build reference and the incremental build
// of the same sources under one configuration, including the profile-
// guided two-pass flow for configurations B and F.
func compileBoth(t *testing.T, sources []Source, cfg Config, buildDir string, explain *bytes.Buffer) (clean, incr *Program, out *incremental.Outcome) {
	t.Helper()
	ctx := context.Background()
	var common []BuildOption
	if cfg.WantProfile {
		common = append(common, WithProfile(incrTestMaxInstrs))
	}
	cleanRes, err := Build(ctx, sources, cfg, common...)
	if err != nil {
		t.Fatalf("%s clean: %v", cfg.Name, err)
	}
	iopts := append([]BuildOption{WithBuildDir(buildDir)}, common...)
	if explain != nil {
		iopts = append(iopts, WithStderr(explain))
	}
	incrRes, err := Build(ctx, sources, cfg, iopts...)
	if err != nil {
		t.Fatalf("%s incremental: %v", cfg.Name, err)
	}
	return cleanRes.Program, incrRes.Program, incrRes.Incremental
}

// assertIdentical checks the load-bearing invariant: executable bytes and
// run report of the incremental build equal the clean build's.
func assertIdentical(t *testing.T, label string, clean, incr *Program) {
	t.Helper()
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
		t.Errorf("%s: incremental executable differs from clean build", label)
		return
	}
	if clean.DB.Hash() != incr.DB.Hash() {
		t.Errorf("%s: incremental program database differs from clean build", label)
	}
	cleanRun, err := clean.Run(incrTestMaxInstrs, false)
	if err != nil {
		t.Fatalf("%s: clean run: %v", label, err)
	}
	incrRun, err := incr.Run(incrTestMaxInstrs, false)
	if err != nil {
		t.Fatalf("%s: incremental run: %v", label, err)
	}
	if !reflect.DeepEqual(cleanRun, incrRun) {
		t.Errorf("%s: run report differs:\nclean: %+v\nincr:  %+v", label, cleanRun, incrRun)
	}
}

// TestIncrementalMatchesCleanAcrossEdits is the acceptance-criteria
// differential: for the baseline and every Table 4 configuration, an
// incremental rebuild must produce a byte-identical executable and run
// report to a clean build after (a) no edit, (b) a body-only edit that
// changes no directives, and (c) an edit that changes a global's web
// coloring — with case (b) phase-2-recompiling exactly the edited module.
func TestIncrementalMatchesCleanAcrossEdits(t *testing.T) {
	for _, cfg := range determinismConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			dir := t.TempDir()
			sources := incrementalTestSources()

			// ---- (clean start) First incremental build vs clean build.
			clean, incr, out := compileBoth(t, sources, cfg, dir, nil)
			assertIdentical(t, cfg.Name+"/initial", clean, incr)
			if out.Phase1Rebuilds != len(sources) || out.Phase2Rebuilds != len(sources) {
				t.Errorf("initial build: rebuilds = %d/%d, want all", out.Phase1Rebuilds, out.Phase2Rebuilds)
			}

			// ---- (a) No edit: nothing rebuilds, database identical.
			prevDB := incr.DB.Hash()
			clean, incr, out = compileBoth(t, sources, cfg, dir, nil)
			assertIdentical(t, cfg.Name+"/no-op", clean, incr)
			if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 0 {
				for _, a := range out.Actions {
					t.Logf("action: %+v", a)
				}
				t.Errorf("no-op rebuild: rebuilds = %d/%d, want 0/0", out.Phase1Rebuilds, out.Phase2Rebuilds)
			}
			if incr.DB.Hash() != prevDB {
				t.Error("no-op rebuild computed a different program database")
			}

			// ---- (b) Body-only edit: a changed loop bound alters code but
			// no summary record (frequency weights depend on loop depth,
			// not trip count), so no directive changes: exactly the edited
			// module re-runs phase 2.
			edited := editSource(t, sources, "lib1.mc", "j < 5", "j < 6")
			var explain bytes.Buffer
			clean, incr, out = compileBoth(t, edited, cfg, dir, &explain)
			assertIdentical(t, cfg.Name+"/body-edit", clean, incr)
			if incr.DB.Hash() != prevDB {
				t.Fatalf("body-only edit changed the program database; test premise broken:\n%s", &explain)
			}
			if out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 ||
				!out.Actions[1].Phase2Rebuilt || out.Actions[0].Phase2Rebuilt || out.Actions[2].Phase2Rebuilt {
				t.Errorf("body edit: want exactly lib1.mc rebuilt, got:\n%s", &explain)
			}
			if !strings.Contains(explain.String(), "lib1.mc: phase 1 recompiled (source changed); phase 2 recompiled (source changed)") {
				t.Errorf("explain output missing body-edit rationale:\n%s", &explain)
			}

			// ---- (c) Web-coloring edit: lib2.mc gains its first (and hot)
			// references to aux, so aux's web grows to cover mix and the
			// coloring decisions recorded in the directives change. Modules
			// that consult the affected directives re-run phase 2 even
			// though their sources are untouched.
			colored := editSource(t, edited, "lib2.mc", "return acc + n;",
				"int j;\n\tfor (j = 0; j < 30; j++) { aux += j; }\n\treturn acc + aux + n;")
			explain.Reset()
			clean, incr, out = compileBoth(t, colored, cfg, dir, &explain)
			assertIdentical(t, cfg.Name+"/coloring-edit", clean, incr)
			// The cross-module premise assertions need promotion enabled:
			// under PromoteNone there is no web coloring to change.
			if cfg.UseAnalyzer && cfg.Analyzer.Promotion != core.PromoteNone {
				if incr.DB.Hash() == prevDB {
					t.Fatal("coloring edit did not change the program database; test premise broken")
				}
				// main.mc's source is untouched; its phase 2 must have been
				// invalidated purely by the directive diff.
				a := out.Actions[0]
				if a.Phase1Rebuilt {
					t.Error("coloring edit must not re-run phase 1 of main.mc")
				}
				if !a.Phase2Rebuilt || !strings.Contains(a.Phase2Reason, "directives changed") {
					t.Errorf("main.mc phase 2: rebuilt=%v reason=%q, want directive-diff invalidation\n%s",
						a.Phase2Rebuilt, a.Phase2Reason, &explain)
				}
			}
		})
	}
}

// TestIncrementalConfigSwitchSharesPhase1 switches configurations over one
// build directory: phase-1 state is configuration-independent, so only
// phase 2 re-runs, driven entirely by the directive diff.
func TestIncrementalConfigSwitchSharesPhase1(t *testing.T) {
	dir := t.TempDir()
	sources := incrementalTestSources()
	ctx := context.Background()
	if _, err := Build(ctx, sources, MustPreset("L2"), WithBuildDir(dir)); err != nil {
		t.Fatal(err)
	}
	clean, err := Build(ctx, sources, MustPreset("C"))
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Build(ctx, sources, MustPreset("C"), WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if incr.Incremental.Phase1Rebuilds != 0 {
		t.Errorf("config switch re-ran phase 1 (%d modules)", incr.Incremental.Phase1Rebuilds)
	}
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
		t.Error("config-switch incremental build differs from clean config C build")
	}
}

// TestIncrementalStateDirIsolation makes sure two programs can't share a
// build directory by accident without corruption: the second program sees
// hash misses, rebuilds everything, and still links correctly.
func TestIncrementalStateDirIsolation(t *testing.T) {
	dir := t.TempDir()
	sources := incrementalTestSources()
	ctx := context.Background()
	if _, err := Build(ctx, sources, MustPreset("L2"), WithBuildDir(dir)); err != nil {
		t.Fatal(err)
	}
	other := []Source{
		{Name: "solo.mc", Text: []byte("int main() { return 7; }")},
	}
	p, err := Build(ctx, other, MustPreset("L2"), WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Incremental; out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 {
		t.Errorf("rebuilds = %d/%d, want 1/1", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
	res, err := p.Run(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 7 {
		t.Errorf("exit = %d, want 7", res.Exit)
	}
}

// TestIncrementalBenchmarkSuite compiles a real Table 3 benchmark through
// the incremental path and checks identity with the clean build, then a
// whitespace-only touch of one module: the touched module recompiles, and
// the executable bytes stay identical (the same check the CI smoke job
// performs through the mcc CLI).
func TestIncrementalBenchmarkSuite(t *testing.T) {
	bm, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	sources := benchSources(t, bm)
	dir := t.TempDir()
	cfg := MustPreset("C")
	ctx := context.Background()

	clean, err := Build(ctx, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Build(ctx, sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
		t.Fatal("incremental dhrystone differs from clean build")
	}

	touched := append([]Source(nil), sources...)
	touched[1] = Source{Name: touched[1].Name, Text: append([]byte(nil), touched[1].Text...)}
	touched[1].Text = append(touched[1].Text, '\n')
	incr2, err := Build(ctx, touched, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if out := incr2.Incremental; out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 {
		t.Errorf("touch rebuild: %d/%d, want 1/1", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr2.Exe)) {
		t.Error("whitespace touch changed the executable bytes")
	}
}

// TestPhase2RebuildsAreMinimal is the differential minimality check of the
// phase-2 views on progen medium/C, under the edits `ipra-progen -preset
// medium -edit KIND -edit-seed N` writes for N = 11, 12, 13: phase 2 must
// recompile every module whose clean-build object changed (soundness),
// and for body and call edits exactly those (minimality). A cycle edit
// adds a module-local static and re-runs the whole analyzer, which can
// move directives that end up not changing the object, so for it the two
// sets are only logged.
func TestPhase2RebuildsAreMinimal(t *testing.T) {
	ctx := context.Background()
	cfg := MustPreset("C")
	pcfg, err := progen.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	base := progen.Generate(pcfg)
	baseDir := t.TempDir()
	prev, err := Build(ctx, progenSources(base), cfg, WithBuildDir(baseDir))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(11); seed <= 13; seed++ {
		for _, kind := range []progen.EditKind{progen.EditBody, progen.EditCall, progen.EditCycle} {
			label := fmt.Sprintf("edit-seed %d %s", seed, kind)
			edited, desc := progen.Mutate(pcfg, base, seed, kind)
			if strings.HasPrefix(desc, "no-op (") {
				t.Fatalf("%s: edit did not apply: %s", label, desc)
			}
			dir := t.TempDir()
			copyDir(t, baseDir, dir)
			incr, err := Build(ctx, progenSources(edited), cfg, WithBuildDir(dir))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			clean, err := Build(ctx, progenSources(edited), cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
				t.Fatalf("%s: incremental executable differs from clean build", label)
			}
			var changed, rebuilt []string
			for i, a := range incr.Incremental.Actions {
				if !bytes.Equal(parv.EncodeObject(prev.Objects[i]), parv.EncodeObject(clean.Objects[i])) {
					changed = append(changed, a.Module)
					if !a.Phase2Rebuilt {
						t.Errorf("%s: %s's object changed but phase 2 reused it", label, a.Module)
					}
				}
				if a.Phase2Rebuilt {
					rebuilt = append(rebuilt, a.Module)
				}
			}
			t.Logf("%s (%s): %d rebuilt, %d changed", label, desc, len(rebuilt), len(changed))
			if kind != progen.EditCycle && !reflect.DeepEqual(rebuilt, changed) {
				t.Errorf("%s: phase 2 rebuilt %v, but only %v changed", label, rebuilt, changed)
			}
		}
	}
}

// copyDir copies the regular files of a build directory.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
