package incremental

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
)

// fakeToolchain is a miniature deterministic toolchain over a toy source
// format: each word of source text reads "funcname", "funcname>callee"
// (a direct call) or "funcname@global" (a load of a global).
// It counts invocations so tests can assert exactly which phases re-ran,
// and exposes promotion and clobber knobs so tests can change directives
// without changing sources.
type fakeToolchain struct {
	phase1Calls, phase2Calls atomic.Int64
	phase2Modules            []string // names compiled by phase 2 (mutex-free: Jobs=1 in tests)
	promote                  map[string]uint8
	clobber                  map[string]regs.Set
	eligible                 []string
}

func (ft *fakeToolchain) toolchain() Toolchain {
	return Toolchain{
		Fingerprint: "fake/v1",
		Phase1: func(_ context.Context, name string, text []byte) (*ir.Module, *summary.ModuleSummary, error) {
			ft.phase1Calls.Add(1)
			m := &ir.Module{Name: name}
			ms := &summary.ModuleSummary{Module: name}
			for _, line := range strings.Fields(string(text)) {
				fn, callee, _ := strings.Cut(line, ">")
				fn, global, _ := strings.Cut(fn, "@")
				f := &ir.Func{Name: fn, Module: name, Blocks: []*ir.Block{{}}}
				if callee != "" {
					f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, ir.Instr{Op: ir.Call, Callee: callee})
				}
				if global != "" {
					f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, ir.Instr{Op: ir.Load, Mem: ir.MemRef{Kind: ir.MemGlobal, Sym: global}})
				}
				m.Funcs = append(m.Funcs, f)
				ms.Procs = append(ms.Procs, summary.ProcRecord{Name: fn, Module: name})
			}
			return m, ms, nil
		},
		Analyze: func(_ context.Context, sums []*summary.ModuleSummary, _ []string, _ []byte, _ bool) (*pdb.Database, []byte, *core.ReuseStats, error) {
			db := pdb.New()
			db.EligibleGlobals = ft.eligible
			for _, s := range sums {
				for _, p := range s.Procs {
					d := pdb.Standard(p.Name)
					if r, ok := ft.promote[p.Name]; ok {
						d.Caller = d.Caller.Remove(r)
						d.Callee = d.Callee.Remove(r)
						d.Promoted = []pdb.PromotedGlobal{{Name: "g", Reg: r}}
					}
					if c, ok := ft.clobber[p.Name]; ok {
						d.HasClobber, d.ClobberAtCalls = true, c
					}
					db.Procs[p.Name] = d
				}
			}
			return db, nil, nil, nil
		},
		Phase2: func(_ context.Context, db *pdb.Database) func(context.Context, *ir.Module) (*parv.Object, error) {
			return func(_ context.Context, m *ir.Module) (*parv.Object, error) {
				ft.phase2Calls.Add(1)
				ft.phase2Modules = append(ft.phase2Modules, m.Name)
				o := &parv.Object{Module: m.Name}
				for _, f := range m.Funcs {
					// The "code" depends on the function's own directives,
					// its direct callees' clobber sets and the eligibility
					// of the globals it loads, like real phase 2 output
					// does.
					d := db.Lookup(f.Name)
					var reg uint8
					if len(d.Promoted) > 0 {
						reg = d.Promoted[0].Reg
					}
					code := []parv.Instr{{Op: parv.LDI, Rd: reg}}
					for _, in := range f.Blocks[0].Instrs {
						if c := db.Lookup(in.Callee); in.Op == ir.Call && c.HasClobber {
							code = append(code, parv.Instr{Op: parv.BL, Imm: int32(c.ClobberAtCalls)})
						}
						if in.Op == ir.Load && slices.Contains(db.EligibleGlobals, in.Mem.Sym) {
							code = append(code, parv.Instr{Op: parv.MOV})
						}
					}
					o.Funcs = append(o.Funcs, &parv.ObjFunc{Name: f.Name, Code: code})
				}
				return o, nil
			}
		},
		Link: func(_ context.Context, objs []*parv.Object) (*parv.Executable, error) {
			exe := &parv.Executable{FuncIdx: map[string]int{}, GlobalAddr: map[string]int32{}}
			for _, o := range objs {
				for _, f := range o.Funcs {
					exe.FuncIdx[f.Name] = len(exe.Funcs)
					exe.Funcs = append(exe.Funcs, parv.FuncInfo{Name: f.Name, Start: len(exe.Code), End: len(exe.Code) + len(f.Code)})
					exe.Code = append(exe.Code, f.Code...)
				}
			}
			return exe, nil
		},
	}
}

func mustBuild(t *testing.T, dir string, sources []Source, tc Toolchain, opts Options) *Outcome {
	t.Helper()
	out, err := Build(context.Background(), dir, sources, tc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func twoModules() []Source {
	return []Source{
		{Name: "main.mc", Text: []byte("main>helper main>leaf")},
		{Name: "lib.mc", Text: []byte("helper>leaf leaf")},
	}
}

func TestCleanThenNoOpRebuild(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	clean := mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})
	if clean.Phase1Rebuilds != 2 || clean.Phase2Rebuilds != 2 {
		t.Fatalf("clean build: rebuilds = %d/%d, want 2/2", clean.Phase1Rebuilds, clean.Phase2Rebuilds)
	}
	if clean.StateReset {
		t.Error("first build in an empty directory is not a state reset")
	}

	var buf bytes.Buffer
	noop := mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1, Explain: &buf})
	if noop.Phase1Rebuilds != 0 || noop.Phase2Rebuilds != 0 {
		t.Errorf("no-op rebuild: rebuilds = %d/%d, want 0/0\n%s", noop.Phase1Rebuilds, noop.Phase2Rebuilds, &buf)
	}
	if got := ft.phase1Calls.Load(); got != 2 {
		t.Errorf("phase 1 ran %d times total, want 2", got)
	}
	if got := ft.phase2Calls.Load(); got != 2 {
		t.Errorf("phase 2 ran %d times total, want 2", got)
	}
	// The reused artifact set must equal the clean build's.
	if !reflect.DeepEqual(noop.Modules, clean.Modules) ||
		!reflect.DeepEqual(noop.Summaries, clean.Summaries) ||
		!reflect.DeepEqual(noop.Objects, clean.Objects) ||
		!reflect.DeepEqual(noop.Exe, clean.Exe) {
		t.Error("no-op rebuild artifacts differ from the clean build")
	}
	if noop.DB.Hash() != clean.DB.Hash() {
		t.Error("no-op rebuild computed a different program database")
	}
	want := "incremental: main.mc: phase 1 reused; phase 2 reused\n" +
		"incremental: lib.mc: phase 1 reused; phase 2 reused\n" +
		"incremental: 0/2 phase-1 recompiles, 0/2 phase-2 recompiles\n"
	if buf.String() != want {
		t.Errorf("explain output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestSourceEditRebuildsOnlyEditedModule(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})

	edited := twoModules()
	edited[1].Text = []byte("helper>leaf leaf extra")
	ft.phase2Modules = nil
	var buf bytes.Buffer
	out := mustBuild(t, dir, edited, ft.toolchain(), Options{Jobs: 1, Explain: &buf})
	if out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 {
		t.Fatalf("rebuilds = %d/%d, want 1/1\n%s", out.Phase1Rebuilds, out.Phase2Rebuilds, &buf)
	}
	if !reflect.DeepEqual(ft.phase2Modules, []string{"lib.mc"}) {
		t.Errorf("phase 2 compiled %v, want only lib.mc", ft.phase2Modules)
	}
	if !strings.Contains(buf.String(), "lib.mc: phase 1 recompiled (source changed); phase 2 recompiled (source changed)") {
		t.Errorf("explain output missing edit rationale:\n%s", &buf)
	}
	if !strings.Contains(buf.String(), "main.mc: phase 1 reused; phase 2 reused") {
		t.Errorf("explain output missing reuse line:\n%s", &buf)
	}
}

// rebuildAndCheck rebuilds sources in dir, checks the result equals a
// clean build's, and returns the outcome, the explain output and the
// build's counters; ft.phase2Modules lists the rebuild's phase-2 modules.
func rebuildAndCheck(t *testing.T, dir string, sources []Source, ft *fakeToolchain) (*Outcome, string, map[string]int64) {
	t.Helper()
	ft.phase2Modules = nil
	var buf bytes.Buffer
	tr := telemetry.New()
	out, err := Build(telemetry.WithTracer(context.Background(), tr), dir, sources, ft.toolchain(), Options{Jobs: 1, Explain: &buf})
	if err != nil {
		t.Fatal(err)
	}
	compiled := ft.phase2Modules
	clean := mustBuild(t, "", sources, ft.toolchain(), Options{Jobs: 1})
	if !reflect.DeepEqual(out.Exe, clean.Exe) {
		t.Errorf("incremental exe differs from a clean build's\n%s", &buf)
	}
	ft.phase2Modules = compiled
	return out, buf.String(), tr.Counters()
}

// TestDirectiveChangeRecompilesConsumers changes directives without
// touching any source: phase 1 never re-runs, and phase 2 re-runs exactly
// for the modules whose phase-2 view of the changed procedure moved.
func TestDirectiveChangeRecompilesConsumers(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})

	// Promote a global in leaf. Only lib.mc, which defines leaf, reads its
	// promotions and register sets; main.mc only calls leaf and reads its
	// clobber set, which did not change.
	ft.promote = map[string]uint8{"leaf": 17}
	out, explain, _ := rebuildAndCheck(t, dir, twoModules(), ft)
	if out.Phase1Rebuilds != 0 {
		t.Errorf("phase-1 rebuilds = %d, want 0", out.Phase1Rebuilds)
	}
	if !reflect.DeepEqual(ft.phase2Modules, []string{"lib.mc"}) {
		t.Errorf("phase 2 compiled %v, want only lib.mc\n%s", ft.phase2Modules, explain)
	}
	if !strings.Contains(explain, "lib.mc: phase 1 reused; phase 2 recompiled (directives changed: leaf)") {
		t.Errorf("explain output missing directive rationale:\n%s", explain)
	}

	// Change leaf's clobber set. Both modules call leaf directly (main and
	// helper), so both must re-run phase 2.
	ft.clobber = map[string]regs.Set{"leaf": regs.Of(19)}
	out, explain, _ = rebuildAndCheck(t, dir, twoModules(), ft)
	if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 2 {
		t.Errorf("rebuilds = %d/%d, want 0/2\n%s", out.Phase1Rebuilds, out.Phase2Rebuilds, explain)
	}

	// Now promote only main: lib.mc never consults main's directives, so
	// only main.mc re-runs phase 2.
	ft.promote = map[string]uint8{"leaf": 17, "main": 16}
	out, explain, _ = rebuildAndCheck(t, dir, twoModules(), ft)
	if out.Phase2Rebuilds != 1 || !reflect.DeepEqual(ft.phase2Modules, []string{"main.mc"}) {
		t.Errorf("rebuilds = %d (%v), want only main.mc\n%s", out.Phase2Rebuilds, ft.phase2Modules, explain)
	}
}

// checkCauses compares a build's incremental.invalidate_cause.* counters.
func checkCauses(t *testing.T, counters, want map[string]int64) {
	t.Helper()
	for cause, n := range want {
		if got := counters["incremental.invalidate_cause."+cause]; got != n {
			t.Errorf("invalidate_cause.%s = %d, want %d", cause, got, n)
		}
	}
}

// TestInvalidationCauses checks that each rebuild names the kind of fact
// that caused it, in the explain reason and the cause counters.
func TestInvalidationCauses(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})

	// A clobber-only change reports only the clobber cause, in both
	// modules, although lib.mc also defines the procedure.
	ft.clobber = map[string]regs.Set{"leaf": regs.Of(19)}
	_, explain, counters := rebuildAndCheck(t, dir, twoModules(), ft)
	for _, mod := range []string{"main.mc", "lib.mc"} {
		if !strings.Contains(explain, mod+": phase 1 reused; phase 2 recompiled (callee clobber changed: leaf)\n") {
			t.Errorf("%s: want only the clobber cause:\n%s", mod, explain)
		}
	}
	checkCauses(t, counters, map[string]int64{"source": 0, "directives": 0, "clobber": 2, "eligible": 0})

	// A promotion in helper is a directives cause for lib.mc only (helper
	// has no clobber set, so main.mc's view of it is unchanged); an edit
	// to main.mc is a source cause.
	ft.promote = map[string]uint8{"helper": 17}
	edited := twoModules()
	edited[0].Text = []byte("main>helper main>leaf extra")
	_, explain, counters = rebuildAndCheck(t, dir, edited, ft)
	if !strings.Contains(explain, "lib.mc: phase 1 reused; phase 2 recompiled (directives changed: helper)\n") {
		t.Errorf("explain output missing directive cause:\n%s", explain)
	}
	checkCauses(t, counters, map[string]int64{"source": 1, "directives": 1, "clobber": 0, "eligible": 0})

	// Eligibility is consulted per referenced global: making x eligible
	// rebuilds only the module that loads it, and the reason names it.
	globals := []Source{{Name: "a.mc", Text: []byte("f@x f>g")}, {Name: "b.mc", Text: []byte("g@y")}}
	mustBuild(t, dir, globals, ft.toolchain(), Options{Jobs: 1})
	ft.eligible = []string{"x", "z"}
	_, explain, counters = rebuildAndCheck(t, dir, globals, ft)
	if !reflect.DeepEqual(ft.phase2Modules, []string{"a.mc"}) ||
		!strings.Contains(explain, "a.mc: phase 1 reused; phase 2 recompiled (eligible globals changed: x)\n") {
		t.Errorf("phase 2 compiled %v, want only a.mc for eligible x:\n%s", ft.phase2Modules, explain)
	}
	checkCauses(t, counters, map[string]int64{"source": 0, "directives": 0, "clobber": 0, "eligible": 1})
}

func TestFingerprintMismatchDiscardsState(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})

	tc := ft.toolchain()
	tc.Fingerprint = "fake/v2"
	var buf bytes.Buffer
	out := mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1, Explain: &buf})
	if !out.StateReset {
		t.Error("fingerprint mismatch must be reported as a state reset")
	}
	if out.Phase1Rebuilds != 2 || out.Phase2Rebuilds != 2 {
		t.Errorf("rebuilds = %d/%d, want full rebuild", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
	if !strings.Contains(buf.String(), "discarding build state: fingerprint mismatch") {
		t.Errorf("explain output missing reset notice:\n%s", &buf)
	}

	// The new state must be valid: an immediate rebuild is a no-op.
	out = mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1})
	if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 0 {
		t.Errorf("post-reset rebuild not clean: %d/%d", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
}

// readState decodes a build directory's committed state.
func readState(t *testing.T, dir string) *buildState {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func writeState(t *testing.T, dir string, bs *buildState) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, stateName), encodeState(bs), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptManifestAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})

	// Corrupt state: full rebuild, no error.
	if err := os.WriteFile(filepath.Join(dir, stateName), []byte("not a wire file"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	out := mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1, Explain: &buf})
	if !out.StateReset || out.Phase1Rebuilds != 2 {
		t.Errorf("corrupt state: reset=%v rebuilds=%d, want full reset", out.StateReset, out.Phase1Rebuilds)
	}
	if !strings.Contains(buf.String(), "discarding build state: unreadable build state") {
		t.Errorf("explain output missing reset notice:\n%s", &buf)
	}

	// Corrupt one object file: that module silently recompiles.
	bs := readState(t, dir)
	objFile := bs.Modules["lib.mc"].ObjectFile
	if err := os.WriteFile(filepath.Join(dir, objFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ft.phase2Modules = nil
	buf.Reset()
	out = mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1, Explain: &buf})
	if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 1 {
		t.Errorf("corrupt object: rebuilds = %d/%d, want 0/1", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
	if !strings.Contains(buf.String(), "lib.mc: phase 1 reused; phase 2 recompiled (stored object unreadable)") {
		t.Errorf("explain output:\n%s", &buf)
	}

	// A state entry pointing outside the build directory must not be followed.
	bs = readState(t, dir)
	bs.Modules["lib.mc"].ObjectFile = "../escape.wire"
	writeState(t, dir, bs)
	out = mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})
	if out.Phase2Rebuilds != 1 {
		t.Errorf("path-escaping state entry: rebuilds = %d, want 1 recompile", out.Phase2Rebuilds)
	}
}

// TestGobEraBuildDirTriggersFullRebuild simulates build directories
// written by older stores — the gob era (.gob artifacts) and the
// manifest.json + analyzer.state era (module-named .wire artifacts): with
// no state.wire, every module rebuilds with a reason, the old artifacts
// are pruned, the old state files are ignored, and the next build reuses
// everything.
func TestGobEraBuildDirTriggersFullRebuild(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	tc := ft.toolchain()

	oldArtifacts := []string{"p1-main_mc-deadbeef.gob", "obj-main_mc-deadbeef.gob", "p1-lib_mc-cafef00d.wire", "obj-lib_mc-cafef00d.wire"}
	oldState := []string{"manifest.json", "analyzer.state"}
	for _, name := range append(oldArtifacts, oldState...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("\x13\xff\x81older bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	out := mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1, Explain: &buf})
	if out.Phase1Rebuilds != 2 || out.Phase2Rebuilds != 2 {
		t.Errorf("rebuilds = %d/%d, want full rebuild", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
	for _, a := range out.Actions {
		if a.Phase1Reason != "no previous build state" {
			t.Errorf("%s: phase-1 reason %q, want \"no previous build state\"\n%s", a.Module, a.Phase1Reason, &buf)
		}
	}

	// The old artifacts are unreferenced by the new state and must have
	// been pruned; the old state files are left alone.
	for _, name := range oldArtifacts {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale artifact %s survived the format upgrade", name)
		}
	}
	for _, name := range oldState {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("old state file %s: %v", name, err)
		}
	}

	// The upgraded state is valid: an immediate rebuild is a no-op.
	out = mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1})
	if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 0 {
		t.Errorf("post-upgrade rebuild not clean: %d/%d", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
}

// TestRestoredStateNeverReusesNewerArtifacts restores a committed state
// after a later build of an edited source — what a build killed between
// its artifact writes and its commit would leave if artifacts were
// rewritten in place. Content-named artifacts make the restored state
// safe: the rebuild must equal a clean build.
func TestRestoredStateNeverReusesNewerArtifacts(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})
	saved, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		t.Fatal(err)
	}

	edited := twoModules()
	edited[1].Text = []byte("helper>leaf leaf extra")
	mustBuild(t, dir, edited, ft.toolchain(), Options{Jobs: 1})

	if err := os.WriteFile(filepath.Join(dir, stateName), saved, 0o644); err != nil {
		t.Fatal(err)
	}
	out, explain, _ := rebuildAndCheck(t, dir, twoModules(), ft)
	for _, a := range out.Actions {
		if (a.Phase1Rebuilt && a.Phase1Reason == "") || (a.Phase2Rebuilt && a.Phase2Reason == "") {
			t.Errorf("%s rebuilt without a reason:\n%s", a.Module, explain)
		}
	}
}

// TestConcurrentBuildsShareOneDir runs two builds of different sources on
// one directory at once. Both succeed, the later commit wins, and the
// next build equals a clean build, naming a reason for every module it
// rebuilds.
func TestConcurrentBuildsShareOneDir(t *testing.T) {
	edited := twoModules()
	edited[1].Text = []byte("helper>leaf leaf extra")
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		mustBuild(t, dir, twoModules(), (&fakeToolchain{}).toolchain(), Options{Jobs: 1})
		pair := [][]Source{twoModules(), edited}
		if round%2 == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, srcs := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = Build(context.Background(), dir, srcs, (&fakeToolchain{}).toolchain(), Options{Jobs: 2})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: concurrent build failed: %v", round, err)
			}
		}
		out, explain, _ := rebuildAndCheck(t, dir, edited, &fakeToolchain{})
		for _, a := range out.Actions {
			if (a.Phase1Rebuilt && a.Phase1Reason == "") || (a.Phase2Rebuilt && a.Phase2Reason == "") {
				t.Errorf("round %d: %s rebuilt without a reason:\n%s", round, a.Module, explain)
			}
		}
	}
}

func TestModuleRemovalPrunesArtifacts(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})

	// Drop lib.mc; its artifacts must be pruned from the directory.
	// (main.mc still calls helper/leaf, which now resolve to standard
	// directives — the fake analyzer only knows summarized procs.)
	only := twoModules()[:1]
	mustBuild(t, dir, only, ft.toolchain(), Options{Jobs: 1})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bs := readState(t, dir)
	want := map[string]bool{stateName: true, bs.Modules["main.mc"].Phase1File: true, bs.Modules["main.mc"].ObjectFile: true}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stale file %s survived module removal", e.Name())
		}
	}

	// Re-adding the module rebuilds it from source.
	out := mustBuild(t, dir, twoModules(), ft.toolchain(), Options{Jobs: 1})
	if out.Phase1Rebuilds != 1 {
		t.Errorf("re-added module: phase-1 rebuilds = %d, want 1", out.Phase1Rebuilds)
	}
}

func TestDuplicateModuleNamesRejected(t *testing.T) {
	srcs := []Source{{Name: "a.mc"}, {Name: "a.mc"}}
	ft := &fakeToolchain{}
	if _, err := Build(context.Background(), t.TempDir(), srcs, ft.toolchain(), Options{Jobs: 1}); err == nil {
		t.Error("duplicate module names must be rejected")
	}
}

func TestConsultedProcs(t *testing.T) {
	global := func(op ir.Op, sym string) ir.Instr {
		return ir.Instr{Op: op, Mem: ir.MemRef{Kind: ir.MemGlobal, Sym: sym, Size: 4, Singleton: true}}
	}
	m := &ir.Module{
		Name: "m.mc",
		Funcs: []*ir.Func{
			{Name: "h", Blocks: []*ir.Block{{Instrs: []ir.Instr{
				{Op: ir.Call, Callee: "h"},
				global(ir.Store, "b"),
			}}}},
			{Name: "f", Blocks: []*ir.Block{{Instrs: []ir.Instr{
				{Op: ir.Call, Callee: "g"},
				{Op: ir.Call, IndirectCall: true, Callee: ""},
				{Op: ir.Call, Callee: "putint"},
				global(ir.Load, "a"),
				global(ir.Load, "b"),
				{Op: ir.Load, Mem: ir.MemRef{Kind: ir.MemFrame, Size: 4}},
				{Op: ir.AddrGlobal, Callee: "c"},
			}}}},
		},
	}
	v := moduleView(pdb.New(), map[string]bool{"b": true, "c": true, "z": true}, m)
	keys := func(hashes map[string]string) []string {
		var out []string
		for k := range hashes {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if got := keys(v.directives); !reflect.DeepEqual(got, []string{"f", "h"}) {
		t.Errorf("own procedures = %v, want [f h]", got)
	}
	if got := keys(v.clobbers); !reflect.DeepEqual(got, []string{"g", "h", "putint"}) {
		t.Errorf("direct callees = %v, want [g h putint]", got)
	}
	// Only the eligible globals among those loaded or stored: c's address
	// is taken, which is no load or store of it.
	if !reflect.DeepEqual(v.eligible, []string{"b"}) {
		t.Errorf("eligible globals = %v, want [b]", v.eligible)
	}
}

func TestDiffDirectives(t *testing.T) {
	prev := map[string]string{"a": "1", "b": "2", "gone": "3"}
	cur := map[string]string{"a": "1", "b": "9", "new": "4"}
	if got := diffDirectives(prev, cur); !reflect.DeepEqual(got, []string{"b", "gone", "new"}) {
		t.Errorf("diff = %v", got)
	}
	if got := diffDirectives(prev, prev); got != nil {
		t.Errorf("self-diff = %v, want empty", got)
	}
	if got := diffSorted([]string{"a", "c", "d"}, []string{"b", "c", "e"}); !reflect.DeepEqual(got, []string{"a", "b", "d", "e"}) {
		t.Errorf("diffSorted = %v", got)
	}
	if got := diffSorted(nil, []string{"a"}); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("diffSorted(nil, [a]) = %v", got)
	}
}

// withAnalyzerHook wraps a fake toolchain with an Analyze hook that
// records the state it was offered and persists a recognizable blob.
func withAnalyzerHook(tc Toolchain, gotPrev *[][]byte) Toolchain {
	analyze := tc.Analyze
	tc.Analyze = func(ctx context.Context, sums []*summary.ModuleSummary, dirty []string, prevState []byte, keepState bool) (*pdb.Database, []byte, *core.ReuseStats, error) {
		*gotPrev = append(*gotPrev, prevState)
		db, _, _, err := analyze(ctx, sums, dirty, prevState, keepState)
		if err != nil {
			return nil, nil, nil, err
		}
		reuse := &core.ReuseStats{DirtyModules: len(dirty), WebsReused: len(db.Procs)}
		if prevState == nil {
			reuse.Fallback = "no analyzer state"
		}
		return db, []byte("analyzer-state-blob"), reuse, nil
	}
	return tc
}

// TestAnalyzerStatePersistence checks the analyzer state's round trip
// through state.wire: the first build sees no state, repeat builds see
// exactly what the previous build persisted, and a build whose hook kept
// no state leaves none to offer.
func TestAnalyzerStatePersistence(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	var gotPrev [][]byte
	tc := withAnalyzerHook(ft.toolchain(), &gotPrev)

	var buf bytes.Buffer
	out := mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1, Explain: &buf})
	if out.Analyzer == nil || out.Analyzer.Fallback == "" {
		t.Fatalf("first build: Analyzer = %+v, want a no-state fallback", out.Analyzer)
	}
	if len(gotPrev) != 1 || gotPrev[0] != nil {
		t.Fatalf("first build offered state %q, want none", gotPrev)
	}
	if !strings.Contains(buf.String(), "analyzer: full analysis (no analyzer state)") {
		t.Errorf("explain output missing analyzer fallback line:\n%s", &buf)
	}

	buf.Reset()
	out = mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1, Explain: &buf})
	if len(gotPrev) != 2 || string(gotPrev[1]) != "analyzer-state-blob" {
		t.Fatalf("repeat build offered state %q, want the persisted blob", gotPrev[1])
	}
	if out.Analyzer == nil || out.Analyzer.Fallback != "" {
		t.Errorf("repeat build: Analyzer = %+v, want incremental", out.Analyzer)
	}
	if !strings.Contains(buf.String(), "webs reused") {
		t.Errorf("explain output missing analyzer reuse line:\n%s", &buf)
	}

	// An edited build still receives the state (the dirty list carries the
	// change).
	edited := twoModules()
	edited[1].Text = []byte("helper>leaf leaf extra")
	out = mustBuild(t, dir, edited, tc, Options{Jobs: 1})
	if len(gotPrev) != 3 || string(gotPrev[2]) != "analyzer-state-blob" {
		t.Fatalf("edited build offered state %q, want the persisted blob", gotPrev[2])
	}
	if out.Analyzer.DirtyModules != 1 {
		t.Errorf("edited build: DirtyModules = %d, want 1", out.Analyzer.DirtyModules)
	}

	// A build through a toolchain whose hook keeps no state commits a new
	// state without an analyzer part. The state before it belongs to other
	// sources and must not be offered.
	older := twoModules()
	older[0].Text = []byte("main>helper main>leaf main-extra")
	mustBuild(t, dir, older, ft.toolchain(), Options{Jobs: 1})
	out = mustBuild(t, dir, older, tc, Options{Jobs: 1})
	if len(gotPrev) != 4 || gotPrev[3] != nil {
		t.Fatalf("stale analyzer state offered after a stateless build: %q", gotPrev[3])
	}
	if out.Analyzer == nil || out.Analyzer.Fallback == "" {
		t.Errorf("stale-state build: Analyzer = %+v, want fallback", out.Analyzer)
	}
}

// TestAnalyzerStateSkipsNoOpWrite ensures a no-edit rebuild does not
// rewrite state.wire when neither the sources nor the analyzer state moved.
func TestAnalyzerStateSkipsNoOpWrite(t *testing.T) {
	dir := t.TempDir()
	ft := &fakeToolchain{}
	var gotPrev [][]byte
	tc := withAnalyzerHook(ft.toolchain(), &gotPrev)
	mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1})

	path := filepath.Join(dir, stateName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Make any rewrite observable regardless of timestamp resolution.
	if err := os.Chtimes(path, before.ModTime().Add(-time.Hour), before.ModTime().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	before, _ = os.Stat(path)

	mustBuild(t, dir, twoModules(), tc, Options{Jobs: 1})
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("no-op rebuild rewrote state.wire")
	}
}
