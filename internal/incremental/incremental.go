// Package incremental is the persistent incremental recompilation engine
// for the two-pass organization (§2, §4.3 of the paper).
//
// The paper's scheme pays for cross-module allocation with recompilation:
// whenever the program database changes, the compiler second phase must
// re-run. But phase 2 is module-at-a-time and order-independent, and each
// module consumes only a small slice of the database, its phase-2 view:
// the directives of its own procedures, the clobber sets of its direct
// callees, and the eligibility of the globals it loads and stores. This
// package makes the edit-recompile loop proportional to what changed:
//
//	hash sources            → phase-1-recompile only changed modules
//	re-run the analyzer     → always (it is whole-program and cheap)
//	diff the database       → against each module's stored view
//	phase-2-recompile       → only modules whose sources or views changed
//	relink                  → from stored + fresh objects
//
// Every phase-2 recompile is attributed to the kind of fact that caused
// it — source, directives (of a procedure the module defines), clobber
// (of a procedure it calls) or eligible (globals) — in the -explain reason
// and the incremental.invalidate_cause.* counters.
//
// The load-bearing invariant: an incremental rebuild produces the same
// modules, summaries, database, objects, and executable as a clean build
// of the same sources — reuse is pure memoization, never approximation.
//
// Build is the only pipeline driver: with an empty build directory it
// runs the same phases with no store — nothing is read or written, every
// module is compiled, and no view or analyzer state is computed.
//
// A build commits by renaming one state record into place (see store.go),
// so a build killed at any point leaves the previous commit usable. Two
// builds may run on one directory at once without a lock: the later
// commit wins, and modules whose artifacts the other build pruned are
// rebuilt by the next build, each with a reason ("stored phase-1 record
// unreadable", "stored object unreadable").
//
// The engine is toolchain-agnostic: callers inject the compiler phases as
// a Toolchain of hooks (the ipra package wires its phase helpers in for
// every ipra.Build, with or without WithBuildDir), which also keeps this
// package free of an import cycle with the driver above it.
package incremental

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/pipeline"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
)

// Source is one module (compilation unit).
type Source struct {
	Name string // module name, e.g. "main.mc"
	Text []byte
}

// Toolchain injects the compiler phases the driver orchestrates. Every
// hook must be deterministic in its arguments; the driver's caching is
// sound exactly because phase 1 is a pure function of the source text and
// phase 2 a pure function of the phase-1 module plus the directives it
// consults.
type Toolchain struct {
	// Fingerprint identifies the toolchain build (phase implementations,
	// Go toolchain). Stored state with a different fingerprint is
	// discarded wholesale.
	Fingerprint string
	// Phase1 parses, checks, and lowers one module, returning the IR and
	// its summary record. The context carries the build's telemetry.
	Phase1 func(ctx context.Context, name string, text []byte) (*ir.Module, *summary.ModuleSummary, error)
	// Analyze runs the program analyzer over the merged summary set. It
	// receives the modules whose phase 1 re-ran (a sound superset of the
	// changed summaries), the previously persisted analyzer state (nil when
	// none), and whether the driver will persist the state it returns. It
	// returns the database, the refreshed state to persist (nil to persist
	// nothing; a hook told keepState=false should not build any), and a
	// reuse record (nil when it kept no state). The database must be
	// byte-identical to a full analysis's — the engine treats analyzer
	// reuse as pure memoization, exactly like its own phase caches.
	Analyze func(ctx context.Context, sums []*summary.ModuleSummary, dirty []string, prevState []byte, keepState bool) (*pdb.Database, []byte, *core.ReuseStats, error)
	// Phase2 returns the per-module second-phase compiler for a database
	// (the closure lets the caller precompute database-wide state, e.g.
	// the eligibility set, once per build).
	Phase2 func(ctx context.Context, db *pdb.Database) func(ctx context.Context, m *ir.Module) (*parv.Object, error)
	// Link binds the objects, in module order.
	Link func(ctx context.Context, objs []*parv.Object) (*parv.Executable, error)
}

// Options control one Build.
type Options struct {
	// Jobs bounds the phase fan-out (pipeline.Workers semantics).
	Jobs int
	// Explain, when non-nil, receives one line per module explaining why
	// it was or wasn't rebuilt, plus a summary line.
	Explain io.Writer
}

// Action records what Build did for one module and why.
type Action struct {
	Module        string
	Phase1Rebuilt bool
	Phase1Reason  string // why phase 1 re-ran; "" when reused
	Phase2Rebuilt bool
	Phase2Reason  string // why phase 2 re-ran; "" when reused
}

// Outcome is the result of one Build: the full artifact set (identical to
// a clean build's) plus the per-module rebuild record.
type Outcome struct {
	Modules   []*ir.Module
	Summaries []*summary.ModuleSummary
	DB        *pdb.Database
	Objects   []*parv.Object
	Exe       *parv.Executable

	Actions                        []Action
	Phase1Rebuilds, Phase2Rebuilds int
	// Analyzer reports what the incremental program analyzer reused; nil
	// when the Analyze hook kept no state (no build directory, or no
	// analyzer pass).
	Analyzer *core.ReuseStats
	// StateReset is true when an existing build directory's state was
	// rejected (format/toolchain fingerprint mismatch or corruption).
	StateReset bool
}

// Build runs a minimal rebuild of sources against the build directory,
// updating the stored state on success. On error the store is left
// untouched, so a failed build never poisons later ones. With an empty
// dir it runs the same phases with no store: every module is compiled
// (reason "no build directory"), and nothing is read, hashed, or written.
// Module names must be distinct.
//
// The context carries the build's telemetry: each stage runs under its
// own span, every invalidation decision is recorded as an instant event
// naming the module and the reason, and the rebuild/reuse totals land on
// the tracer's counters (incremental.phase1_rebuilds, ..._reused, the
// phase-2 pair, and one incremental.invalidate_cause.<kind> per module
// and kind of changed fact).
func Build(ctx context.Context, dir string, sources []Source, tc Toolchain, opts Options) (*Outcome, error) {
	ctx, span := telemetry.StartSpan(ctx, "incremental")
	defer span.End()
	span.SetStr("dir", dir)
	span.SetInt("modules", int64(len(sources)))

	seen := make(map[string]bool, len(sources))
	for _, src := range sources {
		if seen[src.Name] {
			return nil, fmt.Errorf("duplicate module name %q", src.Name)
		}
		seen[src.Name] = true
	}

	st, err := openStore(dir, tc.Fingerprint)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Modules:    make([]*ir.Module, len(sources)),
		Summaries:  make([]*summary.ModuleSummary, len(sources)),
		Objects:    make([]*parv.Object, len(sources)),
		Actions:    make([]Action, len(sources)),
		StateReset: st.reset,
	}

	// ---- Phase 1: hash every source, recompile only changed modules.
	p1ctx, p1Span := telemetry.StartSpan(ctx, "phase1")
	hashes := make([]string, len(sources))
	err = pipeline.ForEachCtx(p1ctx, opts.Jobs, len(sources), func(ctx context.Context, i int) error {
		src := sources[i]
		out.Actions[i].Module = src.Name
		if st.persistent() {
			hashes[i] = sourceKey(src.Name, src.Text, tc.Fingerprint)
		}

		reason := ""
		prev := st.prev.Modules[src.Name]
		switch {
		case prev == nil:
			reason = st.resetReason
			if reason == "" {
				reason = "new module"
			}
		case prev.SourceHash != hashes[i]:
			reason = "source changed"
			telemetry.Count(ctx, "incremental.invalidate_cause.source", 1)
		default:
			m, ms, err := st.loadPhase1(prev)
			if err == nil {
				out.Modules[i], out.Summaries[i] = m, ms
				return nil
			}
			reason = "stored phase-1 record unreadable"
		}
		ev := telemetry.Event(ctx, "invalidate-phase1")
		ev.SetStr("module", src.Name)
		ev.SetStr("reason", reason)
		ev.End()
		m, ms, err := tc.Phase1(ctx, src.Name, src.Text)
		if err != nil {
			return fmt.Errorf("%s: %w", src.Name, err)
		}
		out.Modules[i], out.Summaries[i] = m, ms
		out.Actions[i].Phase1Rebuilt = true
		out.Actions[i].Phase1Reason = reason
		return nil
	})
	p1Span.End()
	if err != nil {
		return nil, err
	}

	// ---- Program analyzer: always re-run on the merged summary set (it
	// needs the whole program). In a build directory, the persisted
	// analyzer state lets the run rebuild only the slices the phase-1
	// rebuilds invalidated.
	var dirty []string
	for i := range out.Actions {
		if out.Actions[i].Phase1Rebuilt {
			dirty = append(dirty, out.Actions[i].Module)
		}
	}
	db, analyzerState, reuse, err := tc.Analyze(ctx, out.Summaries, dirty, st.prev.Analyzer, st.persistent())
	if err != nil {
		return nil, err
	}
	out.DB, out.Analyzer = db, reuse
	if reuse != nil {
		if reuse.Fallback == "" {
			telemetry.Count(ctx, "incremental.analyzer_incremental", 1)
		} else {
			telemetry.Count(ctx, "incremental.analyzer_fallbacks", 1)
		}
	}

	// ---- Directive diff: decide phase 2 per module from the phase-2
	// views (see moduleView). Modules whose phase 1 re-ran recompile
	// regardless, so only the reused ones are viewed here.
	dctx, diffSpan := telemetry.StartSpan(ctx, "diff")
	var eligible map[string]bool
	if st.persistent() {
		eligible = make(map[string]bool, len(db.EligibleGlobals))
		for _, g := range db.EligibleGlobals {
			eligible[g] = true
		}
	}
	views := make([]*view, len(sources))
	for i, m := range out.Modules {
		a := &out.Actions[i]
		if a.Phase1Rebuilt {
			a.Phase2Rebuilt, a.Phase2Reason = true, a.Phase1Reason
			continue
		}
		views[i] = moduleView(db, eligible, m)
		prev := st.prev.Modules[m.Name]
		var causes []string
		for _, c := range [...]struct {
			counter, reason string
			changed         []string
		}{
			{"incremental.invalidate_cause.directives", "directives changed: ", diffDirectives(prev.Directives, views[i].directives)},
			{"incremental.invalidate_cause.clobber", "callee clobber changed: ", diffDirectives(prev.Clobbers, views[i].clobbers)},
			{"incremental.invalidate_cause.eligible", "eligible globals changed: ", diffSorted(prev.Eligible, views[i].eligible)},
		} {
			if len(c.changed) > 0 {
				causes = append(causes, c.reason+strings.Join(c.changed, ", "))
				telemetry.Count(dctx, c.counter, 1)
			}
		}
		if len(causes) > 0 {
			a.Phase2Rebuilt, a.Phase2Reason = true, strings.Join(causes, "; ")
			// Phase-1 rebuilds already logged their decision; these are the
			// pure directive-driven invalidations the diff discovered.
			ev := telemetry.Event(dctx, "invalidate-phase2")
			ev.SetStr("module", m.Name)
			ev.SetStr("reason", a.Phase2Reason)
			ev.End()
		}
	}
	diffSpan.End()

	// ---- Phase 2: recompile invalidated modules, reload the rest.
	p2ctx, p2Span := telemetry.StartSpan(ctx, "phase2")
	compile := tc.Phase2(p2ctx, db)
	err = pipeline.ForEachCtx(p2ctx, opts.Jobs, len(sources), func(ctx context.Context, i int) error {
		a := &out.Actions[i]
		if !a.Phase2Rebuilt {
			obj, err := st.loadObject(st.prev.Modules[out.Modules[i].Name])
			if err == nil {
				out.Objects[i] = obj
				return nil
			}
			a.Phase2Rebuilt, a.Phase2Reason = true, "stored object unreadable"
		}
		obj, err := compile(ctx, out.Modules[i])
		if err != nil {
			return fmt.Errorf("%s: %w", out.Modules[i].Name, err)
		}
		out.Objects[i] = obj
		return nil
	})
	p2Span.End()
	if err != nil {
		return nil, err
	}

	// ---- Link, always: it is whole-program and reads every object.
	lctx, linkSpan := telemetry.StartSpan(ctx, "link")
	exe, err := tc.Link(lctx, out.Objects)
	linkSpan.End()
	if err != nil {
		return nil, err
	}
	out.Exe = exe

	if st.persistent() {
		if err := persist(ctx, st, out, hashes, eligible, views, analyzerState); err != nil {
			return nil, err
		}
	}

	for _, a := range out.Actions {
		if a.Phase1Rebuilt {
			out.Phase1Rebuilds++
		}
		if a.Phase2Rebuilt {
			out.Phase2Rebuilds++
		}
	}
	n := int64(len(out.Actions))
	telemetry.Count(ctx, "incremental.phase1_rebuilds", int64(out.Phase1Rebuilds))
	telemetry.Count(ctx, "incremental.phase1_reused", n-int64(out.Phase1Rebuilds))
	telemetry.Count(ctx, "incremental.phase2_rebuilds", int64(out.Phase2Rebuilds))
	telemetry.Count(ctx, "incremental.phase2_reused", n-int64(out.Phase2Rebuilds))
	if out.StateReset {
		telemetry.Count(ctx, "incremental.state_resets", 1)
	}
	if opts.Explain != nil {
		explain(opts.Explain, st, out)
	}
	return out, nil
}

// persist stores the new state: fresh artifacts for rebuilt modules,
// carried-over records for reused ones and the analyzer state, committed
// in one state record (unreferenced artifacts are then pruned). views
// holds what the diff already computed; the rest are computed here.
func persist(ctx context.Context, st *store, out *Outcome, hashes []string, eligible map[string]bool, views []*view, analyzerState []byte) error {
	_, span := telemetry.StartSpan(ctx, "persist")
	defer span.End()
	next := &buildState{Modules: make(map[string]*moduleState, len(out.Actions)), Analyzer: analyzerState}
	for i, a := range out.Actions {
		v := views[i]
		if v == nil {
			v = moduleView(out.DB, eligible, out.Modules[i])
		}
		ms := &moduleState{
			SourceHash: hashes[i],
			Directives: v.directives,
			Clobbers:   v.clobbers,
			Eligible:   v.eligible,
		}
		prev := st.prev.Modules[a.Module]
		var err error
		if a.Phase1Rebuilt {
			if ms.Phase1File, err = st.writeArtifact("p1", EncodeEntry(out.Modules[i], out.Summaries[i])); err != nil {
				return err
			}
		} else {
			ms.Phase1File = prev.Phase1File
		}
		if a.Phase2Rebuilt {
			if ms.ObjectFile, err = st.writeArtifact("obj", parv.EncodeObject(out.Objects[i])); err != nil {
				return err
			}
		} else {
			ms.ObjectFile = prev.ObjectFile
		}
		next.Modules[a.Module] = ms
	}
	return st.commit(next)
}

// view is every program-database fact one module's phase 2 reads (§4.3):
// the directives of the functions it defines, the clobber sets of the
// procedures it calls directly (codegen reads nothing else of a callee,
// §7.6.2; indirect calls assume the worst case), and the eligibility of
// the globals it loads and stores (opt.PromoteGlobals reads it only
// there, and a module-local static is named by no other module). Phase 2
// is a pure function of the phase-1 module and its view, so equal views
// mean an equal object.
type view struct {
	directives map[string]string // own function -> ViewHash(OwnView)
	clobbers   map[string]string // direct callee -> ViewHash(CalleeView)
	eligible   []string          // referenced globals eligible for promotion, sorted
}

// moduleView computes the module's view of db in one walk over its
// phase-1 IR; eligible is the database's eligibility list as a set.
// Optimization before phase 2's database reads only removes calls and
// memory operands, so the walk finds a sound superset of what phase 2
// consults.
func moduleView(db *pdb.Database, eligible map[string]bool, m *ir.Module) *view {
	v := &view{
		directives: make(map[string]string, len(m.Funcs)),
		clobbers:   make(map[string]string),
	}
	seen := make(map[string]bool)
	for _, f := range m.Funcs {
		v.directives[f.Name] = db.Lookup(f.Name).ViewHash(pdb.OwnView)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				switch in := &b.Instrs[i]; {
				case in.Op == ir.Call && !in.IndirectCall:
					if _, ok := v.clobbers[in.Callee]; !ok {
						v.clobbers[in.Callee] = db.Lookup(in.Callee).ViewHash(pdb.CalleeView)
					}
				case (in.Op == ir.Load || in.Op == ir.Store) && in.Mem.Kind == ir.MemGlobal:
					if g := in.Mem.Sym; eligible[g] && !seen[g] {
						seen[g] = true
						v.eligible = append(v.eligible, g)
					}
				}
			}
		}
	}
	sort.Strings(v.eligible)
	return v
}

// diffDirectives returns the sorted names whose view hashes differ
// between the stored and current maps (including names present on only
// one side).
func diffDirectives(prev, cur map[string]string) []string {
	var changed []string
	for name, h := range cur {
		if prev[name] != h {
			changed = append(changed, name)
		}
	}
	for name := range prev {
		if _, ok := cur[name]; !ok {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	return changed
}

// diffSorted returns the names in exactly one of two sorted lists.
func diffSorted(prev, cur []string) []string {
	var changed []string
	for len(prev) > 0 || len(cur) > 0 {
		switch {
		case len(cur) == 0 || len(prev) > 0 && prev[0] < cur[0]:
			changed, prev = append(changed, prev[0]), prev[1:]
		case len(prev) == 0 || cur[0] < prev[0]:
			changed, cur = append(changed, cur[0]), cur[1:]
		default:
			prev, cur = prev[1:], cur[1:]
		}
	}
	return changed
}

// explain writes the per-module rebuild record in module order, preceded
// by a state-reset notice when stored state was discarded.
func explain(w io.Writer, st *store, out *Outcome) {
	if out.StateReset {
		fmt.Fprintf(w, "incremental: discarding build state: %s\n", st.resetReason)
	}
	phase := func(rebuilt bool, reason string) string {
		if !rebuilt {
			return "reused"
		}
		return "recompiled (" + reason + ")"
	}
	for _, a := range out.Actions {
		fmt.Fprintf(w, "incremental: %s: phase 1 %s; phase 2 %s\n",
			a.Module,
			phase(a.Phase1Rebuilt, a.Phase1Reason),
			phase(a.Phase2Rebuilt, a.Phase2Reason))
	}
	if r := out.Analyzer; r != nil {
		if r.Fallback != "" {
			fmt.Fprintf(w, "incremental: analyzer: full analysis (%s)\n", r.Fallback)
		} else {
			fmt.Fprintf(w, "incremental: analyzer: %d webs reused, %d rebuilt (%d dirty modules)\n",
				r.WebsReused, r.WebsRebuilt, r.DirtyModules)
		}
	}
	fmt.Fprintf(w, "incremental: %d/%d phase-1 recompiles, %d/%d phase-2 recompiles\n",
		out.Phase1Rebuilds, len(out.Actions), out.Phase2Rebuilds, len(out.Actions))
}
