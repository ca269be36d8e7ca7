package main

import (
	"context"
	"fmt"
	"sort"

	"ipra"
	"ipra/internal/codegen"
	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/ast"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
	"ipra/internal/opt"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/summary"
)

// replay holds one program's artifacts between replayed builds: the
// per-module phase-1 output and objects, and the analyzer state an
// incremental build hands to the next.
//
// Its build method makes, one layer call at a time, the calls ipra.Build
// makes for the same rebuild set. The executable it links must be
// byte-identical to ipra.Build's; every traced build checks that, so the
// replay cannot silently drift from the pipeline it measures.
type replay struct {
	cfg   ipra.Config
	mods  []*ir.Module
	sums  []*summary.ModuleSummary
	objs  []*parv.Object
	state []byte // encoded analyzer state; nil when none is kept
}

// replayOut is what one replayed build produced.
type replayOut struct {
	exe         *parv.Executable
	websRebuilt int
	fallback    bool
	words       int // instructions generated by the codegen calls
}

// build replays one build. p1 and p2 mark the modules whose phase 1 and
// phase 2 run (nil: all). incremental selects the analyzer entry point
// an incremental build uses (mcc -incremental, the daemon); otherwise the
// in-memory build's full analysis runs.
func (r *replay) build(ctx context.Context, t *tracer, srcs []ipra.Source, p1, p2 []bool, incremental bool) (*replayOut, error) {
	n := len(srcs)
	if len(r.mods) != n {
		r.mods = make([]*ir.Module, n)
		r.sums = make([]*summary.ModuleSummary, n)
		r.objs = make([]*parv.Object, n)
	}
	out := &replayOut{}
	err := t.do("phase1", "", func() error {
		for i, src := range srcs {
			if p1 != nil && !p1[i] {
				continue
			}
			m, ms, err := phase1(t, src)
			if err != nil {
				return err
			}
			r.mods[i], r.sums[i] = m, ms
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var db *pdb.Database
	if r.cfg.UseAnalyzer {
		// Like the build driver, an incremental build decodes the state
		// the previous build left (undecodable or missing: a full
		// analysis) and keeps the refreshed state. Both codec calls stay
		// outside the core span: they are the driver's work, not the
		// analyzer's.
		var prev *core.State
		if incremental && r.state != nil {
			if st, err := core.DecodeState(r.state); err == nil {
				prev = st
			}
		}
		var st *core.State
		err = t.do("core", "", func() (err error) {
			db, st, err = r.analyze(ctx, srcs, p1, prev, incremental, out)
			return err
		})
		if err != nil {
			return nil, err
		}
		if incremental {
			r.state = nil
			if st != nil && st.Unsupported() == "" {
				r.state = st.Encode()
			}
		}
	} else {
		db = pdb.New()
		db.EligibleGlobals = eligibleFromSummaries(r.sums)
	}

	eligible := make(map[string]bool, len(db.EligibleGlobals))
	for _, g := range db.EligibleGlobals {
		eligible[g] = true
	}
	err = t.do("phase2", "", func() error {
		for i, m := range r.mods {
			if p2 != nil && !p2[i] {
				continue
			}
			var work *ir.Module
			t.do("opt", m.Name, func() error {
				work = m.Clone()
				for _, f := range work.Funcs {
					dir := db.Lookup(f.Name)
					skip := make(map[string]bool, len(dir.Promoted))
					for _, pg := range dir.Promoted {
						skip[pg.Name] = true
					}
					opt.ApplyWebDirectives(f, dir.Promoted)
					opt.Level2(f, eligible, skip)
				}
				return nil
			})
			var obj *parv.Object
			err := t.do("codegen", m.Name, func() (err error) {
				obj, err = codegen.Compile(work, db)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", m.Name, err)
			}
			for _, f := range obj.Funcs {
				out.words += len(f.Code)
			}
			r.objs[i] = obj
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = t.do("parv.link", "", func() (err error) {
		out.exe, err = parv.Link(r.objs, parv.LinkConfig{DataSize: r.cfg.DataSize})
		return err
	})
	return out, err
}

// phase1 replays the compiler first phase of one module: parse, check,
// lower, summarize.
func phase1(t *tracer, src ipra.Source) (*ir.Module, *summary.ModuleSummary, error) {
	var file *ast.File
	var checked *sem.Module
	var m *ir.Module
	var ms *summary.ModuleSummary
	err := t.do("minic.parse", src.Name, func() (err error) {
		file, err = parser.ParseFile(src.Name, src.Text)
		return err
	})
	if err == nil {
		err = t.do("minic.sem", src.Name, func() (err error) {
			checked, err = sem.Check(file)
			return err
		})
	}
	if err == nil {
		err = t.do("irgen", src.Name, func() (err error) {
			m, err = irgen.Generate(checked)
			return err
		})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", src.Name, err)
	}
	t.do("summary", src.Name, func() error {
		ms = ipra.Summaries([]*ir.Module{m})[0]
		return nil
	})
	return m, ms, nil
}

// analyze runs the program analyzer the way ipra.Build configures it:
// core.AnalyzeIncremental over the modules whose phase 1 ran for an
// incremental build, core.Analyze otherwise.
func (r *replay) analyze(ctx context.Context, srcs []ipra.Source, p1 []bool, prev *core.State, incremental bool, out *replayOut) (*pdb.Database, *core.State, error) {
	o := r.cfg.Analyzer
	o.Profile = r.cfg.Profile
	o.Jobs = r.cfg.Jobs
	if r.cfg.Strategy != "" {
		o.Strategy = r.cfg.Strategy
	}
	if !incremental {
		res, err := core.Analyze(ctx, r.sums, o)
		if err != nil {
			return nil, nil, err
		}
		out.websRebuilt, out.fallback = len(res.Webs), true
		return res.DB, nil, nil
	}
	var dirty []string
	for i, src := range srcs {
		if p1 == nil || p1[i] {
			dirty = append(dirty, src.Name)
		}
	}
	res, st, rs, err := core.AnalyzeIncremental(ctx, r.sums, o, prev, dirty)
	if err != nil {
		return nil, nil, err
	}
	out.fallback = rs.Fallback != ""
	out.websRebuilt = rs.WebsRebuilt
	if out.fallback {
		out.websRebuilt = len(res.Webs)
	}
	return res.DB, st, nil
}

// eligibleFromSummaries is the level-2 baseline's program-wide promotion
// eligibility (scalar, defined, never aliased), as ipra.Build computes it
// when no analyzer runs.
func eligibleFromSummaries(sums []*summary.ModuleSummary) []string {
	type info struct {
		scalar, defined, aliased bool
		size                     int32
	}
	m := make(map[string]*info)
	for _, ms := range sums {
		for _, g := range ms.Globals {
			gi := m[g.Name]
			if gi == nil {
				gi = &info{}
				m[g.Name] = gi
			}
			if g.Defined {
				gi.defined = true
				gi.scalar = g.Scalar
				gi.size = g.Size
			}
			if g.AddrTaken {
				gi.aliased = true
			}
		}
	}
	var out []string
	for name, gi := range m {
		if gi.scalar && gi.defined && !gi.aliased && gi.size <= 4 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
