package core

import (
	"context"
	"fmt"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/refsets"
	"ipra/internal/regs"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/webs"
)

// analysis threads one analyzer run through its stages. Each stage reads
// the fields earlier stages published and writes its own outputs back to
// the struct, so the stage boundaries — graph, counts, reference sets,
// webs, coloring, clusters, usage sets, directives — are explicit. The
// incremental analyzer re-runs only the stages an edit invalidated, and
// because it shares these exact code paths with Analyze, its output is
// byte-identical to a clean run by construction.
type analysis struct {
	opt Options
	res *Result

	// eligible is the promotion-eligible global universe (sorted).
	eligible []string
	// active lists the webs selected for promotion by the coloring stage
	// (colored identification webs, or the synthesized blanket webs).
	active []*webs.Web
	// promotedAt[n] is the register set reserved at node n for webs.
	promotedAt []regs.Set
	// asn carries the cluster register usage sets.
	asn *clusters.Assignment
}

// checkStrategy rejects any Options.Strategy other than the paper's
// coloring, so a caller asking for a removed policy fails loudly instead
// of silently getting priority coloring.
func checkStrategy(opt Options) error {
	if opt.Strategy != "" && opt.Strategy != "priority" {
		return fmt.Errorf("core: unknown allocation strategy %q (only \"priority\" is supported)", opt.Strategy)
	}
	return nil
}

// newAnalysis normalizes the options and allocates the result shell.
func newAnalysis(opt Options) *analysis {
	if opt.Filter == (webs.FilterOptions{}) {
		opt.Filter = webs.DefaultFilter()
	}
	if opt.Cluster.RootBias == 0 {
		opt.Cluster = clusters.DefaultOptions()
	}
	return &analysis{opt: opt, res: &Result{DB: pdb.New()}}
}

// webReg maps a web color to its machine register: webs take registers
// from the top of the callee-saves set (the cluster preallocation fills
// from the bottom, minimizing contention).
func webReg(color int) uint8 { return uint8(parv.CalleeSavedLast - color) }

// stageGraph builds the call graph from the summaries, applies the
// partial-program assumptions, and runs the counts stage.
func (a *analysis) stageGraph(ctx context.Context, summaries []*summary.ModuleSummary) error {
	_, span := telemetry.StartSpan(ctx, "callgraph")
	defer span.End()
	g, err := callgraph.Build(summaries)
	if err != nil {
		return err
	}
	a.res.Graph = g
	if a.opt.PartialProgram {
		applyPartialAssumptions(g)
	}
	a.stageCounts()
	span.SetInt("nodes", int64(len(g.Nodes)))
	span.SetInt("starts", int64(len(g.Starts)))
	return nil
}

// stageCounts assigns dynamic call counts: exact profiled counts when a
// profile is attached, the §6.2 normalization heuristic otherwise.
func (a *analysis) stageCounts() {
	if a.opt.Profile != nil {
		a.res.Graph.ApplyProfile(a.opt.Profile)
	} else {
		a.res.Graph.EstimateCounts()
	}
}

// stageRefsets computes the eligible-global universe and the L_REF /
// P_REF / C_REF families.
func (a *analysis) stageRefsets(ctx context.Context) {
	_, span := telemetry.StartSpan(ctx, "refsets")
	defer span.End()
	a.eligible = refsets.EligibleGlobals(a.res.Graph)
	a.res.Sets = refsets.Compute(a.res.Graph, a.eligible)
	a.res.Stats.EligibleGlobals = len(a.eligible)
	a.res.DB.EligibleGlobals = a.eligible
	span.SetInt("eligible", int64(len(a.eligible)))
}

// stageWebs identifies the webs of every eligible variable, computes
// their priorities, optionally merges them, and applies the economic and
// correctness filters.
func (a *analysis) stageWebs(ctx context.Context) {
	_, span := telemetry.StartSpan(ctx, "webs")
	defer span.End()
	g, sets := a.res.Graph, a.res.Sets
	allWebs := webs.IdentifyJobs(g, sets, a.opt.Jobs)
	webs.ComputePriorities(g, sets, allWebs)
	if a.opt.MergeWebs {
		allWebs = webs.Merge(g, sets, allWebs)
		webs.ComputePriorities(g, sets, allWebs)
	}
	a.res.Webs = allWebs
	a.finishWebs()
	span.SetInt("found", int64(a.res.Stats.WebsFound))
	span.SetInt("considered", int64(a.res.Stats.WebsConsidered))
}

// finishWebs applies the filters and discard rules to res.Webs and
// refreshes the web statistics. It is a pure function of the current
// graph, priorities, and web set, so the incremental path re-runs it
// after splicing reused and rebuilt webs together.
func (a *analysis) finishWebs() {
	webs.Filter(a.res.Webs, a.opt.Filter)
	// Structural (profile-independent) discards come after the economic
	// filter: cross-module statics, and webs reaching procedures outside
	// the compiled program.
	discardCrossModuleStatics(a.res.Graph, a.res.Webs)
	discardUncompilableWebs(a.res.Graph, a.res.Webs)
	a.res.Stats.WebsFound = len(a.res.Webs)
	a.res.Stats.WebsConsidered = 0
	for _, w := range a.res.Webs {
		if !w.Discarded {
			a.res.Stats.WebsConsidered++
		}
	}
}

// stageColoring selects the promoted webs per the configured promotion
// mode and reserves their registers per node: priority-based coloring
// onto a reserved register subset (§4.1.3, Table 4 column C), the greedy
// full-set variant (column D), or [Wall 86] blanket promotion (column E).
func (a *analysis) stageColoring(ctx context.Context) {
	_, span := telemetry.StartSpan(ctx, "coloring")
	defer span.End()
	span.SetStr("mode", a.opt.Promotion.String())
	g, allWebs := a.res.Graph, a.res.Webs
	a.active = a.active[:0]
	switch a.opt.Promotion {
	case PromoteColoring:
		k := a.opt.ColoringRegs
		if k <= 0 {
			k = 6
		}
		if k > 16 {
			k = 16
		}
		a.res.Stats.WebsColored = webs.Color(allWebs, k)
		for _, w := range allWebs {
			if !w.Discarded && w.Color >= 0 {
				a.active = append(a.active, w)
			}
		}
	case PromoteGreedy:
		need := func(n int) int {
			nd := g.Nodes[n]
			if nd.Rec == nil {
				return 0
			}
			return nd.Rec.CalleeSavesBase
		}
		a.res.Stats.WebsColored = webs.GreedyColor(allWebs, g, need, 16)
		for _, w := range allWebs {
			if !w.Discarded && w.Color >= 0 {
				a.active = append(a.active, w)
			}
		}
	case PromoteBlanket:
		n := a.opt.BlanketCount
		if n <= 0 {
			n = 6
		}
		blankets := webs.BlanketSelect(g, a.res.Sets, allWebs, n)
		// A blanket web's loads are inserted at its entry procedures. An
		// entry without a summary record is code we never compile — the
		// unknown callers of a partial program (§7.2) — so nothing would
		// load the global and every member reached from it would read a
		// stale register. Such webs cannot be realized; drop them.
		kept := blankets[:0]
		for _, w := range blankets {
			realizable := true
			for _, e := range w.Entries {
				if g.Nodes[e].Rec == nil {
					realizable = false
					break
				}
			}
			if realizable {
				kept = append(kept, w)
			}
		}
		a.res.Blankets = kept
		a.active = append(a.active, kept...)
		a.res.Stats.WebsColored = len(a.active)
	default:
		a.res.Stats.WebsColored = 0
	}
	if cap(a.promotedAt) >= len(g.Nodes) {
		a.promotedAt = a.promotedAt[:len(g.Nodes)]
		for i := range a.promotedAt {
			a.promotedAt[i] = 0
		}
	} else {
		a.promotedAt = make([]regs.Set, len(g.Nodes))
	}
	for _, w := range a.active {
		r := webReg(w.Color)
		w.Nodes.ForEach(func(id int) {
			a.promotedAt[id] = a.promotedAt[id].Add(r)
		})
	}
	span.SetInt("colored", int64(a.res.Stats.WebsColored))
}

// stageClusters identifies and prunes the spill-motion clusters.
func (a *analysis) stageClusters(ctx context.Context) {
	if !a.opt.SpillMotion {
		return
	}
	_, span := telemetry.StartSpan(ctx, "clusters")
	defer span.End()
	g := a.res.Graph
	a.res.Clusters = clusters.Identify(g, a.opt.Cluster)
	clusters.Prune(g, a.res.Clusters, needFunc(g))
	a.refreshClusterStats()
	span.SetInt("clusters", int64(a.res.Stats.Clusters))
}

func (a *analysis) refreshClusterStats() {
	a.res.Stats.Clusters = len(a.res.Clusters.Clusters)
	a.res.Stats.AvgClusterSize = a.res.Clusters.AverageSize()
}

// stageClusterSets runs the Figure 6 preallocation over the identified
// clusters. It depends on the promotion result (promoted registers are
// excluded from preallocation), so it always re-runs even when the
// cluster structure itself is reused.
func (a *analysis) stageClusterSets() {
	if !a.opt.SpillMotion {
		return
	}
	g := a.res.Graph
	a.asn = clusters.ComputeSets(g, a.res.Clusters, needFunc(g), func(n int) regs.Set {
		return a.promotedAt[n]
	})
}

// stageDirectives assembles the program database. The per-node promotion
// lists are built by one pass over the active webs' member sets (inverting
// web membership) instead of probing every active web at every node.
func (a *analysis) stageDirectives(ctx context.Context) error {
	_, span := telemetry.StartSpan(ctx, "directives")
	defer span.End()
	g := a.res.Graph
	needStore := webNeedsStore(g, a.active)
	counts := make([]int, len(g.Nodes))
	total := 0
	for _, w := range a.active {
		w.Nodes.ForEach(func(id int) {
			counts[id]++
			total++
		})
	}
	backing := make([]pdb.PromotedGlobal, total)
	perNode := make([][]pdb.PromotedGlobal, len(g.Nodes))
	off := 0
	for i, c := range counts {
		if c > 0 {
			perNode[i] = backing[off : off : off+c]
			off += c
		}
	}
	entryAt := ir.NewBitSet(len(g.Nodes))
	for _, w := range a.active {
		pg := pdb.PromotedGlobal{
			Name:      w.Var,
			Reg:       webReg(w.Color),
			NeedStore: needStore[w],
			WebID:     w.ID,
		}
		for _, e := range w.Entries {
			entryAt.Set(e)
		}
		w.Nodes.ForEach(func(id int) {
			m := pg
			m.IsEntry = entryAt.Has(id)
			perNode[id] = append(perNode[id], m)
		})
		for _, e := range w.Entries {
			entryAt.Clear(e)
		}
	}
	if a.res.DB.Procs == nil || len(a.res.DB.Procs) > 0 {
		a.res.DB.Procs = make(map[string]*pdb.ProcDirectives, len(g.Nodes))
	}
	nRecs := 0
	for _, nd := range g.Nodes {
		if nd.Rec != nil {
			nRecs++
		}
	}
	block := make([]pdb.ProcDirectives, 0, nRecs)
	for _, nd := range g.Nodes {
		if nd.Rec == nil {
			continue // external procedure: nothing to direct
		}
		if a.asn != nil {
			s := a.asn.Sets[nd.ID]
			block = append(block, pdb.ProcDirectives{
				Name: nd.Name,
				Free: s.Free, Caller: s.Caller, Callee: s.Callee, MSpill: s.MSpill,
				IsClusterRoot: a.res.Clusters.IsRoot(nd.ID),
			})
		} else {
			block = append(block, *pdb.Standard(nd.Name))
		}
		d := &block[len(block)-1]
		// Promoted registers are unavailable for any other purpose in web
		// procedures: remove them from every usage set (§5).
		if pset := a.promotedAt[nd.ID]; !pset.Empty() {
			d.Free = d.Free.Minus(pset)
			d.Caller = d.Caller.Minus(pset)
			d.Callee = d.Callee.Minus(pset)
			d.MSpill = d.MSpill.Minus(pset)
		}
		d.Promoted = perNode[nd.ID]
		if len(d.Promoted) > 1 {
			pdb.SortPromoted(d.Promoted)
		}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("analyzer produced inconsistent directives: %w", err)
		}
		a.res.DB.Procs[nd.Name] = d
	}
	if a.opt.CallerSavesPreallocation {
		computeCallClobbers(g, a.res.DB)
	}
	return nil
}
