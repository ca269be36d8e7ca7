// Package webs implements interprocedural global variable promotion
// (§4.1 of the paper): partitioning the procedures that access each
// eligible global variable into webs — call-graph live ranges — and
// coloring the web interference graph onto a set of callee-saves
// registers, so that
//
//   - a global is accessed from the same register in every procedure of a
//     promoted web, with loads/stores only at web entry procedures; and
//   - the same register can hold different globals in disjoint regions of
//     the call graph (the improvement over [Wall 86]'s whole-program
//     dedication, reproduced here as "blanket" promotion).
package webs

import (
	"fmt"
	"math/bits"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/ir"
	"ipra/internal/pipeline"
	"ipra/internal/refsets"
)

// Web is a minimal call-graph subgraph for one global variable such that
// the variable is referenced in no ancestor and no descendant of the
// subgraph (§4.1.1).
type Web struct {
	ID  int
	Var string

	// Nodes is the member set, a bit per call graph node ID. Dense bit
	// sets make the hot operations of web construction and coloring —
	// membership tests, merges, and the pairwise interference test —
	// word-wise instead of per-element map traffic.
	Nodes ir.BitSet
	// Entries are the web's root nodes: members with no predecessor inside
	// the web. The compiler second phase loads the global at their entry
	// points and stores it back at their exits.
	Entries []int

	// FromCycle marks webs created for recursive call chains whose
	// references would otherwise be missed (§4.1.2).
	FromCycle bool

	// Priority orders webs for coloring; see ComputePriorities.
	Priority float64
	// RefWeight is the estimated dynamic references to Var inside the web.
	RefWeight float64
	// EntryWeight is the estimated dynamic calls to entry nodes (each call
	// pays a load and possibly a store).
	EntryWeight float64
	// LRefNodes counts members that actually reference Var locally.
	LRefNodes int

	// Discarded webs are never considered for coloring.
	Discarded     bool
	DiscardReason string

	// Color is the index of the register assigned by coloring, or -1.
	Color int
	// Blanket marks webs synthesized by blanket promotion ([Wall 86]
	// emulation): the register is dedicated over the whole program.
	Blanket bool
}

// Contains reports whether the web contains node id.
func (w *Web) Contains(id int) bool { return w.Nodes.Has(id) }

// Size returns the number of member nodes.
func (w *Web) Size() int { return w.Nodes.Count() }

// NodeIDs returns the member node IDs in ascending order.
func (w *Web) NodeIDs() []int { return w.Nodes.Elems(nil) }

// IsEntry reports whether node id is an entry node of the web.
func (w *Web) IsEntry(id int) bool {
	for _, e := range w.Entries {
		if e == id {
			return true
		}
	}
	return false
}

func (w *Web) String() string {
	return fmt.Sprintf("web %d for %s: nodes=%v entries=%v color=%d", w.ID, w.Var, w.NodeIDs(), w.Entries, w.Color)
}

// ----------------------------------------------------------------------------
// Web identification (Figure 2)

// identifyState is the shared, read-only context for per-variable web
// construction. It inverts the reference sets once — per-variable L_REF
// node lists and per-SCC member lists — so each variable visits only the
// nodes that mention it instead of scanning the whole graph.
type identifyState struct {
	g    *callgraph.Graph
	sets *refsets.Sets

	// lrefNodes[vi] lists the node IDs with variable vi in L_REF,
	// ascending.
	lrefNodes [][]int
	// lazy defers building lrefNodes[vi] until websFor(vi) asks for it:
	// the incremental analyzer rebuilds a handful of variables, so paying
	// the full inverted-index build up front would dominate its runtime.
	// Lazy state must not be shared across goroutines.
	lazy      bool
	lrefReady ir.BitSet
	// sccMembers[c] lists the node IDs of SCC c, ascending (SCCs are
	// numbered densely by the call graph).
	sccMembers [][]int
}

func newIdentifyState(g *callgraph.Graph, sets *refsets.Sets, lazy bool) *identifyState {
	st := &identifyState{g: g, sets: sets, lazy: lazy, lrefNodes: make([][]int, len(sets.Vars))}
	if lazy {
		st.lrefReady = ir.NewBitSet(len(sets.Vars))
	} else {
		// Two-pass slab build: count every (node, variable) L_REF pair,
		// carve one backing slab, then fill. Per-variable appends would pay
		// an allocation chain per variable; the word loop also avoids a
		// heap-allocated ForEach closure per node.
		counts := make([]int, len(sets.Vars))
		total := 0
		for _, nd := range g.Nodes {
			for wi, word := range sets.LRef[nd.ID] {
				for word != 0 {
					vi := wi*64 + bits.TrailingZeros64(word)
					word &= word - 1
					counts[vi]++
					total++
				}
			}
		}
		slab := make([]int, total)
		off := 0
		for vi, c := range counts {
			if c > 0 {
				st.lrefNodes[vi] = slab[off : off : off+c]
				off += c
			}
		}
		for _, nd := range g.Nodes {
			for wi, word := range sets.LRef[nd.ID] {
				for word != 0 {
					vi := wi*64 + bits.TrailingZeros64(word)
					word &= word - 1
					st.lrefNodes[vi] = append(st.lrefNodes[vi], nd.ID)
				}
			}
		}
	}
	maxSCC := -1
	for _, nd := range g.Nodes {
		if nd.SCC > maxSCC {
			maxSCC = nd.SCC
		}
	}
	st.sccMembers = make([][]int, maxSCC+1)
	sccCounts := make([]int, maxSCC+1)
	for _, nd := range g.Nodes {
		sccCounts[nd.SCC]++
	}
	sccSlab := make([]int, len(g.Nodes))
	off := 0
	for c, n := range sccCounts {
		if n > 0 {
			st.sccMembers[c] = sccSlab[off : off : off+n]
			off += n
		}
	}
	for _, nd := range g.Nodes {
		st.sccMembers[nd.SCC] = append(st.sccMembers[nd.SCC], nd.ID)
	}
	return st
}

// lref returns the ascending node IDs whose L_REF contains variable vi,
// materializing the list on first use in lazy mode.
func (st *identifyState) lref(vi int) []int {
	if st.lazy && !st.lrefReady.Has(vi) {
		st.lrefReady.Set(vi)
		for _, nd := range st.g.Nodes {
			if st.sets.LRef[nd.ID].Has(vi) {
				st.lrefNodes[vi] = append(st.lrefNodes[vi], nd.ID)
			}
		}
	}
	return st.lrefNodes[vi]
}

// identArena batches the allocations of web construction: Web structs and
// node bit sets both come from chunked, never-reclaimed slabs, so one
// variable's construction pays a constant number of allocations instead
// of several per web. An arena must not be shared across goroutines.
type identArena struct {
	bits ir.BitArena
	webs []Web
	// grow is growWeb's reusable frontier scratch; free between calls.
	grow []int
}

// newWeb returns a fresh web for v with an empty node set sized to the
// graph.
func (a *identArena) newWeb(v string, nodes int, fromCycle bool) *Web {
	if len(a.webs) == 0 {
		a.webs = make([]Web, 16)
	}
	w := &a.webs[0]
	a.webs = a.webs[1:]
	*w = Web{Var: v, Nodes: a.bits.New(nodes), Color: -1, FromCycle: fromCycle}
	return w
}

// websFor runs Compute_Webs for a single variable, allocating out of ar.
// In eager mode it touches only read-only shared state, so distinct
// variables can run concurrently with per-call (or per-worker) arenas.
func (st *identifyState) websFor(vi int, ar *identArena) []*Web {
	g, sets := st.g, st.sets
	lref := st.lref(vi)
	v := sets.Vars[vi]
	var vwebs []*Web
	// covered is the union of all webs built so far for this variable: a
	// one-word probe replaces the per-web membership scan, and a freshly
	// grown web only pays the pairwise merge scan when it actually
	// overlaps the union.
	covered := ar.bits.New(len(g.Nodes))
	add := func(w *Web) {
		if covered.Intersects(w.Nodes) {
			vwebs = mergeOverlap(vwebs, w)
		} else {
			vwebs = append(vwebs, w)
		}
		covered.OrWith(w.Nodes)
	}
	// Candidate web entry nodes: G ∈ L_REF[P] and G ∉ P_REF[P].
	// growWeb never retains its seed, so one reused buffer serves every
	// candidate instead of a fresh one-element slice per candidate.
	var seedBuf [1]int
	for _, p := range lref {
		if sets.PRef[p].Has(vi) || covered.Has(p) {
			continue
		}
		w := ar.newWeb(v, len(g.Nodes), false)
		seedBuf[0] = p
		growWeb(g, sets, vi, w, seedBuf[:], ar)
		add(w)
	}
	// Recursive call chains: a cycle that references G but whose entry
	// paths never do leaves G in P_REF all around the cycle, so no
	// candidate entry exists. Put each such cycle in its own web and
	// enlarge it for correctness (§4.1.2).
	for _, p := range lref {
		nd := g.Nodes[p]
		if !nd.Recursive || covered.Has(p) {
			continue
		}
		w := ar.newWeb(v, len(g.Nodes), true)
		growWeb(g, sets, vi, w, st.sccMembers[nd.SCC], ar)
		add(w)
	}
	return vwebs
}

// Identify computes the webs of every eligible global variable, following
// the Compute_Webs/Expand_Web algorithm of Figure 2, plus the paper's
// companion rule for recursive call chains.
func Identify(g *callgraph.Graph, sets *refsets.Sets) []*Web {
	return IdentifyJobs(g, sets, 1)
}

// IdentifyJobs is Identify with the per-variable construction fanned
// across a bounded worker pool: webs of distinct variables never interact
// until coloring, so each variable is an independent work item. jobs
// follows pipeline.Workers semantics (0 = one worker per CPU, 1 =
// sequential). Results are concatenated in variable-index order and IDs
// assigned afterwards, so the output is byte-identical to the sequential
// run regardless of worker interleaving.
func IdentifyJobs(g *callgraph.Graph, sets *refsets.Sets, jobs int) []*Web {
	st := newIdentifyState(g, sets, false)
	perVar := make([][]*Web, len(sets.Vars))
	if pipeline.Workers(jobs) <= 1 || len(sets.Vars) < 2 {
		var ar identArena
		for vi := range sets.Vars {
			perVar[vi] = st.websFor(vi, &ar)
		}
	} else {
		// Arenas are not goroutine-safe, so parallel construction pays one
		// arena per variable; each still batches that variable's webs.
		perVar, _ = pipeline.Map(jobs, make([]struct{}, len(sets.Vars)),
			func(vi int, _ struct{}) ([]*Web, error) {
				var ar identArena
				return st.websFor(vi, &ar), nil
			})
	}
	var webs []*Web
	for _, vw := range perVar {
		webs = append(webs, vw...)
	}
	for i, w := range webs {
		w.ID = i + 1
		computeEntries(g, w)
	}
	return webs
}

// Identifier exposes per-variable web construction to the incremental
// analyzer: it builds the shared inverted indexes once, then rebuilds only
// the web lists of dirty variables through the same websFor code path
// IdentifyJobs uses, so a rebuilt list is byte-identical to the clean one.
type Identifier struct {
	st *identifyState
	ar identArena
}

// NewIdentifier prepares per-variable web construction over the graph.
func NewIdentifier(g *callgraph.Graph, sets *refsets.Sets) *Identifier {
	return &Identifier{st: newIdentifyState(g, sets, true)}
}

// WebsFor computes the webs of one variable (by index). IDs and entry
// lists are left unset; callers assign IDs over the assembled program-wide
// list and fill entries with ComputeEntries, exactly as IdentifyJobs does.
func (id *Identifier) WebsFor(vi int) []*Web { return id.st.websFor(vi, &id.ar) }

// ComputeEntries fills w.Entries from the current graph edges.
func ComputeEntries(g *callgraph.Graph, w *Web) { computeEntries(g, w) }

// growWeb runs the repeat/until loop of Compute_Webs: expand from the seed
// nodes, then repeatedly pull in the external predecessors of any member
// that has both internal and external predecessors, until every member's
// predecessors are either all internal or all external.
func growWeb(g *callgraph.Graph, sets *refsets.Sets, vi int, w *Web, seed []int, ar *identArena) {
	temp := seed
	seen := ar.bits.New(len(g.Nodes))
	// The first frontier reuses the arena's scratch buffer; growth loops
	// beyond one round are rare enough to allocate their own. The buffer
	// may still back temp when it returns to the arena below — that is
	// safe because the arena hands it out again only on the next growWeb
	// call, by which time this call's temp is dead.
	nextTemp := ar.grow[:0]
	rounds := 0
	for {
		for _, q := range temp {
			expandWeb(g, sets, vi, w, q)
		}
		// S = members with both an internal and an external predecessor.
		for i := range seen {
			seen[i] = 0
		}
		for wi, word := range w.Nodes {
			for word != 0 {
				z := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				internal, external := false, false
				for _, e := range g.Nodes[z].In {
					if w.Nodes.Has(e.From) {
						internal = true
					} else {
						external = true
					}
				}
				if internal && external {
					for _, e := range g.Nodes[z].In {
						if !w.Nodes.Has(e.From) && !seen.Has(e.From) {
							seen.Set(e.From)
							nextTemp = append(nextTemp, e.From)
						}
					}
				}
			}
		}
		if len(nextTemp) == 0 {
			if rounds == 0 {
				ar.grow = nextTemp[:0]
			}
			return
		}
		sort.Ints(nextTemp)
		temp = nextTemp
		if rounds == 0 {
			ar.grow = nextTemp[:0]
		}
		rounds++
		nextTemp = nil
	}
}

// expandWeb is Figure 2's Expand_Web: add Q, then recursively add every
// successor that has the variable in its C_REF or L_REF set.
func expandWeb(g *callgraph.Graph, sets *refsets.Sets, vi int, w *Web, q int) {
	if w.Nodes.Has(q) {
		return
	}
	w.Nodes.Set(q)
	for _, e := range g.Nodes[q].Out {
		s := e.To
		if w.Nodes.Has(s) {
			continue
		}
		if sets.CRef[s].Has(vi) || sets.LRef[s].Has(vi) {
			expandWeb(g, sets, vi, w, s)
		}
	}
}

// mergeOverlap adds w to ws, folding together any existing webs for the
// same variable that share nodes with it (Figure 2's final merge step).
func mergeOverlap(ws []*Web, w *Web) []*Web {
	out := ws[:0]
	for _, x := range ws {
		if x.Var == w.Var && sharesNode(x, w) {
			w.Nodes.OrWith(x.Nodes)
			w.FromCycle = w.FromCycle || x.FromCycle
			continue
		}
		out = append(out, x)
	}
	return append(out, w)
}

func sharesNode(a, b *Web) bool { return a.Nodes.Intersects(b.Nodes) }

// computeEntries fills w.Entries: members with no predecessor in the web.
// The word loop replaces a ForEach closure, which the compiler heap-
// allocates once per call — one allocation per web, on a path that visits
// every web of the program.
func computeEntries(g *callgraph.Graph, w *Web) {
	w.Entries = w.Entries[:0]
	for wi, word := range w.Nodes {
		for word != 0 {
			id := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			internal := false
			for _, e := range g.Nodes[id].In {
				// Self-recursive members cannot be entries either.
				if e.From == id || w.Nodes.Has(e.From) {
					internal = true
					break
				}
			}
			if !internal {
				w.Entries = append(w.Entries, id)
			}
		}
	}
}

// Validate checks the structural invariants §4.1.2 requires for
// correctness; it is used by the property-based tests.
func Validate(g *callgraph.Graph, sets *refsets.Sets, w *Web) error {
	vi, ok := sets.Index[w.Var]
	if !ok {
		return fmt.Errorf("web %d: unknown variable %s", w.ID, w.Var)
	}
	if w.Nodes.Empty() {
		return fmt.Errorf("web %d: empty", w.ID)
	}
	entries := make(map[int]bool, len(w.Entries))
	for _, e := range w.Entries {
		entries[e] = true
		if !w.Nodes.Has(e) {
			return fmt.Errorf("web %d: entry %d not a member", w.ID, e)
		}
	}
	for _, id := range w.NodeIDs() {
		hasInternal := false
		for _, e := range g.Nodes[id].In {
			if w.Nodes.Has(e.From) {
				hasInternal = true
			} else if !entries[id] {
				return fmt.Errorf("web %d: internal node %s has external predecessor %s",
					w.ID, g.Nodes[id].Name, g.Nodes[e.From].Name)
			}
		}
		if entries[id] && hasInternal {
			return fmt.Errorf("web %d: entry node %s has internal predecessor", w.ID, g.Nodes[id].Name)
		}
	}
	// No member may call an external procedure that references the
	// variable (the web must be a complete live range).
	for _, id := range w.NodeIDs() {
		for _, e := range g.Nodes[id].Out {
			if w.Nodes.Has(e.To) {
				continue
			}
			if sets.LRef[e.To].Has(vi) || sets.CRef[e.To].Has(vi) {
				return fmt.Errorf("web %d: member %s calls external %s which references %s",
					w.ID, g.Nodes[id].Name, g.Nodes[e.To].Name, w.Var)
			}
		}
	}
	return nil
}
