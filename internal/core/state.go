// Analyzer state persistence: the intermediate artifacts of one program
// analysis — call graph with cached orders, reference-set columns,
// per-variable webs, pruned spill clusters — stamped with per-module
// summary hashes so a later run can tell exactly which slices an edit
// invalidated. AnalyzeIncremental (incremental.go) consumes a State to
// rebuild only the dirty region; this file defines the State itself, its
// construction from a finished Result, and its encoding for the build
// directory (internal/wire kind "analyzer-state").
//
// The encoding is deliberately explicit. Per-node In edge lists are
// serialized as (from-node, out-index) pairs rather than re-derived,
// because downstream float summations iterate In edges in creation order
// and the analyzer's outputs must stay byte-identical to a clean run.
package core

import (
	"fmt"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/ir"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
	"ipra/internal/wire"
)

// moduleStamp records what the analyzer last saw of one module: enough to
// detect a change (Hash), locate it (RecHashes per procedure), and rebuild
// the program-wide address-taken set without re-reading every module
// (AddrTaken, this module's sorted contribution).
type moduleStamp struct {
	Name      string
	Hash      string
	Procs     []string
	RecHashes []string
	AddrTaken []string
}

// State is the persistent analyzer state between runs. All reference
// fields are owned by the state: AnalyzeIncremental mutates the graph,
// sets, and webs in place, so a Result obtained from an earlier run must
// not be read after a newer incremental run over the same State.
type State struct {
	optKey      string
	unsupported string // non-empty: program shape the incremental path cannot handle
	stamps      []moduleStamp
	nodeSeq     string // Graph.NodeSeqHash at build time
	sccSig      string // Graph.SCCSignature at build time

	g        *callgraph.Graph
	sets     *refsets.Sets
	perVar   [][]*webs.Web // identified webs grouped by variable index
	clusters *clusters.Identification
	needs    []int // needFunc value per node at build time

	res *Result // in-memory only; nil after a decode
}

// Unsupported returns the reason the incremental path cannot reuse this
// state ("" when it can).
func (st *State) Unsupported() string { return st.unsupported }

// optionsKey fingerprints every option that shapes analyzer output. Jobs
// is deliberately excluded — results are byte-identical at any setting.
// The Profile contents are excluded too: a run with a profile attached
// always recomputes counts, so only its presence matters.
func optionsKey(opt Options) string {
	if opt.Filter == (webs.FilterOptions{}) {
		opt.Filter = webs.DefaultFilter()
	}
	if opt.Cluster.RootBias == 0 {
		opt.Cluster = clusters.DefaultOptions()
	}
	return fmt.Sprintf("v3|sm=%t|pm=%d|cr=%d|bc=%d|f=%+v|cl=%+v|pp=%t|mw=%t|prof=%t|csp=%t",
		opt.SpillMotion, opt.Promotion, opt.ColoringRegs, opt.BlanketCount,
		opt.Filter, opt.Cluster, opt.PartialProgram, opt.MergeWebs,
		opt.Profile != nil, opt.CallerSavesPreallocation)
}

// makeStamp summarizes one module for later change detection.
func makeStamp(ms *summary.ModuleSummary) moduleStamp {
	st := moduleStamp{
		Name:      ms.Module,
		Hash:      summary.Hash(ms),
		Procs:     make([]string, len(ms.Procs)),
		RecHashes: make([]string, len(ms.Procs)),
	}
	at := make(map[string]bool)
	for i := range ms.Procs {
		st.Procs[i] = ms.Procs[i].Name
		st.RecHashes[i] = summary.RecordHash(&ms.Procs[i])
		for _, name := range ms.Procs[i].AddrTakenProcs {
			at[name] = true
		}
	}
	if len(at) > 0 {
		st.AddrTaken = make([]string, 0, len(at))
		for name := range at {
			st.AddrTaken = append(st.AddrTaken, name)
		}
		sort.Strings(st.AddrTaken)
	}
	return st
}

// NewState captures the analyzer state of a finished clean run. Program
// shapes the incremental path cannot patch exactly — duplicate procedure
// definitions, address-taken residue nodes whose Build order is not
// reproducible, merged webs, partial programs — are marked unsupported:
// the state still stamps the modules, but every later run falls back to a
// full analysis until the shape goes away.
func NewState(res *Result, summaries []*summary.ModuleSummary, opt Options) *State {
	st := &State{
		optKey:   optionsKey(opt),
		stamps:   make([]moduleStamp, len(summaries)),
		g:        res.Graph,
		sets:     res.Sets,
		clusters: res.Clusters,
		res:      res,
	}
	procSeen := make(map[string]bool)
	for i, ms := range summaries {
		st.stamps[i] = makeStamp(ms)
		for j := range ms.Procs {
			if procSeen[ms.Procs[j].Name] {
				st.unsupported = "duplicate procedure " + ms.Procs[j].Name
			}
			procSeen[ms.Procs[j].Name] = true
		}
	}
	switch {
	case st.unsupported != "":
	case opt.MergeWebs:
		st.unsupported = "web merging rewrites webs across variables"
	case opt.PartialProgram:
		st.unsupported = "partial-program analysis adds a synthetic caller"
	}
	if st.unsupported != "" {
		return st
	}

	st.nodeSeq = res.Graph.NodeSeqHash()
	if callgraph.ExpectedNodeSeqHash(summaries) != st.nodeSeq {
		st.unsupported = "call graph node order is not reproducible from summaries"
		return st
	}
	st.sccSig = res.Graph.SCCSignature()

	need := needFunc(res.Graph)
	st.needs = make([]int, len(res.Graph.Nodes))
	for i := range st.needs {
		st.needs[i] = need(i)
	}

	st.perVar = make([][]*webs.Web, len(res.Sets.Vars))
	lastVar := -1
	for _, w := range res.Webs {
		vi, ok := res.Sets.Index[w.Var]
		if !ok || vi < lastVar {
			// Webs are produced grouped in variable-index order; anything
			// else means the set was rewritten by a pass this state cannot
			// replay per variable.
			st.unsupported = "web list is not grouped by variable"
			return st
		}
		lastVar = vi
		st.perVar[vi] = append(st.perVar[vi], w)
	}
	return st
}

// ----------------------------------------------------------------------------
// Wire encoding

// Wire format identity of the analyzer state. Bump the version whenever
// the body layout changes; a state that fails to decode only costs the
// next build a full analysis.
const (
	stateWireKind    = "analyzer-state"
	stateWireVersion = 1
)

// Encode serializes the state for the build directory. The in-memory
// Result is not part of the encoding; a decoded state re-derives its
// Result through AnalyzeIncremental's reuse pipeline.
func (st *State) Encode() []byte {
	e := wire.NewEncoder(stateWireKind, stateWireVersion)
	e.Str(st.optKey)
	e.Str(st.unsupported)
	e.U(uint64(len(st.stamps)))
	for i := range st.stamps {
		m := &st.stamps[i]
		e.Str(m.Name)
		e.Str(m.Hash)
		e.Strs(m.Procs)
		e.Strs(m.RecHashes)
		e.Strs(m.AddrTaken)
	}
	if st.unsupported != "" {
		return e.Finish()
	}
	e.Str(st.nodeSeq)
	e.Str(st.sccSig)

	g := st.g
	e.U(uint64(len(g.Nodes)))
	for _, nd := range g.Nodes {
		e.Str(nd.Name)
		e.Str(nd.Module)
		e.U(uint64(nd.SCC))
		e.Bool(nd.Recursive)
		e.I(int64(nd.IDom))
		e.U(uint64(nd.DomDepth))
		e.F64(nd.Count)
	}
	for _, nd := range g.Nodes {
		e.U(uint64(len(nd.Out)))
		for _, edge := range nd.Out {
			e.U(uint64(edge.To))
			e.I(edge.LocalFreq)
			e.Bool(edge.Indirect)
			e.F64(edge.Count)
		}
	}
	outIdx := make(map[*callgraph.Edge]int)
	for _, nd := range g.Nodes {
		for k, oe := range nd.Out {
			outIdx[oe] = k
		}
	}
	for _, nd := range g.Nodes {
		e.U(uint64(len(nd.In)))
		for _, edge := range nd.In {
			e.U(uint64(edge.From))
			e.U(uint64(outIdx[edge]))
		}
	}
	e.Ints(g.Starts)
	for _, v := range st.needs {
		e.I(int64(v))
	}

	sets := st.sets
	e.Strs(sets.Vars)
	words := 0
	if len(g.Nodes) > 0 {
		words = len(sets.LRef[0])
	}
	e.U(uint64(words))
	// Each family goes out as one word run, the image of the single
	// backing array DecodeState gives it.
	flat := make([]uint64, 0, len(g.Nodes)*words)
	for _, fam := range [][]ir.BitSet{sets.LRef, sets.PRef, sets.CRef} {
		flat = flat[:0]
		for _, bs := range fam {
			flat = append(flat, bs...)
		}
		e.Words(flat)
	}

	for _, ws := range st.perVar {
		e.U(uint64(len(ws)))
		for _, w := range ws {
			e.Bool(w.FromCycle)
			e.F64(w.Priority)
			e.F64(w.RefWeight)
			e.F64(w.EntryWeight)
			e.U(uint64(w.LRefNodes))
			e.Ints(w.Entries)
			e.Ints(w.Nodes.Elems(nil))
		}
	}

	e.Bool(st.clusters != nil)
	if st.clusters != nil {
		e.U(uint64(len(st.clusters.Clusters)))
		for _, c := range st.clusters.Clusters {
			e.U(uint64(c.Root))
			e.Ints(c.Members)
		}
		roots := make([]int, 0, len(st.clusters.MemberRoot))
		for m := range st.clusters.MemberRoot {
			roots = append(roots, m)
		}
		sort.Ints(roots)
		e.U(uint64(len(roots)))
		for _, m := range roots {
			e.U(uint64(m))
			e.U(uint64(st.clusters.MemberRoot[m]))
		}
	}
	return e.Finish()
}

// DecodeState rebuilds a State from Encode's output. Node Rec pointers
// and the merged global table are not serialized; AnalyzeIncremental
// rebinds them from the current summaries before any stage runs.
func DecodeState(data []byte) (*State, error) {
	d, err := wire.NewDecoder(data, stateWireKind, stateWireVersion)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	fail := func() (*State, error) {
		if d.Err() != nil {
			return nil, fmt.Errorf("core: %w", d.Err())
		}
		return nil, fmt.Errorf("core: inconsistent analyzer state")
	}
	st := &State{
		optKey:      d.Str(),
		unsupported: d.Str(),
	}
	st.stamps = make([]moduleStamp, d.Count(1))
	for i := range st.stamps {
		m := &st.stamps[i]
		m.Name = d.Str()
		m.Hash = d.Str()
		m.Procs = d.Strs()
		m.RecHashes = d.Strs()
		m.AddrTaken = d.Strs()
		if len(m.RecHashes) != len(m.Procs) {
			return fail()
		}
	}
	if st.unsupported != "" {
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return st, nil
	}
	st.nodeSeq = d.Str()
	st.sccSig = d.Str()

	n := d.Count(1)
	nodes := make([]*callgraph.Node, n)
	// Decoded records are slab-allocated: the node count is known up
	// front, and edges are carved from chunks, so a decode allocates per
	// slab rather than per record.
	nodeSlab := make([]callgraph.Node, n)
	for id := range nodes {
		nodes[id] = &nodeSlab[id]
		*nodes[id] = callgraph.Node{
			ID:        id,
			Name:      d.Str(),
			Module:    d.Str(),
			SCC:       int(d.U()),
			Recursive: d.Bool(),
			IDom:      int(d.I()),
			DomDepth:  int(d.U()),
			Count:     d.F64(),
		}
	}
	var edgeSlab []callgraph.Edge
	for id := range nodes {
		m := d.Count(1)
		if m == 0 {
			continue
		}
		nodes[id].Out = make([]*callgraph.Edge, m)
		for k := range nodes[id].Out {
			to := d.U()
			if to >= uint64(n) {
				return fail()
			}
			if len(edgeSlab) == 0 {
				edgeSlab = make([]callgraph.Edge, 1024)
			}
			e := &edgeSlab[0]
			edgeSlab = edgeSlab[1:]
			*e = callgraph.Edge{
				From:      id,
				To:        int(to),
				LocalFreq: d.I(),
				Indirect:  d.Bool(),
				Count:     d.F64(),
			}
			nodes[id].Out[k] = e
		}
	}
	for id := range nodes {
		m := d.Count(1)
		if m == 0 {
			continue
		}
		nodes[id].In = make([]*callgraph.Edge, m)
		for k := range nodes[id].In {
			from, outIdx := d.U(), d.U()
			if from >= uint64(n) || outIdx >= uint64(len(nodes[from].Out)) || nodes[from].Out[outIdx].To != id {
				return fail()
			}
			nodes[id].In[k] = nodes[from].Out[outIdx]
		}
	}
	starts := d.Ints()
	for _, s := range starts {
		if s < 0 || s >= n {
			return fail()
		}
	}
	st.needs = make([]int, n)
	for i := range st.needs {
		st.needs[i] = int(d.I())
	}
	if d.Err() != nil {
		return fail()
	}
	st.g = callgraph.Restore(nodes, starts)

	vars := d.Strs()
	words := d.Count(1)
	sets := &refsets.Sets{Vars: vars, Index: make(map[string]int, len(vars))}
	for i, v := range vars {
		sets.Index[v] = i
	}
	// One backing array per family, mirroring refsets.Compute.
	readFam := func() []ir.BitSet {
		flat := d.Words()
		if uint64(len(flat)) != uint64(n)*uint64(words) {
			return nil
		}
		fam := make([]ir.BitSet, n)
		for i := range fam {
			fam[i] = flat[i*words : (i+1)*words : (i+1)*words]
		}
		return fam
	}
	if sets.LRef, sets.PRef, sets.CRef = readFam(), readFam(), readFam(); sets.LRef == nil || sets.PRef == nil || sets.CRef == nil {
		return fail()
	}
	st.sets = sets

	st.perVar = make([][]*webs.Web, len(vars))
	var webSlab []webs.Web
	var webBits ir.BitArena
	for vi := range st.perVar {
		m := d.Count(1)
		if m == 0 {
			continue
		}
		st.perVar[vi] = make([]*webs.Web, m)
		for k := range st.perVar[vi] {
			if len(webSlab) == 0 {
				webSlab = make([]webs.Web, 64)
			}
			w := &webSlab[0]
			webSlab = webSlab[1:]
			*w = webs.Web{Var: vars[vi], Color: -1}
			w.FromCycle = d.Bool()
			w.Priority = d.F64()
			w.RefWeight = d.F64()
			w.EntryWeight = d.F64()
			w.LRefNodes = int(d.U())
			w.Entries = d.Ints()
			w.Nodes = webBits.New(n)
			for _, id := range d.Ints() {
				if id < 0 || id >= n {
					return fail()
				}
				w.Nodes.Set(id)
			}
			st.perVar[vi][k] = w
		}
	}

	if d.Bool() {
		id := &clusters.Identification{
			RootCluster: make(map[int]*clusters.Cluster),
			MemberRoot:  make(map[int]int),
		}
		id.Clusters = make([]*clusters.Cluster, d.Count(1))
		for k := range id.Clusters {
			c := &clusters.Cluster{Root: int(d.U()), Members: d.Ints()}
			id.Clusters[k] = c
			id.RootCluster[c.Root] = c
		}
		pairs := d.Count(2)
		for k := 0; k < pairs; k++ {
			m := int(d.U())
			id.MemberRoot[m] = int(d.U())
		}
		st.clusters = id
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return st, nil
}
