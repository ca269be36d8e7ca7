// Analyzer state persistence: the intermediate artifacts of one program
// analysis — call graph with cached orders, reference-set columns,
// per-variable webs, pruned spill clusters — stamped with per-module
// summary hashes so a later run can tell exactly which slices an edit
// invalidated. AnalyzeIncremental (incremental.go) consumes a State to
// rebuild only the dirty region; this file defines the State itself, its
// construction from a finished Result, and a flat binary encoding for the
// build directory.
//
// The encoding is deliberately explicit. Per-node In edge lists are
// serialized as (from-node, out-index) pairs rather than re-derived,
// because downstream float summations iterate In edges in creation order
// and the analyzer's outputs must stay byte-identical to a clean run.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/ir"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
)

// stateMagic versions the analyzer state encoding; decoding anything else
// fails, and the caller falls back to a full analysis.
const stateMagic = "ipra-analyzer-state/v1"

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
// Binary encoding

type stateEnc struct{ b []byte }

func (e *stateEnc) u(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *stateEnc) i(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *stateEnc) bool(v bool) { e.b = append(e.b, b2u(v)) }
func (e *stateEnc) s(s string)  { e.u(uint64(len(s))); e.b = append(e.b, s...) }
func (e *stateEnc) f(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *stateEnc) w(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *stateEnc) strs(ss []string) {
	e.u(uint64(len(ss)))
	for _, s := range ss {
		e.s(s)
	}
}
func (e *stateEnc) ints(vs []int) {
	e.u(uint64(len(vs)))
	for _, v := range vs {
		e.u(uint64(v))
	}
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

type stateDec struct {
	b   []byte
	err error
}

func (d *stateDec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: truncated analyzer state")
	}
	d.b = nil
}

func (d *stateDec) u() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDec) i() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDec) bool() bool {
	if len(d.b) < 1 {
		d.fail()
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

func (d *stateDec) s() string {
	n := d.u()
	if uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

func (d *stateDec) f() float64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *stateDec) w() uint64 {
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// count reads a collection length and bounds it: every serialized element
// occupies at least one byte, so a length beyond the remaining buffer is
// corruption, not a huge allocation to attempt.
func (d *stateDec) count() int {
	n := d.u()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *stateDec) strs() []string {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.s()
	}
	return out
}

func (d *stateDec) ints() []int {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.u())
	}
	return out
}

// Encode serializes the state for the build directory. The in-memory
// Result is not part of the encoding; a decoded state re-derives its
// Result through AnalyzeIncremental's reuse pipeline.
func (st *State) Encode() []byte {
	e := &stateEnc{b: make([]byte, 0, 1<<16)}
	e.s(stateMagic)
	e.s(st.optKey)
	e.s(st.unsupported)
	e.u(uint64(len(st.stamps)))
	for i := range st.stamps {
		m := &st.stamps[i]
		e.s(m.Name)
		e.s(m.Hash)
		e.strs(m.Procs)
		e.strs(m.RecHashes)
		e.strs(m.AddrTaken)
	}
	if st.unsupported != "" {
		return e.b
	}
	e.s(st.nodeSeq)
	e.s(st.sccSig)

	g := st.g
	e.u(uint64(len(g.Nodes)))
	for _, nd := range g.Nodes {
		e.s(nd.Name)
		e.s(nd.Module)
		e.u(uint64(nd.SCC))
		e.bool(nd.Recursive)
		e.i(int64(nd.IDom))
		e.u(uint64(nd.DomDepth))
		e.f(nd.Count)
	}
	for _, nd := range g.Nodes {
		e.u(uint64(len(nd.Out)))
		for _, edge := range nd.Out {
			e.u(uint64(edge.To))
			e.i(edge.LocalFreq)
			e.bool(edge.Indirect)
			e.f(edge.Count)
		}
	}
	outIdx := make(map[*callgraph.Edge]int)
	for _, nd := range g.Nodes {
		for k, oe := range nd.Out {
			outIdx[oe] = k
		}
	}
	for _, nd := range g.Nodes {
		e.u(uint64(len(nd.In)))
		for _, edge := range nd.In {
			e.u(uint64(edge.From))
			e.u(uint64(outIdx[edge]))
		}
	}
	e.ints(g.Starts)
	for _, v := range st.needs {
		e.i(int64(v))
	}

	sets := st.sets
	e.strs(sets.Vars)
	words := 0
	if len(g.Nodes) > 0 {
		words = len(sets.LRef[0])
	}
	e.u(uint64(words))
	for _, fam := range [][]ir.BitSet{sets.LRef, sets.PRef, sets.CRef} {
		for _, bs := range fam {
			for _, word := range bs {
				e.w(word)
			}
		}
	}

	for _, ws := range st.perVar {
		e.u(uint64(len(ws)))
		for _, w := range ws {
			e.bool(w.FromCycle)
			e.f(w.Priority)
			e.f(w.RefWeight)
			e.f(w.EntryWeight)
			e.u(uint64(w.LRefNodes))
			e.ints(w.Entries)
			e.ints(w.Nodes.Elems(nil))
		}
	}

	if st.clusters == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.u(uint64(len(st.clusters.Clusters)))
		for _, c := range st.clusters.Clusters {
			e.u(uint64(c.Root))
			e.ints(c.Members)
		}
		roots := make([]int, 0, len(st.clusters.MemberRoot))
		for m := range st.clusters.MemberRoot {
			roots = append(roots, m)
		}
		sort.Ints(roots)
		e.u(uint64(len(roots)))
		for _, m := range roots {
			e.u(uint64(m))
			e.u(uint64(st.clusters.MemberRoot[m]))
		}
	}
	return e.b
}

// DecodeState rebuilds a State from Encode's output. Node Rec pointers
// and the merged global table are not serialized; AnalyzeIncremental
// rebinds them from the current summaries before any stage runs.
func DecodeState(data []byte) (*State, error) {
	d := &stateDec{b: data}
	if magic := d.s(); magic != stateMagic {
		return nil, fmt.Errorf("core: analyzer state version mismatch (got %q, want %q)", magic, stateMagic)
	}
	st := &State{
		optKey:      d.s(),
		unsupported: d.s(),
	}
	st.stamps = make([]moduleStamp, d.count())
	for i := range st.stamps {
		m := &st.stamps[i]
		m.Name = d.s()
		m.Hash = d.s()
		m.Procs = d.strs()
		m.RecHashes = d.strs()
		m.AddrTaken = d.strs()
		if len(m.RecHashes) != len(m.Procs) {
			d.fail()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if st.unsupported != "" {
		return st, nil
	}
	st.nodeSeq = d.s()
	st.sccSig = d.s()

	n := d.count()
	nodes := make([]*callgraph.Node, n)
	// Decoded records are slab-allocated: the node count is known up
	// front, and edges are carved from chunks, so a decode allocates per
	// slab rather than per record.
	nodeSlab := make([]callgraph.Node, n)
	for id := range nodes {
		nodes[id] = &nodeSlab[id]
		*nodes[id] = callgraph.Node{
			ID:        id,
			Name:      d.s(),
			Module:    d.s(),
			SCC:       int(d.u()),
			Recursive: d.bool(),
			IDom:      int(d.i()),
			DomDepth:  int(d.u()),
			Count:     d.f(),
		}
	}
	var edgeSlab []callgraph.Edge
	newEdge := func() *callgraph.Edge {
		if len(edgeSlab) == 0 {
			edgeSlab = make([]callgraph.Edge, 1024)
		}
		e := &edgeSlab[0]
		edgeSlab = edgeSlab[1:]
		return e
	}
	for id := range nodes {
		m := d.count()
		if m == 0 {
			continue
		}
		nodes[id].Out = make([]*callgraph.Edge, m)
		for k := range nodes[id].Out {
			to := int(d.u())
			if to < 0 || to >= n {
				d.fail()
				to = 0
			}
			e := newEdge()
			*e = callgraph.Edge{
				From:      id,
				To:        to,
				LocalFreq: d.i(),
				Indirect:  d.bool(),
				Count:     d.f(),
			}
			nodes[id].Out[k] = e
		}
	}
	for id := range nodes {
		m := d.count()
		if m == 0 {
			continue
		}
		nodes[id].In = make([]*callgraph.Edge, m)
		for k := range nodes[id].In {
			from := int(d.u())
			outIdx := int(d.u())
			if from < 0 || from >= n || outIdx < 0 || outIdx >= len(nodes[from].Out) || nodes[from].Out[outIdx].To != id {
				d.fail()
				return nil, d.err
			}
			nodes[id].In[k] = nodes[from].Out[outIdx]
		}
	}
	starts := d.ints()
	for _, s := range starts {
		if s < 0 || s >= n {
			d.fail()
		}
	}
	st.needs = make([]int, n)
	for i := range st.needs {
		st.needs[i] = int(d.i())
	}
	if d.err != nil {
		return nil, d.err
	}
	st.g = callgraph.Restore(nodes, starts)

	vars := d.strs()
	words := d.count()
	sets := &refsets.Sets{Vars: vars, Index: make(map[string]int, len(vars))}
	for i, v := range vars {
		sets.Index[v] = i
	}
	readFam := func() []ir.BitSet {
		fam := make([]ir.BitSet, n)
		// A family occupies n*words 8-byte words on the wire; a product
		// beyond the remaining buffer is corruption, not an allocation to
		// attempt (n and words are individually bounded, their product
		// is not).
		if uint64(n)*uint64(words) > uint64(len(d.b)/8) {
			d.fail()
			return fam
		}
		// One backing array per family, mirroring refsets.Compute.
		backing := make(ir.BitSet, n*words)
		for i := range fam {
			bs := backing[i*words : (i+1)*words : (i+1)*words]
			for k := range bs {
				bs[k] = d.w()
			}
			fam[i] = bs
		}
		return fam
	}
	sets.LRef = readFam()
	sets.PRef = readFam()
	sets.CRef = readFam()
	st.sets = sets

	st.perVar = make([][]*webs.Web, len(vars))
	var webSlab []webs.Web
	var webBits ir.BitArena
	for vi := range st.perVar {
		m := d.count()
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
			w.FromCycle = d.bool()
			w.Priority = d.f()
			w.RefWeight = d.f()
			w.EntryWeight = d.f()
			w.LRefNodes = int(d.u())
			w.Entries = d.ints()
			w.Nodes = webBits.New(n)
			for _, id := range d.ints() {
				if id < 0 || id >= n {
					d.fail()
					break
				}
				w.Nodes.Set(id)
			}
			st.perVar[vi][k] = w
		}
	}

	if d.bool() {
		id := &clusters.Identification{
			RootCluster: make(map[int]*clusters.Cluster),
			MemberRoot:  make(map[int]int),
		}
		id.Clusters = make([]*clusters.Cluster, d.count())
		for k := range id.Clusters {
			c := &clusters.Cluster{Root: int(d.u()), Members: d.ints()}
			id.Clusters[k] = c
			id.RootCluster[c.Root] = c
		}
		pairs := d.count()
		for k := 0; k < pairs; k++ {
			m := int(d.u())
			id.MemberRoot[m] = int(d.u())
		}
		st.clusters = id
	}
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}
