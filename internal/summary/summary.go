// Package summary defines the per-procedure records the compiler first
// phase writes to summary files (§3 of the paper):
//
//   - the global variables accessed in the procedure, with local access
//     frequencies and alias flags;
//   - the procedures called, with local call frequencies;
//   - procedures whose addresses have been computed, and whether the
//     procedure makes indirect calls;
//   - an estimate of the number of callee-saves registers needed.
//
// The program analyzer reads all of a program's summary files to build the
// call graph; no code is exchanged, only these records.
package summary

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sort"

	"ipra/internal/ir"
)

// GlobalRef is one global variable accessed by a procedure.
type GlobalRef struct {
	Name    string `json:"name"`
	Freq    int64  `json:"freq"` // loop-depth-weighted local access count
	Reads   int64  `json:"reads"`
	Writes  int64  `json:"writes"`
	Aliased bool   `json:"aliased"` // address computed in this procedure
}

// CallSite aggregates the calls from one procedure to one callee.
type CallSite struct {
	Callee string `json:"callee"`
	Freq   int64  `json:"freq"` // loop-depth-weighted local call count
}

// ProcRecord is the summary record for one procedure.
type ProcRecord struct {
	Name   string `json:"name"`
	Module string `json:"module"`
	Static bool   `json:"static,omitempty"`

	GlobalRefs []GlobalRef `json:"globalRefs,omitempty"`
	Calls      []CallSite  `json:"calls,omitempty"`

	// AddrTakenProcs lists procedures whose addresses this procedure
	// computes (possible indirect call targets, §7.3).
	AddrTakenProcs []string `json:"addrTakenProcs,omitempty"`
	// MakesIndirectCalls is set when the procedure contains indirect calls.
	MakesIndirectCalls bool  `json:"indirectCalls,omitempty"`
	IndirectCallFreq   int64 `json:"indirectCallFreq,omitempty"`

	// CalleeSavesNeeded estimates how many callee-saves registers the
	// procedure wants (values live across calls) under full level-2
	// optimization, including intraprocedural global promotion.
	CalleeSavesNeeded int `json:"calleeSavesNeeded"`
	// CalleeSavesBase is the same estimate before global promotion; the
	// greedy web coloring strategy uses it, since web-promoting a global
	// removes its promotion register from the procedure's own need.
	CalleeSavesBase int `json:"calleeSavesBase"`
	// CallerSavesNeeded estimates the procedure's demand for caller-saves
	// scratch registers (values not live across calls). The §7.6.2
	// caller-saves preallocation extension turns this into a contract: the
	// procedure's allocator is restricted to that many scratch registers,
	// letting callers keep values in the remaining ones across calls.
	CallerSavesNeeded int `json:"callerSavesNeeded"`
}

// GlobalInfo describes a global variable at module scope.
type GlobalInfo struct {
	Name      string `json:"name"`
	Module    string `json:"module"`
	Size      int32  `json:"size"`
	Defined   bool   `json:"defined"`
	Static    bool   `json:"static,omitempty"`
	Scalar    bool   `json:"scalar,omitempty"`
	AddrTaken bool   `json:"addrTaken,omitempty"` // aliased anywhere in the module
}

// ModuleSummary is the summary file contents for one compilation unit.
type ModuleSummary struct {
	Module  string       `json:"module"`
	Procs   []ProcRecord `json:"procs"`
	Globals []GlobalInfo `json:"globals"`
}

// freqOfDepth converts a loop nesting depth into the paper's compile-time
// frequency heuristic (each loop level multiplies by 10).
func freqOfDepth(depth int) int64 {
	f := int64(1)
	for i := 0; i < depth && i < 6; i++ {
		f *= 10
	}
	return f
}

// Summarize computes the summary record for one (optimized) IR function.
// The paper notes (§6) that the prototype ran the first phase through code
// generation and optimization to obtain good heuristics; correspondingly,
// callers should pass the post-optimization IR.
func Summarize(f *ir.Func) ProcRecord {
	rec := ProcRecord{Name: f.Name, Module: f.Module, Static: f.Static}

	grefs := make(map[string]*GlobalRef)
	calls := make(map[string]int64)
	addrTaken := make(map[string]bool)

	gref := func(name string) *GlobalRef {
		g := grefs[name]
		if g == nil {
			g = &GlobalRef{Name: name}
			grefs[name] = g
		}
		return g
	}

	for _, b := range f.Blocks {
		w := freqOfDepth(b.LoopDepth)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.Load:
				if in.Mem.Kind == ir.MemGlobal {
					g := gref(in.Mem.Sym)
					g.Freq += w
					g.Reads += w
					if !in.Mem.Singleton || in.Mem.Off != 0 {
						g.Aliased = true // partial access implies aggregate
					}
				}
			case ir.Store:
				if in.Mem.Kind == ir.MemGlobal {
					g := gref(in.Mem.Sym)
					g.Freq += w
					g.Writes += w
					if !in.Mem.Singleton || in.Mem.Off != 0 {
						g.Aliased = true
					}
				}
			case ir.AddrGlobal:
				// Could be a variable (aliased!) or a function (indirect
				// call target). The caller disambiguates via module global
				// tables; record both candidates here.
				addrTaken[in.Callee] = true
			case ir.Call:
				if in.IndirectCall {
					rec.MakesIndirectCalls = true
					rec.IndirectCallFreq += w
				} else {
					calls[in.Callee] += w
				}
			}
		}
	}

	for _, name := range sortedKeys(grefs) {
		rec.GlobalRefs = append(rec.GlobalRefs, *grefs[name])
	}
	for _, name := range sortedKeysI64(calls) {
		rec.Calls = append(rec.Calls, CallSite{Callee: name, Freq: calls[name]})
	}
	for name := range addrTaken {
		rec.AddrTakenProcs = append(rec.AddrTakenProcs, name)
	}
	sort.Strings(rec.AddrTakenProcs)

	rec.CalleeSavesNeeded = EstimateCalleeSaves(f)
	rec.CalleeSavesBase = rec.CalleeSavesNeeded
	rec.CallerSavesNeeded = EstimateCallerSaves(f)
	return rec
}

// EstimateCallerSaves estimates the peak number of simultaneously live
// values that do not cross calls — the procedure's scratch-register
// demand.
func EstimateCallerSaves(f *ir.Func) int {
	f.Recompute()
	lv := ir.ComputeLiveness(f)

	// Pass 1: which registers cross a call?
	crossing := ir.NewBitSet(int(f.NextReg))
	walk(f, lv, func(in *ir.Instr, live ir.BitSet) {
		if in.Op == ir.Call {
			crossing.OrWith(live)
		}
	})
	// Pass 2: peak liveness of non-crossing registers.
	peak := 0
	walk(f, lv, func(in *ir.Instr, live ir.BitSet) {
		n := 0
		for w := range live {
			x := live[w] &^ crossing[w]
			if w == 0 {
				x &^= 1 // register 0 is "no register"
			}
			n += bits.OnesCount64(x)
		}
		if n > peak {
			peak = n
		}
	})
	if peak > 11 {
		peak = 11 // size of the conventional caller-saves set
	}
	return peak
}

// walk runs fn at each instruction with the live-after set (backwards
// per-block reconstruction from block-level liveness).
func walk(f *ir.Func, lv *ir.Liveness, fn func(in *ir.Instr, liveAfter ir.BitSet)) {
	var uses []ir.Reg
	live := ir.NewBitSet(int(f.NextReg))
	for _, b := range f.Blocks {
		live.Copy(lv.Out[b.ID])
		if b.Term.Kind == ir.TermBranch {
			live.Set(int(b.Term.Cond))
		}
		if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
			live.Set(int(b.Term.Val))
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			fn(in, live)
			if d := in.Def(); d != 0 {
				live.Clear(int(d))
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				live.Set(int(u))
			}
		}
	}
}

// EstimateCalleeSaves counts virtual registers live across at least one
// call — the values that want callee-saves homes (capped at the size of the
// conventional callee-saves set). The paper's prototype ran the first
// phase through full optimization to make this estimate accurate (§6);
// callers can refine a record by re-running this on a fully optimized
// copy of the function.
func EstimateCalleeSaves(f *ir.Func) int {
	f.Recompute()
	lv := ir.ComputeLiveness(f)
	liveAcross := ir.NewBitSet(int(f.NextReg))
	live := ir.NewBitSet(int(f.NextReg))
	var uses []ir.Reg
	for _, b := range f.Blocks {
		// Recompute backwards liveness inside the block, sampling at calls.
		live.Copy(lv.Out[b.ID])
		if b.Term.Kind == ir.TermBranch {
			live.Set(int(b.Term.Cond))
		}
		if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
			live.Set(int(b.Term.Val))
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if d := in.Def(); d != 0 {
				live.Clear(int(d))
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				live.Set(int(u))
			}
			if in.Op == ir.Call {
				liveAcross.OrWith(live)
			}
		}
	}
	n := liveAcross.Count()
	if max := 16; n > max {
		n = max
	}
	return n
}

// SummarizeModule builds the whole summary file for a module.
func SummarizeModule(m *ir.Module) *ModuleSummary {
	ms := &ModuleSummary{Module: m.Name}
	funcNames := make(map[string]bool)
	for _, f := range m.Funcs {
		funcNames[f.Name] = true
	}
	for _, g := range m.Globals {
		ms.Globals = append(ms.Globals, GlobalInfo{
			Name: g.Name, Module: g.Module, Size: g.Size,
			Defined: g.Defined, Static: g.Static, Scalar: g.Scalar,
			AddrTaken: g.AddrTaken,
		})
	}
	for _, f := range m.Funcs {
		rec := Summarize(f)
		// Split AddrTakenProcs into true procedure targets vs aliased
		// globals: an AddrGlobal of a variable aliases that variable.
		var procs []string
		for _, n := range rec.AddrTakenProcs {
			if isGlobalVar(ms.Globals, n) {
				markAliased(&rec, ms, n)
			} else {
				procs = append(procs, n)
			}
		}
		rec.AddrTakenProcs = procs
		ms.Procs = append(ms.Procs, rec)
	}
	return ms
}

func isGlobalVar(gs []GlobalInfo, name string) bool {
	for i := range gs {
		if gs[i].Name == name {
			return true
		}
	}
	return false
}

func markAliased(rec *ProcRecord, ms *ModuleSummary, name string) {
	for i := range rec.GlobalRefs {
		if rec.GlobalRefs[i].Name == name {
			rec.GlobalRefs[i].Aliased = true
		}
	}
	for i := range ms.Globals {
		if ms.Globals[i].Name == name {
			ms.Globals[i].AddrTaken = true
		}
	}
}

func sortedKeys(m map[string]*GlobalRef) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysI64(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Hash returns a stable content hash of a module summary: the sha256 of
// its canonical JSON form, hex-encoded and truncated to 16 bytes. The
// incremental analyzer stamps its persisted state with these hashes and
// diffs them against fresh summaries to find the dirty modules.
func Hash(ms *ModuleSummary) string {
	data, err := json.Marshal(ms)
	if err != nil {
		// ModuleSummary contains only marshalable field types.
		panic(fmt.Sprintf("summary: hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// RecordHash returns a stable content hash of one procedure record, used
// for per-procedure dirtiness within an already-dirty module.
func RecordHash(rec *ProcRecord) string {
	data, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("summary: record hash marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// WriteFile serializes a summary file as JSON.
func WriteFile(path string, ms *ModuleSummary) error {
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a summary file.
func ReadFile(path string) (*ModuleSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms ModuleSummary
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("summary %s: %w", path, err)
	}
	return &ms, nil
}
