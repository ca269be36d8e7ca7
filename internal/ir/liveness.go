package ir

// Liveness holds per-block live-in/live-out sets for a function's virtual
// registers.
type Liveness struct {
	In  []BitSet
	Out []BitSet
}

// ComputeLiveness runs the classic backward dataflow over the CFG. The
// function's Preds/Succs must be current (call Recompute first).
func ComputeLiveness(f *Func) *Liveness {
	n := len(f.Blocks)
	nr := int(f.NextReg)
	_, sets := CarveBitSets(nil, nil, 4*n, nr)
	lv := &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n]}
	use, def := sets[2*n:3*n], sets[3*n:]

	var scratch []Reg
	for _, b := range f.Blocks {
		u, d := use[b.ID], def[b.ID]
		for k := range b.Instrs {
			in := &b.Instrs[k]
			scratch = in.Uses(scratch[:0])
			for _, r := range scratch {
				if !d.Has(int(r)) {
					u.Set(int(r))
				}
			}
			if dr := in.Def(); dr != 0 {
				d.Set(int(dr))
			}
		}
		if b.Term.Kind == TermBranch && b.Term.Cond != 0 {
			if !d.Has(int(b.Term.Cond)) {
				u.Set(int(b.Term.Cond))
			}
		}
		if b.Term.Kind == TermReturn && b.Term.HasVal {
			if !d.Has(int(b.Term.Val)) {
				u.Set(int(b.Term.Val))
			}
		}
	}

	// Iterate to fixpoint, visiting blocks in reverse order for fast
	// convergence on reducible CFGs.
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[i]
			for _, s := range b.Succs {
				if out.OrWith(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out - def)
			in, u, d := lv.In[i], use[i], def[i]
			for w := range in {
				if x := u[w] | (out[w] &^ d[w]); x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	return lv
}
