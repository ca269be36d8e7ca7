package opt

import (
	"ipra/internal/ir"
)

// DeadCodeElim removes instructions whose results are unused and that have
// no side effects, iterating until stable. It reports whether anything was
// removed.
func DeadCodeElim(f *ir.Func) bool {
	changed := false
	live := ir.NewBitSet(int(f.NextReg))
	var uses []ir.Reg
	for {
		f.Recompute()
		lv := ir.ComputeLiveness(f)
		removed := false
		for _, b := range f.Blocks {
			// Walk backwards tracking liveness within the block, moving
			// survivors to the tail in place.
			live.Copy(lv.Out[b.ID])
			if b.Term.Kind == ir.TermBranch {
				live.Set(int(b.Term.Cond))
			}
			if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
				live.Set(int(b.Term.Val))
			}
			k := len(b.Instrs)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				d := in.Def()
				isDead := !in.HasSideEffects() && (d == 0 || !live.Has(int(d)))
				// Writes to pinned (web) registers are observable by
				// callees and callers; they are never dead.
				if d != 0 && f.IsPinned(d) {
					isDead = false
				}
				if in.Op == ir.Nop {
					isDead = true
				}
				// A call whose result is unused still executes; clear Dst.
				if in.Op == ir.Call && in.Dst != 0 && !live.Has(int(in.Dst)) {
					in.Dst = 0
				}
				if isDead {
					removed = true
					continue
				}
				if d != 0 {
					live.Clear(int(d))
				}
				uses = in.Uses(uses[:0])
				for _, u := range uses {
					live.Set(int(u))
				}
				k--
				if k != i {
					b.Instrs[k] = *in
				}
			}
			b.Instrs = b.Instrs[k:]
		}
		if !removed {
			break
		}
		changed = true
	}
	return changed
}
