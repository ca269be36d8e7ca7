package codegen

import (
	"fmt"
	"sort"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
)

// allocResult reports what the allocator used, for prologue generation.
type allocResult struct {
	usedCallee regs.Set // CALLEE registers that need save/restore
	usedMSpill regs.Set // MSPILL registers actually used (root saves all anyway)
	spillSlots int32    // number of 4-byte spill slots appended to the frame
}

// defUse appends the instruction's uses to buf and returns (def, uses).
// Physical and virtual registers both participate; r0 is ignored.
func (in *linstr) defUse(buf []vreg) (vreg, []vreg) {
	use := func(v vreg) {
		if v != 0 {
			buf = append(buf, v)
		}
	}
	switch in.op {
	case parv.LDI, parv.NOP, parv.B:
		// no register uses
	case parv.MOV, parv.ADDI, parv.SUBI, parv.ANDI, parv.ORI, parv.XORI,
		parv.SHLI, parv.SHRI, parv.NEG, parv.NOT, parv.CMPI, parv.LDW:
		use(in.ra)
	case parv.ADD, parv.SUB, parv.MUL, parv.DIV, parv.REM,
		parv.AND, parv.OR, parv.XOR, parv.SHL, parv.SHR, parv.CMP:
		use(in.ra)
		use(in.rb)
	case parv.STW:
		use(in.ra)
		use(in.rb)
	case parv.CB:
		use(in.ra)
		use(in.rb)
	case parv.CBI, parv.BV:
		use(in.ra)
	case parv.BL, parv.BLR:
		for _, a := range in.argsUsed {
			use(a)
		}
	}
	switch in.op {
	case parv.STW, parv.B, parv.CB, parv.CBI, parv.BV, parv.NOP:
		return -1, buf
	case parv.BL, parv.BLR:
		return vreg(parv.RegRP), buf
	default:
		return in.rd, buf
	}
}

// hasEffect reports whether the instruction must be kept even if its
// result is dead.
func (in *linstr) hasEffect() bool {
	switch in.op {
	case parv.STW, parv.BL, parv.BLR, parv.BV, parv.B, parv.CB, parv.CBI, parv.SYS:
		return true
	case parv.DIV, parv.REM:
		return true
	}
	// Writes to physical registers always matter (arg setup, returns).
	return in.rd.isPhys() && in.rd != 0
}

// allocate colors the function's virtual registers using the program
// database directives, spilling as needed, and rewrites the LIR to
// physical registers. It implements §5's allocation discipline:
//
//	"The CALLER set ... is examined to obtain caller-saves registers for
//	 local coloring. For callee-saves registers, the FREE set is checked
//	 before the CALLEE set."
func allocate(f *lfunc, dir *pdb.ProcDirectives, clobberOf func(callee string) regs.Set) (*allocResult, error) {
	res := &allocResult{}

	// Registers clobbered by a call when nothing better is known: anything
	// that may not hold a live value across calls — CALLER and MSPILL sets
	// — plus the linkage registers rp and ret0.
	worstClobber := dir.Caller.Union(dir.MSpill).Add(parv.RegRP).Add(parv.RegRet)
	clobberFor := func(in *linstr) regs.Set {
		if in.op == parv.BL && clobberOf != nil {
			if c := clobberOf(in.sym); !c.Empty() {
				// Never exceed the worst case (a callee cannot clobber
				// registers this procedure treats as preserved); always
				// include the linkage registers, and keep this procedure's
				// MSPILL set call-clobbered — by definition those registers
				// may not hold values across calls (§4.2.3).
				return c.Intersect(worstClobber).
					Union(dir.MSpill).Add(parv.RegRP).Add(parv.RegRet)
			}
		}
		return worstClobber
	}

	// Call-crossing values: FREE first (no cost), then caller-saves
	// registers (succeed only when every crossed call's clobber set spares
	// them — the §7.6.2 caller-saves preallocation), then CALLEE
	// (save/restore cost).
	crossPref := append(dir.Free.Regs(), dir.Caller.Regs()...)
	crossPref = append(crossPref, dir.Callee.Regs()...)
	localPref := dir.Caller.Regs()
	localPref = append(localPref, dir.MSpill.Regs()...)
	localPref = append(localPref, dir.Free.Regs()...)
	localPref = append(localPref, dir.Callee.Regs()...)

	// Per-round scratch, indexed by register and reused across rounds.
	var (
		crosses []bool
		cost    []float64
		adj     [][]vreg   // virtual neighbours of each virtual register
		phys    []regs.Set // physical registers each virtual register interferes with
		assign  []int16    // physical register of each virtual register, or -1
		order   []vreg
		buf     []vreg
	)
	for round := 0; ; round++ {
		if round > 64 {
			return nil, fmt.Errorf("codegen: %s: register allocation did not converge", f.name)
		}
		deadElim(f)

		n := int(vregBase) + int(f.nvregs)
		liveOut, live := lirLiveness(f, n)
		crosses = resize(crosses, n)
		cost = resize(cost, n)
		phys = resize(phys, n)
		if cap(adj) < n {
			adj = append(adj[:cap(adj)], make([][]vreg, n-cap(adj))...)
		}
		adj = adj[:n]
		for i := range adj {
			adj[i] = adj[i][:0]
		}
		// interfere records that a and b may not share a register; an
		// edge between two physical registers carries no information.
		interfere := func(a, b vreg) {
			if a == b || a == 0 || b == 0 {
				return
			}
			switch {
			case !a.isPhys() && !b.isPhys():
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			case !a.isPhys():
				phys[a] = phys[a].Add(uint8(b))
			case !b.isPhys():
				phys[b] = phys[b].Add(uint8(a))
			}
		}

		for _, b := range f.blocks {
			live.Copy(liveOut[b.id])
			w := depthWeight(b.loopDepth)
			for i := len(b.instrs) - 1; i >= 0; i-- {
				in := &b.instrs[i]
				var def vreg
				def, buf = in.defUse(buf[:0])

				if in.isCall {
					// Every live virtual register crosses the call and
					// may not sit in a register the call clobbers.
					clobber := clobberFor(in).Remove(0)
					live.ForEach(func(x int) {
						if v := vreg(x); !v.isPhys() {
							crosses[v] = crosses[v] || v != def
							phys[v] |= clobber
						}
					})
				}

				if def >= 0 && def != 0 {
					live.ForEach(func(x int) {
						v := vreg(x)
						if in.op == parv.MOV && v == in.ra {
							return // moves don't make src/dst interfere
						}
						interfere(def, v)
					})
					live.Clear(int(def))
					if !def.isPhys() {
						cost[def] += w
					}
				}
				if in.isCall {
					live.Clear(int(parv.RegRet)) // calls define ret0
				}
				for _, u := range buf {
					live.Set(int(u))
					if !u.isPhys() {
						cost[u] += w
					}
				}
			}
		}

		// Color in priority (cost) order.
		order = order[:0]
		for v := vregBase; v < vreg(n); v++ {
			if cost[v] > 0 || len(adj[v]) > 0 || phys[v] != 0 {
				order = append(order, v)
			}
		}
		sort.SliceStable(order, func(i, j int) bool {
			return cost[order[i]] > cost[order[j]]
		})

		assign = resize(assign, n)
		for i := range assign {
			assign[i] = -1
		}
		var failed vreg = -1
		for _, v := range order {
			prefs := localPref
			if crosses[v] {
				prefs = crossPref
			}
			taken := phys[v]
			for _, nb := range adj[v] {
				if a := assign[nb]; a >= 0 {
					taken = taken.Add(uint8(a))
				}
			}
			var got int16 = -1
			for _, r := range prefs {
				if !taken.Has(r) {
					got = int16(r)
					break
				}
			}
			if got < 0 {
				failed = v
				break
			}
			assign[v] = got
		}

		if failed >= 0 {
			spillVreg(f, failed, res)
			continue
		}

		// Success: rewrite and account for save/restore needs.
		for _, a := range assign {
			if a < 0 {
				continue
			}
			r := uint8(a)
			if dir.Callee.Has(r) {
				res.usedCallee = res.usedCallee.Add(r)
			}
			if dir.MSpill.Has(r) {
				res.usedMSpill = res.usedMSpill.Add(r)
			}
		}
		rewrite(f, assign)
		return res, nil
	}
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func depthWeight(d int) float64 {
	w := 1.0
	for i := 0; i < d && i < 6; i++ {
		w *= 10
	}
	return w
}

// lirLiveness computes live-out sets per block over registers [0, n],
// plus one more set of that size for the caller's backward scan. The sets
// are carved from f's liveness slab and stay valid until the next call on
// f.
func lirLiveness(f *lfunc, n int) (liveOut []ir.BitSet, scratch ir.BitSet) {
	nb := len(f.blocks)
	f.liveSlab, f.liveSets = ir.CarveBitSets(f.liveSlab, f.liveSets, 4*nb+1, n)
	use, def := f.liveSets[:nb], f.liveSets[nb:2*nb]
	liveIn, liveOut := f.liveSets[2*nb:3*nb], f.liveSets[3*nb:4*nb]
	scratch = f.liveSets[4*nb]

	var buf []vreg
	for _, b := range f.blocks {
		u, d := use[b.id], def[b.id]
		for i := range b.instrs {
			in := &b.instrs[i]
			var dd vreg
			dd, buf = in.defUse(buf[:0])
			for _, x := range buf {
				if !d.Has(int(x)) {
					u.Set(int(x))
				}
			}
			if dd >= 0 && dd != 0 {
				d.Set(int(dd))
			}
			if in.isCall {
				d.Set(int(parv.RegRet))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.blocks[i]
			out := liveOut[b.id]
			for _, s := range b.succs {
				if out.OrWith(liveIn[s]) {
					changed = true
				}
			}
			// in |= use | (out - def)
			in, u, d := liveIn[b.id], use[b.id], def[b.id]
			for w := range in {
				x := in[w] | u[w] | (out[w] &^ d[w])
				if x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	return liveOut, scratch
}

// deadElim removes instructions that define virtual registers nobody reads.
func deadElim(f *lfunc) {
	n := int(vregBase) + int(f.nvregs)
	var buf []vreg
	for {
		liveOut, live := lirLiveness(f, n)
		removed := false
		for _, b := range f.blocks {
			live.Copy(liveOut[b.id])
			// Walk backwards, moving survivors to the tail in place.
			k := len(b.instrs)
			for i := len(b.instrs) - 1; i >= 0; i-- {
				in := &b.instrs[i]
				var def vreg
				def, buf = in.defUse(buf[:0])
				if !in.hasEffect() && def > 0 && !def.isPhys() && !live.Has(int(def)) {
					removed = true
					continue
				}
				if def >= 0 && def != 0 {
					live.Clear(int(def))
				}
				if in.isCall {
					live.Clear(int(parv.RegRet))
				}
				for _, u := range buf {
					live.Set(int(u))
				}
				k--
				if k != i {
					b.instrs[k] = *in
				}
			}
			b.instrs = b.instrs[k:]
		}
		if !removed {
			return
		}
	}
}

// spillVreg gives v a frame slot, rewriting each definition to store and
// each use to reload through a fresh short-lived register.
func spillVreg(f *lfunc, v vreg, res *allocResult) {
	slot := res.spillSlots
	res.spillSlots++
	off := f.outArgs + f.frameLocal + slot*4

	var buf []vreg
	for _, b := range f.blocks {
		var out []linstr
		for i := range b.instrs {
			in := b.instrs[i]
			def, uses := in.defUse(buf[:0])
			buf = uses

			usesV := false
			for _, u := range uses {
				if u == v {
					usesV = true
				}
			}
			if usesV {
				t := f.newVreg()
				out = append(out, linstr{op: parv.LDW, rd: t, ra: vreg(parv.RegSP), imm: off, memSize: 4})
				replaceUses(&in, v, t)
			}
			if def == v {
				t := f.newVreg()
				in.rd = t
				out = append(out, in)
				out = append(out, linstr{op: parv.STW, ra: vreg(parv.RegSP), rb: t, imm: off, memSize: 4})
				continue
			}
			out = append(out, in)
		}
		b.instrs = out
	}
}

func replaceUses(in *linstr, old, nw vreg) {
	if in.ra == old {
		in.ra = nw
	}
	if in.rb == old {
		in.rb = nw
	}
	for i := range in.argsUsed {
		if in.argsUsed[i] == old {
			in.argsUsed[i] = nw
		}
	}
}

// rewrite substitutes assigned physical registers and drops identity moves.
func rewrite(f *lfunc, assign []int16) {
	sub := func(v vreg) vreg {
		if v.isPhys() {
			return v
		}
		if r := assign[v]; r >= 0 {
			return vreg(r)
		}
		// Unreferenced leftover (defined but dead): map to the scratch
		// register; deadElim should have removed these.
		return vreg(parv.RegAT)
	}
	for _, b := range f.blocks {
		n := 0
		for i := range b.instrs {
			in := &b.instrs[i]
			in.rd = sub(in.rd)
			in.ra = sub(in.ra)
			in.rb = sub(in.rb)
			for j := range in.argsUsed {
				in.argsUsed[j] = sub(in.argsUsed[j])
			}
			if in.op == parv.MOV && in.rd == in.ra {
				continue // identity move
			}
			if n != i {
				b.instrs[n] = *in
			}
			n++
		}
		b.instrs = b.instrs[:n]
	}
}
