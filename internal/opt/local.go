// Package opt implements the "level 2" (global, intraprocedural)
// optimizations of the compiler second phase: constant folding and
// propagation, local copy propagation and common subexpression elimination,
// control-flow simplification, dead code elimination, and intraprocedural
// global variable promotion (the baseline behaviour the paper's
// interprocedural promotion improves on).
package opt

import (
	"ipra/internal/ir"
)

// Level2 runs the full baseline pass pipeline over a function.
// skipGlobals names globals that must not be touched by intraprocedural
// promotion (because the program analyzer promoted them interprocedurally).
func Level2(f *ir.Func, eligible map[string]bool, skipGlobals map[string]bool) {
	PromoteGlobals(f, eligible, skipGlobals)
	for i := 0; i < 3; i++ {
		LocalOpt(f)
		changed := SimplifyCFG(f)
		changed = DeadCodeElim(f) || changed
		if !changed {
			break
		}
	}
}

// Level1 runs only the scalar cleanups (no global promotion). Phase 1's
// summary computation is its only caller outside tests: reference and call
// frequencies must reflect raw global accesses.
func Level1(f *ir.Func) {
	for i := 0; i < 2; i++ {
		LocalOpt(f)
		SimplifyCFG(f)
		DeadCodeElim(f)
	}
}

// ----------------------------------------------------------------------------
// Local (basic-block) optimization: constant/copy propagation, folding and
// common subexpression elimination via value numbering.

// LocalOpt optimizes each basic block independently.
func LocalOpt(f *ir.Func) {
	st := &lvState{
		ver:     make([]uint32, int(f.NextReg)+1),
		constOf: make(map[ir.Reg]constFact),
		copyOf:  make(map[ir.Reg]copyFact),
		exprVN:  make(map[vnKey]valFact),
		loadVN:  make(map[memKey]valFact),
	}
	for _, b := range f.Blocks {
		clear(st.constOf)
		clear(st.copyOf)
		clear(st.exprVN)
		clear(st.loadVN)
		st.optBlock(f, b)
	}
}

// lvState is what the scan of one block knows. Every fact records the
// version of each register it mentions, and redefining a register bumps
// its version, so a fact that names a redefined register reads as absent
// without any scan of the tables.
type lvState struct {
	ver     []uint32 // per-register version; kill increments it
	constOf map[ir.Reg]constFact
	copyOf  map[ir.Reg]copyFact
	// exprVN maps a value-numbering key to the register holding it.
	exprVN map[vnKey]valFact
	// loadVN maps memory locations to the register holding the last
	// loaded/stored value; invalidated conservatively.
	loadVN map[memKey]valFact
}

// constFact: the register (at version ver) holds val.
type constFact struct {
	val int64
	ver uint32
}

// copyFact: the register (at version ver) is a copy of src (at srcVer).
type copyFact struct {
	src         ir.Reg
	ver, srcVer uint32
}

// valFact: register r (at rVer) holds a value computed from the key's
// registers, at versions aVer and bVer (a load's base is its a).
type valFact struct {
	r                ir.Reg
	rVer, aVer, bVer uint32
}

type vnKey struct {
	op   ir.Op
	a, b ir.Reg
	imm  int64
	sym  string
}

type memKey struct {
	kind ir.MemKind
	sym  string
	base ir.Reg
	off  int32
	size uint8
}

// kill invalidates everything known about register r (it is being
// redefined).
func (st *lvState) kill(r ir.Reg) { st.ver[r]++ }

func (st *lvState) constant(r ir.Reg) (int64, bool) {
	c, ok := st.constOf[r]
	return c.val, ok && c.ver == st.ver[r]
}

func (st *lvState) setConst(r ir.Reg, v int64) {
	st.constOf[r] = constFact{val: v, ver: st.ver[r]}
}

func (st *lvState) setCopy(dst, src ir.Reg) {
	st.copyOf[dst] = copyFact{src: src, ver: st.ver[dst], srcVer: st.ver[src]}
}

// resolve follows copy chains to the oldest equivalent register still
// holding the value.
func (st *lvState) resolve(r ir.Reg) ir.Reg {
	for {
		c, ok := st.copyOf[r]
		if !ok || c.ver != st.ver[r] || c.srcVer != st.ver[c.src] {
			return r
		}
		r = c.src
	}
}

// clobberMemory forgets every memory fact: a call may modify any global
// or escaped frame slot, and a pointer store may alias any of them.
func (st *lvState) clobberMemory() { clear(st.loadVN) }

func (st *lvState) fact(r, a, b ir.Reg) valFact {
	return valFact{r: r, rVer: st.ver[r], aVer: st.ver[a], bVer: st.ver[b]}
}

func (st *lvState) expr(k vnKey) (ir.Reg, bool) {
	v, ok := st.exprVN[k]
	return v.r, ok && v.rVer == st.ver[v.r] && v.aVer == st.ver[k.a] && v.bVer == st.ver[k.b]
}

func (st *lvState) load(k memKey) (ir.Reg, bool) {
	v, ok := st.loadVN[k]
	return v.r, ok && v.rVer == st.ver[v.r] && v.aVer == st.ver[k.base]
}

func (st *lvState) optBlock(f *ir.Func, b *ir.Block) {
	for i := range b.Instrs {
		in := &b.Instrs[i]

		// Rewrite operands through copy chains.
		switch {
		case in.Op == ir.Store:
			in.A = st.resolve(in.A)
			if in.Mem.Kind == ir.MemPtr {
				in.Mem.Base = st.resolve(in.Mem.Base)
			}
		case in.Op == ir.Load:
			if in.Mem.Kind == ir.MemPtr {
				in.Mem.Base = st.resolve(in.Mem.Base)
			}
		case in.Op == ir.Call:
			for j := range in.Args {
				in.Args[j] = st.resolve(in.Args[j])
			}
			if in.IndirectCall {
				in.A = st.resolve(in.A)
			}
		case in.Op == ir.Copy || in.Op == ir.Neg || in.Op == ir.Not:
			in.A = st.resolve(in.A)
		default:
			if in.Op.IsBinary() {
				in.A = st.resolve(in.A)
				in.B = st.resolve(in.B)
			}
		}

		switch in.Op {
		case ir.Const:
			st.kill(in.Dst)
			st.setConst(in.Dst, in.Imm)

		case ir.Copy:
			src := in.A
			st.kill(in.Dst)
			if v, ok := st.constant(src); ok {
				st.setConst(in.Dst, v)
			}
			if src != in.Dst {
				st.setCopy(in.Dst, src)
			}

		case ir.Neg, ir.Not:
			if v, ok := st.constant(in.A); ok {
				nv := -v
				if in.Op == ir.Not {
					nv = int64(^int32(v))
				}
				*in = ir.Instr{Op: ir.Const, Dst: in.Dst, Imm: int64(int32(nv))}
				st.kill(in.Dst)
				st.setConst(in.Dst, in.Imm)
				continue
			}
			st.kill(in.Dst)

		case ir.Load:
			key := memKey{kind: in.Mem.Kind, sym: in.Mem.Sym, base: in.Mem.Base, off: in.Mem.Off, size: in.Mem.Size}
			if prev, ok := st.load(key); ok {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: prev}
				st.kill(dst)
				st.setCopy(dst, prev)
				if v, okc := st.constant(prev); okc {
					st.setConst(dst, v)
				}
				continue
			}
			st.kill(in.Dst)
			st.loadVN[key] = st.fact(in.Dst, key.base, 0)

		case ir.Store:
			// A store invalidates the memory facts it may alias. Under
			// worst-case aliasing a pointer store may write anywhere, so it
			// kills every fact. A direct store kills the facts about
			// overlapping bytes of the same global (or of the frame, for a
			// frame store), plus every pointer-based fact, since that
			// pointer may target the stored bytes.
			if in.Mem.Kind == ir.MemPtr {
				st.clobberMemory()
			} else {
				for k := range st.loadVN {
					if overlaps(k, in.Mem) {
						delete(st.loadVN, k)
					}
				}
			}
			key := memKey{kind: in.Mem.Kind, sym: in.Mem.Sym, base: in.Mem.Base, off: in.Mem.Off, size: in.Mem.Size}
			st.loadVN[key] = st.fact(in.A, key.base, 0)

		case ir.Call:
			st.clobberMemory()
			// Pinned (web) registers are shared with callees: the callee
			// may read and write the promoted global, so every fact about
			// a pinned register dies at a call.
			for r := range f.Pinned {
				st.kill(r)
			}
			if in.Dst != 0 {
				st.kill(in.Dst)
			}

		case ir.AddrGlobal, ir.AddrFrame:
			key := vnKey{op: in.Op, imm: in.Imm, sym: in.Callee}
			if prev, ok := st.expr(key); ok {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: prev}
				st.kill(dst)
				st.setCopy(dst, prev)
				continue
			}
			st.kill(in.Dst)
			st.exprVN[key] = st.fact(in.Dst, 0, 0)

		default:
			if !in.Op.IsBinary() {
				continue
			}
			va, oka := st.constant(in.A)
			vb, okb := st.constant(in.B)
			if oka && okb {
				if v, ok := foldBinary(in.Op, va, vb); ok {
					dst := in.Dst
					*in = ir.Instr{Op: ir.Const, Dst: dst, Imm: v}
					st.kill(dst)
					st.setConst(dst, v)
					continue
				}
			}
			// Algebraic simplifications with one constant.
			if r, ok := simplifyBinary(in, va, oka, vb, okb); ok {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: r}
				st.kill(dst)
				st.setCopy(dst, r)
				continue
			}
			// Value numbering (normalize commutative operand order).
			a, bb := in.A, in.B
			if in.Op.IsCommutative() && a > bb {
				a, bb = bb, a
			}
			key := vnKey{op: in.Op, a: a, b: bb}
			if prev, ok := st.expr(key); ok && prev != in.Dst {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: prev}
				st.kill(dst)
				st.setCopy(dst, prev)
				continue
			}
			st.kill(in.Dst)
			st.exprVN[key] = st.fact(in.Dst, a, bb)
		}
	}

	// Propagate into the terminator.
	if b.Term.Kind == ir.TermBranch {
		b.Term.Cond = st.resolve(b.Term.Cond)
		if v, ok := st.constant(b.Term.Cond); ok {
			t := b.Term.True
			if v == 0 {
				t = b.Term.False
			}
			b.Term = ir.Term{Kind: ir.TermJump, True: t}
		}
	}
	if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
		b.Term.Val = st.resolve(b.Term.Val)
	}
}

// overlaps reports whether memory fact k may alias a direct store to m.
func overlaps(k memKey, m ir.MemRef) bool {
	if k.kind == ir.MemPtr {
		return true // a pointer-based fact may alias any direct store
	}
	if k.kind != m.Kind {
		return false // distinct named spaces (global vs frame) are disjoint
	}
	if k.kind == ir.MemGlobal && k.sym != m.Sym {
		return false
	}
	aLo, aHi := int64(k.off), int64(k.off)+int64(k.size)
	bLo, bHi := int64(m.Off), int64(m.Off)+int64(m.Size)
	return aLo < bHi && bLo < aHi
}

func foldBinary(op ir.Op, a, b int64) (int64, bool) {
	x, y := int32(a), int32(b)
	var r int32
	switch op {
	case ir.Add:
		r = x + y
	case ir.Sub:
		r = x - y
	case ir.Mul:
		r = x * y
	case ir.Div:
		if y == 0 {
			return 0, false
		}
		r = x / y
	case ir.Rem:
		if y == 0 {
			return 0, false
		}
		r = x % y
	case ir.And:
		r = x & y
	case ir.Or:
		r = x | y
	case ir.Xor:
		r = x ^ y
	case ir.Shl:
		r = x << uint(y&31)
	case ir.Shr:
		r = x >> uint(y&31)
	case ir.CmpEQ:
		r = b2i(x == y)
	case ir.CmpNE:
		r = b2i(x != y)
	case ir.CmpLT:
		r = b2i(x < y)
	case ir.CmpLE:
		r = b2i(x <= y)
	case ir.CmpGT:
		r = b2i(x > y)
	case ir.CmpGE:
		r = b2i(x >= y)
	default:
		return 0, false
	}
	return int64(r), true
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// simplifyBinary returns a register equivalent to the instruction when an
// identity applies (x+0, x*1, x&x, ...).
func simplifyBinary(in *ir.Instr, va int64, oka bool, vb int64, okb bool) (ir.Reg, bool) {
	switch in.Op {
	case ir.Add, ir.Or, ir.Xor, ir.Shl, ir.Shr:
		if okb && vb == 0 {
			return in.A, true
		}
		if oka && va == 0 && in.Op == ir.Add {
			return in.B, true
		}
		if oka && va == 0 && in.Op == ir.Or {
			return in.B, true
		}
	case ir.Sub:
		if okb && vb == 0 {
			return in.A, true
		}
	case ir.Mul:
		if okb && vb == 1 {
			return in.A, true
		}
		if oka && va == 1 {
			return in.B, true
		}
	case ir.Div:
		if okb && vb == 1 {
			return in.A, true
		}
	case ir.And:
		if in.A == in.B {
			return in.A, true
		}
	}
	if in.Op == ir.Or && in.A == in.B {
		return in.A, true
	}
	return 0, false
}
