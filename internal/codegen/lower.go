package codegen

import (
	"fmt"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
)

// lowerer translates one IR function to LIR.
type lowerer struct {
	f    *lfunc
	irf  *ir.Func
	mod  *ir.Module
	dir  *pdb.ProcDirectives
	prom map[string]uint8 // web-promoted global -> dedicated register

	// vrOf maps IR registers to virtual registers (0: none yet).
	vrOf []vreg
	// constOf tracks IR registers holding known constants within the
	// current block, enabling immediate instruction forms; an entry counts
	// only when its blk is the current block's stamp.
	constOf []constVal
	blk     int32
	// useCount counts IR register uses (to fold compares into branches).
	useCount []int32

	cur *lblock
}

// constVal is a constOf entry: the register holds v within block stamp blk.
type constVal struct {
	v, blk int32
}

func (lo *lowerer) constant(r ir.Reg) (int32, bool) {
	c := lo.constOf[r]
	return c.v, c.blk == lo.blk
}

func (lo *lowerer) setConst(r ir.Reg, v int32) { lo.constOf[r] = constVal{v: v, blk: lo.blk} }

func (lo *lowerer) dropConst(r ir.Reg) { lo.constOf[r].blk = 0 }

func lower(irf *ir.Func, mod *ir.Module, dir *pdb.ProcDirectives) (*lfunc, error) {
	lo := &lowerer{
		f:        &lfunc{name: irf.Name, frameLocal: irf.FrameSize},
		irf:      irf,
		mod:      mod,
		dir:      dir,
		prom:     make(map[string]uint8),
		vrOf:     make([]vreg, irf.NextReg+1),
		constOf:  make([]constVal, irf.NextReg+1),
		useCount: make([]int32, irf.NextReg+1),
	}
	for _, p := range dir.Promoted {
		lo.prom[p.Name] = p.Reg
	}

	// Use counts for compare/branch folding.
	var uses []ir.Reg
	for _, b := range irf.Blocks {
		for i := range b.Instrs {
			uses = b.Instrs[i].Uses(uses[:0])
			for _, u := range uses {
				lo.useCount[u]++
			}
		}
		if b.Term.Kind == ir.TermBranch {
			lo.useCount[b.Term.Cond]++
		}
		if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
			lo.useCount[b.Term.Val]++
		}
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Call {
				lo.f.makesCalls = true
				extra := len(b.Instrs[i].Args) - len(parv.ArgRegs)
				if extra > 0 && int32(extra*4) > lo.f.outArgs {
					lo.f.outArgs = int32(extra * 4)
				}
			}
		}
	}

	// Pre-create blocks so branch targets resolve.
	for _, b := range irf.Blocks {
		lo.f.blocks = append(lo.f.blocks, &lblock{id: b.ID, loopDepth: b.LoopDepth})
	}

	for _, b := range irf.Blocks {
		lo.cur = lo.f.blocks[b.ID]
		lo.blk++ // forget the previous block's constants
		if b.ID == 0 {
			lo.lowerParams()
		}
		for i := range b.Instrs {
			if err := lo.lowerInstr(&b.Instrs[i]); err != nil {
				return nil, err
			}
		}
		lo.lowerTerm(b)
	}
	return lo.f, nil
}

func (lo *lowerer) vr(r ir.Reg) vreg {
	if phys, ok := lo.irf.Pinned[r]; ok {
		return vreg(phys)
	}
	if v := lo.vrOf[r]; v != 0 {
		return v
	}
	v := lo.f.newVreg()
	lo.vrOf[r] = v
	return v
}

func (lo *lowerer) emit(in linstr) { lo.cur.instrs = append(lo.cur.instrs, in) }

func (lo *lowerer) lowerParams() {
	for i, pr := range lo.irf.Params {
		if i < len(parv.ArgRegs) {
			lo.emit(linstr{op: parv.MOV, rd: lo.vr(pr), ra: vreg(parv.ArgRegs[i])})
		} else {
			lo.emit(linstr{
				op: parv.LDW, rd: lo.vr(pr), ra: vreg(parv.RegSP),
				imm: int32(i - len(parv.ArgRegs)), memSize: 4, fixup: fixIncomingArg,
			})
		}
	}
}

// binOpFor maps IR binary ops to (register form, immediate form). An
// immediate form of NOP means no immediate variant exists.
func binOpFor(op ir.Op) (parv.Op, parv.Op, bool) {
	switch op {
	case ir.Add:
		return parv.ADD, parv.ADDI, true
	case ir.Sub:
		return parv.SUB, parv.SUBI, true
	case ir.Mul:
		return parv.MUL, parv.NOP, true
	case ir.Div:
		return parv.DIV, parv.NOP, true
	case ir.Rem:
		return parv.REM, parv.NOP, true
	case ir.And:
		return parv.AND, parv.ANDI, true
	case ir.Or:
		return parv.OR, parv.ORI, true
	case ir.Xor:
		return parv.XOR, parv.XORI, true
	case ir.Shl:
		return parv.SHL, parv.SHLI, true
	case ir.Shr:
		return parv.SHR, parv.SHRI, true
	}
	return parv.NOP, parv.NOP, false
}

func condFor(op ir.Op) (parv.Cond, bool) {
	switch op {
	case ir.CmpEQ:
		return parv.EQ, true
	case ir.CmpNE:
		return parv.NE, true
	case ir.CmpLT:
		return parv.LT, true
	case ir.CmpLE:
		return parv.LE, true
	case ir.CmpGT:
		return parv.GT, true
	case ir.CmpGE:
		return parv.GE, true
	}
	return parv.EQ, false
}

func (lo *lowerer) lowerInstr(in *ir.Instr) error {
	switch in.Op {
	case ir.Nop:
		return nil

	case ir.Const:
		lo.setConst(in.Dst, int32(in.Imm))
		lo.emit(linstr{op: parv.LDI, rd: lo.vr(in.Dst), imm: int32(in.Imm)})
		return nil

	case ir.Copy:
		lo.emit(linstr{op: parv.MOV, rd: lo.vr(in.Dst), ra: lo.vr(in.A)})
		if c, ok := lo.constant(in.A); ok {
			lo.setConst(in.Dst, c)
		} else {
			lo.dropConst(in.Dst)
		}
		return nil

	case ir.Neg:
		lo.dropConst(in.Dst)
		lo.emit(linstr{op: parv.NEG, rd: lo.vr(in.Dst), ra: lo.vr(in.A)})
		return nil

	case ir.Not:
		lo.dropConst(in.Dst)
		lo.emit(linstr{op: parv.NOT, rd: lo.vr(in.Dst), ra: lo.vr(in.A)})
		return nil

	case ir.Load:
		lo.dropConst(in.Dst)
		return lo.lowerLoad(in)

	case ir.Store:
		return lo.lowerStore(in)

	case ir.AddrGlobal:
		lo.dropConst(in.Dst)
		kind := parv.RelFuncAddr
		if lo.mod.GlobalByName(in.Callee) != nil {
			kind = parv.RelDataAddr
		}
		lo.emit(linstr{
			op: parv.LDI, rd: lo.vr(in.Dst),
			sym: in.Callee, relKind: kind, hasRel: true, imm: int32(in.Imm),
		})
		return nil

	case ir.AddrFrame:
		lo.dropConst(in.Dst)
		lo.emit(linstr{op: parv.ADDI, rd: lo.vr(in.Dst), ra: vreg(parv.RegSP), imm: lo.f.outArgs + int32(in.Imm)})
		return nil

	case ir.Call:
		return lo.lowerCall(in)
	}

	// Comparisons.
	if c, ok := condFor(in.Op); ok {
		defer lo.dropConst(in.Dst)
		if imm, isC := lo.constant(in.B); isC {
			lo.emit(linstr{op: parv.CMPI, rd: lo.vr(in.Dst), ra: lo.vr(in.A), imm: imm, cond: c})
			return nil
		}
		lo.emit(linstr{op: parv.CMP, rd: lo.vr(in.Dst), ra: lo.vr(in.A), rb: lo.vr(in.B), cond: c})
		return nil
	}

	// Binary arithmetic.
	if rop, iop, ok := binOpFor(in.Op); ok {
		defer lo.dropConst(in.Dst)
		if imm, isC := lo.constant(in.B); isC && iop != parv.NOP {
			lo.emit(linstr{op: iop, rd: lo.vr(in.Dst), ra: lo.vr(in.A), imm: imm})
			return nil
		}
		// Commutative ops can fold a constant left operand.
		if imm, isC := lo.constant(in.A); isC && iop != parv.NOP && in.Op.IsCommutative() {
			lo.emit(linstr{op: iop, rd: lo.vr(in.Dst), ra: lo.vr(in.B), imm: imm})
			return nil
		}
		lo.emit(linstr{op: rop, rd: lo.vr(in.Dst), ra: lo.vr(in.A), rb: lo.vr(in.B)})
		return nil
	}
	return fmt.Errorf("codegen: %s: cannot lower %s", lo.f.name, in)
}

func (lo *lowerer) lowerLoad(in *ir.Instr) error {
	m := in.Mem
	switch m.Kind {
	case ir.MemGlobal:
		// Web-promoted global: a register reference, no memory access (§5).
		if reg, ok := lo.prom[m.Sym]; ok && m.Singleton && m.Off == 0 {
			lo.emit(linstr{op: parv.MOV, rd: lo.vr(in.Dst), ra: vreg(reg)})
			return nil
		}
		lo.emit(linstr{
			op: parv.LDW, rd: lo.vr(in.Dst), ra: vreg(parv.RegDP),
			memSize: m.Size, singleton: m.Singleton,
			sym: m.Sym, relKind: parv.RelDataDisp, hasRel: true, imm: m.Off,
		})
	case ir.MemFrame:
		lo.emit(linstr{
			op: parv.LDW, rd: lo.vr(in.Dst), ra: vreg(parv.RegSP),
			imm: lo.f.outArgs + m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	case ir.MemPtr:
		lo.emit(linstr{
			op: parv.LDW, rd: lo.vr(in.Dst), ra: lo.vr(m.Base),
			imm: m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	default:
		return fmt.Errorf("codegen: %s: load with no address", lo.f.name)
	}
	return nil
}

func (lo *lowerer) lowerStore(in *ir.Instr) error {
	m := in.Mem
	switch m.Kind {
	case ir.MemGlobal:
		if reg, ok := lo.prom[m.Sym]; ok && m.Singleton && m.Off == 0 {
			lo.emit(linstr{op: parv.MOV, rd: vreg(reg), ra: lo.vr(in.A)})
			return nil
		}
		lo.emit(linstr{
			op: parv.STW, ra: vreg(parv.RegDP), rb: lo.vr(in.A),
			memSize: m.Size, singleton: m.Singleton,
			sym: m.Sym, relKind: parv.RelDataDisp, hasRel: true, imm: m.Off,
		})
	case ir.MemFrame:
		lo.emit(linstr{
			op: parv.STW, ra: vreg(parv.RegSP), rb: lo.vr(in.A),
			imm: lo.f.outArgs + m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	case ir.MemPtr:
		lo.emit(linstr{
			op: parv.STW, ra: lo.vr(m.Base), rb: lo.vr(in.A),
			imm: m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	default:
		return fmt.Errorf("codegen: %s: store with no address", lo.f.name)
	}
	return nil
}

func (lo *lowerer) lowerCall(in *ir.Instr) error {
	var used []vreg
	// Stack arguments first (they do not pin physical registers).
	for i := len(parv.ArgRegs); i < len(in.Args); i++ {
		lo.emit(linstr{
			op: parv.STW, ra: vreg(parv.RegSP), rb: lo.vr(in.Args[i]),
			imm: int32((i - len(parv.ArgRegs)) * 4), memSize: 4,
		})
	}
	for i := 0; i < len(in.Args) && i < len(parv.ArgRegs); i++ {
		dst := vreg(parv.ArgRegs[i])
		lo.emit(linstr{op: parv.MOV, rd: dst, ra: lo.vr(in.Args[i])})
		used = append(used, dst)
	}
	if in.IndirectCall {
		fn := lo.vr(in.A)
		used = append(used, fn)
		lo.emit(linstr{op: parv.BLR, rd: vreg(parv.RegRP), ra: fn, isCall: true, argsUsed: used})
	} else {
		lo.emit(linstr{
			op: parv.BL, rd: vreg(parv.RegRP), isCall: true, argsUsed: used,
			sym: in.Callee, relKind: parv.RelCall, hasRel: true,
		})
	}
	if in.Dst != 0 {
		lo.dropConst(in.Dst)
		lo.emit(linstr{op: parv.MOV, rd: lo.vr(in.Dst), ra: vreg(parv.RegRet)})
	}
	return nil
}

// lowerTerm lowers the block terminator. Compare results consumed only by
// the branch fold into PA-RISC-style compare-and-branch instructions.
func (lo *lowerer) lowerTerm(b *ir.Block) {
	lb := lo.cur
	switch b.Term.Kind {
	case ir.TermJump:
		lb.instrs = append(lb.instrs, linstr{op: parv.B, target: b.Term.True})
		lb.succs = []int{b.Term.True}

	case ir.TermBranch:
		folded := false
		// Fold `vN = cmp a, b; branch vN` into `cb.cond a, b`.
		if lo.useCount[b.Term.Cond] == 1 {
			for i := len(lb.instrs) - 1; i >= 0; i-- {
				in := lb.instrs[i]
				if (in.op == parv.CMP || in.op == parv.CMPI) &&
					!in.rd.isPhys() && in.rd == lo.vrOf[b.Term.Cond] {
					// Only fold when the compare is the defining instruction
					// and nothing after it redefines the operands.
					if defsBetween(lb.instrs[i+1:], in.ra, in.rb) {
						break
					}
					br := linstr{op: parv.CB, ra: in.ra, rb: in.rb, cond: in.cond, target: b.Term.True}
					if in.op == parv.CMPI {
						br.op = parv.CBI
						br.imm = in.imm
					}
					lb.instrs = append(lb.instrs[:i], append(lb.instrs[i+1:], br)...)
					folded = true
					break
				}
				// Stop scanning at any instruction that defines the cond vreg.
				if in.rd == lo.vrOf[b.Term.Cond] {
					break
				}
			}
		}
		if !folded {
			lb.instrs = append(lb.instrs, linstr{
				op: parv.CBI, ra: lo.vr(b.Term.Cond), imm: 0, cond: parv.NE, target: b.Term.True,
			})
		}
		lb.instrs = append(lb.instrs, linstr{op: parv.B, target: b.Term.False})
		lb.succs = []int{b.Term.True, b.Term.False}

	case ir.TermReturn:
		if b.Term.HasVal {
			lb.instrs = append(lb.instrs, linstr{op: parv.MOV, rd: vreg(parv.RegRet), ra: lo.vr(b.Term.Val)})
		}
		lb.instrs = append(lb.instrs, linstr{op: parv.B, target: epilogueBlock})
	}
}

// defsBetween reports whether any instruction defines ra or rb.
func defsBetween(ins []linstr, ra, rb vreg) bool {
	for i := range ins {
		d := ins[i].rd
		if d != 0 && (d == ra || d == rb) && ins[i].op != parv.STW {
			return true
		}
	}
	return false
}
