// Package codegen is the back end of the compiler second phase: it lowers
// optimized IR to PARV machine code under the register allocation
// directives of the program database — implementing §5 of the paper:
//
//   - memory references to web-promoted globals become register
//     references, with loads/stores inserted only at web entry procedures;
//   - the register allocator draws caller-saves registers from the CALLER
//     set, call-crossing values from FREE before CALLEE, and spill code is
//     emitted for used CALLEE registers;
//   - cluster root procedures save and restore every register in their
//     MSPILL set regardless of use.
package codegen

import (
	"fmt"

	"ipra/internal/ir"
	"ipra/internal/parv"
)

// A vreg is either a physical register (0..31) or a virtual register
// (>= vregBase).
type vreg int32

const vregBase vreg = 32

func (v vreg) isPhys() bool { return v < vregBase }

func (v vreg) String() string {
	if v.isPhys() {
		return parv.RegName(uint8(v))
	}
	return fmt.Sprintf("t%d", int32(v-vregBase))
}

// frameFixup marks immediates that depend on the final frame size, patched
// after register allocation fixes the frame layout.
type frameFixup uint8

const (
	fixNone frameFixup = iota
	// fixIncomingArg: imm is an incoming stack-argument index; final
	// displacement is frameSize + 4*index off SP.
	fixIncomingArg
	// fixFrameSize: imm is added to the final frame size (SP adjustment).
	fixFrameSize
)

// linstr is a machine instruction over virtual registers.
type linstr struct {
	op         parv.Op
	rd, ra, rb vreg
	imm        int32
	cond       parv.Cond
	memSize    uint8
	singleton  bool

	// target is a LIR block index for B/CB/CBI (resolved at emission).
	target int

	// sym + relKind describe a link-time relocation on this instruction.
	sym     string
	relKind parv.RelocKind
	hasRel  bool

	fixup frameFixup

	// Call metadata (op == BL or BLR).
	isCall   bool
	argsUsed []vreg // physical arg registers (and the callee vreg for BLR)
}

// lblock is a basic block of LIR; the terminator is the trailing branch
// instruction (or fallthrough to the next block).
type lblock struct {
	id        int
	loopDepth int
	instrs    []linstr
	// succs in block-index space (for liveness).
	succs []int
}

// lfunc is a function during lowering and allocation.
type lfunc struct {
	name   string
	blocks []*lblock

	nvregs     int32 // number of virtual registers allocated
	frameLocal int32 // bytes of IR frame (locals)
	outArgs    int32 // bytes of outgoing stack-argument area
	makesCalls bool

	// liveSlab backs the per-block sets of lirLiveness; liveSets are their
	// headers. Both are reused by every liveness pass over the function.
	liveSlab []uint64
	liveSets []ir.BitSet
}

func (f *lfunc) newVreg() vreg {
	v := vregBase + vreg(f.nvregs)
	f.nvregs++
	return v
}

// epilogueBlock is the pseudo target index representing the function
// epilogue; returns branch there.
const epilogueBlock = -1
