package opt

import (
	"strings"
	"testing"

	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
	"ipra/internal/pdb"
)

// lower compiles a MiniC snippet to IR and returns the named function.
func lower(t *testing.T, src, fn string) *ir.Func {
	t.Helper()
	file, err := parser.ParseFile("t.mc", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := sem.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	irm, err := irgen.Generate(mod)
	if err != nil {
		t.Fatal(err)
	}
	f := irm.FuncByName(fn)
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	return f
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func countMemGlobal(f *ir.Func, op ir.Op, sym string) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == op && in.Mem.Kind == ir.MemGlobal && in.Mem.Sym == sym {
				n++
			}
		}
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	f := lower(t, `int f() { return (2 + 3) * 4 - 6 / 2; }`, "f")
	Level1(f)
	// The whole expression folds to the constant 17.
	if got := countOps(f, ir.Mul) + countOps(f, ir.Div) + countOps(f, ir.Sub) + countOps(f, ir.Add); got != 0 {
		t.Errorf("%d arithmetic ops survive constant folding:\n%s", got, f)
	}
	term := f.Blocks[0].Term
	if term.Kind != ir.TermReturn {
		t.Fatalf("entry does not return:\n%s", f)
	}
}

func TestAlgebraicSimplification(t *testing.T) {
	f := lower(t, `int f(int x) { return (x + 0) * 1 - 0; }`, "f")
	Level1(f)
	if n := countOps(f, ir.Add) + countOps(f, ir.Mul) + countOps(f, ir.Sub); n != 0 {
		t.Errorf("identities not removed:\n%s", f)
	}
}

func TestLocalCSE(t *testing.T) {
	f := lower(t, `
int g;
int f(int x) {
	int a = g + x;
	int b = g + x; // same value: load and add CSE'd
	return a + b;
}`, "f")
	Level1(f)
	if n := countMemGlobal(f, ir.Load, "g"); n != 1 {
		t.Errorf("g loaded %d times, want 1 after CSE:\n%s", n, f)
	}
	if n := countOps(f, ir.Add); n > 2 {
		t.Errorf("adds = %d, want <= 2:\n%s", n, f)
	}
}

func TestCSEKilledByStore(t *testing.T) {
	f := lower(t, `
int g;
int f(int x) {
	int a = g;
	g = x;
	return a + g; // second load must survive... but store forwards x
}`, "f")
	Level1(f)
	// The store-to-load forwarding may eliminate the reload; what must
	// NOT happen is forwarding the stale first load.
	// Verified behaviourally: a + g == old_g + x.
	if countMemGlobal(f, ir.Store, "g") != 1 {
		t.Errorf("store eliminated:\n%s", f)
	}
}

func TestDCERemovesDeadCode(t *testing.T) {
	f := lower(t, `
int f(int x) {
	int unused = x * 97;
	return x;
}`, "f")
	Level1(f)
	if n := countOps(f, ir.Mul); n != 0 {
		t.Errorf("dead multiply survives:\n%s", f)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	f := lower(t, `
int g;
int h(int v);
int f(int x) {
	g = x;      // store: kept
	h(x);       // call: kept
	return x / x; // div kept (may trap)
}`, "f")
	Level1(f)
	if countMemGlobal(f, ir.Store, "g") != 1 {
		t.Error("store removed")
	}
	if countOps(f, ir.Call) != 1 {
		t.Error("call removed")
	}
	if countOps(f, ir.Div) != 1 {
		t.Error("div removed")
	}
}

func TestBranchFolding(t *testing.T) {
	f := lower(t, `
int f(int x) {
	if (1) { return x; }
	return x * 999;
}`, "f")
	Level1(f)
	if n := countOps(f, ir.Mul); n != 0 {
		t.Errorf("dead branch not removed:\n%s", f)
	}
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBranch {
			t.Errorf("constant branch survives:\n%s", f)
		}
	}
}

func TestCFGBlockMerging(t *testing.T) {
	f := lower(t, `int f(int x) { int a = x + 1; int b = a + 2; return b; }`, "f")
	Level1(f)
	if len(f.Blocks) != 1 {
		t.Errorf("straight-line function has %d blocks:\n%s", len(f.Blocks), f)
	}
}

func TestPromoteGlobalsStructure(t *testing.T) {
	src := `
int g;
int h();
int f(int x) {
	g = g + x;
	h();
	g = g + 2;
	return g;
}`
	f := lower(t, src, "f")
	PromoteGlobals(f, map[string]bool{"g": true}, nil)

	s := f.String()
	// Entry block begins with the reload.
	first := f.Blocks[0].Instrs[0]
	if first.Op != ir.Load || first.Mem.Sym != "g" {
		t.Errorf("entry does not start with load of g:\n%s", s)
	}
	// Around the call: flush before, reload after.
	var seq []string
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch {
			case in.Op == ir.Call:
				seq = append(seq, "call")
			case in.Op == ir.Load && in.Mem.Sym == "g":
				seq = append(seq, "load")
			case in.Op == ir.Store && in.Mem.Sym == "g":
				seq = append(seq, "store")
			}
		}
	}
	joined := strings.Join(seq, " ")
	if !strings.Contains(joined, "store call load") {
		t.Errorf("no flush/reload around call: %s\n%s", joined, s)
	}
	// Direct references are rewritten: only boundary transfers remain.
	if n := countMemGlobal(f, ir.Load, "g"); n != 2 { // entry + after call
		t.Errorf("loads of g = %d, want 2:\n%s", n, s)
	}
}

func TestPromoteGlobalsSkipsIneligible(t *testing.T) {
	f := lower(t, `
int g;
int a;
int f(int x) { g = x; a = x; return g + a; }`, "f")
	PromoteGlobals(f, map[string]bool{"g": true}, map[string]bool{"g": true})
	// g skipped (web-promoted elsewhere), a not eligible: nothing happens.
	if n := countMemGlobal(f, ir.Store, "g"); n != 1 {
		t.Errorf("skipped global was promoted:\n%s", f)
	}
}

func TestPromoteReadOnlyGlobalHasNoFlush(t *testing.T) {
	f := lower(t, `
int g;
int h();
int f(int x) {
	int a = g + x;
	h();
	return a + g;
}`, "f")
	PromoteGlobals(f, map[string]bool{"g": true}, nil)
	if n := countMemGlobal(f, ir.Store, "g"); n != 0 {
		t.Errorf("read-only global flushed %d times:\n%s", n, f)
	}
}

func TestApplyWebDirectivesPinsAccesses(t *testing.T) {
	f := lower(t, `
int g;
int f(int x) { g = g + x; return g; }`, "f")
	ApplyWebDirectives(f, []pdb.PromotedGlobal{{Name: "g", Reg: 17, NeedStore: true}})
	if n := countMemGlobal(f, ir.Load, "g") + countMemGlobal(f, ir.Store, "g"); n != 0 {
		t.Errorf("memory references to promoted global survive:\n%s", f)
	}
	if len(f.Pinned) != 1 {
		t.Fatalf("pinned registers = %v", f.Pinned)
	}
	for _, phys := range f.Pinned {
		if phys != 17 {
			t.Errorf("pinned to r%d, want r17", phys)
		}
	}
}

func TestPinnedWritesSurviveDCE(t *testing.T) {
	f := lower(t, `
int g;
void f(int x) { g = x; }`, "f")
	ApplyWebDirectives(f, []pdb.PromotedGlobal{{Name: "g", Reg: 17, NeedStore: true}})
	Level2(f, nil, map[string]bool{"g": true})
	// The copy into the pinned register is the only observable effect.
	copies := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Copy && f.IsPinned(in.Dst) {
				copies++
			}
		}
	}
	if copies != 1 {
		t.Errorf("pinned write count = %d, want 1:\n%s", copies, f)
	}
}

func TestPinnedFactsKilledAtCalls(t *testing.T) {
	f := lower(t, `
int g;
int h();
int f(int x) {
	int a = g;  // read pinned
	h();        // may change g
	return a + g; // must re-read the pinned register, not reuse a
}`, "f")
	ApplyWebDirectives(f, []pdb.PromotedGlobal{{Name: "g", Reg: 17, NeedStore: true}})
	Level2(f, nil, map[string]bool{"g": true})
	// After optimization, the return expression must still use the pinned
	// register (or a copy made after the call), not fold to a+a.
	// Structural check: at least one read of the pinned register occurs
	// after the call in instruction order.
	var pinned ir.Reg
	for r := range f.Pinned {
		pinned = r
	}
	seenCall := false
	usesAfterCall := 0
	var buf []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call {
				seenCall = true
				continue
			}
			if !seenCall {
				continue
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u == pinned {
					usesAfterCall++
				}
			}
		}
		if b.Term.Kind == ir.TermReturn && b.Term.HasVal && b.Term.Val == pinned {
			usesAfterCall++
		}
	}
	if usesAfterCall == 0 {
		t.Errorf("stale pinned value reused across call:\n%s", f)
	}
}

func TestLevel2Pipeline(t *testing.T) {
	f := lower(t, `
int g;
int f(int x) {
	int i;
	int s = 0;
	for (i = 0; i < 10; i++) {
		s += g * 2 + 0;
	}
	return s;
}`, "f")
	Level2(f, map[string]bool{"g": true}, nil)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// g promoted: loop body reads a register, not memory.
	if n := countMemGlobal(f, ir.Load, "g"); n != 1 {
		t.Errorf("loads of g = %d, want 1 (entry only):\n%s", n, f)
	}
}

// TestLocalOptForgetsRedefinedRegisters pins the kill rule of the local
// optimizer: once a register is redefined, no fact that mentions it — as
// an expression operand, as the register holding a value, or as either
// end of a copy — may be used again in the block.
func TestLocalOptForgetsRedefinedRegisters(t *testing.T) {
	g := ir.MemRef{Kind: ir.MemGlobal, Sym: "g", Size: 4, Singleton: true}
	f := &ir.Func{Name: "f", NParams: 2, Params: []ir.Reg{1, 2}, NextReg: 11}
	f.Blocks = []*ir.Block{{ID: 0, Instrs: []ir.Instr{
		{Op: ir.Add, Dst: 3, A: 1, B: 2}, // 0
		{Op: ir.Const, Dst: 1, Imm: 7},   // 1: operand r1 redefined
		{Op: ir.Add, Dst: 4, A: 1, B: 2}, // 2: must not reuse r3
		{Op: ir.Copy, Dst: 5, A: 2},      // 3
		{Op: ir.Const, Dst: 2, Imm: 9},   // 4: copy source r2 redefined
		{Op: ir.Add, Dst: 6, A: 5, B: 4}, // 5: r5 must not resolve to r2
		{Op: ir.Mul, Dst: 7, A: 4, B: 6}, // 6
		{Op: ir.Const, Dst: 7, Imm: 1},   // 7: holder r7 redefined
		{Op: ir.Mul, Dst: 8, A: 4, B: 6}, // 8: must not reuse r7
		{Op: ir.Load, Dst: 9, Mem: g},    // 9
		{Op: ir.Const, Dst: 9, Imm: 3},   // 10: holder r9 redefined
		{Op: ir.Load, Dst: 10, Mem: g},   // 11: must reload g
	}, Term: ir.Term{Kind: ir.TermReturn, Val: 10, HasVal: true}}}
	LocalOpt(f)

	in := f.Blocks[0].Instrs
	for _, c := range []struct {
		i    int
		op   ir.Op
		a, b ir.Reg
	}{
		{2, ir.Add, 1, 2},
		{5, ir.Add, 5, 4},
		{8, ir.Mul, 4, 6},
		{11, ir.Load, 0, 0},
	} {
		if got := in[c.i]; got.Op != c.op || got.A != c.a || got.B != c.b {
			t.Errorf("instr %d = %v, want %v %v, %v", c.i, got, c.op, c.a, c.b)
		}
	}
}
