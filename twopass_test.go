package ipra

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/summary"
)

// TestTwoPassFileBasedPipeline drives the paper's Figure 1 flow through
// actual files, the way the mcc / ipra-analyze tools do:
//
//	phase 1:  source -> .ir (intermediate) + .sum (summary) per module
//	analyzer: all .sum -> program database file
//	phase 2:  each .ir + database -> object, in ARBITRARY module order
//	link (objects in source order) + run
//
// The point of the paper's organization is that phase 2 is order
// independent and module-at-a-time; this test compiles the modules in
// reverse order from a cold start (files only), and the linked result must
// be byte-identical to the one-call Build under the same configuration.
func TestTwoPassFileBasedPipeline(t *testing.T) {
	dir := t.TempDir()
	sources := []Source{
		{Name: "main.mc", Text: []byte(`
extern int total;
int add(int x);
int main() {
	int i;
	for (i = 1; i <= 100; i++) { add(i); }
	return total & 255;
}
`)},
		{Name: "lib.mc", Text: []byte(`
int total;
int add(int x) { total += x; return total; }
`)},
	}

	// ---- Phase 1: write .ir and .sum files.
	var irPaths, sumPaths []string
	for _, src := range sources {
		m, err := Phase1(src)
		if err != nil {
			t.Fatal(err)
		}
		irPath := filepath.Join(dir, src.Name+".ir")
		if err := ir.WriteFile(irPath, m); err != nil {
			t.Fatal(err)
		}
		ms := Summaries([]*ir.Module{m})[0]
		sumPath := filepath.Join(dir, src.Name+".sum")
		if err := summary.WriteFile(sumPath, ms); err != nil {
			t.Fatal(err)
		}
		irPaths = append(irPaths, irPath)
		sumPaths = append(sumPaths, sumPath)
	}

	// ---- Program analyzer: read summaries from disk, write the database.
	var sums []*summary.ModuleSummary
	for _, p := range sumPaths {
		ms, err := summary.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, ms)
	}
	res, err := core.Analyze(context.Background(), sums, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "prog.pdb")
	if err := pdb.WriteFile(dbPath, res.DB); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 2: reload everything from disk, reverse module order.
	db, err := pdb.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]*parv.Object, len(irPaths))
	for i := len(irPaths) - 1; i >= 0; i-- {
		m, err := ir.ReadFile(irPaths[i])
		if err != nil {
			t.Fatal(err)
		}
		if objs[i], err = Phase2(m, db); err != nil {
			t.Fatal(err)
		}
	}

	exe, err := parv.Link(objs, parv.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vm := parv.NewVM(exe)
	exit, err := vm.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 5050&255 {
		t.Errorf("exit = %d, want %d", exit, 5050&255)
	}

	// The web for `total` spans both modules: `add` must execute no
	// memory references to it.
	if vm.Stats.SingletonRefs() > 6 {
		t.Errorf("singleton refs = %d; interprocedural promotion across the "+
			"module boundary did not take effect", vm.Stats.SingletonRefs())
	}

	// The same program through Build is byte-identical.
	built, err := Build(context.Background(), sources, MustPreset("C"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exeBytes(t, exe), exeBytes(t, built.Exe)) {
		t.Error("file pipeline executable differs from Build's")
	}
}
