package ipra

import (
	"context"
	"flag"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/progen"
)

var updatePressureGolden = flag.Bool("update-pressure", false, "rewrite testdata/pressure_goldens.json from the current compiler")

const pressureGoldenPath = "testdata/pressure_goldens.json"

// pressurePrograms returns programs that put the optimizer and the
// register allocator under real pressure: the progen "medium" preset with
// seed 1 (50 modules x 40 procedures) and the paopt benchmark analog. The
// strategy goldens cover only small programs.
func pressurePrograms(t testing.TB) map[string][]Source {
	t.Helper()
	cfg, err := progen.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	var gen []Source
	for _, m := range progen.Generate(cfg) {
		gen = append(gen, Source{Name: m.Name, Text: []byte(m.Text)})
	}

	b, err := benchprogs.ByName("paopt")
	if err != nil {
		t.Fatal(err)
	}
	files, err := b.Sources()
	if err != nil {
		t.Fatal(err)
	}
	var paopt []Source
	for _, f := range files {
		paopt = append(paopt, Source{Name: f.Name, Text: f.Text})
	}
	return map[string][]Source{"medium-seed1": gen, "paopt": paopt}
}

// TestPressureGoldens pins the executables of the pressure programs under
// L2, A and C (the configurations without a training run) byte-for-byte,
// so a change to the optimizer or allocator kernels that alters any
// emitted word fails here. Refresh after an intentional codegen change
// with `go test -run TestPressureGoldens -update-pressure .`.
func TestPressureGoldens(t *testing.T) {
	got := make(map[string]string)
	for prog, sources := range pressurePrograms(t) {
		for _, name := range []string{"L2", "A", "C"} {
			res, err := Build(context.Background(), sources, MustPreset(name))
			if err != nil {
				t.Fatalf("%s/%s: %v", prog, name, err)
			}
			got[prog+"/"+name] = exeHash(t, res)
		}
	}

	checkExeGoldens(t, pressureGoldenPath, got, *updatePressureGolden, "-update-pressure")
}
