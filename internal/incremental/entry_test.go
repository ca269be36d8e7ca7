package incremental

import (
	"reflect"
	"testing"

	"ipra/internal/ir"
	"ipra/internal/summary"
)

func testModule(name string) *ir.Module {
	return &ir.Module{
		Name:    name,
		Globals: []*ir.Global{{Name: "g", Module: name, Size: 4, Defined: true, Scalar: true}},
	}
}

func testSummary(name string) *summary.ModuleSummary {
	return &summary.ModuleSummary{
		Module: name,
		Procs:  []summary.ProcRecord{{Name: "main", Module: name, CalleeSavesNeeded: 3}},
	}
}

func TestSourceKeyComponents(t *testing.T) {
	base := sourceKey("m.mc", []byte("int g;"), "v1")
	if sourceKey("m.mc", []byte("int g;"), "v1") != base {
		t.Error("identical inputs must hash identically")
	}
	if sourceKey("n.mc", []byte("int g;"), "v1") == base {
		t.Error("name must be part of the key")
	}
	if sourceKey("m.mc", []byte("int h;"), "v1") == base {
		t.Error("source text must be part of the key")
	}
	if sourceKey("m.mc", []byte("int g;"), "v2") == base {
		t.Error("fingerprint must be part of the key")
	}
	// Length-prefixing keeps field boundaries unambiguous.
	if sourceKey("ab", []byte("c"), "") == sourceKey("a", []byte("bc"), "") {
		t.Error("shifting bytes between name and text must change the key")
	}
	// The byte layout is part of the build-dir format: a changed layout
	// would silently invalidate every stored phase-1 record.
	const want = "44a28a668db7afcf7616774494b0e2c1084c32fc00accc9a4773f308d4263611"
	if got := sourceKey("m.mc", []byte("int g;"), "v1"); got != want {
		t.Errorf("sourceKey layout changed: %s, want %s", got, want)
	}
}

func TestEntryFileRoundtrip(t *testing.T) {
	st, err := openStore(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	m, ms := testModule("m.mc"), testSummary("m.mc")
	base, err := st.writeArtifact("p1", EncodeEntry(m, ms))
	if err != nil {
		t.Fatal(err)
	}
	rec := &moduleState{Phase1File: base}
	gm, gms, err := st.loadPhase1(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gm, m) || !reflect.DeepEqual(gms, ms) {
		t.Error("phase-1 record roundtrip lost data")
	}
	// Decoded copies must be private.
	gm.Globals[0].Name = "corrupted"
	gm2, _, err := st.loadPhase1(rec)
	if err != nil {
		t.Fatal(err)
	}
	if gm2.Globals[0].Name != "g" {
		t.Error("reread record shares memory with a previous read")
	}
	if _, _, err := st.loadPhase1(&moduleState{Phase1File: "absent.wire"}); err == nil {
		t.Error("missing phase-1 record must error")
	}
}
