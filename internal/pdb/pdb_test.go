package pdb

import (
	"path/filepath"
	"reflect"
	"testing"

	"ipra/internal/regs"
)

func TestStandardDirectives(t *testing.T) {
	d := Standard("f")
	if d.Name != "f" {
		t.Error("name lost")
	}
	if d.Caller != regs.StdCallerSaved() || d.Callee != regs.StdCalleeSaved() {
		t.Error("standard sets wrong")
	}
	if !d.Free.Empty() || !d.MSpill.Empty() {
		t.Error("standard directives must have empty FREE/MSPILL")
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLookupFallsBack(t *testing.T) {
	db := New()
	db.Procs["known"] = &ProcDirectives{Name: "known"}
	if db.Lookup("known").Name != "known" {
		t.Error("lookup missed")
	}
	d := db.Lookup("unknown")
	if d.Callee != regs.StdCalleeSaved() {
		t.Error("fallback is not the standard convention")
	}
	var nilDB *Database
	if nilDB.Lookup("x") == nil {
		t.Error("nil database must still return standard directives")
	}
}

func TestValidateCatchesOverlaps(t *testing.T) {
	d := &ProcDirectives{
		Name: "f",
		Free: regs.Of(5), Callee: regs.Of(5),
	}
	if err := d.Validate(); err == nil {
		t.Error("overlapping FREE/CALLEE accepted")
	}
	d = &ProcDirectives{
		Name:     "f",
		Caller:   regs.Of(19),
		Promoted: []PromotedGlobal{{Name: "g", Reg: 19}},
	}
	if err := d.Validate(); err == nil {
		t.Error("promoted register inside CALLER accepted")
	}
}

// TestViewHash pins what each phase-2 view covers: every field its reader
// consumes changes it, and nothing else does.
func TestViewHash(t *testing.T) {
	mk := func() *ProcDirectives {
		return &ProcDirectives{
			Name:   "f",
			Free:   regs.Of(8),
			Caller: regs.Of(19, 20),
			Callee: regs.Of(3),
			Promoted: []PromotedGlobal{
				{Name: "a", Reg: 16, WebID: 2},
				{Name: "g", Reg: 17, IsEntry: true, NeedStore: true, WebID: 4},
			},
			HasClobber:     true,
			ClobberAtCalls: regs.Of(19),
		}
	}
	base := mk()
	own, callee := base.ViewHash(OwnView), base.ViewHash(CalleeView)
	if own == callee {
		t.Fatal("the two views must hash apart")
	}
	for _, tc := range []struct {
		name              string
		mut               func(*ProcDirectives)
		ownMoves, calMove bool
	}{
		{"promotion name", func(d *ProcDirectives) { d.Promoted[1].Name = "h" }, true, false},
		{"promotion reg", func(d *ProcDirectives) { d.Promoted[1].Reg = 15 }, true, false},
		{"promotion entry", func(d *ProcDirectives) { d.Promoted[0].IsEntry = true }, true, false},
		{"promotion need store", func(d *ProcDirectives) { d.Promoted[0].NeedStore = true }, true, false},
		{"promotion dropped", func(d *ProcDirectives) { d.Promoted = d.Promoted[:1] }, true, false},
		{"free set", func(d *ProcDirectives) { d.Free = regs.Of(9) }, true, false},
		{"caller set", func(d *ProcDirectives) { d.Caller = regs.Of(19) }, true, false},
		{"callee set", func(d *ProcDirectives) { d.Callee = regs.Of(4) }, true, false},
		{"mspill set", func(d *ProcDirectives) { d.MSpill = regs.Of(10) }, true, false},
		{"cluster root", func(d *ProcDirectives) { d.IsClusterRoot = true }, true, false},
		{"has clobber", func(d *ProcDirectives) { d.HasClobber = false }, false, true},
		{"clobber set", func(d *ProcDirectives) { d.ClobberAtCalls = regs.Of(19, 20) }, false, true},
		{"web id", func(d *ProcDirectives) { d.Promoted[0].WebID, d.Promoted[1].WebID = 7, 1 }, false, false},
		{"name", func(d *ProcDirectives) { d.Name = "renamed" }, false, false},
		{"promotion order", func(d *ProcDirectives) { d.Promoted[0], d.Promoted[1] = d.Promoted[1], d.Promoted[0] }, false, false},
	} {
		d := mk()
		tc.mut(d)
		if got := d.ViewHash(OwnView) != own; got != tc.ownMoves {
			t.Errorf("%s: own view changed = %v, want %v", tc.name, got, tc.ownMoves)
		}
		if got := d.ViewHash(CalleeView) != callee; got != tc.calMove {
			t.Errorf("%s: callee view changed = %v, want %v", tc.name, got, tc.calMove)
		}
	}

	// Hashing an out-of-order list must not reorder the caller's slice.
	swapped := mk()
	swapped.Promoted[0], swapped.Promoted[1] = swapped.Promoted[1], swapped.Promoted[0]
	swapped.ViewHash(OwnView)
	if swapped.Promoted[0].Name != "g" {
		t.Error("ViewHash reordered the caller's promotion list")
	}
}

func TestDatabaseHashes(t *testing.T) {
	db := New()
	db.EligibleGlobals = []string{"b", "a"}
	db.Procs["f"] = Standard("f")

	other := New()
	other.EligibleGlobals = []string{"a", "b"}
	other.Procs["f"] = Standard("f")
	if db.Hash() != other.Hash() {
		t.Error("equivalent databases must hash equal (eligibility order must not matter)")
	}

	other.Procs["g"] = Standard("g")
	if db.Hash() == other.Hash() {
		t.Error("adding a procedure must change the database hash")
	}
	other = New()
	other.EligibleGlobals = []string{"a"}
	other.Procs["f"] = Standard("f")
	if db.Hash() == other.Hash() {
		t.Error("eligibility change must change the database hash")
	}
	// Unambiguous list encoding: ["ab"] vs ["a","b"].
	one := New()
	one.EligibleGlobals = []string{"ab"}
	two := New()
	two.EligibleGlobals = []string{"a", "b"}
	if one.Hash() == two.Hash() {
		t.Error("eligible list encoding must length-prefix elements")
	}

	// The daemon and profile records carry this hash across processes and
	// releases: its bytes are pinned.
	db.Procs["g"] = &ProcDirectives{
		Name: "g", Free: regs.Of(8),
		Promoted:   []PromotedGlobal{{Name: "x", Reg: 17, IsEntry: true, WebID: 3}},
		HasClobber: true, ClobberAtCalls: regs.Of(19, 20),
	}
	if got, want := db.Hash(), "cfac9b17a11fba5cc63d20c4bcae1768"; got != want {
		t.Errorf("Hash = %s, want pinned %s", got, want)
	}
}

func TestDatabaseRoundtrip(t *testing.T) {
	db := New()
	db.EligibleGlobals = []string{"a", "b"}
	db.Procs["f"] = &ProcDirectives{
		Name:   "f",
		Free:   regs.Of(8, 9),
		Caller: regs.Of(19, 20),
		Callee: regs.Of(3),
		MSpill: regs.Of(10),
		Promoted: []PromotedGlobal{
			{Name: "g", Reg: 17, IsEntry: true, NeedStore: true, WebID: 4},
		},
		IsClusterRoot: true,
	}
	path := filepath.Join(t.TempDir(), "p.pdb")
	if err := WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Procs["f"], db.Procs["f"]) {
		t.Errorf("roundtrip mismatch:\n%+v\n%+v", got.Procs["f"], db.Procs["f"])
	}
	if !reflect.DeepEqual(got.EligibleGlobals, db.EligibleGlobals) {
		t.Error("eligible globals lost")
	}
}
