// Package pdb implements the program database (§4.3 of the paper): the
// per-procedure register allocation directives computed by the program
// analyzer and consulted by the compiler second phase.
//
// Because the directives are precomputed and stored in one database, the
// second phase can compile source modules independently and in any order —
// the property that makes the scheme work across module boundaries.
package pdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"ipra/internal/regs"
)

// PromotedGlobal records that a global variable is promoted to a specific
// register in a procedure (§4.3).
type PromotedGlobal struct {
	Name string `json:"name"`
	Reg  uint8  `json:"reg"`
	// IsEntry marks web entry procedures, where the second phase inserts
	// the load at entry (and store at exit if NeedStore).
	IsEntry bool `json:"isEntry,omitempty"`
	// NeedStore is false when no procedure of the web modifies the
	// variable, eliminating the store at entry procedures (§5).
	NeedStore bool `json:"needStore,omitempty"`
	WebID     int  `json:"webID,omitempty"`
}

// ProcDirectives are the analyzer's directives for one procedure.
type ProcDirectives struct {
	Name string `json:"name"`

	Promoted []PromotedGlobal `json:"promoted,omitempty"`

	// The four register usage sets of §4.2.3. The register allocator must
	// use each register according to the properties of its set.
	Free   regs.Set `json:"free"`
	Caller regs.Set `json:"caller"`
	Callee regs.Set `json:"callee"`
	MSpill regs.Set `json:"mspill"`

	IsClusterRoot bool `json:"isClusterRoot,omitempty"`

	// ClobberAtCalls, when HasClobber is set, lists every register a call
	// to this procedure may destroy: its own (contracted) caller-saves and
	// FREE registers, the linkage registers, and the closure over its call
	// tree (§7.6.2, the [Chow 88]-style caller-saves preallocation). A
	// caller may keep values across the call in any register outside this
	// set.
	ClobberAtCalls regs.Set `json:"clobberAtCalls,omitempty"`
	HasClobber     bool     `json:"hasClobber,omitempty"`
}

// Database is the whole program database.
type Database struct {
	Procs map[string]*ProcDirectives `json:"procs"`

	// EligibleGlobals lists the globals that are never aliased anywhere in
	// the program; the second phase may promote these intraprocedurally
	// when they are not web-promoted.
	EligibleGlobals []string `json:"eligibleGlobals,omitempty"`
}

// New returns an empty database.
func New() *Database {
	return &Database{Procs: make(map[string]*ProcDirectives)}
}

// Standard returns the directives for a procedure the analyzer knows
// nothing about: conventional linkage, nothing promoted.
func Standard(name string) *ProcDirectives {
	return &ProcDirectives{
		Name:   name,
		Caller: regs.StdCallerSaved(),
		Callee: regs.StdCalleeSaved(),
	}
}

// Lookup returns the directives for the named procedure, falling back to
// the standard convention.
func (db *Database) Lookup(name string) *ProcDirectives {
	if db != nil {
		if d, ok := db.Procs[name]; ok {
			return d
		}
	}
	return Standard(name)
}

// Validate checks internal consistency of the directives: the four sets
// must be disjoint, and promoted registers must not appear in any set.
func (d *ProcDirectives) Validate() error {
	sets := []struct {
		name string
		s    regs.Set
	}{
		{"FREE", d.Free}, {"CALLER", d.Caller}, {"CALLEE", d.Callee}, {"MSPILL", d.MSpill},
	}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if inter := sets[i].s.Intersect(sets[j].s); !inter.Empty() {
				return fmt.Errorf("%s: %s and %s overlap on %s", d.Name, sets[i].name, sets[j].name, inter)
			}
		}
	}
	for _, p := range d.Promoted {
		for _, s := range sets {
			if s.s.Has(p.Reg) {
				return fmt.Errorf("%s: promoted register r%d for %s appears in %s", d.Name, p.Reg, p.Name, s.name)
			}
		}
	}
	return nil
}

// promotedLess is the canonical ordering of promotion lists: name-major,
// with web and register tiebreaks so the bytes stay canonical even for
// degenerate inputs (a variable promoted twice in one procedure).
func promotedLess(a, b *PromotedGlobal) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.WebID != b.WebID {
		return a.WebID < b.WebID
	}
	return a.Reg < b.Reg
}

// SortPromoted puts a promotion list into the canonical order
// CanonicalBytes serializes in (and ViewHash hashes in, WebID aside).
// Producers that sort at construction time let every later hash of the
// directives skip its defensive copy-and-sort.
func SortPromoted(ps []PromotedGlobal) {
	// Insertion sort: promotion lists hold at most a handful of entries
	// (bounded by the callee-saves set), and sort.Slice's reflection-based
	// swapper costs an allocation per call on a per-procedure hot path.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && promotedLess(&ps[j], &ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// CanonicalBytes returns a stable serialization of the directives: the
// JSON encoding with the Promoted list in canonical order. Two
// semantically identical directive sets always produce the same bytes, no
// matter what order the analyzer emitted the promotions in, so the bytes
// are safe to persist and compare across builds.
func (d *ProcDirectives) CanonicalBytes() []byte {
	cp := *d
	if len(d.Promoted) > 1 && !sort.SliceIsSorted(d.Promoted, func(i, j int) bool {
		return promotedLess(&d.Promoted[i], &d.Promoted[j])
	}) {
		cp.Promoted = append([]PromotedGlobal(nil), d.Promoted...)
		SortPromoted(cp.Promoted)
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		// ProcDirectives contains only marshalable fields; a failure here
		// is a programming error, not an input condition.
		panic(fmt.Sprintf("pdb: canonical marshal %s: %v", d.Name, err))
	}
	return data
}

// View names the slice of a procedure's directives that one kind of
// phase-2 compilation reads. The incremental driver stores a ViewHash per
// consulted procedure and recompiles a module only when one changes, so a
// view must cover every field its reader consumes and nothing else: a
// field outside every view can change without recompiling anything.
type View uint8

const (
	// OwnView is what compiling the procedure itself reads: its
	// promotions (name, register, entry and store flags, §5), its four
	// register usage sets (§4.2.3) and whether it is a cluster root.
	// WebID is not part of it: it is a program-wide dense index that
	// phase 2 never reads, so one new web would otherwise renumber, and
	// recompile, every procedure of every later web.
	OwnView View = 1
	// CalleeView is what compiling a direct caller reads: the published
	// clobber set (§7.6.2), exactly codegen's per-call clobber lookup.
	CalleeView View = 2
)

// ViewHash fingerprints one view of the directives from a fixed byte
// layout: the view tag, then for OwnView each promotion (in viewLess
// order, so emission order does not matter) as a length-prefixed name, a
// register and a flag byte, followed by the four sets and the cluster-root
// flag; for CalleeView the clobber flag and set.
func (d *ProcDirectives) ViewHash(v View) string {
	var arr [64]byte
	b := append(arr[:0], byte(v))
	switch v {
	case OwnView:
		ps := viewOrder(d.Promoted)
		b = binary.AppendUvarint(b, uint64(len(ps)))
		for i := range ps {
			p := &ps[i]
			b = binary.AppendUvarint(b, uint64(len(p.Name)))
			b = append(b, p.Name...)
			b = append(b, p.Reg, flags(p.IsEntry, p.NeedStore))
		}
		for _, s := range [...]regs.Set{d.Free, d.Caller, d.Callee, d.MSpill} {
			b = binary.LittleEndian.AppendUint32(b, uint32(s))
		}
		b = append(b, flags(d.IsClusterRoot, false))
	case CalleeView:
		b = append(b, flags(d.HasClobber, false))
		b = binary.LittleEndian.AppendUint32(b, uint32(d.ClobberAtCalls))
	default:
		panic(fmt.Sprintf("pdb: unknown view %d", v))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// viewOrder returns ps in viewLess order: ps itself when already sorted
// (the analyzer emits SortPromoted order, which agrees unless a variable
// is promoted twice), else a sorted copy.
func viewOrder(ps []PromotedGlobal) []PromotedGlobal {
	sorted := true
	for i := 1; i < len(ps) && sorted; i++ {
		sorted = !viewLess(&ps[i], &ps[i-1])
	}
	if sorted {
		return ps
	}
	ps = append([]PromotedGlobal(nil), ps...)
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && viewLess(&ps[j], &ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps
}

// viewLess orders promotions for ViewHash: promotedLess without the WebID
// tiebreak, which the view does not cover.
func viewLess(a, b *PromotedGlobal) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Reg != b.Reg {
		return a.Reg < b.Reg
	}
	return flags(a.IsEntry, a.NeedStore) < flags(b.IsEntry, b.NeedStore)
}

func flags(a, b bool) byte {
	var f byte
	if a {
		f |= 1
	}
	if b {
		f |= 2
	}
	return f
}

// Hash fingerprints the whole database: every procedure's canonical
// directives (WebIDs included) plus the eligibility list. Tests compare
// whole databases by it; the incremental driver diffs the narrower
// per-module views instead.
func (db *Database) Hash() string {
	names := make([]string, 0, len(db.Procs))
	for name := range db.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b := db.Procs[name].CanonicalBytes()
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	sorted := append([]string(nil), db.EligibleGlobals...)
	sort.Strings(sorted)
	e := sha256.New()
	for _, g := range sorted {
		fmt.Fprintf(e, "%d:%s,", len(g), g)
	}
	fmt.Fprintf(h, "|eligible=%x", e.Sum(nil)[:16])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// WriteFile serializes the database as JSON.
func WriteFile(path string, db *Database) error {
	data, err := json.MarshalIndent(db, "", " ")
	if err != nil {
		return fmt.Errorf("pdb: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a database.
func ReadFile(path string) (*Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var db Database
	if err := json.Unmarshal(data, &db); err != nil {
		return nil, fmt.Errorf("pdb %s: %w", path, err)
	}
	if db.Procs == nil {
		db.Procs = make(map[string]*ProcDirectives)
	}
	return &db, nil
}
