// The persistent build-state store: a build directory holding one state
// record plus content-named phase-1 records and object files.
//
// Layout:
//
//	<build-dir>/state.wire      the build state (wire kind "build-state")
//	<build-dir>/p1-<hash>.wire  phase-1 record (IR module + summary,
//	                            EncodeEntry)
//	<build-dir>/obj-<hash>.wire compiled object (parv object encoding)
//
// An artifact's name is a hash of its bytes, so a name never receives
// different content. The state records the fingerprint, the analyzer's
// opaque state, and per module: the phase-1 source hash, the names of its
// two artifacts, and the module's phase-2 view of the program database —
// a pdb.OwnView hash per function it defines, a pdb.CalleeView
// (clobber-set) hash per procedure it calls directly, and the globals it
// loads or stores that are eligible for intraprocedural promotion.
//
// Every file is written to a uniquely named temp file and renamed into
// place. The rename of state.wire is a build's only commit point: a build
// killed before it leaves the previous state and every artifact that
// state names intact, because pruning runs only after the commit. A killed
// build also leaves its temp file; a commit removes temp files last written
// staleTempAge or more before its own build opened the store. An in-flight
// build holds such a file only if it stalled that long between writing the
// file and renaming it; its rename then fails, and it returns an error.
//
// The fingerprint combines the store format version with the caller's
// toolchain fingerprint; state written by a different format or toolchain
// is rejected wholesale — stale artifacts must never survive a compiler
// upgrade, because nothing else could tell them apart from fresh ones.
package incremental

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/summary"
	"ipra/internal/wire"
)

// FormatVersion versions the build directory layout and state schema.
// Bump it whenever either changes shape or meaning — including the
// encoding of any artifact the directory stores — so older directories
// are rebuilt from scratch instead of misread. v2: artifacts moved from
// gob to the wire format (and .gob suffixes to .wire). v3: the manifest
// records per-module phase-2 views instead of whole-directive hashes and
// one program-wide eligibility hash. v4: manifest.json and analyzer.state
// became one state.wire record, and artifacts are named by content.
const FormatVersion = "ipra-build/v4"

const stateName = "state.wire"

// staleTempAge is how long before a build began a temp file must have been
// last written for the build's commit to treat it as a killed build's
// leftover. It spans file-system timestamp granularity and any live
// build's write-to-rename window (milliseconds) with a wide margin.
const staleTempAge = time.Minute

// Wire format identity of the build state record.
const (
	stateWireKind    = "build-state"
	stateWireVersion = 1
)

// moduleState is the stored record for one module.
type moduleState struct {
	// SourceHash is the phase-1 content hash (module name + source text +
	// toolchain fingerprint).
	SourceHash string
	// Phase1File / ObjectFile are base names inside the build directory.
	Phase1File string
	ObjectFile string
	// The module's phase-2 view (see view): own function -> OwnView
	// hash, direct callee -> CalleeView hash, and the sorted eligible
	// globals among those it loads or stores.
	Directives map[string]string
	Clobbers   map[string]string
	Eligible   []string
}

// buildState is the whole persisted build state.
type buildState struct {
	Fingerprint string
	Modules     map[string]*moduleState
	// Analyzer is the Analyze hook's opaque state; nil when it kept none.
	Analyzer []byte
}

// encodeState serializes a build state, modules and map entries in name
// order, so equal states encode to equal bytes.
func encodeState(bs *buildState) []byte {
	e := wire.NewEncoder(stateWireKind, stateWireVersion)
	e.Str(bs.Fingerprint)
	names := sortedKeys(bs.Modules)
	e.Strs(names)
	for _, name := range names {
		ms := bs.Modules[name]
		e.Str(ms.SourceHash)
		e.Str(ms.Phase1File)
		e.Str(ms.ObjectFile)
		appendHashes(e, ms.Directives)
		appendHashes(e, ms.Clobbers)
		e.Strs(ms.Eligible)
	}
	e.Bytes(bs.Analyzer)
	return e.Finish()
}

// decodeState is the inverse of encodeState.
func decodeState(data []byte) (*buildState, error) {
	d, err := wire.NewDecoder(data, stateWireKind, stateWireVersion)
	if err != nil {
		return nil, err
	}
	bs := &buildState{Fingerprint: d.Str()}
	names := d.Strs()
	bs.Modules = make(map[string]*moduleState, len(names))
	for _, name := range names {
		bs.Modules[name] = &moduleState{
			SourceHash: d.Str(),
			Phase1File: d.Str(),
			ObjectFile: d.Str(),
			Directives: readHashes(d),
			Clobbers:   readHashes(d),
			Eligible:   d.Strs(),
		}
	}
	bs.Analyzer = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return bs, nil
}

// appendHashes writes a name -> hash map as its sorted names followed by
// their hashes.
func appendHashes(e *wire.Encoder, m map[string]string) {
	keys := sortedKeys(m)
	e.Strs(keys)
	for _, k := range keys {
		e.Str(m[k])
	}
}

func readHashes(d *wire.Decoder) map[string]string {
	keys := d.Strs()
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = d.Str()
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// store wraps one opened build directory; with an empty dir it is the
// empty, non-persistent store of a build without one.
type store struct {
	dir         string
	fingerprint string
	prev        buildState
	// loaded is the state.wire content prev was decoded from; a commit of
	// the same bytes is skipped.
	loaded []byte
	// resetReason is non-empty when no stored state is used; reset marks
	// that existing state was discarded (fingerprint mismatch or
	// unreadable state), as opposed to a first build.
	reset       bool
	resetReason string
	// opened is when the build opened the store (see staleTempAge).
	opened time.Time
}

// openStore loads the build directory's state, rejecting state written
// under a different format or toolchain fingerprint. An empty dir opens
// the empty store, which touches no file.
func openStore(dir, toolchainFingerprint string) (*store, error) {
	s := &store{
		dir:         dir,
		fingerprint: FormatVersion + "|" + toolchainFingerprint,
		opened:      time.Now(),
	}
	s.prev.Modules = make(map[string]*moduleState)
	if dir == "" {
		s.resetReason = "no build directory"
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, stateName))
	switch {
	case os.IsNotExist(err):
		s.resetReason = "no previous build state"
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("incremental: %w", err)
	}
	bs, err := decodeState(data)
	switch {
	case err != nil:
		s.reset = true
		s.resetReason = "unreadable build state: " + err.Error()
	case bs.Fingerprint != s.fingerprint:
		s.reset = true
		s.resetReason = fmt.Sprintf("fingerprint mismatch (stored %q, want %q)", bs.Fingerprint, s.fingerprint)
	default:
		s.prev, s.loaded = *bs, data
	}
	return s, nil
}

// persistent reports whether the store is backed by a build directory.
func (s *store) persistent() bool { return s.dir != "" }

// path resolves a state-recorded base name inside the build directory,
// rejecting anything that could escape it (a tampered state must not
// become a file read elsewhere on disk).
func (s *store) path(base string) (string, error) {
	if base == "" || base != filepath.Base(base) {
		return "", fmt.Errorf("incremental: invalid artifact name %q in build state", base)
	}
	return filepath.Join(s.dir, base), nil
}

// loadPhase1 reads a stored phase-1 record.
func (s *store) loadPhase1(ms *moduleState) (*ir.Module, *summary.ModuleSummary, error) {
	p, err := s.path(ms.Phase1File)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, nil, err
	}
	m, sum, err := DecodeEntry(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p, err)
	}
	return m, sum, nil
}

// loadObject reads a stored object file.
func (s *store) loadObject(ms *moduleState) (*parv.Object, error) {
	p, err := s.path(ms.ObjectFile)
	if err != nil {
		return nil, err
	}
	return parv.ReadObjectFile(p)
}

// fsOp performs one write, rename or remove of the store. Every change the
// store makes to the directory goes through it, so a test can fail any
// single one.
var fsOp = func(op func() error) error { return op() }

// writeFile atomically stores data under the base name: it writes a
// uniquely named temp file and renames it into place.
func (s *store) writeFile(base string, data []byte) error {
	var tmp string
	err := fsOp(func() error {
		f, err := os.CreateTemp(s.dir, "tmp-")
		if err != nil {
			return err
		}
		tmp = f.Name()
		_, err = f.Write(data)
		return errors.Join(err, f.Chmod(0o644), f.Close())
	})
	if err == nil {
		err = fsOp(func() error { return os.Rename(tmp, filepath.Join(s.dir, base)) })
	}
	if err != nil {
		if tmp != "" {
			fsOp(func() error { return os.Remove(tmp) })
		}
		return fmt.Errorf("incremental: %w", err)
	}
	return nil
}

// writeArtifact stores an artifact under a name derived from its bytes
// and returns the name.
func (s *store) writeArtifact(prefix string, data []byte) (string, error) {
	sum := sha256.Sum256(data)
	base := fmt.Sprintf("%s-%x.wire", prefix, sum[:12])
	return base, s.writeFile(base, data)
}

// commit stores next as the directory's state — unless its bytes equal
// the loaded state's — then prunes the artifacts it no longer names
// (modules removed from the program, superseded content, or files of an
// older format) and the temp files of builds killed before this one began
// (see staleTempAge).
func (s *store) commit(next *buildState) error {
	next.Fingerprint = s.fingerprint
	if data := encodeState(next); !bytes.Equal(data, s.loaded) {
		if err := s.writeFile(stateName, data); err != nil {
			return err
		}
	}

	referenced := make(map[string]bool, 2*len(next.Modules))
	for _, ms := range next.Modules {
		referenced[ms.Phase1File] = true
		referenced[ms.ObjectFile] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // pruning is best-effort
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case referenced[name]:
			continue
		case strings.HasPrefix(name, "p1-"), strings.HasPrefix(name, "obj-"):
		case strings.HasPrefix(name, "tmp-"):
			if info, err := e.Info(); err != nil || !info.ModTime().Before(s.opened.Add(-staleTempAge)) {
				continue
			}
		default:
			continue
		}
		fsOp(func() error { return os.Remove(filepath.Join(s.dir, name)) })
	}
	return nil
}
