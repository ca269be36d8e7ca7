// The persistent build-state store: a build directory holding a JSON
// manifest plus per-module phase-1 records and object files.
//
// Layout:
//
//	<build-dir>/manifest.json    fingerprint + per-module state (below)
//	<build-dir>/p1-<module>.wire phase-1 record (IR module + summary,
//	                             EncodeEntry)
//	<build-dir>/obj-<module>.wire compiled object (parv object encoding)
//
// The manifest records, per module: the phase-1 source hash, the names of
// the two artifact files, and the module's phase-2 view of the program
// database — a pdb.OwnView hash per function it defines, a
// pdb.CalleeView (clobber-set) hash per procedure it calls directly, and
// the globals it loads or stores that are eligible for intraprocedural
// promotion. Everything is guarded by a
// fingerprint combining the store format version with the caller's
// toolchain fingerprint; state written by a different format or toolchain
// is rejected wholesale — stale artifacts must never survive a compiler
// upgrade, because nothing else could tell them apart from fresh ones.
package incremental

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/summary"
)

// FormatVersion versions the build directory layout and manifest schema.
// Bump it whenever either changes shape or meaning — including the
// encoding of any artifact the directory stores — so older directories
// are rebuilt from scratch instead of misread. v2: artifacts moved from
// gob to the wire format (and .gob suffixes to .wire). v3: the manifest
// records per-module phase-2 views instead of whole-directive hashes and
// one program-wide eligibility hash.
const FormatVersion = "ipra-build/v3"

const manifestName = "manifest.json"

// moduleState is the manifest record for one module.
type moduleState struct {
	// SourceHash is the phase-1 content hash (module name + source text +
	// toolchain fingerprint).
	SourceHash string `json:"sourceHash"`
	// Phase1File / ObjectFile are base names inside the build directory.
	Phase1File string `json:"phase1File"`
	ObjectFile string `json:"objectFile"`
	// The module's phase-2 view (see view): own function -> OwnView
	// hash, direct callee -> CalleeView hash, and the sorted eligible
	// globals among those it loads or stores.
	Directives map[string]string `json:"directives"`
	Clobbers   map[string]string `json:"clobbers"`
	Eligible   []string          `json:"eligible,omitempty"`
}

// manifest is the whole persisted build state.
type manifest struct {
	Fingerprint string                  `json:"fingerprint"`
	Modules     map[string]*moduleState `json:"modules"`
}

// store wraps one opened build directory; with an empty dir it is the
// empty, non-persistent store of a build without one.
type store struct {
	dir         string
	fingerprint string
	prev        manifest
	// resetReason is non-empty when an existing manifest was discarded
	// (fingerprint mismatch or unreadable state); reset distinguishes that
	// from a first build in an empty directory.
	reset       bool
	resetReason string
}

// openStore loads the build directory's manifest, rejecting state written
// under a different format or toolchain fingerprint. An empty dir opens
// the empty store, which touches no file.
func openStore(dir, toolchainFingerprint string) (*store, error) {
	s := &store{
		dir:         dir,
		fingerprint: FormatVersion + "|" + toolchainFingerprint,
	}
	s.prev.Modules = make(map[string]*moduleState)
	if dir == "" {
		s.resetReason = "no build directory"
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		s.resetReason = "no previous build state"
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("incremental: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		s.reset = true
		s.resetReason = "unreadable manifest: " + err.Error()
		return s, nil
	}
	if m.Fingerprint != s.fingerprint {
		s.reset = true
		s.resetReason = fmt.Sprintf("fingerprint mismatch (stored %q, want %q)", m.Fingerprint, s.fingerprint)
		return s, nil
	}
	if m.Modules != nil {
		s.prev = m
	}
	return s, nil
}

// persistent reports whether the store is backed by a build directory.
func (s *store) persistent() bool { return s.dir != "" }

// artifactFile derives the stable artifact base name for a module. The
// sanitized module name keeps the directory browsable; the name-hash
// suffix keeps distinct modules from colliding after sanitization.
func artifactFile(prefix, module string) string {
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, module)
	suffix := sourceKey(module, nil, "artifact-name")[:8]
	return prefix + "-" + sanitized + "-" + suffix + ".wire"
}

// path resolves a manifest-recorded base name inside the build directory,
// rejecting anything that could escape it (a tampered manifest must not
// become a file read elsewhere on disk).
func (s *store) path(base string) (string, error) {
	if base == "" || base != filepath.Base(base) {
		return "", fmt.Errorf("incremental: invalid artifact name %q in manifest", base)
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

// writePhase1 persists a phase-1 record and returns its base name.
func (s *store) writePhase1(module string, m *ir.Module, sum *summary.ModuleSummary) (string, error) {
	base := artifactFile("p1", module)
	return base, os.WriteFile(filepath.Join(s.dir, base), EncodeEntry(m, sum), 0o644)
}

// writeObject persists an object file and returns its base name.
func (s *store) writeObject(module string, o *parv.Object) (string, error) {
	base := artifactFile("obj", module)
	return base, parv.WriteObjectFile(filepath.Join(s.dir, base), o)
}

// analyzerStateName is the persisted analyzer state file. Its content is
// opaque to this package (the Analyze hook owns the format); a
// small header binds it to the manifest it was saved alongside, so state
// from any other manifest generation — including one written by an older
// binary that did not know about this file — is never trusted.
const analyzerStateName = "analyzer.state"

const analyzerStateMagic = "ipra-analyzer-store/v1\n"

// manifestDigest fingerprints a manifest's source set: the analyzer state
// is valid exactly while every module summary it stamped is still the one
// phase 1 derives, which is a function of the per-module source hashes.
func manifestDigest(m manifest) string {
	names := make([]string, 0, len(m.Modules))
	for name := range m.Modules {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
		io.WriteString(h, m.Modules[name].SourceHash)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// loadAnalyzerState returns the stored analyzer state bytes, or nil when
// absent, unreadable, or bound to a different manifest generation.
func (s *store) loadAnalyzerState() []byte {
	if !s.persistent() {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, analyzerStateName))
	if err != nil {
		return nil
	}
	rest, ok := strings.CutPrefix(string(data), analyzerStateMagic)
	if !ok {
		return nil
	}
	digest, body, ok := strings.Cut(rest, "\n")
	if !ok || digest != manifestDigest(s.prev) {
		return nil
	}
	return []byte(body)
}

// saveAnalyzerState persists the analyzer state bound to the manifest just
// saved. A write is skipped when nothing moved: same bytes, same sources.
func (s *store) saveAnalyzerState(next manifest, state, prevState []byte) error {
	digest := manifestDigest(next)
	if prevState != nil && string(prevState) == string(state) && digest == manifestDigest(s.prev) {
		return nil
	}
	data := make([]byte, 0, len(analyzerStateMagic)+len(digest)+1+len(state))
	data = append(data, analyzerStateMagic...)
	data = append(data, digest...)
	data = append(data, '\n')
	data = append(data, state...)
	tmp := filepath.Join(s.dir, analyzerStateName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, analyzerStateName)); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	return nil
}

// save atomically replaces the manifest and prunes artifact files no
// longer referenced by it (modules removed from the program, or artifacts
// renamed by a format change).
func (s *store) save(m manifest) error {
	m.Fingerprint = s.fingerprint
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return fmt.Errorf("incremental: marshal manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}

	referenced := make(map[string]bool, 2*len(m.Modules))
	for _, ms := range m.Modules {
		referenced[ms.Phase1File] = true
		referenced[ms.ObjectFile] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // pruning is best-effort
	}
	for _, e := range entries {
		name := e.Name()
		if referenced[name] || !(strings.HasPrefix(name, "p1-") || strings.HasPrefix(name, "obj-")) {
			continue
		}
		os.Remove(filepath.Join(s.dir, name))
	}
	return nil
}
