package served

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestServedFingerprintSafety: a daemon serving a state directory whose
// build state was stamped by a different toolchain fingerprint must
// re-validate and rebuild everything — never serve the stale artifacts —
// and still answer with bytes identical to a local build.
func TestServedFingerprintSafety(t *testing.T) {
	stateDir := t.TempDir()
	srcs := testSources(t)
	req := func() *BuildRequest { return &BuildRequest{Config: "C", Sources: srcs} }
	want := localExe(t, "C", srcs)

	// Daemon one: cold state directory, full build.
	first, err := New(Options{StateDir: stateDir, Jobs: 2}).Build(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if first.Incremental == nil || first.Incremental.StateReset {
		t.Fatalf("first build: unexpected incremental record %+v", first.Incremental)
	}
	if first.Incremental.Phase1Rebuilds != len(srcs) {
		t.Fatalf("first build rebuilt %d modules, want %d", first.Incremental.Phase1Rebuilds, len(srcs))
	}
	if !bytes.Equal(first.Exe, want) {
		t.Fatal("first daemon build differs from local build")
	}

	// Daemon two, same toolchain: everything reuses.
	second, err := New(Options{StateDir: stateDir, Jobs: 2}).Build(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if second.Incremental == nil || second.Incremental.StateReset {
		t.Fatal("same-toolchain restart reset the build state")
	}
	if second.Incremental.Phase1Rebuilds != 0 || second.Incremental.Phase2Rebuilds != 0 {
		t.Fatalf("same-toolchain restart rebuilt %d/%d modules, want full reuse",
			second.Incremental.Phase1Rebuilds, second.Incremental.Phase2Rebuilds)
	}
	if !bytes.Equal(second.Exe, want) {
		t.Fatal("warm daemon build differs from local build")
	}

	// Simulate a daemon upgraded across a toolchain change: the on-disk
	// build state now claims a different fingerprint than the binary. The
	// wire string table stores strings raw and length-prefixed, so an
	// equal-length substitution keeps the record decodable.
	statePath := filepath.Join(stateDir, req().ProgramKey(), "state.wire")
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("expected build state at %s: %v", statePath, err)
	}
	tampered := bytes.Replace(raw, []byte("ipra-build/v4|"), []byte("ipra-build/v0|"), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("build state does not carry the ipra-build/v4 fingerprint")
	}
	if err := os.WriteFile(statePath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	// Daemon three must reject the stale state wholesale and rebuild.
	third, err := New(Options{StateDir: stateDir, Jobs: 2}).Build(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if third.Incremental == nil || !third.Incremental.StateReset {
		t.Fatalf("stale-fingerprint state was not reset: %+v", third.Incremental)
	}
	if third.Incremental.Phase1Rebuilds != len(srcs) {
		t.Fatalf("stale-fingerprint rebuild recompiled %d modules, want all %d",
			third.Incremental.Phase1Rebuilds, len(srcs))
	}
	if !bytes.Equal(third.Exe, want) {
		t.Fatal("post-reset build differs from local build")
	}
}

// TestServedResultCacheKeyedByFingerprint: two servers over the same
// request but different fingerprints compute different request keys, so
// a result computed under other compiler semantics can never be
// returned from cache.
func TestServedResultCacheKeyedByFingerprint(t *testing.T) {
	srcs := testSources(t)
	req := &BuildRequest{Config: "L2", Sources: srcs}

	a := New(Options{Fingerprint: "toolchain/v1"})
	b := New(Options{Fingerprint: "toolchain/v2"})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint override not applied")
	}
	if req.Key(a.Fingerprint()) == req.Key(b.Fingerprint()) {
		t.Fatal("result-cache keys collide across toolchain fingerprints")
	}
}
