package incremental

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateWireGolden = flag.Bool("update", false, "rewrite the build-state golden fixture")

// buildStateGolden pins the build-state wire encoding, next to the other
// kinds' fixtures.
const buildStateGolden = "../../testdata/wire/build-state-v1.bin"

// goldenBuildState touches every encoded field: map entries in both
// views, a shared hash string, eligible globals on one module and none on
// the other, and an analyzer state.
func goldenBuildState() *buildState {
	return &buildState{
		Fingerprint: "ipra-build/v4|golden-toolchain",
		Modules: map[string]*moduleState{
			"main.mc": {
				SourceHash: "5e1f",
				Phase1File: "p1-00aa.wire",
				ObjectFile: "obj-00bb.wire",
				Directives: map[string]string{"main": "d1", "helper": "d2"},
				Clobbers:   map[string]string{"leaf": "c1", "putint": "c1"},
				Eligible:   []string{"g", "h"},
			},
			"lib.mc": {
				SourceHash: "7a2c",
				Phase1File: "p1-00cc.wire",
				ObjectFile: "obj-00dd.wire",
				Directives: map[string]string{"leaf": "d3"},
				Clobbers:   map[string]string{},
			},
		},
		Analyzer: []byte("analyzer state bytes"),
	}
}

// TestWireGoldenBuildState pins the exact bytes of the build-state kind
// and checks that they decode to the fixture value. A failure means the
// encoding changed: bump stateWireVersion and FormatVersion, then run
// with -update.
func TestWireGoldenBuildState(t *testing.T) {
	got := encodeState(goldenBuildState())
	if *updateWireGolden {
		if err := os.WriteFile(buildStateGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(buildStateGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("build-state encoding changed (%d bytes, golden %d)", len(got), len(want))
	}
	bs, err := decodeState(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bs, goldenBuildState()) {
		t.Error("build-state fixture decodes to a different value")
	}
}

// FuzzWireBuildStateDecode: the decoder rejects malformed state with an
// error, never a panic, and anything it accepts re-encodes canonically.
func FuzzWireBuildStateDecode(f *testing.F) {
	data := encodeState(goldenBuildState())
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	for _, i := range []int{0, len(data) / 3, len(data) - 1} {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bs, err := decodeState(data)
		if err != nil {
			return
		}
		enc := encodeState(bs)
		bs2, err := decodeState(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(encodeState(bs2), enc) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
	})
}

// TestCommitPrunesKilledTempFiles: a commit removes temp files last
// written staleTempAge before its build opened the store, and keeps newer
// ones, which may belong to a build still writing — including one written
// just before this build began.
func TestCommitPrunesKilledTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir, "test-toolchain")
	if err != nil {
		t.Fatal(err)
	}
	for name, mtime := range map[string]time.Time{
		"tmp-killed":   s.opened.Add(-staleTempAge - time.Second),
		"tmp-inflight": s.opened.Add(-time.Second),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("partial"), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.commit(&buildState{Modules: map[string]*moduleState{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-killed")); !os.IsNotExist(err) {
		t.Errorf("temp file of a build killed before this one survived the commit (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-inflight")); err != nil {
		t.Errorf("temp file written just before the build began was pruned: %v", err)
	}
}
