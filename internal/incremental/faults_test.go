package incremental_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipra"
	"ipra/internal/incremental"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

var errInjected = errors.New("injected fault")

// TestFaultInjectionRecovers fails each write, rename and remove of the
// store in turn while a built progen small program goes through a body, a
// call and an scc edit. Whatever the failed build left behind, the next
// builds — of the sources before the edit, which only a committed state
// may serve from stored artifacts, then of the edited sources — must each
// equal a clean build, name a reason for every module they rebuild, and
// leave only the state and its artifacts in the directory. Each directory
// also starts with the temp file of an earlier killed build, which must be
// gone as well.
func TestFaultInjectionRecovers(t *testing.T) {
	ctx := context.Background()
	cfg := ipra.MustPreset("C")
	cfg.Jobs = 2
	pcfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	mods := progen.Generate(pcfg)
	steps := [][]progen.Module{mods}
	for _, kind := range []progen.EditKind{progen.EditBody, progen.EditCall, progen.EditCycle} {
		var desc string
		mods, desc = progen.Mutate(pcfg, mods, 3, kind)
		if strings.HasPrefix(desc, "no-op (") {
			t.Fatalf("%s edit did not apply: %s", kind, desc)
		}
		steps = append(steps, mods)
	}

	var prev []ipra.Source // the sources the starting directory was built from
	var prevExe []byte
	before := t.TempDir() // the committed directory each step starts from
	for k, step := range steps {
		srcs := make([]ipra.Source, len(step))
		for i, m := range step {
			srcs[i] = ipra.Source{Name: m.Name, Text: []byte(m.Text)}
		}
		clean, err := ipra.Build(ctx, srcs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := exeBytes(t, clean.Exe)

		// Count the step's file operations on an undisturbed copy, which
		// becomes the next step's starting directory.
		after := t.TempDir()
		copyFiles(t, before, after)
		leaveKilledTemp(t, after)
		ops := 0
		restore := incremental.SetFSOp(func(do func() error) error { ops++; return do() })
		_, err = ipra.Build(ctx, srcs, cfg, ipra.WithBuildDir(after))
		restore()
		if err != nil {
			t.Fatal(err)
		}

		// The clean build only sets the sequence up: its operations are of
		// the kinds the edits perform, and failing each of them would
		// double the test's time.
		for n := 1; n <= ops && k > 0; n++ {
			label := fmt.Sprintf("step %d, fault at operation %d/%d", k, n, ops)
			dir := t.TempDir()
			copyFiles(t, before, dir)
			leaveKilledTemp(t, dir)
			calls := 0
			restore := incremental.SetFSOp(func(do func() error) error {
				if calls++; calls == n {
					return errInjected
				}
				return do()
			})
			_, err := ipra.Build(ctx, srcs, cfg, ipra.WithBuildDir(dir))
			restore()
			if err != nil && !errors.Is(err, errInjected) {
				t.Fatalf("%s: %v", label, err)
			}
			recoverBuild(t, label+", sources before the edit", dir, prev, cfg, prevExe)
			recoverBuild(t, label+", edited sources", dir, srcs, cfg, want)
		}
		prev, prevExe, before = srcs, want, after
	}
}

// recoverBuild builds srcs in dir and checks the result against a clean
// build's executable, the rebuild reasons and the directory's contents.
func recoverBuild(t *testing.T, label, dir string, srcs []ipra.Source, cfg ipra.Config, want []byte) {
	t.Helper()
	var explain bytes.Buffer
	res, err := ipra.Build(context.Background(), srcs, cfg, ipra.WithBuildDir(dir), ipra.WithStderr(&explain))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(exeBytes(t, res.Exe), want) {
		t.Fatalf("%s: build differs from a clean build\n%s", label, &explain)
	}
	for _, a := range res.Incremental.Actions {
		if (a.Phase1Rebuilt && a.Phase1Reason == "") || (a.Phase2Rebuilt && a.Phase2Reason == "") {
			t.Errorf("%s: %s rebuilt without a reason\n%s", label, a.Module, &explain)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "state.wire" && !strings.HasPrefix(name, "p1-") && !strings.HasPrefix(name, "obj-") {
			t.Errorf("%s: unexpected file %s in the build directory", label, name)
		}
	}
}

func exeBytes(t *testing.T, exe *parv.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// leaveKilledTemp leaves the temp file of a build killed an hour ago in
// dir.
func leaveKilledTemp(t *testing.T, dir string) {
	t.Helper()
	p := filepath.Join(dir, "tmp-killed")
	if err := os.WriteFile(p, []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(p, old, old); err != nil {
		t.Fatal(err)
	}
}

// copyFiles copies the regular files of a build directory.
func copyFiles(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
