package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procResult is one finished child process.
type procResult struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runProc runs a program to completion and reports its wall time and
// peak resident set size. A non-zero exit is an error carrying stderr.
func runProc(ctx context.Context, dir, prog string, args ...string) (*procResult, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Dir = dir
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: %v: %s", filepath.Base(prog), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return &procResult{wall: wall, rssMB: maxRSSMB(cmd.ProcessState), stdout: stdout.Bytes()}, nil
}

// maxRSSMB reads a finished process's peak resident set size.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// exeBytes is the canonical encoding of an executable, the form every
// byte-identity check compares.
func exeBytes(exe *parv.Executable) []byte {
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		return nil
	}
	return buf.Bytes()
}

// exeWords decodes an executable file's bytes and counts its instructions.
func exeWords(data []byte) (int, error) {
	exe, err := parv.DecodeExecutable(data)
	if err != nil {
		return 0, err
	}
	return len(exe.Code), nil
}

// writeModules writes the modules whose text differs from prev (all of
// them when prev is nil) into dir and returns the file names in module
// order.
func writeModules(dir string, mods, prev []progen.Module) ([]string, error) {
	names := make([]string, len(mods))
	for i, m := range mods {
		names[i] = m.Name
		if prev != nil && prev[i].Text == m.Text {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, m.Name), []byte(m.Text), 0o644); err != nil {
			return nil, err
		}
	}
	return names, nil
}

func sources(mods []progen.Module) []ipra.Source {
	out := make([]ipra.Source, len(mods))
	for i, m := range mods {
		out[i] = ipra.Source{Name: m.Name, Text: []byte(m.Text)}
	}
	return out
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// editSeed derives the placement seed of the i-th edit of a run.
func editSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(i)
}

// checkLedger makes the deterministic work counts self-checking: the
// first run of a (workload, seed, mode) with a given set of binaries
// records its counts, and every later run with the same binaries must
// reproduce them exactly.
func checkLedger(e *env, workload string, res *result) error {
	if len(res.counts) == 0 {
		return nil
	}
	h := sha256.New()
	for _, name := range []string{"perfbench", "mcc", "ipra-served"} {
		f, err := os.Open(filepath.Join(e.bin, name))
		if err != nil {
			return err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	binHash := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join(e.state, fmt.Sprintf("counts-%s-seed%d-trace%v.json", workload, e.seed, e.traced))
	type ledger struct {
		Binaries string             `json:"binaries"`
		Counts   map[string]float64 `json:"counts"`
	}
	var prev ledger
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil && prev.Binaries == binHash {
		for name, v := range res.counts {
			if old, ok := prev.Counts[name]; ok && old != v {
				res.problems = append(res.problems, fmt.Sprintf("count %s = %v, an earlier run of this seed had %v", name, v, old))
			}
		}
		return nil
	}
	data, err := json.Marshal(ledger{binHash, res.counts})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
