package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ipra"
	"ipra/internal/progen"
)

// largeProgram is the progen "large" preset (100 modules x 100
// procedures, indirect calls on) with the benchmark's seed in place of
// the preset's own.
func largeProgram(seed int64) progen.Config {
	cfg, _ := progen.Preset("large")
	cfg.Seed = seed
	return cfg
}

// mccBuild runs one fresh `mcc -incremental -j 1` process over the files
// (relative to e.work) and returns the process and the executable's bytes.
func mccBuild(ctx context.Context, e *env, buildDir string, files []string) (*procResult, []byte, error) {
	exe := buildDir + ".exe"
	args := append([]string{"-incremental", "-j", "1", "-build-dir", buildDir, "-config", "C", "-exe", exe}, files...)
	pr, err := runProc(ctx, e.work, filepath.Join(e.bin, "mcc"), args...)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(filepath.Join(e.work, exe))
	return pr, data, err
}

// cleanBuild is the byte-identity reference: an in-process clean
// ipra.Build of the same sources under the same configuration.
func cleanBuild(ctx context.Context, mods []progen.Module) ([]byte, error) {
	cfg := ipra.MustPreset("C")
	cfg.Jobs = 1
	res, err := ipra.Build(ctx, sources(mods), cfg)
	if err != nil {
		return nil, err
	}
	return exeBytes(res.Exe), nil
}

// cleanLarge: each operation is a clean build of the large program by a
// fresh mcc process with an empty build directory.
func cleanLarge(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	cfg := largeProgram(e.seed)
	if e.traced {
		return cleanLargeTraced(ctx, e, res, cfg)
	}
	// Set-up writes the sources and runs one priming build, which
	// also brings the compiler binary into the page cache.
	start := time.Now()
	mods, files, err := writeProgram(e, cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := mccBuild(ctx, e, "warm", files); err != nil {
		return nil, fmt.Errorf("priming build: %w", err)
	}
	os.RemoveAll(filepath.Join(e.work, "warm"))
	res.metrics["setup_s"] = time.Since(start).Seconds()
	res.report("setup_s", res.metrics["setup_s"], "s", 1)

	var times, rss []float64
	var sums [][32]byte
	start = time.Now()
	deadline := start.Add(e.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		dir := fmt.Sprintf("b%d", i)
		res.attempted++
		pr, exe, err := mccBuild(ctx, e, dir, files)
		if err != nil {
			res.fail("clean build %d: %v", i, err)
			continue
		}
		times = append(times, ms(pr.wall))
		rss = append(rss, pr.rssMB)
		sums = append(sums, sha256.Sum256(exe))
		if i == 0 {
			words, err := exeWords(exe)
			if err != nil {
				return nil, err
			}
			res.metrics["code_words"] = float64(words)
			res.counts["code_words"] = float64(words)
		}
		os.RemoveAll(filepath.Join(e.work, dir))
		os.Remove(filepath.Join(e.work, dir+".exe"))
	}
	elapsed := time.Since(start)

	ref, err := cleanBuild(ctx, mods)
	if err != nil {
		return nil, err
	}
	for i, s := range sums {
		if s != sha256.Sum256(ref) {
			res.fail("clean build %d: executable differs from the in-process clean ipra.Build", i)
		}
	}
	res.metrics["op_ms"] = median(times)
	res.metrics["peak_rss_mb"] = maxOf(rss)
	res.report("clean_s", median(times)/1000, "s", len(times))
	res.report("builds_per_s", float64(len(times))/elapsed.Seconds(), "1/s", len(times))
	res.report("peak_rss_mb", maxOf(rss), "MB", len(rss))
	res.report("code_words", res.metrics["code_words"], "words", 1)
	return res, nil
}

// cleanLargeTraced replays three clean builds in process, each into an
// empty build directory with nothing carried over from the one before.
func cleanLargeTraced(ctx context.Context, e *env, res *result, cfg progen.Config) (*result, error) {
	srcs := sources(progen.Generate(cfg))
	t := newTracer()
	s := newStepper(ipra.MustPreset("C"), t)
	for i := 0; i < 3; i++ {
		s.reset(filepath.Join(e.work, fmt.Sprintf("traced%d", i)))
		if _, err := s.step(ctx, srcs, "clean", res); err != nil {
			return nil, err
		}
	}
	stepMetrics(res, s, "clean")
	st := s.ops["clean"]
	var share []float64
	for i := range st.clean {
		share = append(share, 1-st.layers[i]/st.clean[i])
	}
	res.metrics["trace.unaccounted_frac"] = median(share)
	res.report("share of clean ipra.Build wall not in a layer", median(share), "frac", len(share))
	return res, writeTrace(e, "clean-large", t)
}

// writeProgram generates the program and writes it to e.work/src; it
// returns the modules and their paths relative to e.work.
func writeProgram(e *env, cfg progen.Config) ([]progen.Module, []string, error) {
	src := filepath.Join(e.work, "src")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return nil, nil, err
	}
	mods := progen.Generate(cfg)
	names, err := writeModules(src, mods, nil)
	if err != nil {
		return nil, nil, err
	}
	files := make([]string, len(names))
	for i, n := range names {
		files[i] = filepath.Join("src", n)
	}
	return mods, files, nil
}

// editKind is the i-th operation of the edit workloads: body edits and
// no-op touches alternate.
func editKind(i int) progen.EditKind {
	if i%2 == 0 {
		return progen.EditBody
	}
	return progen.EditNoop
}

// mutate applies one seeded edit, refusing an edit progen could not place.
func mutate(cfg progen.Config, mods []progen.Module, seed int64, kind progen.EditKind) ([]progen.Module, error) {
	next, desc := progen.Mutate(cfg, mods, seed, kind)
	if strings.HasPrefix(desc, "no-op (") {
		return nil, fmt.Errorf("%s edit with seed %d did not apply: %s", kind, seed, desc)
	}
	return next, nil
}

// editLarge: a warm build directory of the large program, rebuilt by a
// fresh mcc process after each edit; body edits (cumulative) alternate
// with no-op touches of one module.
func editLarge(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	cfg := largeProgram(e.seed)
	if e.traced {
		return editLargeTraced(ctx, e, res, cfg)
	}
	start := time.Now()
	mods, files, err := writeProgram(e, cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := mccBuild(ctx, e, "b", files); err != nil {
		return nil, fmt.Errorf("priming build: %w", err)
	}
	res.metrics["setup_s"] = time.Since(start).Seconds()
	res.report("setup_s", res.metrics["setup_s"], "s", 1)

	byKind := map[progen.EditKind][]float64{}
	var rss []float64
	var last []byte
	ops := 0
	begin := time.Now()
	deadline := begin.Add(e.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		kind := editKind(i)
		next, err := mutate(cfg, mods, editSeed(e.seed, 0, i), kind)
		if err != nil {
			return nil, err
		}
		if _, err := writeModules(filepath.Join(e.work, "src"), next, mods); err != nil {
			return nil, err
		}
		mods = next
		res.attempted++
		pr, exe, err := mccBuild(ctx, e, "b", files)
		if err != nil {
			res.fail("%s rebuild %d: %v", kind, i, err)
			continue
		}
		ops++
		byKind[kind] = append(byKind[kind], ms(pr.wall))
		rss = append(rss, pr.rssMB)
		last = exe
		if i == 0 {
			words, err := exeWords(exe)
			if err != nil {
				return nil, err
			}
			res.metrics["code_words"] = float64(words)
			res.counts["code_words"] = float64(words)
		}
	}
	elapsed := time.Since(begin)

	ref, err := cleanBuild(ctx, mods)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ref, last) {
		res.fail("final program state: executable differs from the in-process clean ipra.Build")
	}
	body, noop := byKind[progen.EditBody], byKind[progen.EditNoop]
	res.metrics["op_ms"] = median(body)
	res.metrics["peak_rss_mb"] = maxOf(rss)
	res.report("edit_s", median(body)/1000, "s", len(body))
	res.report("noop_s", median(noop)/1000, "s", len(noop))
	res.report("builds_per_s", float64(ops)/elapsed.Seconds(), "1/s", ops)
	res.report("peak_rss_mb", maxOf(rss), "MB", len(rss))
	res.report("code_words", res.metrics["code_words"], "words", 1)
	return res, nil
}

// editLargeTraced replays the first operations of editLarge's sequence
// in process: the priming build, then two body edits and two no-op
// touches, each built four ways (see stepper).
func editLargeTraced(ctx context.Context, e *env, res *result, cfg progen.Config) (*result, error) {
	mods := progen.Generate(cfg)
	t := newTracer()
	s := newStepper(ipra.MustPreset("C"), t)
	s.reset(filepath.Join(e.work, "b"))
	if _, err := s.step(ctx, sources(mods), "prime", res); err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		kind := editKind(i)
		next, err := mutate(cfg, mods, editSeed(e.seed, 0, i), kind)
		if err != nil {
			return nil, err
		}
		mods = next
		if _, err := s.step(ctx, sources(mods), string(kind), res); err != nil {
			return nil, err
		}
	}
	// The metrics are per body edit; the no-op touches go to the report.
	stepMetrics(res, s, string(progen.EditBody))
	noop := newResult()
	stepMetrics(noop, s, string(progen.EditNoop))
	for _, k := range []string{"incremental.ms", "incremental.phase1_rebuilds", "incremental.phase2_rebuilds", "core.ms", "opt.ms", "codegen.ms"} {
		res.report("noop: "+k, noop.metrics[k], "", 2)
	}
	for k, v := range noop.counts {
		res.counts[k] = v
	}
	return res, writeTrace(e, "edit-large", t)
}
