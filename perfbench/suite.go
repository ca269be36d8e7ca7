package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"ipra"
	"ipra/internal/benchprogs"
	"ipra/internal/parv"
)

// suiteCell is one program built under one configuration and run on
// the PARV simulator.
type suiteCell struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Exit   int32  `json:"exit"`
	Output string `json:"output_sha256"`
	Cycles uint64 `json:"cycles"`
	Instrs uint64 `json:"instrs"`
	Words  int    `json:"words"`
}

// expected.json pins each program's exit code and output hash as the
// level-2 build produced them when the benchmark was written. No
// independent MiniC interpreter exists to supply a reference, so these
// pins and the L2 build are the only oracles.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Exit   int32  `json:"exit"`
	Output string `json:"output_sha256"`
}

func suiteSources(b benchprogs.Benchmark) ([]ipra.Source, error) {
	files, err := b.Sources()
	if err != nil {
		return nil, err
	}
	srcs := make([]ipra.Source, len(files))
	for i, f := range files {
		srcs[i] = ipra.Source{Name: f.Name, Text: f.Text}
	}
	return srcs, nil
}

func newCell(b benchprogs.Benchmark, cfg string, run *ipra.RunResult, words int) suiteCell {
	sum := sha256.Sum256([]byte(run.Output))
	return suiteCell{Bench: b.Name, Config: cfg, Exit: run.Exit, Output: hex.EncodeToString(sum[:]),
		Cycles: run.Stats.Cycles, Instrs: run.Stats.Instrs, Words: words}
}

// sweepMain is the body of a fresh sweep process: every Table 3 analog
// under L2 and A-F (B and F with their training run), built by ipra.Build
// and run on the simulator, as ipra-bench's sweep does at -j 1. It writes
// the cells as JSON.
func sweepMain(w io.Writer) error {
	ctx := context.Background()
	var cells []suiteCell
	for _, b := range benchprogs.All() {
		srcs, err := suiteSources(b)
		if err != nil {
			return err
		}
		for _, name := range ipra.PresetNames() {
			cfg := ipra.MustPreset(name)
			cfg.Jobs = 1
			var opts []ipra.BuildOption
			if cfg.WantProfile {
				opts = append(opts, ipra.WithProfile(b.MaxInstrs))
			}
			p, err := ipra.Build(ctx, srcs, cfg, opts...)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.Name, name, err)
			}
			run, err := p.Run(b.MaxInstrs, false)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.Name, name, err)
			}
			cells = append(cells, newCell(b, name, run, len(p.Exe.Code)))
		}
	}
	return json.NewEncoder(w).Encode(cells)
}

// checkSuite records every cell whose behaviour differs from its
// program's L2 cell or from the pinned expectation, and returns the
// geomean percentage cycle gain over L2 per configuration.
func checkSuite(cells []suiteCell, res *result) (map[string]float64, error) {
	var pins map[string]expectation
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	base := map[string]suiteCell{}
	for _, c := range cells {
		if c.Config == "L2" {
			base[c.Bench] = c
		}
	}
	logSum := map[string]float64{}
	n := map[string]int{}
	for _, c := range cells {
		pin, ok := pins[c.Bench]
		l2 := base[c.Bench]
		switch {
		case !ok:
			res.fail("%s/%s: no pinned expectation", c.Bench, c.Config)
		case c.Exit != pin.Exit || c.Output != pin.Output:
			res.fail("%s/%s: exit %d output %.12s, pinned exit %d output %.12s", c.Bench, c.Config, c.Exit, c.Output, pin.Exit, pin.Output)
		case c.Exit != l2.Exit || c.Output != l2.Output:
			res.fail("%s/%s: behaviour differs from L2", c.Bench, c.Config)
		}
		if c.Config != "L2" && c.Cycles > 0 && l2.Cycles > 0 {
			logSum[c.Config] += math.Log(float64(l2.Cycles) / float64(c.Cycles))
			n[c.Config]++
		}
	}
	if len(base) != len(benchprogs.All()) || len(cells) != len(base)*len(ipra.PresetNames()) {
		res.fail("sweep returned %d cells for %d programs", len(cells), len(base))
	}
	gain := map[string]float64{}
	for cfg, s := range logSum {
		gain[cfg] = 100 * (math.Exp(s/float64(n[cfg])) - 1)
	}
	return gain, nil
}

// paperSuite: each operation is a fresh sweep process over the paper's
// benchmark suite, so the phase-1 cache starts cold every time.
func paperSuite(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	if e.traced {
		return paperSuiteTraced(ctx, e, res)
	}
	sweep := func() (*procResult, []suiteCell, error) {
		pr, err := runProc(ctx, e.work, filepath.Join(e.bin, "perfbench"), "sweep")
		if err != nil {
			return nil, nil, err
		}
		var cells []suiteCell
		if err := json.Unmarshal(pr.stdout, &cells); err != nil {
			return nil, nil, fmt.Errorf("sweep output: %w", err)
		}
		return pr, cells, nil
	}

	// The priming sweep warms the page cache for the binary and the
	// sources; its cells are checked like every other sweep's.
	start := time.Now()
	_, cells, err := sweep()
	if err != nil {
		return nil, fmt.Errorf("priming sweep: %w", err)
	}
	res.metrics["setup_s"] = time.Since(start).Seconds()
	res.attempted++
	gain, err := checkSuite(cells, res)
	if err != nil {
		return nil, err
	}
	words := 0
	for _, c := range cells {
		words += c.Words
	}
	res.metrics["code_words"] = float64(words)
	res.counts["code_words"] = float64(words)

	var times, rss []float64
	begin := time.Now()
	deadline := begin.Add(e.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		res.attempted++
		pr, cells, err := sweep()
		if err != nil {
			res.fail("sweep %d: %v", i, err)
			continue
		}
		if _, err := checkSuite(cells, res); err != nil {
			return nil, err
		}
		times = append(times, ms(pr.wall))
		rss = append(rss, pr.rssMB)
	}
	elapsed := time.Since(begin)
	res.metrics["op_ms"] = median(times)
	res.metrics["peak_rss_mb"] = maxOf(rss)
	res.report("setup_s", res.metrics["setup_s"], "s", 1)
	res.report("suite_s", median(times)/1000, "s", len(times))
	res.report("sweeps_per_s", float64(len(times))/elapsed.Seconds(), "1/s", len(times))
	res.report("cycles_gain_pct.C", gain["C"], "pct", len(benchprogs.All()))
	res.report("cycles_gain_pct.F", gain["F"], "pct", len(benchprogs.All()))
	res.report("peak_rss_mb", maxOf(rss), "MB", len(rss))
	res.report("code_words", float64(words), "words", len(cells))
	return res, nil
}

// paperSuiteTraced replays one sweep in process. Every cell is replayed
// without and then with spans, and checked against ipra.Build.
func paperSuiteTraced(ctx context.Context, e *env, res *result) (*result, error) {
	t := newTracer()
	cpu := newCPUSampler()
	var cells []suiteCell
	var untraced, traced time.Duration
	var gcCPU, totalCPU float64
	var instrs uint64
	words, webs := 0, 0
	for _, b := range benchprogs.All() {
		srcs, err := suiteSources(b)
		if err != nil {
			return nil, err
		}
		for _, name := range ipra.PresetNames() {
			cfg := ipra.MustPreset(name)
			cfg.Jobs = 1
			res.attempted++
			var opts []ipra.BuildOption
			if cfg.WantProfile {
				opts = append(opts, ipra.WithProfile(b.MaxInstrs))
			}
			ref, err := ipra.Build(ctx, srcs, cfg, opts...)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, name, err)
			}

			start := time.Now()
			if _, err := replayCell(ctx, nil, b, srcs, cfg); err != nil {
				return nil, fmt.Errorf("%s/%s replay: %w", b.Name, name, err)
			}
			untraced += time.Since(start)

			gc0, total0 := cpu.read()
			start = time.Now()
			var c *cellReplay
			err = t.buildSpan("suite", func() (err error) {
				c, err = replayCell(ctx, t, b, srcs, cfg)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s traced replay: %w", b.Name, name, err)
			}
			traced += time.Since(start)
			gc1, total1 := cpu.read()
			gcCPU += gc1 - gc0
			totalCPU += total1 - total0

			if !bytes.Equal(exeBytes(c.exe), exeBytes(ref.Exe)) {
				res.fail("%s/%s: replayed executable differs from ipra.Build's", b.Name, name)
			}
			cells = append(cells, newCell(b, name, c.run, len(c.exe.Code)))
			instrs += c.instrs
			words += c.words
			webs += c.webs
		}
	}
	gain, err := checkSuite(cells, res)
	if err != nil {
		return nil, err
	}
	layerMetrics(res, t, 1, t.ofKind("suite"))
	res.metrics["parv.vm_instrs"] = float64(instrs)
	if vm := res.metrics["parv.vm_ms"]; vm > 0 {
		res.metrics["parv.vm_minstr_per_s"] = float64(instrs) / vm / 1e3
	}
	res.metrics["codegen.words"] = float64(words)
	res.metrics["core.webs_rebuilt"] = float64(webs)
	res.metrics["trace.overhead_ms"] = ms(traced - untraced)
	res.metrics["runtime.gc_cpu_frac"] = gcCPU / totalCPU
	res.metrics["suite.cycles_gain_pct.C"] = gain["C"]
	res.metrics["suite.cycles_gain_pct.F"] = gain["F"]
	for _, name := range []string{"parv.vm_instrs", "codegen.words", "core.webs_rebuilt", "suite.cycles_gain_pct.C", "suite.cycles_gain_pct.F"} {
		res.counts[name] = res.metrics[name]
	}
	res.report("sweep replay untraced", ms(untraced), "ms", 1)
	res.report("sweep replay traced", ms(traced), "ms", 1)
	return res, writeTrace(e, "paper-suite", t)
}

// cellReplay is one replayed (program, configuration) cell.
type cellReplay struct {
	exe    *parv.Executable
	run    *ipra.RunResult
	instrs uint64 // simulated, training run included
	words  int
	webs   int
}

// replayCell replays what ipra.Build and Program.Run do for one cell: a
// profiled configuration first builds with heuristic counts and runs once
// to collect call counts, then builds again with them.
func replayCell(ctx context.Context, t *tracer, b benchprogs.Benchmark, srcs []ipra.Source, cfg ipra.Config) (*cellReplay, error) {
	c := &cellReplay{}
	run := func(exe *parv.Executable, profile bool) (*ipra.RunResult, error) {
		var rr *ipra.RunResult
		err := t.do("parv.vm", b.Name, func() (err error) {
			rr, err = (&ipra.Program{Exe: exe}).Run(b.MaxInstrs, profile)
			return err
		})
		if err == nil {
			c.instrs += rr.Stats.Instrs
		}
		return rr, err
	}
	if cfg.WantProfile {
		out, err := (&replay{cfg: cfg}).build(ctx, t, srcs, nil, nil, false)
		if err != nil {
			return nil, err
		}
		c.words += out.words
		c.webs += out.websRebuilt
		train, err := run(out.exe, true)
		if err != nil {
			return nil, fmt.Errorf("profiling run: %w", err)
		}
		cfg.Profile = train.Profile
	}
	out, err := (&replay{cfg: cfg}).build(ctx, t, srcs, nil, nil, false)
	if err != nil {
		return nil, err
	}
	c.exe = out.exe
	c.words += out.words
	c.webs += out.websRebuilt
	c.run, err = run(out.exe, false)
	return c, err
}
