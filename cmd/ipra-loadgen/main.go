// ipra-loadgen drives fleets of concurrent build clients against either
// a warm ipra-served daemon or cold mcc processes, and reports latency
// and throughput — the harness behind BENCH_served.json.
//
//	ipra-loadgen -mode remote -addr unix:/tmp/ipra.sock -clients 8 -requests 5
//	ipra-loadgen -mode cold -mcc ./mcc -clients 8 -requests 5
//
// Both modes build the same progen-synthesized program under the same
// configuration, so the comparison isolates the serving path:
//
//   - remote: each request is one POST /v1/build against the daemon,
//     which serves from hot state (per-program build dir, result cache,
//     single-flight dedup);
//   - cold: each request execs a fresh `mcc -incremental` process with a
//     fresh private build directory — process start, cold caches, full
//     compile every time, the status quo this daemon replaces.
//
// By default every request is identical (the daemon collapses them via
// dedup/result cache). -distinct appends a unique comment to one module
// per request instead, so each request is a one-module edit of the
// previous program version — the warm minimal-rebuild loop.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ipra/internal/cliutil"
	"ipra/internal/progen"
	"ipra/internal/served"
)

type latencySummary struct {
	MeanMS float64 `json:"mean"`
	P50MS  float64 `json:"p50"`
	P95MS  float64 `json:"p95"`
	MaxMS  float64 `json:"max"`
}

type report struct {
	Label             string           `json:"label,omitempty"`
	Mode              string           `json:"mode"`
	Clients           int              `json:"clients"`
	RequestsPerClient int              `json:"requestsPerClient"`
	TotalRequests     int              `json:"totalRequests"`
	Config            string           `json:"config"`
	Distinct          bool             `json:"distinct"`
	Program           progen.Config    `json:"program"`
	WallSec           float64          `json:"wallSec"`
	ThroughputRPS     float64          `json:"throughputRps"`
	LatencyMS         latencySummary   `json:"latencyMs"`
	Errors            int              `json:"errors"`
	Rejected          int              `json:"rejected"`
	Daemon            map[string]int64 `json:"daemonCounters,omitempty"`
}

func main() {
	var (
		mode     = flag.String("mode", "remote", "remote (warm daemon), cold (fresh mcc process per request), or profiles (fleet profile-drift scenario)")
		addr     = flag.String("addr", "unix:ipra-served.sock", "daemon address for -mode remote")
		mccPath  = flag.String("mcc", "", "mcc binary for -mode cold")
		clients  = flag.Int("clients", 8, "concurrent clients")
		requests = flag.Int("requests", 5, "requests per client")
		distinct = flag.Bool("distinct", false, "make every request a unique one-module edit instead of identical")
		label    = flag.String("label", "", "label recorded in the report")
		out      = flag.String("o", "", "write the JSON report here (default stdout)")
		preset   = flag.String("preset", "", "progen size preset (overrides the size flags)")
		seed     = flag.Int64("seed", 1, "program generation seed")
		modules  = flag.Int("modules", 8, "compilation units")
		procs    = flag.Int("procs", 10, "procedures per module")
		globals  = flag.Int("globals", 48, "scalar global variables")

		generations = flag.Int("generations", 2, "stable fleet generations streamed before the workload shift (-mode profiles)")
		genRuns     = flag.Uint64("gen-runs", 4, "VM runs batched into each generation's record (-mode profiles)")
		exeOut      = flag.String("exe-out", "", "write the retrained executable here (-mode profiles)")
		snapOut     = flag.String("snapshot-out", "", "write the aggregate snapshot here (-mode profiles)")
		srcOut      = flag.String("src-out", "", "write the generated module sources into this directory (-mode profiles)")
	)
	build := &cliutil.BuildFlags{}
	build.RegisterBuild(flag.CommandLine)
	common := cliutil.New("ipra-loadgen")
	common.Register(flag.CommandLine)
	flag.Parse()
	if err := common.Start(); err != nil {
		common.Fatal(err)
	}

	cfg, err := build.Config()
	if err != nil {
		common.Fatal(err)
	}
	pcfg := progen.Config{
		Seed: *seed, Modules: *modules, ProcsPerModule: *procs, Globals: *globals,
		SubsystemSize: 6, Recursion: true, Statics: true, LoopIters: 2,
	}
	if *preset != "" {
		p, err := progen.Preset(*preset)
		if err != nil {
			common.Fatal(err)
		}
		pcfg = p
	}
	mods := progen.Generate(pcfg)

	if *mode == "profiles" {
		p := profilesParams{
			addr: *addr, config: cfg.Name, trainInstrs: build.TrainInstrs,
			pcfg: pcfg, mods: mods, label: *label, out: *out,
			generations: *generations, genRuns: *genRuns,
			exeOut: *exeOut, snapOut: *snapOut, srcOut: *srcOut,
		}
		if err := runProfiles(p); err != nil {
			common.Fatal(err)
		}
		if ferr := common.Finish(); ferr != nil {
			common.Fatal(ferr)
		}
		return
	}

	rep := report{
		Label: *label, Mode: *mode, Clients: *clients, RequestsPerClient: *requests,
		TotalRequests: *clients * *requests, Config: cfg.Name, Distinct: *distinct,
		Program: pcfg,
	}

	var durations []time.Duration
	var wall time.Duration
	var errs, rejected int
	switch *mode {
	case "remote":
		durations, errs, rejected, wall, rep.Daemon, err = runRemote(*addr, cfg.Name, build.TrainInstrs, mods, *clients, *requests, *distinct)
	case "cold":
		durations, errs, wall, err = runCold(*mccPath, cfg.Name, build.TrainInstrs, mods, *clients, *requests, *distinct)
	default:
		err = fmt.Errorf("unknown -mode %q (want remote or cold)", *mode)
	}
	if err != nil {
		common.Fatal(err)
	}
	rep.Errors, rep.Rejected = errs, rejected
	rep.WallSec = wall.Seconds()
	if rep.WallSec > 0 {
		rep.ThroughputRPS = float64(len(durations)) / rep.WallSec
	}
	summarize(&rep, durations)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			common.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		common.Fatal(err)
	}
	if ferr := common.Finish(); ferr != nil {
		common.Fatal(ferr)
	}
}

// editTag returns the unique-request suffix for client c, request r.
func editTag(c, r int) string {
	return fmt.Sprintf("\n// loadgen edit c%d r%d\n", c, r)
}

// requestSources materializes the request's module set, optionally with
// the per-request distinct edit on module 0.
func requestSources(mods []progen.Module, c, r int, distinct bool) []served.Source {
	out := make([]served.Source, len(mods))
	for i, m := range mods {
		out[i] = served.Source{Name: m.Name, Text: m.Text}
	}
	if distinct {
		out[0].Text += editTag(c, r)
	}
	return out
}

// fanOut runs clients×requests calls of fn concurrently (one goroutine
// per client, requests sequential within a client) and collects wall
// times; fn errors land in the shared error counter.
func fanOut(clients, requests int, fn func(c, r int) error) (durations []time.Duration, errCount int, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				t0 := time.Now()
				err := fn(c, r)
				d := time.Since(t0)
				mu.Lock()
				if err != nil {
					errCount++
					fmt.Fprintf(os.Stderr, "ipra-loadgen: client %d request %d: %v\n", c, r, err)
				} else {
					durations = append(durations, d)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	return
}

// runRemote drives the daemon.
func runRemote(addr, config string, trainInstrs uint64, mods []progen.Module, clients, requests int, distinct bool) ([]time.Duration, int, int, time.Duration, map[string]int64, error) {
	client, err := served.Dial(addr)
	if err != nil {
		return nil, 0, 0, 0, nil, err
	}
	client.Retries = 8
	ctx := context.Background()
	if err := client.WaitReady(ctx, 10*time.Second); err != nil {
		return nil, 0, 0, 0, nil, err
	}
	before, err := client.Stats(ctx)
	if err != nil {
		return nil, 0, 0, 0, nil, err
	}

	durations, errs, wall := fanOut(clients, requests, func(c, r int) error {
		req := &served.BuildRequest{
			Config:      config,
			Sources:     requestSources(mods, c, r, distinct),
			TrainInstrs: trainInstrs,
		}
		resp, err := client.Build(ctx, req)
		if err != nil {
			return err
		}
		if len(resp.Exe) == 0 {
			return fmt.Errorf("empty executable in response %d", resp.RequestID)
		}
		return nil
	})

	after, err := client.Stats(ctx)
	if err != nil {
		return durations, errs, 0, wall, nil, err
	}
	delta := make(map[string]int64, len(after.Counters))
	for k, v := range after.Counters {
		if d := v - before.Counters[k]; d != 0 {
			delta[k] = d
		}
	}
	return durations, errs, int(delta["served.rejected"]), wall, delta, nil
}

// runCold execs one fresh mcc process per request, each against a fresh
// private build directory — the cold-process baseline.
func runCold(mccPath, config string, trainInstrs uint64, mods []progen.Module, clients, requests int, distinct bool) ([]time.Duration, int, time.Duration, error) {
	if mccPath == "" {
		return nil, 0, 0, fmt.Errorf("-mode cold requires -mcc (path to the mcc binary)")
	}
	if _, err := exec.LookPath(mccPath); err != nil {
		return nil, 0, 0, err
	}
	root, err := os.MkdirTemp("", "ipra-loadgen-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(root)

	// One source directory per (client, request) when distinct, one
	// shared otherwise; written up front so I/O setup is outside the
	// measured window.
	writeSrcs := func(dir string, c, r int) ([]string, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		files := make([]string, len(mods))
		for i, m := range mods {
			text := m.Text
			if distinct && i == 0 {
				text += editTag(c, r)
			}
			files[i] = filepath.Join(dir, m.Name)
			if err := os.WriteFile(files[i], []byte(text), 0o644); err != nil {
				return nil, err
			}
		}
		return files, nil
	}
	shared, err := writeSrcs(filepath.Join(root, "src"), 0, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	srcFor := func(c, r int) ([]string, error) {
		if !distinct {
			return shared, nil
		}
		return writeSrcs(filepath.Join(root, fmt.Sprintf("src-%d-%d", c, r)), c, r)
	}

	durations, errs, wall := fanOut(clients, requests, func(c, r int) error {
		files, err := srcFor(c, r)
		if err != nil {
			return err
		}
		buildDir := filepath.Join(root, fmt.Sprintf("build-%d-%d", c, r))
		exe := filepath.Join(buildDir, "program.exe")
		args := append([]string{
			"-incremental", "-build-dir", buildDir, "-config", config,
			"-train-instrs", fmt.Sprint(trainInstrs), "-exe", exe,
		}, files...)
		cmd := exec.Command(mccPath, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("%v: %s", err, out)
		}
		defer os.RemoveAll(buildDir)
		return nil
	})
	return durations, errs, wall, nil
}

// summarize folds the raw durations into the report.
func summarize(rep *report, durations []time.Duration) {
	if len(durations) == 0 {
		return
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	var total time.Duration
	for _, d := range durations {
		total += d
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(durations)-1))
		return durations[i]
	}
	rep.LatencyMS = latencySummary{
		MeanMS: ms(total / time.Duration(len(durations))),
		P50MS:  ms(pct(0.50)),
		P95MS:  ms(pct(0.95)),
		MaxMS:  ms(durations[len(durations)-1]),
	}
}
