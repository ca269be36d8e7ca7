package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"ipra"
	"ipra/internal/progen"
	"ipra/internal/served"
)

// servedClients is the number of closed-loop clients; it matches the
// daemon's -concurrency so that no request waits on admission by design.
const servedClients = 2

// requestKinds is each client's request cycle: three edits of its own
// program, then an exact resend of the previous request, which the
// daemon's result cache answers.
var requestKinds = []string{"body", "call", "noop", "resend"}

// mediumProgram is client k's program: the progen "medium" preset (50
// modules x 40 procedures) under a seed of its own. The module files get
// a per-client prefix: the daemon keys its build directories by
// configuration and module names, so two programs with the same file
// names would share, and thrash, one directory.
func mediumProgram(seed int64, k int) (progen.Config, []progen.Module) {
	cfg, _ := progen.Preset("medium")
	cfg.Seed = seed*servedClients + int64(k)
	mods := progen.Generate(cfg)
	for i := range mods {
		mods[i].Name = fmt.Sprintf("c%d_%s", k, mods[i].Name)
	}
	return cfg, mods
}

// sample is one request as its client saw it.
type sample struct {
	kind     string
	latency  float64 // ms, at the client
	serverMS float64 // the daemon's ElapsedMS
	cached   bool
	err      error
}

// client drives one program through the request cycle.
type client struct {
	k       int
	cfg     progen.Config
	mods    []progen.Module
	req     *served.BuildRequest
	last    *served.BuildResponse
	samples []sample
	states  [][]progen.Module // program state of every build request, in order
	exes    [][]byte          // the daemon's executable for each state
	bad     []string
}

func newRequest(mods []progen.Module) *served.BuildRequest {
	req := &served.BuildRequest{Config: "C", Sources: make([]served.Source, len(mods))}
	for i, m := range mods {
		req.Sources[i] = served.Source{Name: m.Name, Text: m.Text}
	}
	return req
}

// send issues the j-th request of the client's cycle (j < 0: the
// priming build of the unedited program).
func (c *client) send(ctx context.Context, conn *served.Client, seed int64, j int) error {
	kind := "prime"
	if j >= 0 {
		kind = requestKinds[j%len(requestKinds)]
	}
	if kind != "resend" {
		if j >= 0 {
			next, err := mutate(c.cfg, c.mods, editSeed(seed, 1+c.k, j), progen.EditKind(kind))
			if err != nil {
				return err
			}
			c.mods = next
		}
		c.req = newRequest(c.mods)
	}
	start := time.Now()
	resp, err := conn.Build(ctx, c.req)
	s := sample{kind: kind, latency: ms(time.Since(start)), err: err}
	if err == nil {
		s.serverMS, s.cached = resp.ElapsedMS, resp.ResultCached
		if kind == "resend" && c.last != nil && !bytes.Equal(resp.Exe, c.last.Exe) {
			c.bad = append(c.bad, fmt.Sprintf("client %d request %d: resend returned different bytes", c.k, j))
		}
		if kind != "resend" {
			c.states = append(c.states, c.mods)
			c.exes = append(c.exes, resp.Exe)
		}
		c.last = resp
	}
	c.samples = append(c.samples, s)
	return nil
}

// daemon is a running ipra-served process.
type daemon struct {
	cmd  *exec.Cmd
	conn *served.Client
}

// startDaemon starts ipra-served in dir with its socket and state there
// and waits until it answers.
func startDaemon(ctx context.Context, e *env, dir string) (*daemon, error) {
	log, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	cmd := exec.Command(filepath.Join(e.bin, "ipra-served"),
		"-socket", "d.sock", "-state", "state", "-j", "1", "-concurrency", fmt.Sprint(servedClients))
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	// Unix socket paths are limited to about 100 bytes, so dial the
	// shorter of the absolute path and the one relative to our own
	// working directory.
	sock := filepath.Join(dir, "d.sock")
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, sock); err == nil && len(rel) < len(sock) {
			sock = rel
		}
	}
	d.conn, err = served.Dial("unix:" + sock)
	if err == nil {
		err = d.conn.WaitReady(ctx, 30*time.Second)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("ipra-served did not become ready: %w", err)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its peak resident set size.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return maxRSSMB(d.cmd.ProcessState), err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return 0, errors.New("ipra-served did not drain within 60s")
	}
}

// runClients primes every client's program, then runs the closed loops
// until the deadline (or for cycles full request cycles when cycles > 0).
func runClients(ctx context.Context, e *env, d *daemon, cycles int) ([]*client, time.Duration, time.Duration, error) {
	clients := make([]*client, servedClients)
	for k := range clients {
		cfg, mods := mediumProgram(e.seed, k)
		clients[k] = &client{k: k, cfg: cfg, mods: mods}
	}
	each := func(fn func(c *client) error) error {
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				errs[i] = fn(c)
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	start := time.Now()
	if err := each(func(c *client) error { return c.send(ctx, d.conn, e.seed, -1) }); err != nil {
		return nil, 0, 0, err
	}
	primed := time.Since(start)

	start = time.Now()
	deadline := start.Add(e.seconds)
	err := each(func(c *client) error {
		for j := 0; ; j++ {
			if cycles > 0 && j == cycles*len(requestKinds) || cycles == 0 && j > 0 && time.Now().After(deadline) {
				return nil
			}
			if err := c.send(ctx, d.conn, e.seed, j); err != nil {
				return err
			}
		}
	})
	return clients, primed, time.Since(start), err
}

// servedMedium: an ipra-served daemon with two closed-loop clients, each
// editing its own medium program.
func servedMedium(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	start := time.Now()
	d, err := startDaemon(ctx, e, e.work)
	if err != nil {
		return nil, err
	}
	ready := time.Since(start)
	cycles := 0
	if e.traced {
		cycles = 2
	}
	clients, primed, elapsed, err := runClients(ctx, e, d, cycles)
	var stats *served.ServerStats
	if err == nil {
		stats, err = d.conn.Stats(ctx)
	}
	rss, stopErr := d.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, fmt.Errorf("ipra-served: %w", stopErr)
	}
	setup := ready + primed

	var lat, build, overhead []float64
	byKind := map[string][]float64{}
	var words float64
	hits, requests := 0, 0
	for _, c := range clients {
		for i, s := range c.samples {
			if s.kind == "prime" {
				if s.err != nil {
					return nil, fmt.Errorf("client %d priming build: %w", c.k, s.err)
				}
				w, err := exeWords(c.exes[0])
				if err != nil {
					return nil, err
				}
				words += float64(w)
				continue
			}
			res.attempted++
			requests++
			if s.err != nil {
				res.fail("client %d request %d (%s): %v", c.k, i, s.kind, s.err)
				continue
			}
			lat = append(lat, s.latency)
			overhead = append(overhead, s.latency-s.serverMS)
			byKind[s.kind] = append(byKind[s.kind], s.latency)
			if s.cached {
				hits++
			} else {
				build = append(build, s.serverMS)
			}
		}
		for _, b := range c.bad {
			res.fail("%s", b)
		}
	}
	rejected := float64(stats.Counters["served.rejected"])

	if e.traced {
		res.metrics["served.build_ms"] = median(build)
		res.metrics["served.overhead_ms"] = median(overhead)
		res.metrics["served.result_hit_frac"] = float64(hits) / float64(requests)
		res.metrics["served.rejected"] = rejected
		res.counts["served.result_hit_frac"] = res.metrics["served.result_hit_frac"]
		return res, servedTraced(ctx, e, res, clients)
	}

	// Final program state of each client against a clean build.
	for _, c := range clients {
		ref, err := cleanBuild(ctx, c.states[len(c.states)-1])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ref, c.exes[len(c.exes)-1]) {
			res.fail("client %d final program state: daemon executable differs from the in-process clean ipra.Build", c.k)
		}
	}
	res.metrics["setup_s"] = setup.Seconds()
	// The no-op touch is the operation whose cost is the daemon's own
	// path (admission, directory lock, build-dir decode, JSON transport)
	// plus a one-module rebuild; body and call edits add the phase-2
	// invalidation edit-large already measures.
	res.metrics["op_ms"] = median(byKind["noop"])
	res.metrics["peak_rss_mb"] = rss
	res.metrics["code_words"] = words
	res.counts["code_words"] = words
	res.report("setup_s", setup.Seconds(), "s", 1)
	res.report("latency_ms.p50", median(lat), "ms", len(lat))
	res.report("latency_ms.p95", quantile(lat, 0.95), "ms", len(lat))
	for _, k := range requestKinds {
		res.report("latency_ms.p50 "+k, median(byKind[k]), "ms", len(byKind[k]))
	}
	res.report("throughput_rps", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
	res.report("peak_rss_mb", rss, "MB", 1)
	res.report("code_words", words, "words", servedClients)
	res.report("served.build_ms p50", median(build), "ms", len(build))
	res.report("served.overhead_ms p50", median(overhead), "ms", len(overhead))
	res.report("served.result_hit_frac", float64(hits)/float64(requests), "frac", requests)
	res.report("served.rejected", rejected, "count", 1)
	return res, nil
}

// servedTraced replays every build the daemon ran, client by client, in
// process; each replayed state must match the daemon's executable.
func servedTraced(ctx context.Context, e *env, res *result, clients []*client) error {
	t := newTracer()
	s := newStepper(ipra.MustPreset("C"), t)
	for _, c := range clients {
		s.reset(filepath.Join(e.work, fmt.Sprintf("replay%d", c.k)))
		for i, mods := range c.states {
			kind := "request"
			if i == 0 {
				kind = "prime"
			}
			ref, err := s.step(ctx, sources(mods), kind, res)
			if err != nil {
				return err
			}
			if !bytes.Equal(ref, c.exes[i]) {
				res.fail("client %d build %d: daemon executable differs from the in-process clean ipra.Build", c.k, i)
			}
		}
	}
	stepMetrics(res, s, "request")
	return writeTrace(e, "served-medium", t)
}
