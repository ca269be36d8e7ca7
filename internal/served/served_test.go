package served

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

// testProgram is a small but interprocedurally interesting synthesized
// program: multiple modules, shared globals, recursion.
var testProgram = progen.Config{
	Seed: 7, Modules: 4, ProcsPerModule: 6, Globals: 24,
	SubsystemSize: 4, Recursion: true, Statics: true, LoopIters: 1,
}

const testTrainInstrs = 5_000_000

func testSources(t *testing.T) []Source {
	t.Helper()
	mods := progen.Generate(testProgram)
	out := make([]Source, len(mods))
	for i, m := range mods {
		out[i] = Source{Name: m.Name, Text: m.Text}
	}
	return out
}

// localExe builds the same request locally and returns the canonical
// executable bytes — the oracle every daemon response must match.
func localExe(t *testing.T, config string, srcs []Source) []byte {
	t.Helper()
	cfg, err := ipra.PresetByName(config)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]ipra.Source, len(srcs))
	for i, s := range srcs {
		sources[i] = ipra.Source{Name: s.Name, Text: []byte(s.Text)}
	}
	var opts []ipra.BuildOption
	if cfg.WantProfile {
		opts = append(opts, ipra.WithProfile(testTrainInstrs))
	}
	res, err := ipra.Build(context.Background(), sources, cfg, opts...)
	if err != nil {
		t.Fatalf("local build (%s): %v", config, err)
	}
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, res.Exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServedByteIdentity proves the acceptance criterion: a daemon-served
// build is byte-identical to a local ipra.Build for every configuration,
// over HTTP, with and without persistent state, and on the result-cache
// path.
func TestServedByteIdentity(t *testing.T) {
	srcs := testSources(t)
	srv := New(Options{StateDir: t.TempDir(), Jobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	for _, config := range ipra.PresetNames() {
		config := config
		t.Run(config, func(t *testing.T) {
			want := localExe(t, config, srcs)
			req := &BuildRequest{Config: config, Sources: srcs, TrainInstrs: testTrainInstrs}
			resp, err := client.Build(context.Background(), req)
			if err != nil {
				t.Fatalf("remote build: %v", err)
			}
			if !bytes.Equal(resp.Exe, want) {
				t.Fatalf("daemon exe differs from local build (%d vs %d bytes)", len(resp.Exe), len(want))
			}
			if resp.Instructions == 0 || resp.Modules != len(srcs) {
				t.Fatalf("bad response metadata: %+v", resp)
			}

			// An identical re-request must come from the result cache,
			// still byte-identical.
			again, err := client.Build(context.Background(), req)
			if err != nil {
				t.Fatalf("repeat build: %v", err)
			}
			if !again.ResultCached {
				t.Errorf("repeat request not served from the result cache")
			}
			if !bytes.Equal(again.Exe, want) {
				t.Fatalf("result-cache exe differs from local build")
			}
		})
	}

	c := srv.Counters()
	if c["served.requests"] != 2*int64(len(ipra.PresetNames())) {
		t.Errorf("served.requests = %d, want %d", c["served.requests"], 2*len(ipra.PresetNames()))
	}
	if c["served.result_hits"] != int64(len(ipra.PresetNames())) {
		t.Errorf("served.result_hits = %d, want %d", c["served.result_hits"], len(ipra.PresetNames()))
	}
}

// TestServedStatelessMatchesStateful: a daemon without a state directory
// must produce the same bytes as one with it.
func TestServedStatelessMatchesStateful(t *testing.T) {
	srcs := testSources(t)
	req := &BuildRequest{Config: "C", Sources: srcs}
	stateless := New(Options{Jobs: 2})
	stateful := New(Options{StateDir: t.TempDir(), Jobs: 2})
	r1, err := stateless.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stateful.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Exe, r2.Exe) {
		t.Fatal("stateless and stateful daemons produced different bytes")
	}
	if r1.Incremental != nil {
		t.Error("stateless build reported incremental state")
	}
	if r2.Incremental == nil {
		t.Error("stateful build reported no incremental state")
	}
}

// TestServedUnixSocket exercises the real daemon transport: a Unix
// socket listener, health handshake, one build, graceful shutdown.
func TestServedUnixSocket(t *testing.T) {
	dir, err := os.MkdirTemp("", "served")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")

	srv := New(Options{Jobs: 2})
	l, err := ListenUnix(sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	client, err := Dial("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	srcs := testSources(t)
	resp, err := client.Build(context.Background(), &BuildRequest{Config: "A", Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Exe, localExe(t, "A", srcs)) {
		t.Fatal("unix-socket build differs from local build")
	}

	// A second build under a different config: the stats totals below
	// must add up both requests.
	if _, err := client.Build(context.Background(), &BuildRequest{Config: "B", Sources: srcs}); err != nil {
		t.Fatal(err)
	}

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["served.builds"] != 2 {
		t.Errorf("served.builds = %d, want 2", stats.Counters["served.builds"])
	}
	if stats.Fingerprint != ipra.ToolchainFingerprint() {
		t.Errorf("stats fingerprint = %q", stats.Fingerprint)
	}
	// Request-scoped counters merge into the server totals, so /v1/stats
	// exposes the analyzer work of the builds it served.
	for _, c := range []string{"analyzer.webs", "analyzer.clusters"} {
		if stats.Counters[c] <= 0 {
			t.Errorf("stats counter %s = %d, want > 0", c, stats.Counters[c])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if err := client.Health(context.Background()); err == nil {
		t.Error("health check succeeded after shutdown")
	}
}

// TestServedQueueSaturation: with one build slot and one queue slot,
// a third concurrent distinct request is rejected with ErrSaturated
// rather than queued without bound, and admitted work still completes.
func TestServedQueueSaturation(t *testing.T) {
	srv := New(Options{Concurrency: 1, QueueDepth: 1, Jobs: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	inner := srv.buildFn
	srv.buildFn = func(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
		started <- struct{}{}
		<-release
		return inner(ctx, req)
	}

	srcs := testSources(t)
	distinct := func(i byte) []Source {
		out := append([]Source(nil), srcs...)
		out[0].Text += "\n// variant " + string('a'+i) + "\n"
		return out
	}

	type result struct {
		resp *BuildResponse
		err  error
	}
	results := make(chan result, 3)
	build := func(i byte) {
		resp, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: distinct(i)})
		results <- result{resp, err}
	}
	go build(0)
	<-started // first request is running
	go build(1)
	// Second request occupies the queue slot; wait for it to be counted.
	waitFor(t, func() bool { return srv.queueDepth.Load() == 1 })

	// Third distinct request must be rejected immediately.
	_, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: distinct(2)})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated request returned %v, want ErrSaturated", err)
	}
	if c := srv.Counters()["served.rejected"]; c != 1 {
		t.Errorf("served.rejected = %d, want 1", c)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("admitted request failed: %v", r.err)
		}
	}
	if c := srv.Counters()["served.builds"]; c != 2 {
		t.Errorf("served.builds = %d, want 2", c)
	}
}

// TestServedShutdownDrains: Shutdown waits for the in-flight build and
// its response is delivered; requests after drain are refused.
func TestServedShutdownDrains(t *testing.T) {
	srv := New(Options{Jobs: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	inner := srv.buildFn
	srv.buildFn = func(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
		started <- struct{}{}
		<-release
		return inner(ctx, req)
	}

	srcs := testSources(t)
	var wg sync.WaitGroup
	wg.Add(1)
	var resp *BuildResponse
	var buildErr error
	go func() {
		defer wg.Done()
		resp, buildErr = srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: srcs})
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Drain must not finish while the build is held open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v before the in-flight build finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	wg.Wait()
	if buildErr != nil {
		t.Fatalf("in-flight build failed during drain: %v", buildErr)
	}
	if len(resp.Exe) == 0 {
		t.Fatal("in-flight build returned no executable")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: srcs}); err == nil {
		t.Fatal("build accepted after shutdown")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultCacheStoresCompressedImages checks the result cache returns
// the exact executable bytes it was given while holding them compressed,
// and still evicts least-recently-used entries.
func TestResultCacheStoresCompressedImages(t *testing.T) {
	exe := localExe(t, "C", testSources(t))
	c := newResultCache(2)
	c.put("a", &BuildResponse{Config: "C", Exe: exe, Instructions: 7})
	got, ok := c.get("a")
	if !ok || !bytes.Equal(got.Exe, exe) || got.Config != "C" || got.Instructions != 7 {
		t.Fatalf("get(a) = %+v, %v; want the stored response", got, ok)
	}
	got.Exe[0] ^= 0xff // a caller's copy must not reach the cache
	if again, _ := c.get("a"); !bytes.Equal(again.Exe, exe) {
		t.Error("mutating a returned response changed the cached image")
	}
	e := c.entries["a"].Value.(*resultEntry)
	if e.resp.Exe != nil || len(e.exe) >= len(exe)/2 {
		t.Errorf("cache entry holds %d raw and %d compressed bytes for a %d-byte image", len(e.resp.Exe), len(e.exe), len(exe))
	}

	c.put("b", &BuildResponse{Exe: []byte("b")})
	c.get("a")
	c.put("c", &BuildResponse{Exe: []byte("c")})
	if _, ok := c.get("b"); ok {
		t.Error("least recently used entry b survived eviction")
	}
	if got, ok := c.get("c"); !ok || string(got.Exe) != "c" {
		t.Errorf("get(c) = %+v, %v", got, ok)
	}

	// Concurrent puts and gets of the same keys see whole entries only.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := string(rune('a' + (g+i)%3))
				c.put(key, &BuildResponse{Config: key, Exe: []byte(key)})
				if got, ok := c.get(key); ok && string(got.Exe) != got.Config {
					t.Errorf("get(%s) mixed entries: exe %q, config %q", key, got.Exe, got.Config)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServedKeyResolvesTrainInstrs: two requests that spell the same
// build differently share a key. A preset that never trains ignores
// TrainInstrs, and a profiled preset's 0 means the server default, so
// the second request of each pair is a result-cache hit.
func TestServedKeyResolvesTrainInstrs(t *testing.T) {
	srcs := testSources(t)
	srv := New(Options{Jobs: 2, TrainInstrs: testTrainInstrs})
	for _, c := range []struct {
		config        string
		first, second uint64
	}{
		{"C", 5, 0},
		{"B", 0, testTrainInstrs},
	} {
		first, err := srv.Build(context.Background(), &BuildRequest{Config: c.config, Sources: srcs, TrainInstrs: c.first})
		if err != nil {
			t.Fatal(err)
		}
		second, err := srv.Build(context.Background(), &BuildRequest{Config: c.config, Sources: srcs, TrainInstrs: c.second})
		if err != nil {
			t.Fatal(err)
		}
		if !second.ResultCached {
			t.Errorf("%s: trainInstrs %d after %d missed the result cache", c.config, c.second, c.first)
		}
		if !bytes.Equal(first.Exe, second.Exe) {
			t.Errorf("%s: equivalent requests returned different executables", c.config)
		}
	}
}

// TestServedStatsShape pins the /v1/stats JSON that CI's jq checks read:
// no field beyond ServerStats, a fingerprint, exactly the three live
// gauges, and the request and build counters once a build has run.
func TestServedStatsShape(t *testing.T) {
	srv := New(Options{Jobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Build(context.Background(), &BuildRequest{Config: "C", Sources: testSources(t)}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var stats ServerStats
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&stats); err != nil {
		t.Fatalf("decode /v1/stats: %v", err)
	}
	if stats.Fingerprint == "" {
		t.Error("stats fingerprint is empty")
	}
	wantGauges := []string{"served.inflight", "served.queue_depth", "served.running"}
	if len(stats.Gauges) != len(wantGauges) {
		t.Errorf("gauges = %v, want exactly %v", stats.Gauges, wantGauges)
	}
	for _, g := range wantGauges {
		if _, ok := stats.Gauges[g]; !ok {
			t.Errorf("gauge %s missing from %v", g, stats.Gauges)
		}
	}
	for _, c := range []string{"served.requests", "served.builds"} {
		if stats.Counters[c] != 1 {
			t.Errorf("counter %s = %d, want 1", c, stats.Counters[c])
		}
	}
}
