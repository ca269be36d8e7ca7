// Package served is the compilation-as-a-service daemon behind
// cmd/ipra-served: a long-lived server that keeps the whole-program
// allocator's interprocedural state hot across builds and serves
// concurrent build requests from many clients.
//
// What stays hot between requests:
//
//   - one persistent incremental build directory per (config, module
//     name-set) program identity (internal/incremental), so an edited
//     program gets a minimal rebuild — phase 1 re-runs only for changed
//     modules — and the analyzer state in its state.wire carries the
//     call graph, webs, and clusters forward;
//   - a bounded in-memory result cache mapping request keys to finished
//     responses, so a byte-identical re-request never compiles at all.
//
// Every cache layer is keyed or guarded by the toolchain fingerprint: the
// result cache and single-flight keys embed it directly, and the
// incremental store rejects on-disk state stamped by any other
// fingerprint, so a daemon can never serve bytes a local build of the
// same toolchain would not produce.
//
// Concurrency control is two-level. Identical in-flight requests collapse
// into one build (single-flight; followers share the leader's response
// and tick served.dedup_hits). Distinct requests pass a bounded admission
// queue: at most Concurrency builds run, at most QueueDepth more wait,
// and anything beyond that is rejected immediately with 503 and a
// Retry-After hint rather than queued without bound.
package served

import (
	"bytes"
	"compress/flate"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/pipeline"
	"ipra/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// StateDir is the root under which per-program incremental build
	// directories live; empty serves every build statelessly from
	// memory (still deduplicated and result-cached).
	StateDir string
	// Concurrency bounds simultaneously executing builds; 0 means one
	// per CPU.
	Concurrency int
	// QueueDepth bounds admitted-but-waiting requests; 0 means
	// 4×Concurrency. Requests beyond Concurrency+QueueDepth are
	// rejected with ErrSaturated / HTTP 503.
	QueueDepth int
	// Jobs is the per-build compiler parallelism (ipra.Config.Jobs).
	Jobs int
	// ResultCacheEntries bounds the in-memory response cache; 0 means
	// 128, negative disables it.
	ResultCacheEntries int
	// TrainInstrs is the default training-run budget for profiled
	// configurations when the request leaves it zero.
	TrainInstrs uint64
	// Fingerprint overrides the toolchain fingerprint that keys the
	// result cache and single-flight; empty uses
	// ipra.ToolchainFingerprint(). Build directories are always stamped
	// by the toolchain itself. Tests use the override to prove that
	// result-cache keys differ across toolchains.
	Fingerprint string
	// Tracer receives server-lifetime telemetry (the served.* counters
	// plus every request's counters merged in); nil allocates one
	// internally so Stats always works.
	Tracer *telemetry.Tracer
	// Log receives one line per request; nil discards.
	Log io.Writer
}

// ErrSaturated is returned (as HTTP 503 + Retry-After on the wire) when
// the admission queue is full. Retrying after the hint is the right
// response.
var ErrSaturated = errors.New("served: admission queue full")

// ErrDraining is returned (HTTP 503, Reason "draining", no Retry-After)
// once Shutdown has begun. Unlike saturation this is not transient from
// the requester's point of view — clients should fail over, not retry.
var ErrDraining = errors.New("served: server is draining")

// RequestError marks a fault in the request itself — missing fields or
// an unknown config — mapped to HTTP 400, as opposed to a compile failure
// in a well-formed request (422).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// inflight is one single-flight entry: the leader builds, followers wait
// on done and read resp/err.
type inflight struct {
	done chan struct{}
	resp *BuildResponse
	err  error
}

// resultCache is a small mutex-guarded LRU of finished responses. It is
// bounded by entry count, so it holds each executable image
// flate-compressed (about 5x smaller on progen programs, at a few
// milliseconds per put and per hit): the images are nearly all of a full
// cache's memory.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element holding *resultEntry
}

type resultEntry struct {
	key  string
	resp *BuildResponse // with Exe nil
	exe  []byte         // resp's Exe, flate-compressed
	size int            // len(resp's Exe)
}

// flateWriters reuses compressors across puts: a BestSpeed writer holds
// about 450 KB of tables.
var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(nil, flate.BestSpeed) // fails only on an invalid level
	return w
}}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns a copy of the cached response under key, Exe restored.
func (c *resultCache) get(key string) (*BuildResponse, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*resultEntry) // immutable; put replaces, never edits
	c.mu.Unlock()
	exe := make([]byte, e.size)
	if _, err := io.ReadFull(flate.NewReader(bytes.NewReader(e.exe)), exe); err != nil {
		// Only put writes these bytes; treat the impossible as a miss.
		return nil, false
	}
	out := *e.resp
	out.Exe = exe
	return &out, true
}

func (c *resultCache) put(key string, resp *BuildResponse) {
	if c.max <= 0 {
		return
	}
	var z bytes.Buffer
	z.Grow(len(resp.Exe) / 4)
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&z)
	// Writes to a bytes.Buffer cannot fail.
	w.Write(resp.Exe)
	w.Close()
	flateWriters.Put(w)
	stripped := *resp
	stripped.Exe = nil
	entry := &resultEntry{key: key, resp: &stripped, exe: bytes.Clone(z.Bytes()), size: len(resp.Exe)}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = entry
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(entry)
	for c.order.Len() > c.max {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*resultEntry).key)
	}
}

// Server is one daemon instance. Create with New, expose with Handler or
// Serve, stop with Shutdown.
type Server struct {
	opts        Options
	fingerprint string
	tracer      *telemetry.Tracer
	start       time.Time

	admission chan struct{} // capacity Concurrency+QueueDepth
	running   chan struct{} // capacity Concurrency

	queueDepth atomic.Int64 // admitted, waiting for a run slot
	runDepth   atomic.Int64 // builds executing
	inflightN  atomic.Int64 // requests inside the server
	nextID     atomic.Uint64
	draining   atomic.Bool

	mu      sync.Mutex
	flights map[string]*inflight
	dirLock map[string]*dirMutex // per-build-dir serialization, refcounted

	results *resultCache

	// buildFn runs one deduplicated build; tests wrap it to hold builds
	// open and provoke dedup/saturation deterministically.
	buildFn func(ctx context.Context, req *BuildRequest) (*BuildResponse, error)

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New returns a ready Server; no listener is opened until Serve.
func New(opts Options) *Server {
	if opts.Concurrency <= 0 {
		opts.Concurrency = pipeline.Workers(0)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 4 * opts.Concurrency
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	cacheMax := opts.ResultCacheEntries
	if cacheMax == 0 {
		cacheMax = 128
	}
	if opts.TrainInstrs == 0 {
		opts.TrainInstrs = 100_000_000
	}
	fp := opts.Fingerprint
	if fp == "" {
		fp = ipra.ToolchainFingerprint()
	}
	tr := opts.Tracer
	if tr == nil {
		tr = telemetry.New()
	}
	s := &Server{
		opts:        opts,
		fingerprint: fp,
		tracer:      tr,
		start:       time.Now(),
		admission:   make(chan struct{}, opts.Concurrency+opts.QueueDepth),
		running:     make(chan struct{}, opts.Concurrency),
		flights:     make(map[string]*inflight),
		dirLock:     make(map[string]*dirMutex),
		results:     newResultCache(cacheMax),
	}
	s.buildFn = s.runBuild
	return s
}

// Fingerprint returns the toolchain fingerprint guarding this daemon's
// state.
func (s *Server) Fingerprint() string { return s.fingerprint }

// Counters snapshots the server-lifetime telemetry totals.
func (s *Server) Counters() map[string]int64 { return s.tracer.Counters() }

// Stats assembles the /v1/stats payload.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Fingerprint: s.fingerprint,
		Counters:    s.tracer.Counters(),
		Gauges: map[string]int64{
			"served.queue_depth": s.queueDepth.Load(),
			"served.running":     s.runDepth.Load(),
			"served.inflight":    s.inflightN.Load(),
		},
		UptimeSec: time.Since(s.start).Seconds(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "ipra-served: "+format+"\n", args...)
	}
}

// Build serves one request through the full admission path — result
// cache, single-flight, bounded queue — exactly as the HTTP handler
// does; it is the in-process entry point tests and embedders use.
func (s *Server) Build(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, &RequestError{Err: err}
	}
	cfg, err := ipra.PresetByName(req.Config)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	// Resolve the training budget before keying, so requests that spell
	// the same build differently share a key: a preset that never trains
	// ignores TrainInstrs, and 0 means the server default.
	r := *req
	req = &r
	switch {
	case !cfg.WantProfile:
		req.TrainInstrs = 0
	case req.TrainInstrs == 0:
		req.TrainInstrs = s.opts.TrainInstrs
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	s.tracer.Add("served.requests", 1)

	began := time.Now()
	key := req.Key(s.fingerprint)
	if out, ok := s.results.get(key); ok {
		s.tracer.Add("served.result_hits", 1)
		out.RequestID = s.nextID.Add(1)
		out.ResultCached = true
		out.Incremental = nil
		out.ElapsedMS = float64(time.Since(began).Microseconds()) / 1000
		s.logf("req %d: %s %d modules: result cache hit", out.RequestID, req.Config, len(req.Sources))
		return out, nil
	}

	// Single-flight: the first arrival under a key becomes the leader
	// and builds; everyone else waits for its response.
	s.mu.Lock()
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.tracer.Add("served.dedup_hits", 1)
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			return nil, fl.err
		}
		out := *fl.resp
		out.RequestID = s.nextID.Add(1)
		out.Dedup = true
		s.logf("req %d: %s %d modules: deduplicated against in-flight build", out.RequestID, req.Config, len(req.Sources))
		return &out, nil
	}
	fl := &inflight{done: make(chan struct{})}
	s.flights[key] = fl
	s.mu.Unlock()

	fl.resp, fl.err = s.admitAndBuild(ctx, req)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
	if fl.err == nil {
		s.results.put(key, fl.resp)
	}
	return fl.resp, fl.err
}

// admitAndBuild pushes one leader request through the bounded queue and
// runs its build.
func (s *Server) admitAndBuild(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
	select {
	case s.admission <- struct{}{}:
	default:
		s.tracer.Add("served.rejected", 1)
		return nil, ErrSaturated
	}
	defer func() { <-s.admission }()

	s.queueDepth.Add(1)
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		s.queueDepth.Add(-1)
		return nil, ctx.Err()
	}
	s.queueDepth.Add(-1)
	s.runDepth.Add(1)
	defer func() {
		s.runDepth.Add(-1)
		<-s.running
	}()

	s.tracer.Add("served.builds", 1)
	resp, err := s.buildFn(ctx, req)
	if err != nil {
		s.tracer.Add("served.errors", 1)
	}
	return resp, err
}

// runBuild executes one underlying ipra.Build with per-request telemetry.
func (s *Server) runBuild(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
	began := time.Now()
	id := s.nextID.Add(1)

	cfg, err := ipra.PresetByName(req.Config)
	if err != nil {
		return nil, err
	}
	cfg.Jobs = s.opts.Jobs

	sources := make([]ipra.Source, len(req.Sources))
	for i, src := range req.Sources {
		sources[i] = ipra.Source{Name: src.Name, Text: []byte(src.Text)}
	}

	reqTracer := telemetry.New()
	opts := []ipra.BuildOption{ipra.WithTelemetry(reqTracer)}
	if cfg.WantProfile {
		opts = append(opts, ipra.WithProfile(req.TrainInstrs))
	}
	if req.Verify {
		opts = append(opts, ipra.WithVerify())
	}

	var buildDir string
	if s.opts.StateDir != "" {
		buildDir = filepath.Join(s.opts.StateDir, req.ProgramKey())
		opts = append(opts, ipra.WithBuildDir(buildDir))
		// Two different source versions of the same program share a
		// build directory; serialize them so neither build's commit
		// discards the other's work.
		lock := s.lockDir(buildDir)
		defer s.unlockDir(buildDir, lock)
	}

	res, err := ipra.Build(ctx, sources, cfg, opts...)
	mergeCounters(s.tracer, reqTracer)
	if err != nil {
		s.logf("req %d: %s %d modules: error: %v", id, req.Config, len(sources), err)
		return nil, err
	}

	var exeBuf bytes.Buffer
	if err := parv.EncodeExecutable(&exeBuf, res.Exe); err != nil {
		return nil, err
	}

	resp := &BuildResponse{
		RequestID:    id,
		Config:       cfg.Name,
		Modules:      len(sources),
		Exe:          exeBuf.Bytes(),
		Instructions: len(res.Exe.Code),
		Counters:     reqTracer.Counters(),
		ElapsedMS:    float64(time.Since(began).Microseconds()) / 1000,
	}
	if out := res.Incremental; out != nil {
		resp.Incremental = &IncrementalSummary{
			StateReset:     out.StateReset,
			Phase1Rebuilds: out.Phase1Rebuilds,
			Phase2Rebuilds: out.Phase2Rebuilds,
		}
		if out.Analyzer != nil {
			resp.Incremental.AnalyzerFallback = out.Analyzer.Fallback
		}
	}
	if req.Trace {
		var buf bytes.Buffer
		if err := reqTracer.WriteChromeTrace(&buf); err == nil {
			resp.Trace = json.RawMessage(buf.Bytes())
		}
	}
	s.logf("req %d: %s %d modules: built in %.1fms (dir %q)", id, req.Config, len(sources), resp.ElapsedMS, buildDir)
	return resp, nil
}

// dirMutex is one build directory's lock plus the number of holders and
// waiters keeping it alive. The refcount lets unlockDir prune the entry
// the moment the last interested build releases it, so the dirLock map
// tracks only directories with active builds instead of growing by one
// entry per program ever served (the result cache is bounded; this map
// must be too).
type dirMutex struct {
	mu   sync.Mutex
	refs int
}

// lockDir acquires the named directory's lock, creating it on demand.
func (s *Server) lockDir(dir string) *dirMutex {
	s.mu.Lock()
	l, ok := s.dirLock[dir]
	if !ok {
		l = &dirMutex{}
		s.dirLock[dir] = l
	}
	l.refs++
	s.mu.Unlock()
	l.mu.Lock()
	return l
}

// unlockDir releases the directory's lock and drops the map entry once no
// build holds or waits on it.
func (s *Server) unlockDir(dir string, l *dirMutex) {
	l.mu.Unlock()
	s.mu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(s.dirLock, dir)
	}
	s.mu.Unlock()
}

// dirLocks reports the live lock-map size (tests).
func (s *Server) dirLocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirLock)
}

// mergeCounters folds one request tracer's counters into the server
// totals.
func mergeCounters(dst, src *telemetry.Tracer) {
	for name, v := range src.Counters() {
		dst.Add(name, v)
	}
}

// retryAfterSec estimates when a rejected client should come back: one
// second per queued-or-running build ahead of it, floored at 1.
func (s *Server) retryAfterSec() int {
	n := int(s.queueDepth.Load() + s.runDepth.Load())
	if n < 1 {
		n = 1
	}
	if n > 30 {
		n = 30
	}
	return n
}

// maxRequestBytes bounds one request body (sources are text; 256 MiB is
// far past any real program here).
const maxRequestBytes = 256 << 20

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/build", s.handleBuild)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/health", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Unknown fields are rejected, not ignored: a client asking for an
	// option this daemon does not have must get 400, never a silently
	// different build.
	var req BuildRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	if _, terr := dec.Token(); err == nil && terr != io.EOF {
		err = errors.New("trailing data after the request object")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "bad request body: " + err.Error(), Reason: ReasonBadRequest})
		return
	}
	resp, err := s.Build(r.Context(), &req)
	if err != nil {
		s.writeBuildError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeBuildError maps a Build error onto the wire: each class gets its
// own status code and machine-readable reason so clients can distinguish
// "retry later" (saturated) from "give up" (draining), and their own
// mistakes (400) from a broken program (422) or a broken daemon (500).
func (s *Server) writeBuildError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	switch {
	case errors.Is(err, ErrSaturated):
		sec := s.retryAfterSec()
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Reason: ReasonSaturated, RetryAfterSec: sec})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Reason: ReasonDraining})
	case errors.As(err, &reqErr):
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: err.Error(), Reason: ReasonBadRequest})
	case isInternalError(err):
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: err.Error(), Reason: ReasonInternal})
	default:
		writeJSON(w, http.StatusUnprocessableEntity,
			errorResponse{Error: err.Error(), Reason: ReasonCompile})
	}
}

// isInternalError recognizes faults in the daemon's own environment —
// filesystem and OS errors out of the incremental store — as opposed to
// compile errors in the submitted program.
func isInternalError(err error) bool {
	var pathErr *os.PathError
	var linkErr *os.LinkError
	var sysErr *os.SyscallError
	return errors.As(err, &pathErr) || errors.As(err, &linkErr) || errors.As(err, &sysErr)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining", Reason: ReasonDraining})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "fingerprint": s.fingerprint})
}

// Serve runs the HTTP interface on l until Shutdown; it returns nil on a
// graceful stop. One Serve per listener; multiple listeners (a Unix
// socket plus TCP) may be served concurrently.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon gracefully: new requests are refused, every
// in-flight build runs to completion and its response is delivered, and
// only then do the listeners close. Incremental state is flushed by each
// build as it finishes, so a drained daemon leaves every build directory
// consistent. The context bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	} else {
		// In-process use (no listener): wait for inflight to reach zero.
		for s.inflightN.Load() > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	st := s.Stats()
	s.logf("drained: %d requests, %d builds, %d dedup hits, %d result hits, %d rejected",
		st.Counters["served.requests"], st.Counters["served.builds"],
		st.Counters["served.dedup_hits"], st.Counters["served.result_hits"],
		st.Counters["served.rejected"])
	return err
}

// ListenUnix removes a stale Unix socket file left by a previous daemon
// (after checking nothing is listening), then returns a fresh listener.
func ListenUnix(path string) (net.Listener, error) {
	if _, err := os.Stat(path); err == nil {
		if c, err := net.DialTimeout("unix", path, 250*time.Millisecond); err == nil {
			c.Close()
			return nil, fmt.Errorf("served: %s: a daemon is already listening", path)
		}
		os.Remove(path)
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return net.Listen("unix", path)
}
