// The wire protocol of the build service: JSON request and response
// bodies carried over HTTP, on a Unix socket (the default) or TCP.
//
// Endpoints:
//
//	POST /v1/build   compile a source set under a named configuration;
//	                 the body is a BuildRequest, the reply a BuildResponse
//	POST /v1/profile wire-encoded profagg.Record body; merges fleet call
//	                 counts and replies with a ProfileIngestResponse
//	GET  /v1/profile/snapshot?program=KEY
//	                 the program's wire-encoded aggregate snapshot
//	GET  /v1/stats   ServerStats: telemetry counters plus live gauges
//	GET  /v1/health  200 once the server accepts work, 503 while draining
//
// Error replies carry a machine-readable errorResponse.Reason alongside
// the human-readable message, and the status code classifies the fault:
// 400 for a malformed request, 422 for a compile failure in the submitted
// program, 500 for a server-side fault, 503 with Reason "saturated" (plus
// Retry-After) for a full admission queue and Reason "draining" for a
// shutdown in progress — only the former is worth retrying.
//
// A BuildResponse's Exe field is the canonical parv executable encoding
// (parv.EncodeExecutable), so a daemon-served build can be compared
// byte-for-byte against a local one with cmp.
package served

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ipra/internal/parv"
)

// Source is one MiniC module in a build request.
type Source struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// BuildRequest asks the daemon for one whole-program compile.
type BuildRequest struct {
	// Config names a preset from the ipra registry: L2 or Table 4
	// column A-F.
	Config string `json:"config"`
	// Sources is the complete module set of the program.
	Sources []Source `json:"sources"`
	// TrainInstrs bounds the training run of profiled configurations
	// (B, F); 0 uses the server default.
	TrainInstrs uint64 `json:"trainInstrs,omitempty"`
	// Verify runs the whole-program allocation verifier over the
	// analyzer's output and fails the request on violations.
	Verify bool `json:"verify,omitempty"`
	// Trace asks for this request's Chrome trace-event JSON in the
	// response (per-request telemetry is always collected; the trace
	// export is opt-in because it is large).
	Trace bool `json:"trace,omitempty"`

	// aggProfile/aggHash are resolved once per request on admission, when
	// the program serves from a fleet-aggregated allocation: the
	// aggregate's mean profile replaces the training run, and its content
	// hash extends the dedup/result keys so responses built against
	// different aggregate states never alias. Never set by clients.
	aggProfile *parv.Profile
	aggHash    string
}

// clone copies the request for retention (the profile store keeps the
// program's last request as its retrain context), dropping the resolved
// aggregate so a replay re-resolves it against the store's current state.
func (r *BuildRequest) clone() *BuildRequest {
	cp := *r
	cp.aggProfile, cp.aggHash = nil, ""
	cp.Sources = append([]Source(nil), r.Sources...)
	return &cp
}

// IncrementalSummary is the rebuild record of a request served from a
// persistent per-program build directory.
type IncrementalSummary struct {
	// StateReset is true when the stored build state was rejected
	// (toolchain fingerprint mismatch or corruption) and the program
	// was rebuilt from scratch.
	StateReset     bool `json:"stateReset"`
	Phase1Rebuilds int  `json:"phase1Rebuilds"`
	Phase2Rebuilds int  `json:"phase2Rebuilds"`
	// AnalyzerFallback names why a full (rather than incremental)
	// analysis ran; "" when the incremental path succeeded.
	AnalyzerFallback string `json:"analyzerFallback,omitempty"`
}

// BuildResponse is the daemon's reply to one BuildRequest.
type BuildResponse struct {
	// RequestID identifies the request in the daemon's log and trace.
	RequestID uint64 `json:"requestId"`
	Config    string `json:"config"`
	Modules   int    `json:"modules"`
	// Exe is the canonical executable image (parv encoding);
	// byte-identical to a local build of the same sources and config.
	Exe []byte `json:"exe"`
	// Instructions is the executable's code length, a cheap sanity
	// check clients print without decoding Exe.
	Instructions int `json:"instructions"`
	// Dedup is true when this request shared another identical
	// in-flight build (single-flight) instead of compiling.
	Dedup bool `json:"dedup,omitempty"`
	// ResultCached is true when the response was served whole from the
	// in-memory result cache without any build.
	ResultCached bool `json:"resultCached,omitempty"`
	// Incremental summarizes build-dir reuse; nil for stateless builds
	// and for dedup/result-cache responses.
	Incremental *IncrementalSummary `json:"incremental,omitempty"`
	// Counters is the request-scoped telemetry counter snapshot (cache
	// traffic, rebuild totals, verifier violations, ...). Shared
	// (dedup) responses carry the leader's counters.
	Counters map[string]int64 `json:"counters,omitempty"`
	// ElapsedMS is the server-side wall time of the request.
	ElapsedMS float64 `json:"elapsedMs"`
	// Trace is the request's Chrome trace-event JSON when asked for.
	Trace json.RawMessage `json:"trace,omitempty"`
	// DirectiveHash identifies the program database the executable was
	// compiled against ("" for Level2). Profiled clients stamp it into
	// the records they stream to /v1/profile, which is how the daemon
	// rejects counts measured under a stale allocation.
	DirectiveHash string `json:"directiveHash,omitempty"`
}

// ProfileIngestResponse is the /v1/profile reply.
type ProfileIngestResponse struct {
	// Accepted is false when the record was rejected as stale; Reason
	// then names the cause ("stale-fingerprint" or "stale-directives").
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// Runs and Records are the aggregate totals after the merge.
	Runs    uint64 `json:"runs"`
	Records uint64 `json:"records"`
	// ModelReady reports a drift model was available to check against.
	ModelReady bool `json:"modelReady"`
	// Drifted reports the merged aggregate would reorder the considered
	// webs; Reanalyzed that the daemon rebuilt the program from the
	// aggregate in response, with DirectiveHash identifying the new
	// allocation the fleet should roll onto.
	Drifted       bool   `json:"drifted"`
	Reanalyzed    bool   `json:"reanalyzed"`
	DirectiveHash string `json:"directiveHash,omitempty"`
}

// ServerStats is the /v1/stats reply.
type ServerStats struct {
	// Fingerprint is the toolchain fingerprint guarding every cache and
	// build directory this daemon serves from.
	Fingerprint string `json:"fingerprint"`
	// Counters are the server-lifetime telemetry totals: the served.*
	// family (requests, builds, dedup_hits, result_hits, rejected,
	// errors) plus every per-request counter merged in.
	Counters map[string]int64 `json:"counters"`
	// Gauges are live values: served.queue_depth (admitted requests
	// waiting for a build slot), served.running (builds executing),
	// served.inflight (requests inside the server).
	Gauges map[string]int64 `json:"gauges"`
	// UptimeSec is time since the server started accepting work.
	UptimeSec float64 `json:"uptimeSec"`
}

// errorResponse is the JSON body of a non-200 reply.
type errorResponse struct {
	Error string `json:"error"`
	// Reason classifies the fault machine-readably: "saturated" (queue
	// full, retry after RetryAfterSec), "draining" (shutdown, do not
	// retry), "bad-request", "compile", "internal".
	Reason string `json:"reason,omitempty"`
	// RetryAfterSec accompanies 503 queue-full rejections.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
}

// Machine-readable errorResponse.Reason values.
const (
	ReasonSaturated  = "saturated"
	ReasonDraining   = "draining"
	ReasonBadRequest = "bad-request"
	ReasonCompile    = "compile"
	ReasonInternal   = "internal"
)

// Validate rejects malformed requests before any work is admitted.
func (r *BuildRequest) Validate() error {
	if r.Config == "" {
		return fmt.Errorf("served: request has no config")
	}
	if len(r.Sources) == 0 {
		return fmt.Errorf("served: request has no sources")
	}
	seen := make(map[string]bool, len(r.Sources))
	for _, s := range r.Sources {
		if s.Name == "" {
			return fmt.Errorf("served: request has an unnamed source")
		}
		if seen[s.Name] {
			return fmt.Errorf("served: duplicate source %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Key fingerprints a request for single-flight deduplication and the
// result cache: two requests share a key exactly when an identical build
// under an identical toolchain would produce identical bytes. The
// toolchain fingerprint is part of the key so a daemon can never serve a
// result computed by different compiler semantics.
func (r *BuildRequest) Key(fingerprint string) string {
	h := sha256.New()
	writeField := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	writeField(fingerprint)
	writeField(strings.ToUpper(r.Config))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], r.TrainInstrs)
	h.Write(n[:])
	if r.Verify {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	for _, s := range r.Sources {
		writeField(s.Name)
		writeField(s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ProgramKey names the request's program identity — configuration plus
// the sorted module name set, independent of source contents — which is
// what a persistent build directory is keyed by: edits to a module's
// text map to the same directory, so the incremental store serves warm
// minimal rebuilds across versions.
func (r *BuildRequest) ProgramKey() string {
	names := make([]string, len(r.Sources))
	for i, s := range r.Sources {
		names[i] = s.Name
	}
	sort.Strings(names)
	h := sha256.New()
	io.WriteString(h, strings.ToUpper(r.Config))
	h.Write([]byte{0})
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
