// Package serve implements the haccd HTTP service: compile-through-
// cache plus execution on the process-wide warm worker pool,
// instrumented end to end. It lives here (not in cmd/haccd) so tests,
// benchmarks, and the soak harness can assemble in-process fleets;
// cmd/haccd is a flag-parsing shell around this package.
//
// One Server owns one plan cache (optionally backed by a persistent
// disk tier) and one metric registry. With peers configured, servers
// form a consistent-hash fleet: each request routes to the replica
// owning its cache key, so a plan compiles once fleet-wide and warms
// exactly one replica's cache instead of all of them.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/cache"
	"arraycomp/internal/core"
	"arraycomp/internal/metrics"
	"arraycomp/internal/runtime"
	"arraycomp/internal/shard"
)

// Config tunes the service.
type Config struct {
	CacheEntries int
	CacheBytes   int64
	// CacheDir, when set, backs the memory LRU with a persistent disk
	// tier: certified thunkless plans are written there and a restarted
	// server restores them with zero compile-phase time.
	CacheDir    string
	MaxBody     int64
	Concurrency int
	// QueueDepth bounds how many requests may wait for a concurrency
	// slot before the server sheds load with 429 (0 = 2×Concurrency).
	QueueDepth int
	// MaxBatch caps the evaluations of one /evalbatch request
	// (0 = DefaultMaxBatch).
	MaxBatch int
	Timeout  time.Duration
	// Tier is the default execution-tier policy applied to requests
	// that do not set options.tier themselves; TierThreshold likewise.
	Tier          core.TierMode
	TierThreshold int
	// Self and Peers configure fleet sharding: Peers is the full
	// replica list (including Self) every replica must agree on, Self
	// is this replica's own entry. Empty Peers = standalone server.
	Self  string
	Peers []string
}

// DefaultMaxBatch caps /evalbatch sizes when Config.MaxBatch is 0.
const DefaultMaxBatch = 256

// DefaultConfig returns the standalone-server defaults.
func DefaultConfig() Config {
	return Config{
		CacheEntries: 1024,
		CacheBytes:   256 << 20,
		MaxBody:      16 << 20,
		Concurrency:  256,
		Timeout:      30 * time.Second,
	}
}

// forwardHeader marks a proxied request so the owner serves it locally
// even if its ring disagrees (mid-rollout membership skew); without it
// two replicas with different peer lists could proxy forever.
const forwardHeader = "X-Haccd-Forwarded"

// Server is one haccd replica.
type Server struct {
	cfg   Config
	cache *cache.Cache
	reg   *metrics.Registry
	sem   chan struct{} // concurrency limiter; buffered to cfg.Concurrency

	ring   *shard.Ring  // nil when standalone
	client *http.Client // peer proxy transport

	waiting atomic.Int64 // requests queued for a slot (admission control)
	drain   drainMeter   // completion-rate estimator for Retry-After

	reqTotal        *metrics.CounterVec   // by handler
	reqErrors       *metrics.CounterVec   // by handler
	reqSeconds      *metrics.HistogramVec // by handler
	shedTotal       *metrics.CounterVec   // 429s sent above the queue watermark, by handler
	proxyTotal      *metrics.CounterVec   // peer-routed requests, by outcome
	phaseSeconds    *metrics.HistogramVec // compile phases, observed on misses only
	evalSeconds     *metrics.Histogram    // pure plan execution time
	batchSize       *metrics.Histogram    // evaluations per /evalbatch request
	optTotal        *metrics.CounterVec   // optimization counters, by kind
	schedTotal      *metrics.CounterVec   // compiled loop schedules, by kind
	tierStats       *metrics.TierStats    // process-wide tiered-execution tallies
	verifyStats     *metrics.VerifyStats  // process-wide index-claim verification tallies
	streamRequests  *metrics.CounterVec   // /evalstream requests, by mode (streamed/fallback)
	streamChunks    *metrics.Counter      // result chunks shipped by /evalstream
	streamPeakBytes *metrics.Histogram    // peak resident bytes per streamed evaluation
}

// New assembles a server. The only failure mode is an unusable
// CacheDir.
func New(cfg Config) (*Server, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = DefaultConfig().Concurrency
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Concurrency
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheEntries, cfg.CacheBytes),
		reg:   metrics.NewRegistry(),
		sem:   make(chan struct{}, cfg.Concurrency),
	}
	if cfg.CacheDir != "" {
		if err := s.cache.EnableDisk(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	if len(cfg.Peers) > 0 {
		s.ring = shard.New(cfg.Peers, 0)
		s.client = &http.Client{Timeout: cfg.Timeout}
	}
	s.reqTotal = s.reg.NewCounterVec("haccd_requests_total", "Requests served, by handler.", "handler")
	s.reqErrors = s.reg.NewCounterVec("haccd_request_errors_total", "Requests that failed, by handler.", "handler")
	s.reqSeconds = s.reg.NewHistogramVec("haccd_request_seconds", "End-to-end request latency, by handler.", "handler", nil)
	s.shedTotal = s.reg.NewCounterVec("haccd_shed_total",
		"Requests shed with 429 because the admission queue was over its watermark, by handler.", "handler")
	s.proxyTotal = s.reg.NewCounterVec("haccd_proxy_total",
		"Requests routed to the owning peer, by outcome (forwarded = peer answered, fallback = peer failed and the request ran locally).", "outcome")
	s.phaseSeconds = s.reg.NewHistogramVec("haccd_compile_phase_seconds",
		"Compile time per phase, observed only when a request actually compiles (cache misses).", "phase", nil)
	s.evalSeconds = s.reg.NewHistogramM("haccd_eval_run_seconds", "Pure plan execution time of /eval requests.", nil)
	s.batchSize = s.reg.NewHistogramM("haccd_evalbatch_size", "Evaluations per /evalbatch request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	s.optTotal = s.reg.NewCounterVec("haccd_opt_total",
		"Optimizations performed by compiles this process ran, by kind.", "kind")
	s.schedTotal = s.reg.NewCounterVec("haccd_schedules_total",
		"Loops compiled, by execution shape (sequential/shard/wavefront).", "kind")
	s.reg.NewCounterFunc("haccd_cache_hits_total", "Plan cache hits.", func() uint64 { return s.cache.Stats().Hits })
	s.reg.NewCounterFunc("haccd_cache_misses_total", "Plan cache misses (compiles).", func() uint64 { return s.cache.Stats().Misses })
	s.reg.NewCounterFunc("haccd_cache_evictions_total", "Plan cache LRU evictions.", func() uint64 { return s.cache.Stats().Evictions })
	s.reg.NewCounterFunc("haccd_cache_singleflight_waits_total",
		"Callers that waited on another request's in-flight compile of the same key.",
		func() uint64 { return s.cache.Stats().SingleflightWaits })
	s.reg.NewCounterFunc("haccd_cache_disk_hits_total",
		"Cache misses served by restoring a plan from the persistent disk tier.",
		func() uint64 { return s.cache.Stats().DiskHits })
	s.reg.NewCounterFunc("haccd_cache_disk_writes_total",
		"Compiled plans persisted to the disk tier.",
		func() uint64 { return s.cache.Stats().DiskWrites })
	s.reg.NewCounterFunc("haccd_cache_disk_discards_total",
		"Disk-tier entries rejected on load (corrupt, truncated, forged, or stale version) and deleted.",
		func() uint64 { return s.cache.Stats().DiskDiscards })
	s.reg.NewGaugeFunc("haccd_cache_entries", "Plans currently cached.", func() float64 { return float64(s.cache.Stats().Entries) })
	s.reg.NewGaugeFunc("haccd_cache_bytes", "Charged bytes currently cached.", func() float64 { return float64(s.cache.Stats().Bytes) })
	s.reg.NewGaugeFunc("haccd_cache_native_entries", "Cached plans currently served by the native tier.",
		func() float64 { return float64(s.cache.Stats().NativeEntries) })
	s.reg.NewGaugeFunc("haccd_inflight_requests", "Requests currently holding a concurrency slot.", func() float64 { return float64(len(s.sem)) })
	s.reg.NewGaugeFunc("haccd_queued_requests", "Requests currently waiting for a concurrency slot.",
		func() float64 { return float64(s.waiting.Load()) })
	s.tierStats = &metrics.TierStats{}
	s.reg.NewCounterFuncVec("haccd_tier_runs_total",
		"Evaluations of tier-enabled plans, by the tier that served them (plans compiled with tier off are not tallied).", "tier",
		func() map[string]uint64 {
			return map[string]uint64{
				string(core.TierThunked):     uint64(s.tierStats.ThunkedRuns.Load()),
				string(core.TierInterpreted): uint64(s.tierStats.InterpRuns.Load()),
				string(core.TierNative):      uint64(s.tierStats.NativeRuns.Load()),
			}
		})
	s.reg.NewCounterFunc("haccd_tier_promotions_total", "Successful interpreted-to-native tier promotions.",
		func() uint64 { return uint64(s.tierStats.Promotions.Load()) })
	s.reg.NewCounterFunc("haccd_tier_promote_failures_total", "Native builds that failed; the plan keeps serving interpreted.",
		func() uint64 { return uint64(s.tierStats.PromoteFailures.Load()) })
	s.reg.NewGaugeFunc("haccd_tier_promote_seconds_total", "Wall time spent in background native builds.",
		func() float64 { return float64(s.tierStats.PromoteNs.Load()) / 1e9 })
	s.streamRequests = s.reg.NewCounterVec("haccd_stream_requests_total",
		"/evalstream evaluations, by mode (streamed = chunked pipeline, fallback = materialized single chunk).", "mode")
	s.streamChunks = s.reg.NewCounter("haccd_stream_chunks_total",
		"Result chunks shipped by /evalstream responses.")
	s.streamPeakBytes = s.reg.NewHistogramM("haccd_stream_peak_bytes",
		"Peak resident bytes (inputs + windows + in-flight chunks) per streamed evaluation.",
		[]float64{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30})
	s.verifyStats = &metrics.VerifyStats{}
	s.reg.NewCounterFunc("haccd_idxprop_verified_total",
		"Runtime index-claim verifications that passed, admitting the unchecked parallel fast path.",
		func() uint64 { return uint64(s.verifyStats.Verified.Load()) })
	s.reg.NewCounterFunc("haccd_idxprop_verify_failures_total",
		"Runtime index-claim verifications that failed, routing execution to the checked sequential fallback.",
		func() uint64 { return uint64(s.verifyStats.Failed.Load()) })
	s.reg.NewGaugeFunc("haccd_idxprop_verify_seconds_total",
		"Wall time spent in interpreted runtime index-claim verification passes.",
		func() float64 { return float64(s.verifyStats.Nanos.Load()) / 1e9 })
	return s, nil
}

// CacheStats snapshots the plan cache counters (shutdown logging).
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Handler builds the routed, limited, timeout-wrapped handler chain.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/compile", s.instrument("compile", s.handleCompile))
	mux.Handle("/eval", s.instrument("eval", s.handleEval))
	mux.Handle("/evalbatch", s.instrument("evalbatch", s.handleEvalBatch))
	// The timeout wrapper bounds every response, including queueing
	// time spent waiting for a concurrency slot.
	wrapped := http.TimeoutHandler(mux, s.cfg.Timeout, `{"error":"request timed out"}`)
	// /evalstream bypasses the timeout wrapper: TimeoutHandler buffers
	// the whole response body, which would re-materialize exactly the
	// O(n) the chunked protocol exists to avoid. The admission limiter
	// and body cap still apply via instrument.
	outer := http.NewServeMux()
	outer.Handle("/evalstream", s.instrument("evalstream", s.handleEvalStream))
	outer.Handle("/", wrapped)
	return outer
}

// instrument wraps a JSON handler with admission control, the
// concurrency limiter, the body-size cap, and per-handler metrics.
//
// Admission is a bounded queue ahead of the limiter: up to QueueDepth
// requests may block waiting for a slot; past that watermark the
// server sheds immediately with 429 + Retry-After rather than building
// an unbounded convoy that times out wholesale. Shedding fast keeps
// the queue short enough that admitted requests still meet the
// deadline — the standard load-shedding argument.
func (s *Server) instrument(name string, fn func(w http.ResponseWriter, r *http.Request) (int, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.reqErrors.With(name).Inc()
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
			s.waiting.Add(-1)
			s.shedTotal.With(name).Inc()
			s.reqErrors.With(name).Inc()
			// Tell the client how long the backlog actually takes to
			// drain at the observed completion rate, not a flat guess: a
			// lightly-backed-up server invites a quick retry, a stalled
			// one backs clients off toward the request timeout.
			backlog := s.waiting.Load() + int64(len(s.sem))
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(backlog, s.drain.perSec(), s.cfg.Timeout)))
			httpError(w, http.StatusTooManyRequests, fmt.Errorf("server overloaded; retry later"))
			return
		}
		select {
		case s.sem <- struct{}{}:
			s.waiting.Add(-1)
			defer func() { <-s.sem; s.drain.complete() }()
		case <-r.Context().Done():
			s.waiting.Add(-1)
			s.reqErrors.With(name).Inc()
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server at concurrency limit"))
			return
		}
		t0 := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
		code, err := fn(w, r)
		s.reqSeconds.With(name).Observe(time.Since(t0).Seconds())
		s.reqTotal.With(name).Inc()
		if err != nil {
			s.reqErrors.With(name).Inc()
			httpError(w, code, err)
		}
	})
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// --- request/response shapes ---

// boundsJSON is one array's bounds: lo/hi per dimension.
type boundsJSON struct {
	Lo []int64 `json:"lo"`
	Hi []int64 `json:"hi"`
}

// optionsJSON mirrors the semantically relevant core.Options.
type optionsJSON struct {
	Parallel    bool                  `json:"parallel,omitempty"`
	Workers     int                   `json:"workers,omitempty"`
	Certify     bool                  `json:"certify,omitempty"`
	InputBounds map[string]boundsJSON `json:"input_bounds,omitempty"`
	// Tier is the execution-tier policy: "off", "auto", or "native".
	// Empty means "use the server default" (the -tier flag), which is
	// how a fleet operator turns tiering on without touching clients.
	Tier          string `json:"tier,omitempty"`
	TierThreshold int    `json:"tier_threshold,omitempty"`
	// TierSync makes auto promotion happen inline at the threshold
	// call instead of in the background — slower for that one request,
	// but deterministic; meant for tests and batch clients.
	TierSync bool `json:"tier_sync,omitempty"`
	// Stream requests the bounded-memory chunked execution engine;
	// /evalstream forces it on. Programs the window-legality analysis
	// rejects run materialized (the response says which happened).
	Stream bool `json:"stream,omitempty"`
}

func (o optionsJSON) coreOptions() (core.Options, error) {
	opts := core.Options{
		Parallel: o.Parallel,
		Workers:  o.Workers,
		Certify:  o.Certify,
		Stream:   o.Stream,
	}
	tier, err := core.ParseTierMode(o.Tier)
	if err != nil {
		return opts, err
	}
	opts.Tier = tier
	opts.TierThreshold = o.TierThreshold
	opts.TierSync = o.TierSync
	if len(o.InputBounds) > 0 {
		opts.InputBounds = map[string]analysis.ArrayBounds{}
		for name, b := range o.InputBounds {
			opts.InputBounds[name] = cache.InputBoundsOf(b.Lo, b.Hi)
		}
	}
	return opts, nil
}

// compileRequest is the body of POST /compile (and the compile part
// of POST /eval and /evalbatch).
type compileRequest struct {
	Source  string           `json:"source"`
	Params  map[string]int64 `json:"params"`
	Options optionsJSON      `json:"options"`
}

// arrayJSON carries an input or result array.
type arrayJSON struct {
	Lo   []int64   `json:"lo"`
	Hi   []int64   `json:"hi"`
	Data []float64 `json:"data"`
}

// evalContext is one evaluation's inputs: explicit arrays plus the
// seed used to fill the declared-but-unlisted ones.
type evalContext struct {
	Inputs map[string]arrayJSON `json:"inputs,omitempty"`
	Seed   int64                `json:"seed,omitempty"`
}

// evalRequest is the body of POST /eval. Inputs may be given
// explicitly; any input array declared in options.input_bounds but
// not listed is filled with deterministic pseudo-random data derived
// from Seed and the array name.
type evalRequest struct {
	compileRequest
	evalContext
}

// evalBatchRequest is the body of POST /evalbatch: one program, N
// evaluation contexts. The program compiles (or hits) once; the
// evaluations dispatch concurrently onto the warm worker pool.
type evalBatchRequest struct {
	compileRequest
	Evals []evalContext `json:"evals"`
}

// reportJSON is the compile-time record attached to the cached plan.
type reportJSON struct {
	PhasesNs map[string]int64  `json:"phases_ns"`
	Counters metrics.Counters  `json:"counters"`
	Modes    map[string]string `json:"modes"`
	Notes    []string          `json:"notes,omitempty"`
}

// compileResponse answers POST /compile. CompileNs and PhasesNs are
// the compile cost paid by THIS request: zero / absent on a cache
// hit. Cache is "miss" (compiled now), "hit" (memory), or "disk"
// (restored from the persistent tier — no compile phase ran, only the
// load phase reported in PhasesNs).
type compileResponse struct {
	Key       string           `json:"key"`
	Cache     string           `json:"cache"` // "hit" | "miss" | "disk"
	CompileNs int64            `json:"compile_ns"`
	PhasesNs  map[string]int64 `json:"phases_ns,omitempty"`
	Report    reportJSON       `json:"report"`
}

// evalResult is one evaluation's outcome inside /eval and /evalbatch
// responses. Tier reports which execution tier served THIS evaluation
// ("thunked", "interpreted", or "native") — under an auto policy it
// flips to native once the background build lands, so clients can
// watch a hot plan tier up across calls.
type evalResult struct {
	Result arrayJSON `json:"result"`
	EvalNs int64     `json:"eval_ns"`
	Tier   string    `json:"tier"`
}

// evalResponse answers POST /eval.
type evalResponse struct {
	compileResponse
	evalResult
}

// batchItem is one evaluation's slot in an /evalbatch response:
// either a result or an error, in request order.
type batchItem struct {
	evalResult
	Error string `json:"error,omitempty"`
}

// evalBatchResponse answers POST /evalbatch. The compile part is
// shared — it was paid (or skipped) once for the whole batch.
type evalBatchResponse struct {
	compileResponse
	Results []batchItem `json:"results"`
}

// --- handlers ---

// compileThrough serves the compile part of every endpoint: cache
// lookup with singleflight fill and a disk-tier fallthrough, recording
// phase metrics only when this request actually compiled or loaded.
func (s *Server) compileThrough(req compileRequest) (*cache.Entry, compileResponse, int, error) {
	if req.Source == "" {
		return nil, compileResponse{}, http.StatusBadRequest, fmt.Errorf("missing source")
	}
	opts, err := req.Options.coreOptions()
	if err != nil {
		return nil, compileResponse{}, http.StatusBadRequest, err
	}
	if req.Options.Tier == "" {
		// No per-request policy: apply the server default. This happens
		// before the cache key is computed, so a default-tier server
		// and an explicit-tier client share entries.
		opts.Tier = s.cfg.Tier
		opts.TierThreshold = s.cfg.TierThreshold
	}
	// The stats sinks are process-wide and deliberately not part of the
	// cache key.
	opts.TierStats = s.tierStats
	opts.VerifyStats = s.verifyStats
	entry, origin, err := s.cache.GetOrCompile(req.Source, req.Params, opts)
	if err != nil {
		return nil, compileResponse{}, http.StatusUnprocessableEntity, err
	}
	resp := compileResponse{Key: entry.Key, Report: reportOf(entry)}
	switch origin {
	case cache.OriginMemory:
		// Warm path: no compile phase ran for this request; record
		// nothing in the phase histograms and report zero cost.
		resp.Cache = "hit"
		return entry, resp, 0, nil
	case cache.OriginDisk:
		resp.Cache = "disk"
	default:
		resp.Cache = "miss"
	}
	// Cold (compiled) or disk-restored (paid only the load phase):
	// either way this request did the work its report describes.
	resp.CompileNs = entry.Report.Total().Nanoseconds()
	resp.PhasesNs = map[string]int64{}
	for ph, d := range entry.Report.Phases {
		resp.PhasesNs[ph] = d.Nanoseconds()
		s.phaseSeconds.With(ph).Observe(d.Seconds())
	}
	if origin == cache.OriginCompile {
		s.recordOptCounters(entry.Report.Counters)
	}
	return entry, resp, 0, nil
}

// recordOptCounters folds one compilation's optimization counters into
// the process-wide metric families.
func (s *Server) recordOptCounters(c metrics.Counters) {
	s.optTotal.With("collision_checks_elided").Add(uint64(c.CollisionChecksElided))
	s.optTotal.With("empties_checks_elided").Add(uint64(c.EmptiesChecksElided))
	s.optTotal.With("thunks_avoided").Add(uint64(c.ThunksAvoided))
	s.optTotal.With("thunked_defs").Add(uint64(c.ThunkedDefs))
	s.optTotal.With("loops_fused").Add(uint64(c.LoopsFused))
	for kind, n := range c.SchedulesByKind {
		s.schedTotal.With(kind).Add(uint64(n))
	}
}

func reportOf(e *cache.Entry) reportJSON {
	rj := reportJSON{
		PhasesNs: map[string]int64{},
		Counters: e.Report.Counters,
		Modes:    map[string]string{},
		Notes:    e.Program.Notes,
	}
	for ph, d := range e.Report.Phases {
		rj.PhasesNs[ph] = d.Nanoseconds()
	}
	for name, cd := range e.Program.Defs {
		rj.Modes[name] = cd.Mode()
	}
	return rj
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) (int, error) {
	var req compileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return decodeErrorStatus(err), fmt.Errorf("bad request body: %w", err)
	}
	if s.maybeProxy(w, r, req, &req) {
		return 0, nil
	}
	_, resp, code, err := s.compileThrough(req)
	if err != nil {
		return code, err
	}
	return 0, writeJSON(w, resp)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) (int, error) {
	var req evalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return decodeErrorStatus(err), fmt.Errorf("bad request body: %w", err)
	}
	if s.maybeProxy(w, r, req.compileRequest, &req) {
		return 0, nil
	}
	entry, cresp, code, err := s.compileThrough(req.compileRequest)
	if err != nil {
		return code, err
	}
	res, code, err := s.runOne(entry, req.Options, req.evalContext)
	if err != nil {
		return code, err
	}
	return 0, writeJSON(w, evalResponse{compileResponse: cresp, evalResult: *res})
}

// handleEvalBatch compiles once and dispatches every evaluation
// concurrently; the executor's warm worker pool and the scheduler
// spread them across cores. A per-item failure (bad input bounds,
// runtime check violation) fails that item, not the batch.
func (s *Server) handleEvalBatch(w http.ResponseWriter, r *http.Request) (int, error) {
	var req evalBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return decodeErrorStatus(err), fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Evals) == 0 {
		return http.StatusBadRequest, fmt.Errorf("missing evals")
	}
	if len(req.Evals) > s.cfg.MaxBatch {
		return http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(req.Evals), s.cfg.MaxBatch)
	}
	if s.maybeProxy(w, r, req.compileRequest, &req) {
		return 0, nil
	}
	entry, cresp, code, err := s.compileThrough(req.compileRequest)
	if err != nil {
		return code, err
	}
	s.batchSize.Observe(float64(len(req.Evals)))
	results := make([]batchItem, len(req.Evals))
	var wg sync.WaitGroup
	for i := range req.Evals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panicking evaluation fails its own slot, never the
			// batch (and never the process: an unrecovered panic in a
			// goroutine would take down the server with the admission
			// slot still held).
			defer func() {
				if r := recover(); r != nil {
					results[i].Error = fmt.Sprintf("panic: %v", r)
				}
			}()
			res, _, err := s.runOne(entry, req.Options, req.Evals[i])
			if err != nil {
				results[i].Error = err.Error()
				return
			}
			results[i].evalResult = *res
		}(i)
	}
	wg.Wait()
	return 0, writeJSON(w, evalBatchResponse{compileResponse: cresp, Results: results})
}

// runOne executes the cached program under one evaluation context.
// Malformed inputs are the client's fault (400); a failed run is an
// unprocessable program (422).
func (s *Server) runOne(entry *cache.Entry, opts optionsJSON, ec evalContext) (*evalResult, int, error) {
	inputs, err := buildInputs(opts, ec)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	t0 := time.Now()
	out, tier, err := entry.Program.RunTiered(inputs)
	evalNs := time.Since(t0)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	s.evalSeconds.Observe(evalNs.Seconds())
	return &evalResult{
		Result: arrayJSON{Lo: out.B.Lo, Hi: out.B.Hi, Data: out.Data},
		EvalNs: evalNs.Nanoseconds(),
		Tier:   string(tier),
	}, 0, nil
}

// buildInputs materializes one run's input arrays: explicit data
// first, then deterministic pseudo-random fill (seeded per array
// name) for every declared input without explicit data — the same
// convention as `hacc run -seed`.
func buildInputs(opts optionsJSON, ec evalContext) (map[string]*runtime.Strict, error) {
	inputs := map[string]*runtime.Strict{}
	for name, a := range ec.Inputs {
		b := runtime.Bounds{Lo: a.Lo, Hi: a.Hi}
		if got, want := int64(len(a.Data)), b.Size(); got != want {
			return nil, fmt.Errorf("input %q: %d data elements for bounds of size %d", name, got, want)
		}
		arr := runtime.NewStrict(b)
		copy(arr.Data, a.Data)
		inputs[name] = arr
	}
	for name, b := range opts.InputBounds {
		if _, ok := inputs[name]; ok {
			continue
		}
		arr := runtime.NewStrict(runtime.Bounds{Lo: b.Lo, Hi: b.Hi})
		rng := rand.New(rand.NewSource(ec.Seed ^ nameSeed(name)))
		for i := range arr.Data {
			arr.Data[i] = rng.Float64()
		}
		inputs[name] = arr
	}
	return inputs, nil
}

// nameSeed derives a per-array seed component so generated inputs are
// independent of map iteration order.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// decodeErrorStatus maps body-decode failures: an over-cap body
// surfaces as 413, everything else as 400.
func decodeErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// DebugLoad reports the instantaneous admission-queue length and
// in-flight request count. Test-only observability hook.
func (s *Server) DebugLoad() (waiting, inflight int64) {
	return s.waiting.Load(), int64(len(s.sem))
}
