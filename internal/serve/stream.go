// /evalstream: chunked evaluation over the bounded-memory streaming
// engine, plus the drain-rate estimator behind Retry-After.
//
// The response is NDJSON: one header line (cache/provenance and
// whether the pipeline engaged), then result chunks in position order,
// then one trailer line with the run accounting. A program the window
// analysis rejects still answers — materialized, as a single chunk —
// so clients need no fallback logic of their own; the header's
// "streamed" field says which engine served them.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// streamHeaderJSON is the first NDJSON line of an /evalstream response.
type streamHeaderJSON struct {
	Key   string `json:"key"`
	Cache string `json:"cache"` // "hit" | "miss" | "disk"
	// Streamed: the chunked pipeline engaged. False means the window
	// analysis rejected the program and the result arrives as one
	// materialized chunk; Fallback carries the reason.
	Streamed bool   `json:"streamed"`
	Fallback string `json:"fallback,omitempty"`
	Lo       int64  `json:"lo"`
	Hi       int64  `json:"hi"`
}

// streamChunkJSON is one result chunk: Data holds the elements at
// positions Lo..Lo+len(Data)-1. Chunks arrive in position order and
// concatenate to the full result.
type streamChunkJSON struct {
	Lo   int64     `json:"lo"`
	Data []float64 `json:"data"`
}

// streamTrailerJSON is the last NDJSON line.
type streamTrailerJSON struct {
	Done   bool   `json:"done"`
	EvalNs int64  `json:"eval_ns"`
	Chunks int64  `json:"chunks"`
	Tier   string `json:"tier"`
	// PeakBytes / MaterializedBytes are the accounting of a streamed
	// run: what the pipeline held live (resident inputs plus every
	// stage window, a closed form) vs what the materialized store would
	// have held. Zero on fallback runs.
	PeakBytes         int64 `json:"peak_bytes,omitempty"`
	MaterializedBytes int64 `json:"materialized_bytes,omitempty"`
}

// streamErrorJSON reports a failure after the header has been sent
// (the status line is already on the wire, so mid-stream errors are
// in-band).
type streamErrorJSON struct {
	Error string `json:"error"`
}

// handleEvalStream is POST /evalstream: the /eval request shape,
// answered as NDJSON chunks. Options.Stream is forced on — it is part
// of the cache key, so streaming entries never collide with
// materialized ones.
func (s *Server) handleEvalStream(w http.ResponseWriter, r *http.Request) (int, error) {
	var req evalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return decodeErrorStatus(err), fmt.Errorf("bad request body: %w", err)
	}
	req.Options.Stream = true
	if s.maybeProxy(w, r, req.compileRequest, &req) {
		return 0, nil
	}
	entry, cresp, code, err := s.compileThrough(req.compileRequest)
	if err != nil {
		return code, err
	}
	inputs, err := buildInputs(req.Options, req.evalContext)
	if err != nil {
		return http.StatusBadRequest, err
	}

	prog := entry.Program
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")

	if !prog.StreamActive() {
		// Materialized fallback: one chunk, same protocol.
		s.streamRequests.With("fallback").Inc()
		t0 := time.Now()
		out, tier, err := prog.RunTiered(inputs)
		evalNs := time.Since(t0)
		if err != nil {
			return http.StatusUnprocessableEntity, err
		}
		s.evalSeconds.Observe(evalNs.Seconds())
		hdr := streamHeaderJSON{
			Key: cresp.Key, Cache: cresp.Cache,
			Streamed: false, Fallback: prog.StreamFallback(),
			Lo: out.B.Lo[0], Hi: out.B.Hi[0],
		}
		if err := enc.Encode(hdr); err != nil {
			return 0, nil // client went away
		}
		enc.Encode(streamChunkJSON{Lo: out.B.Lo[0], Data: out.Data})
		s.streamChunks.Inc()
		enc.Encode(streamTrailerJSON{Done: true, EvalNs: evalNs.Nanoseconds(), Chunks: 1, Tier: string(tier)})
		flush()
		return 0, nil
	}

	s.streamRequests.With("streamed").Inc()
	resLo, resHi, _ := prog.StreamBounds()
	t0 := time.Now()
	var chunks int64
	var sentHeader bool
	rep, runErr := prog.RunStream(inputs, func(lo int64, data []float64) error {
		if !sentHeader {
			// Emit the header lazily so a pre-first-chunk failure can
			// still use the HTTP status code.
			sentHeader = true
			hdr := streamHeaderJSON{Key: cresp.Key, Cache: cresp.Cache, Streamed: true, Lo: resLo, Hi: resHi}
			if err := enc.Encode(hdr); err != nil {
				return err
			}
		}
		if err := enc.Encode(streamChunkJSON{Lo: lo, Data: data}); err != nil {
			return err
		}
		chunks++
		s.streamChunks.Inc()
		flush()
		return nil
	})
	evalNs := time.Since(t0)
	if runErr != nil {
		if !sentHeader {
			return http.StatusUnprocessableEntity, runErr
		}
		enc.Encode(streamErrorJSON{Error: runErr.Error()})
		flush()
		return 0, nil
	}
	s.evalSeconds.Observe(evalNs.Seconds())
	s.streamPeakBytes.Observe(float64(rep.PeakBytes))
	enc.Encode(streamTrailerJSON{
		Done: true, EvalNs: evalNs.Nanoseconds(), Chunks: chunks, Tier: "stream",
		PeakBytes: rep.PeakBytes, MaterializedBytes: rep.MaterializedBytes,
	})
	flush()
	return 0, nil
}

// --- Retry-After derivation (admission control) ---

// drainMeter estimates the server's completion rate (requests
// finishing per second) over a short sliding window. It exists so a
// shed's Retry-After reflects how fast the backlog actually drains
// instead of a flat constant.
type drainMeter struct {
	mu        sync.Mutex
	completed int64 // total completions, monotonic
	winStart  time.Time
	winBase   int64   // completed at winStart
	rate      float64 // requests/second over the last closed window
}

// drainWindow is the minimum window length before the rate estimate
// rolls over. Short enough to track a load spike, long enough that a
// couple of fast requests don't read as sustained throughput.
const drainWindow = 250 * time.Millisecond

func (m *drainMeter) complete() {
	now := time.Now()
	m.mu.Lock()
	m.completed++
	switch {
	case m.winStart.IsZero():
		m.winStart, m.winBase = now, m.completed-1
	default:
		if el := now.Sub(m.winStart); el >= drainWindow {
			m.rate = float64(m.completed-m.winBase) / el.Seconds()
			m.winStart, m.winBase = now, m.completed
		}
	}
	m.mu.Unlock()
}

// perSec returns the current drain-rate estimate. A stale window
// (nothing completing) decays the estimate: the longer the silence,
// the lower the believable rate.
func (m *drainMeter) perSec() float64 {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.winStart.IsZero() {
		if el := now.Sub(m.winStart); el >= drainWindow {
			if cur := float64(m.completed-m.winBase) / el.Seconds(); cur < m.rate {
				m.rate = cur
			}
		}
	}
	return m.rate
}

// retryAfterSecs converts the shed-time backlog (queued + in-flight
// requests) and the observed drain rate into a Retry-After value: the
// estimated seconds until the backlog has drained, clamped to
// [1, ceil(timeout)]. A zero or unknown rate means the server cannot
// promise progress, so the client backs off the full request timeout.
func retryAfterSecs(backlog int64, perSec float64, timeout time.Duration) int {
	ceil := int(math.Ceil(timeout.Seconds()))
	if ceil < 1 {
		ceil = 1
	}
	if perSec <= 0 {
		return ceil
	}
	secs := int(math.Ceil(float64(backlog) / perSec))
	if secs < 1 {
		return 1
	}
	if secs > ceil {
		return ceil
	}
	return secs
}
