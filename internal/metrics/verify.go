package metrics

import (
	"sync/atomic"
	"time"
)

// VerifyStats counts runtime index-array property verifications — the
// one-pass O(n) checks (idxprop.Verify) that guard claim-conditional
// parallel plans. A verification that passes routes execution to the
// claim-assuming fast branch; a failure routes it to the fully checked
// sequential branch. The counters are atomic: compiled programs are
// shared across concurrent callers.
type VerifyStats struct {
	// Verified counts passes (fast branch taken).
	Verified atomic.Int64
	// Failed counts failures (checked fallback taken).
	Failed atomic.Int64
	// Nanos is the cumulative time the timed passes took. The
	// interpreter times each pass; the native tier reports verdicts
	// only (AddN), so its passes add no time.
	Nanos atomic.Int64
}

// Record tallies one verdict and the time its pass took.
func (s *VerifyStats) Record(ok bool, took time.Duration) {
	if ok {
		s.Verified.Add(1)
	} else {
		s.Failed.Add(1)
	}
	s.Nanos.Add(int64(took))
}

// AddN tallies n verdicts of one kind at once — the bulk entry point
// for tiers that batch their verdict reporting (the native tier reads
// counter deltas after each run instead of hooking every check).
func (s *VerifyStats) AddN(ok bool, n int64) {
	if n <= 0 {
		return
	}
	if ok {
		s.Verified.Add(n)
	} else {
		s.Failed.Add(n)
	}
}

// VerifySnapshot is a point-in-time copy for reports.
type VerifySnapshot struct {
	Verified int64 `json:"verified"`
	Failed   int64 `json:"failed"`
}

// Snapshot reads the counters.
func (s *VerifyStats) Snapshot() VerifySnapshot {
	return VerifySnapshot{Verified: s.Verified.Load(), Failed: s.Failed.Load()}
}
