package core

import (
	"testing"

	"arraycomp/internal/metrics"
)

const statsWavefrontSrc = `a = array ((1,1),(n,n))
  ([ (1,j) := 1.0 | j <- [1..n] ] ++
   [ (i,1) := 1.0 | i <- [2..n] ] ++
   [ (i,j) := a!(i-1,j) + a!(i,j-1) | i <- [2..n], j <- [2..n] ])`

// Every Compile must attach a compile report with phase timings and
// the optimization counters the analyses earned.
func TestCompileRecordsStats(t *testing.T) {
	p := compile(t, statsWavefrontSrc, map[string]int64{"n": 32}, Options{})
	if p.Stats == nil {
		t.Fatal("Program.Stats is nil")
	}
	c := p.Stats.Counters
	if c.ThunksAvoided != 1 || c.ThunkedDefs != 0 {
		t.Errorf("thunks avoided=%d thunked=%d, want 1/0", c.ThunksAvoided, c.ThunkedDefs)
	}
	// Three clauses, all provably collision-free, empties excluded.
	if c.CollisionChecksElided != 3 {
		t.Errorf("collision checks elided = %d, want 3", c.CollisionChecksElided)
	}
	if c.EmptiesChecksElided != 1 {
		t.Errorf("empties checks elided = %d, want 1", c.EmptiesChecksElided)
	}
	if len(c.SchedulesByKind) == 0 || c.SchedulesByKind["sequential"] == 0 {
		t.Errorf("schedules by kind = %v, want sequential loops counted", c.SchedulesByKind)
	}
	// Phase timings: parse/analyze/plan/lower all ran.
	for _, ph := range []string{metrics.PhaseParse, metrics.PhaseAnalyze, metrics.PhasePlan, metrics.PhaseLower} {
		if p.Stats.Phases[ph] <= 0 {
			t.Errorf("phase %s has zero recorded time", ph)
		}
	}
}

// The thunked baseline records thunked defs and no elision credit.
func TestCompileStatsThunked(t *testing.T) {
	p := compile(t, statsWavefrontSrc, map[string]int64{"n": 8}, Options{ForceThunked: true})
	c := p.Stats.Counters
	if c.ThunkedDefs != 1 || c.ThunksAvoided != 0 {
		t.Errorf("thunked=%d avoided=%d, want 1/0", c.ThunkedDefs, c.ThunksAvoided)
	}
}

// Parallel compilation records the doacross schedule kinds the planner
// chose (wavefront tiles for the §3 recurrence at a forced worker
// count).
func TestCompileStatsParallelSchedules(t *testing.T) {
	p := compile(t, statsWavefrontSrc, map[string]int64{"n": 384}, Options{Parallel: true, Workers: 2})
	kinds := p.Stats.Counters.SchedulesByKind
	if kinds["wavefront"] == 0 {
		t.Errorf("schedules by kind = %v, want a wavefront schedule", kinds)
	}
}
