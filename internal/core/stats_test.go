package core

import (
	"testing"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/metrics"
	"arraycomp/internal/workloads"
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

// TestCompilePhasesDisjoint: certifiers that run inside the analysis
// loop, or inside a stream's planning, charge the certify phase alone,
// so a certified compile's phases sum to no more than the wall time
// around Compile.
func TestCompilePhasesDisjoint(t *testing.T) {
	const n = 64
	lo, hi := workloads.MatrixBounds(n)
	in := map[string]analysis.ArrayBounds{}
	for _, name := range []string{"za", "zr", "zb", "zu", "zv"} {
		in[name] = analysis.ArrayBounds{Lo: lo, Hi: hi}
	}
	_, chainIn := allocInput(160)
	chain := `letrec* a = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ];
  b = array (1,n) ([ 1 := a!1 ] ++ [ i := (a!(i-1) + a!i + a!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := a!n ]);
  c = array (1,n) ([ 1 := b!1 ] ++ [ i := c!(i-1) * 0.75 + b!i * 0.25 | i <- [2..n] ])
in c`
	for _, c := range []struct {
		name, src string
		n         int64
		opts      Options
	}{
		{"l23", workloads.Livermore23Src, n, Options{Certify: true, Parallel: true, Workers: 2, InputBounds: in}},
		{"stream", chain, 160, Options{Certify: true, Parallel: true, Workers: 2, InputBounds: chainIn, Stream: true}},
	} {
		t0 := time.Now()
		p, err := Compile(c.src, map[string]int64{"n": c.n}, c.opts)
		wall := time.Since(t0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.opts.Stream && !p.StreamActive() {
			t.Fatalf("%s: did not stream: %s", c.name, p.StreamFallback())
		}
		if p.Stats.Phases[metrics.PhaseCertify] == 0 {
			t.Fatalf("%s: certified compile recorded no certify time", c.name)
		}
		if sum := p.Stats.Total(); sum > wall {
			t.Fatalf("%s: phases sum to %v, more than the %v compile: %v", c.name, sum, wall, p.Stats.Phases)
		}
	}
}
