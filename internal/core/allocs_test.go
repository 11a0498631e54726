package core

import (
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/runtime"
)

// The steady-state allocation budgets of a Run and of a RunStream. A
// run allocates its frame, its result and the result map; scratch
// strips and worker frames come from per-program pools, so repeated
// runs must not allocate more than this.
const (
	runAllocBudget    = 8
	streamAllocBudget = 31
)

// allocInput returns x over 1..n and its bounds.
func allocInput(n int64) (map[string]*runtime.Strict, map[string]analysis.ArrayBounds) {
	x := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := range x.Data {
		x.Data[i] = float64(i) / 7
	}
	return map[string]*runtime.Strict{"x": x}, map[string]analysis.ArrayBounds{"x": {Lo: x.B.Lo, Hi: x.B.Hi}}
}

// TestSteadyRunAllocs: a served 1-D map at n=160 (haccd's most popular
// program shape) allocates within its budget per Run, and so do an
// accumulating body, whose strip kernel needs a scratch strip, and a
// recurrence, whose strip kernel runs a carried spine.
func TestSteadyRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	in, b := allocInput(160)
	for _, src := range []string{
		"a = array (1,n) [ i := x!i * 0.5 + 0.25 | i <- [1..n] ]",
		"a = accumArray (+) 1.0 (1,n) [ i := x!i * 0.5 + 0.25 | i <- [1..n] ]",
		"a = array (1,n) ([ 1 := x!1 ] ++ [ i := 0.75 * a!(i-1) + x!i | i <- [2..n] ])",
	} {
		p, err := Compile(src, map[string]int64{"n": 160}, Options{Parallel: true, Workers: 2, InputBounds: b})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(in); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.Run(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > runAllocBudget {
			t.Errorf("%s: Run allocates %.0f times, budget %d", src, allocs, runAllocBudget)
		}
	}
}

// TestSteadyStreamAllocs: a second RunStream of a small map, smoothing
// and recurrence chain allocates within its budget, at one chunk and at
// sixteen: a pass runs one worker cohort whatever its step count, so
// its allocations do not grow with the steps.
func TestSteadyStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	src := `letrec* a = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ];
  b = array (1,n) ([ 1 := a!1 ] ++ [ i := (a!(i-1) + a!i + a!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := a!n ]);
  c = array (1,n) ([ 1 := b!1 ] ++ [ i := c!(i-1) * 0.75 + b!i * 0.25 | i <- [2..n] ])
in c`
	for _, n := range []int64{160, 1 << 16} {
		in, b := allocInput(n)
		p, err := Compile(src, map[string]int64{"n": n}, Options{Parallel: true, Workers: 2, InputBounds: b, Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		if !p.StreamActive() {
			t.Fatalf("n=%d: the chain did not stream: %s", n, p.StreamFallback())
		}
		emit := func(int64, []float64) error { return nil }
		if _, err := p.RunStream(in, emit); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.RunStream(in, emit); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > streamAllocBudget {
			t.Errorf("n=%d: RunStream allocates %.0f times, budget %d", n, allocs, streamAllocBudget)
		}
	}
}
