package schedule

import (
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/lang"
	"arraycomp/internal/parser"
)

func analyzeSrc(t testing.TB, src string, env map[string]int64) *analysis.Result {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	def := prog.Defs[0]
	var bounds analysis.ArrayBounds
	if def.Kind == lang.BigUpd {
		if _, ok := env["m"]; ok {
			bounds = analysis.ArrayBounds{Lo: []int64{1, 1}, Hi: []int64{env["m"], env["n"]}}
		} else {
			bounds = analysis.ArrayBounds{Lo: []int64{1}, Hi: []int64{env["n"]}}
		}
	} else {
		bounds, err = analysis.EvalBounds(def, env)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := analysis.Analyze(def, env, bounds, nil, analysis.Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

func build(t *testing.T, src string, env map[string]int64) *Result {
	t.Helper()
	sched, err := Build(analyzeSrc(t, src, env), nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return sched
}

// loopDirs collects "var:direction" for every loop pass in order.
func loopDirs(r *Result) []string {
	var out []string
	var walk func(ns []*Node)
	walk = func(ns []*Node) {
		for _, n := range ns {
			if n.IsLoop() {
				out = append(out, n.Loop.Loop.Var+":"+n.Dir.String())
				walk(n.Body)
			}
		}
	}
	walk(r.Nodes)
	return out
}

func TestSquaresTrivialSchedule(t *testing.T) {
	r := build(t, `a = array (1,n) [ i := i*i | i <- [1..n] ]`, map[string]int64{"n": 10})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	if len(dirs) != 1 || dirs[0] != "i:forward" {
		t.Errorf("dirs = %v", dirs)
	}
	if r.LoopPasses != 1 {
		t.Errorf("passes = %d", r.LoopPasses)
	}
}

func TestForwardChain(t *testing.T) {
	// a!i needs a!(i-1): (<) edge forces forward.
	r := build(t, `a = array (1,n)
	  ([ 1 := 1.0 ] ++ [ i := a!(i-1) + 1.0 | i <- [2..n] ])`, map[string]int64{"n": 10})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	if len(dirs) != 1 || dirs[0] != "i:forward" {
		t.Errorf("dirs = %v", dirs)
	}
	// The border clause must come before the loop (a "()" ordering
	// edge feeds the first loop instance).
	if r.Nodes[0].IsLoop() || !r.Nodes[1].IsLoop() {
		t.Errorf("order wrong:\n%s", r.Dump())
	}
}

func TestBackwardChain(t *testing.T) {
	// a!i needs a!(i+1): (>) edge forces backward.
	r := build(t, `a = array (1,n)
	  ([ n := 1.0 ] ++ [ i := a!(i+1) + 1.0 | i <- [1..n-1] ])`, map[string]int64{"n": 10})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	if len(dirs) != 1 || dirs[0] != "i:backward" {
		t.Errorf("dirs = %v", dirs)
	}
}

// TestPaperExample1Schedule: clauses at 3i, 3i−1 (reads 3(i−1)), 3i−2
// (reads 3i): edges 1→2 (<), 1→3 (=). Forward loop; clause 1 before
// clause 3 within the instance; clause 2 anywhere.
func TestPaperExample1Schedule(t *testing.T) {
	r := build(t, `a = array (1,300)
	  [* [3*i := 1.0] ++
	     [3*i-1 := 0.5 * a!(3*(i-1))] ++
	     [3*i-2 := 0.5 * a!(3*i)]
	   | i <- [1..100] *]`, nil)
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	if len(dirs) != 1 || dirs[0] != "i:forward" {
		t.Errorf("dirs = %v", dirs)
	}
	// Within the single pass, clause0 must precede clause2.
	clauses := r.Clauses()
	pos := map[int]int{}
	for i, n := range clauses {
		pos[n.Clause.ID] = i
	}
	if pos[0] > pos[2] {
		t.Errorf("clause0 must precede clause2:\n%s", r.Dump())
	}
	if r.LoopPasses != 1 {
		t.Errorf("expected a single pass, got %d:\n%s", r.LoopPasses, r.Dump())
	}
}

// TestPaperExample2Schedule: the section 5 example 2 shape — inner
// loop forced backward by the (=,>) edge, outer loop forward by the
// (<,…) edges.
func TestPaperExample2Schedule(t *testing.T) {
	r := build(t, `param n, m;
	a = array ((1,0),(2*n, m+1))
	  [* ([* [ (2*i, j)   := a!(2*i-1, j+1) ] ++
	          [ (2*i-1, j) := a!(2*i-2, j+1) ]
	        | j <- [1..m] *]) ++
	     [ (2*i, 0) := a!(2*i-3, 1) ]
	   | i <- [1..n] *]`, map[string]int64{"n": 10, "m": 20})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	want := []string{"i:forward", "j:backward"}
	if strings.Join(dirs, ",") != strings.Join(want, ",") {
		t.Errorf("dirs = %v, want %v\n%s", dirs, want, r.Dump())
	}
}

// TestMixedDirectionPassScheduling reproduces section 8.1.2's acyclic
// example (experiment E4): edges A→B(<), B→C(>), A→C(=). Three
// single-clause "vertices" must be scheduled in at most 2 passes
// (paper: "3 different schedules that can collapse the 3 loops into 2
// loops").
func TestMixedDirectionPassScheduling(t *testing.T) {
	// A writes band 1..n; B band n+1..2n reads A at earlier i (<);
	// C band 2n+1..3n reads B at later i (>) and A at same i (=).
	r := build(t, `param n;
	a = array (1,3*n)
	  [* [ i := 1.0 ] ++
	     [ n + i := a!(i-1) ] ++
	     [ 2*n + i := a!(n+i+1) + a!i ]
	   | i <- [2..n-1] *]`, map[string]int64{"n": 20})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	if r.LoopPasses != 2 {
		t.Errorf("passes = %d, want 2 (A and B collapse into the first pass)\n%s", r.LoopPasses, r.Dump())
	}
}

// TestUnschedulableCycleFallsBackToThunks reproduces section 8.1.2's
// cyclic example (experiment E5): A→B(<) and B→A(>) — no loop
// direction and no splitting satisfies both, so the compiler must fall
// back to thunks.
func TestUnschedulableCycleFallsBackToThunks(t *testing.T) {
	// A (band 1..n) reads B at later i; B (band n+1..2n) reads A at
	// earlier i... A→B(<): A's write at earlier i feeds B; B→A(>): B's
	// write at later i feeds A.
	r := build(t, `param n;
	a = array (1,2*n)
	  [* [ i := a!(n+i+1) ] ++
	     [ n + i := a!(i-1) ]
	   | i <- [2..n-1] *]`, map[string]int64{"n": 20})
	if !r.Thunked {
		t.Fatalf("expected thunk fallback, got schedule:\n%s", r.Dump())
	}
	if !strings.Contains(r.Reason, "(<) and (>)") {
		t.Errorf("reason = %q", r.Reason)
	}
}

func TestLoopIndependentCycleFallsBack(t *testing.T) {
	// Two clauses feeding each other in the same instance: (=) cycle.
	r := build(t, `param n;
	a = array (1,2*n)
	  [* [ i := a!(n+i) ] ++
	     [ n + i := a!i ]
	   | i <- [1..n] *]`, map[string]int64{"n": 10})
	if !r.Thunked {
		t.Fatalf("expected thunk fallback:\n%s", r.Dump())
	}
	if !strings.Contains(r.Reason, "(=)") {
		t.Errorf("reason = %q", r.Reason)
	}
}

func TestSelfDependentElementFallsBack(t *testing.T) {
	r := build(t, `a = array (1,n) [ i := a!i + 1.0 | i <- [1..n] ]`, map[string]int64{"n": 5})
	if !r.Thunked {
		t.Fatal("self-dependent element must defeat thunkless compilation")
	}
}

func TestWavefrontSchedule(t *testing.T) {
	r := build(t, `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
	     | i <- [2..n], j <- [2..n] ])`, map[string]int64{"n": 16})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	// Border loops (either direction, scheduled forward by default),
	// then the recurrence nest forward-forward.
	want := "j:forward,i:forward,i:forward,j:forward"
	if strings.Join(dirs, ",") != want {
		t.Errorf("dirs = %v\n%s", dirs, r.Dump())
	}
	// Borders must precede the recurrence loop nest.
	if !strings.Contains(r.Dump(), "clause2") {
		t.Fatalf("dump:\n%s", r.Dump())
	}
	last := r.Nodes[len(r.Nodes)-1]
	if !last.IsLoop() || last.Loop.Loop.Var != "i" {
		t.Errorf("recurrence nest must come last:\n%s", r.Dump())
	}
}

func TestInnerBackwardOuterForward(t *testing.T) {
	// Write (i,j) reading (i, j+1) and (i-1, j): inner backward,
	// outer forward.
	r := build(t, `param n, m;
	a = array ((1,1),(n,m))
	  [* [ (i,j) := (if j == m then 1.0 else a!(i,j+1)) +
	                (if i == 1 then 0.0 else a!(i-1,j)) ]
	   | i <- [1..n], j <- [1..m] *]`, map[string]int64{"n": 8, "m": 9})
	if r.Thunked {
		t.Fatalf("thunked: %s", r.Reason)
	}
	dirs := loopDirs(r)
	want := []string{"i:forward", "j:backward"}
	if strings.Join(dirs, ",") != strings.Join(want, ",") {
		t.Errorf("dirs = %v, want %v", dirs, want)
	}
}

func TestBigupdSORInPlaceSchedule(t *testing.T) {
	// Gauss-Seidel/SOR (experiment E10): anti edges (<,=),(=,<) —
	// wait, the reads of already-overwritten neighbours produce
	// (>,=),(=,>) anti edges whose sources must run before sinks:
	// source is the read. Scheduling anti+flow together must find
	// forward/forward with no fallback.
	r := build(t, `param n;
	a2 = bigupd a
	  [* [ (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) ]
	   | i <- [2..n-1], j <- [2..n-1] *]`, map[string]int64{"m": 12, "n": 12})
	// The four self anti edges include (>,=) and (=,>) (reads of
	// north/west elements overwritten earlier) — those conflict with
	// (<,=)/(=,<), so pure scheduling must fall back; node splitting
	// (codegen) handles it. What matters here: the fallback reason
	// names the (<)/(>) cycle.
	if !r.Thunked {
		t.Logf("schedule:\n%s", r.Dump())
		t.Fatal("jacobi-style bigupd has conflicting anti directions; expected fallback before node splitting")
	}
}

func TestBigupdTriangularInPlace(t *testing.T) {
	// Prefix scaling reading only the already-final element itself:
	// a2!(i) = 2 * a!(i) — self anti edge (=) only; trivially in place.
	r := build(t, `param n;
	a2 = bigupd a [ i := 2.0 * a!i | i <- [1..n] ]`, map[string]int64{"n": 10})
	if r.Thunked {
		t.Fatalf("scaling must schedule in place: %s", r.Reason)
	}
	dirs := loopDirs(r)
	if len(dirs) != 1 {
		t.Errorf("dirs = %v", dirs)
	}
}

func TestBigupdShiftDirection(t *testing.T) {
	// a2!i = a!(i-1): the read of the element one to the left must
	// happen before that element is overwritten: anti edge (read i-1
	// instance x; write instance y=x... source read at instance x
	// reads element x-1, written by instance x-1: source must precede
	// sink ⇒ (>) anti edge ⇒ backward loop. Classic shift-in-place.
	r := build(t, `param n;
	a2 = bigupd a [ i := a!(i-1) | i <- [2..n] ]`, map[string]int64{"n": 10})
	if r.Thunked {
		t.Fatalf("shift must schedule: %s", r.Reason)
	}
	dirs := loopDirs(r)
	if len(dirs) != 1 || dirs[0] != "i:backward" {
		t.Errorf("dirs = %v, want [i:backward]", dirs)
	}
}

func TestScheduleKeepPredicate(t *testing.T) {
	res := analyzeSrc(t, `param n;
	a2 = bigupd a
	  [* [ (i,j) := 0.25 * (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) ]
	   | i <- [2..n-1], j <- [2..n-1] *]`, map[string]int64{"m": 12, "n": 12})
	// Dropping anti edges entirely (node splitting handles them) must
	// leave a schedulable graph.
	r, err := Build(res, KeepFlowOutput)
	if err != nil {
		t.Fatal(err)
	}
	if r.Thunked {
		t.Fatalf("without anti edges the update is trivially schedulable: %s", r.Reason)
	}
}

func TestDumpAndClauses(t *testing.T) {
	r := build(t, `a = array (1,n) [ i := i*i | i <- [1..n] ]`, map[string]int64{"n": 4})
	d := r.Dump()
	// No dependences at all: the loop is both forward and parallel.
	if !strings.Contains(d, "do i forward parallel [1..4 step 1]") || !strings.Contains(d, "clause0") {
		t.Errorf("dump:\n%s", d)
	}
	if len(r.Clauses()) != 1 {
		t.Error("Clauses() wrong")
	}
	thunked := &Result{Thunked: true, Reason: "because"}
	if !strings.Contains(thunked.Dump(), "thunked: because") {
		t.Error("thunked dump wrong")
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("direction strings wrong")
	}
}

// TestParallelMarks: loops with carried dependences must not be marked
// parallel; dependence-free loops must be.
func TestParallelMarks(t *testing.T) {
	// Recurrence: the (<) self edge is carried — not parallel.
	r := build(t, `a = array (1,n)
	  ([ 1 := 1.0 ] ++ [ i := a!(i-1) + 1.0 | i <- [2..n] ])`, map[string]int64{"n": 10})
	for _, n := range r.Nodes {
		if n.IsLoop() && n.Parallel {
			t.Errorf("carried loop marked parallel:\n%s", r.Dump())
		}
	}
	// Wavefront: the border loops are dependence-free (parallel), the
	// recurrence nest is not.
	w := build(t, `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) | i <- [2..n], j <- [2..n] ])`,
		map[string]int64{"n": 8})
	var borderParallel, nestParallel int
	var walk func(ns []*Node, depth int)
	walk = func(ns []*Node, depth int) {
		for _, n := range ns {
			if !n.IsLoop() {
				continue
			}
			leaf := len(n.Body) == 1 && !n.Body[0].IsLoop()
			if depth == 0 && leaf && n.Parallel {
				borderParallel++
			}
			if !leaf || depth > 0 {
				if n.Parallel {
					nestParallel++
				}
			}
			walk(n.Body, depth+1)
		}
	}
	walk(w.Nodes, 0)
	if borderParallel != 2 {
		t.Errorf("border loops parallel = %d, want 2\n%s", borderParallel, w.Dump())
	}
	if nestParallel != 0 {
		t.Errorf("recurrence nest wrongly parallel (%d loops)\n%s", nestParallel, w.Dump())
	}
}
