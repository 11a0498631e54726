package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

func compile(t *testing.T, src string, params map[string]int64, opts Options) *Program {
	t.Helper()
	p, err := Compile(src, params, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// runBoth compiles the program twice — normally and with the thunked
// baseline forced — runs both on the same inputs, and checks the
// results agree. Returns the compiled result.
func runBoth(t *testing.T, src string, params map[string]int64, opts Options, inputs map[string]*runtime.Strict) *runtime.Strict {
	t.Helper()
	p := compile(t, src, params, opts)
	got, err := p.Run(inputs)
	if err != nil {
		t.Fatalf("compiled run: %v\n%s", err, p.Report())
	}
	optsT := opts
	optsT.ForceThunked = true
	pt := compile(t, src, params, optsT)
	want, err := pt.Run(inputs)
	if err != nil {
		t.Fatalf("thunked run: %v", err)
	}
	if !got.EqualWithin(want, 1e-9) {
		t.Fatalf("compiled and thunked results differ\nreport:\n%s", p.Report())
	}
	return got
}

func TestSquaresEndToEnd(t *testing.T) {
	src := `sq = array (1,n) [ i := i*i | i <- [1..n] ]`
	p := compile(t, src, map[string]int64{"n": 10}, Options{})
	cd := p.Defs["sq"]
	if cd.Mode() != "thunkless" {
		t.Errorf("mode = %s", cd.Mode())
	}
	if c := cd.Plan.Checks; c.CollisionChecks+c.DefinedChecks+c.EmptiesSweeps+c.BoundsChecks != 0 {
		t.Errorf("squares must compile with zero runtime checks: %+v", c)
	}
	out := runBoth(t, src, map[string]int64{"n": 10}, Options{}, nil)
	for i := int64(1); i <= 10; i++ {
		if out.At(i) != float64(i*i) {
			t.Errorf("sq[%d] = %v", i, out.At(i))
		}
	}
}

func TestWavefrontEndToEnd(t *testing.T) {
	src := `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
	     | i <- [2..n], j <- [2..n] ])`
	params := map[string]int64{"n": 12}
	p := compile(t, src, params, Options{})
	if p.Defs["a"].Mode() != "thunkless" {
		t.Fatalf("wavefront must compile thunklessly:\n%s", p.Report())
	}
	if c := p.Defs["a"].Plan.Checks; c.CollisionChecks+c.DefinedChecks+c.EmptiesSweeps != 0 {
		t.Errorf("wavefront checks not elided: %+v", c)
	}
	out := runBoth(t, src, params, Options{}, nil)
	// Spot value: a(3,3) of this recurrence is 13 (Delannoy numbers).
	if out.At(3, 3) != 13 {
		t.Errorf("a(3,3) = %v, want 13", out.At(3, 3))
	}
}

func TestPaperExample1EndToEnd(t *testing.T) {
	// Runnable variant of section 5 example 1 (guarded first instance).
	src := `a = array (1,3*n)
	  [* [3*i := 2.0] ++
	     [3*i-1 := if i == 1 then 1.0 else 0.5 * a!(3*(i-1))] ++
	     [3*i-2 := 0.5 * a!(3*i)]
	   | i <- [1..n] *]`
	params := map[string]int64{"n": 100}
	p := compile(t, src, params, Options{})
	if p.Defs["a"].Mode() != "thunkless" {
		t.Fatalf("example 1 must compile thunklessly:\n%s", p.Report())
	}
	out := runBoth(t, src, params, Options{}, nil)
	// a!(3i) = 2; a!(3i−1) = 0.5·a!(3(i−1)) = 1 for i > 1; a!(3i−2) = 1.
	if out.At(6) != 2 || out.At(5) != 1 || out.At(4) != 1 {
		t.Errorf("values: %v %v %v", out.At(6), out.At(5), out.At(4))
	}
}

func TestBackwardRecurrenceEndToEnd(t *testing.T) {
	src := `a = array (1,n)
	  ([ n := 1.0 ] ++ [ i := 2.0 * a!(i+1) | i <- [1..n-1] ])`
	params := map[string]int64{"n": 20}
	out := runBoth(t, src, params, Options{}, nil)
	if out.At(1) != math.Pow(2, 19) {
		t.Errorf("a(1) = %v", out.At(1))
	}
}

func TestGuardedEvensOddsRuntimeChecks(t *testing.T) {
	// Guards hide the even/odd split from the permutation proof, so
	// collision checks and an empties sweep are compiled — and pass.
	src := `a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], i mod 2 == 0 ] ++
	   [ i := 2.0 | i <- [1..n], i mod 2 == 1 ])`
	params := map[string]int64{"n": 9}
	p := compile(t, src, params, Options{})
	cd := p.Defs["a"]
	if cd.Plan == nil {
		t.Fatalf("must compile (no self reads):\n%s", p.Report())
	}
	if cd.Plan.Checks.CollisionChecks == 0 || cd.Plan.Checks.EmptiesSweeps == 0 {
		t.Errorf("guarded program must carry runtime checks: %+v", cd.Plan.Checks)
	}
	out := runBoth(t, src, params, Options{}, nil)
	if out.At(4) != 1 || out.At(5) != 2 {
		t.Errorf("values: %v %v", out.At(4), out.At(5))
	}
}

func TestDefiniteCollisionIsCompileError(t *testing.T) {
	src := `a = array (1,n) ([ 1 := 1.0 ] ++ [ 1 := 2.0 ] ++ [ i := 0.0 | i <- [2..n] ])`
	if _, err := Compile(src, map[string]int64{"n": 5}, Options{}); err == nil {
		t.Fatal("definite write collision must fail compilation")
	}
}

func TestRuntimeCollisionDetected(t *testing.T) {
	// Non-affine writes: analysis says Maybe, runtime check fires.
	src := `a = array (1,n) [ i mod 3 + 1 := 1.0 | i <- [1..n] ]`
	p := compile(t, src, map[string]int64{"n": 6}, Options{})
	if _, err := p.Run(nil); err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("want runtime collision error, got %v", err)
	}
}

func TestRuntimeEmptiesDetected(t *testing.T) {
	src := `a = array (1,n) [ i := 1.0 | i <- [1..n], i mod 2 == 0 ]`
	p := compile(t, src, map[string]int64{"n": 6}, Options{})
	if _, err := p.Run(nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("want runtime empties error, got %v", err)
	}
}

func TestSelfBottomRuntimeError(t *testing.T) {
	src := `a = array (1,n) [ i := a!i + 1.0 | i <- [1..n] ]`
	p := compile(t, src, map[string]int64{"n": 4}, Options{})
	if p.Defs["a"].Mode() != "thunked" {
		t.Fatalf("self-dependent array must fall back to thunks")
	}
	if _, err := p.Run(nil); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("want black-hole error, got %v", err)
	}
}

func TestUnschedulableCycleRunsThunked(t *testing.T) {
	// Section 8.1.2's cycle: still *semantically* fine (elements only
	// depend on earlier-defined bands at staggered instances), so the
	// thunked fallback must produce values.
	src := `param n;
	a = array (1,2*n)
	  [* [ i := if i >= n - 1 then 1.0 else a!(n+i+2) + 1.0 ] ++
	     [ n + i := if i == 1 then 1.0 else a!(i-1) + 1.0 ]
	   | i <- [1..n] *]`
	params := map[string]int64{"n": 6}
	p := compile(t, src, params, Options{})
	if p.Defs["a"].Mode() != "thunked" {
		t.Fatalf("mode = %s, want thunked:\n%s", p.Defs["a"].Mode(), p.Report())
	}
	if _, err := p.Run(nil); err != nil {
		t.Fatalf("thunked run failed: %v", err)
	}
}

func TestAccumArrayHistogram(t *testing.T) {
	src := `h = accumArray (+) 0.0 (0,9) [ (3*i) mod 10 := 1.0 | i <- [1..n] ]`
	params := map[string]int64{"n": 30}
	out := runBoth(t, src, params, Options{}, nil)
	var total float64
	for k := int64(0); k <= 9; k++ {
		total += out.At(k)
	}
	if total != 30 {
		t.Errorf("histogram total = %v, want 30", total)
	}
}

func TestAccumArrayNonCommutativeOrder(t *testing.T) {
	// 'right' keeps the LAST value in list order; both paths must
	// agree: list order says the second comprehension wins.
	src := `h = accumArray right 0.0 (1,n)
	  ([ i := 1.0 | i <- [1..n] ] ++ [ i := 2.0 | i <- [1..n] ])`
	params := map[string]int64{"n": 5}
	out := runBoth(t, src, params, Options{}, nil)
	if out.At(3) != 2 {
		t.Errorf("right-combiner kept %v, want 2", out.At(3))
	}
}

// TestAccumArraySelfReadMatchesReference: an accumArray whose clauses
// read the array itself fails in the thunked reference for every
// instance that reads it, and succeeds when no instance does. Every
// compiled configuration must agree: it compiles to the thunked plan.
func TestAccumArraySelfReadMatchesReference(t *testing.T) {
	const selfRead = `d = accumArray max 0 (1,5) [* [ k := 0.5 * d!(k - 1) + 0.5 * 1.5 ] | k <- [%s] *]`
	ref := func(rng string) (*runtime.Strict, error) {
		return compile(t, fmt.Sprintf(selfRead, rng), nil, Options{ForceThunked: true}).Run(nil)
	}
	failing, err := ref("2..5")
	if err == nil || !strings.Contains(err.Error(), "accumArray d may not read itself") {
		t.Fatalf("reference: %v, %v; want the self-read error", failing, err)
	}
	wantErr := err.Error()
	empty, err := ref("6..5")
	if err != nil {
		t.Fatalf("reference over an empty range: %v", err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"parallel-w4", Options{Parallel: true, Workers: 4}},
		{"stream", Options{Stream: true}},
	} {
		p := compile(t, fmt.Sprintf(selfRead, "2..5"), nil, c.opts)
		if _, err := p.Run(nil); err == nil || err.Error() != wantErr {
			t.Errorf("%s: self-read run gave %v, want %q", c.name, err, wantErr)
		}
		if !strings.Contains(strings.Join(p.Notes, "\n"), "accumArray reads itself: thunked") {
			t.Errorf("%s: notes miss the thunked fallback:\n%s", c.name, strings.Join(p.Notes, "\n"))
		}
		got, err := compile(t, fmt.Sprintf(selfRead, "6..5"), nil, c.opts).Run(nil)
		if err != nil {
			t.Fatalf("%s: empty-range run: %v", c.name, err)
		}
		for i := range empty.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(empty.Data[i]) {
				t.Fatalf("%s: element %d = %v, reference %v", c.name, i, got.Data[i], empty.Data[i])
			}
		}
	}
}

func makeMatrix(m, n int64, f func(i, j int64) float64) *runtime.Strict {
	s := runtime.NewStrict(runtime.NewBounds2(1, 1, m, n))
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= n; j++ {
			s.Set(f(i, j), i, j)
		}
	}
	return s
}

func matBounds(m, n int64) analysis.ArrayBounds {
	return analysis.ArrayBounds{Lo: []int64{1, 1}, Hi: []int64{m, n}}
}

// The bigupd tests below assert node splitting on the second sweep of
// workloads.TwoSweeps: there the source is dead after the update, the
// case the paper's section 9 updates in place. A bigupd of the
// caller's array is a copy-update plan instead (copyupdate_test.go).

func TestBigupdRowSwapEndToEnd(t *testing.T) {
	src := `param m, n, i0, k0;
	a2 = bigupd a
	  [* [ (i0,j) := a!(k0,j) ] ++ [ (k0,j) := a!(i0,j) ] | j <- [1..n] *]`
	params := map[string]int64{"m": 6, "n": 7, "i0": 2, "k0": 5}
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(6, 7)}}
	in := makeMatrix(6, 7, func(i, j int64) float64 { return float64(i*100 + j) })
	orig := in.Clone()
	p := compile(t, workloads.TwoSweeps(src), params, opts)
	if m := p.Defs["a1"].Mode(); m != "copy-update" {
		t.Fatalf("first sweep over the caller's array: mode %s, want copy-update", m)
	}
	cd := p.Defs["a2"]
	if cd.Mode() != "in-place" {
		t.Fatalf("second row swap must compile in place:\n%s", p.Report())
	}
	// The scalar tier must be chosen, not the whole-array copy.
	joined := strings.Join(cd.Plan.Notes, "\n")
	if !strings.Contains(joined, "per-instance scalar") {
		t.Errorf("expected scalar node splitting, notes:\n%s", joined)
	}
	if strings.Contains(joined, "whole-array") {
		t.Errorf("row swap must not need a whole-array copy:\n%s", joined)
	}
	// Two swaps restore the rows.
	out := runBoth(t, workloads.TwoSweeps(src), params, opts, map[string]*runtime.Strict{"a": in})
	if !out.EqualWithin(orig, 0) {
		t.Error("two row swaps must restore the matrix")
	}
	out = runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
	// Caller input must be untouched.
	if !in.EqualWithin(orig, 0) {
		t.Error("caller input mutated")
	}
	if out.At(2, 3) != orig.At(5, 3) || out.At(5, 3) != orig.At(2, 3) {
		t.Error("rows not swapped")
	}
	if out.At(4, 4) != orig.At(4, 4) {
		t.Error("untouched row changed")
	}
}

func TestBigupdJacobiEndToEnd(t *testing.T) {
	src := workloads.TwoSweeps(workloads.JacobiSrc)
	n := int64(10)
	params := map[string]int64{"n": n}
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)}}
	in := makeMatrix(n, n, func(i, j int64) float64 { return float64((i*7+j*13)%11) + 0.5 })
	p := compile(t, src, params, opts)
	cd := p.Defs["a2"]
	if cd.Mode() != "in-place" {
		t.Fatalf("second jacobi sweep must compile in place with node splitting:\n%s", p.Report())
	}
	joined := strings.Join(cd.Plan.Notes, "\n")
	for _, want := range []string{"taken before the pass (inner distance 1)", "saved before the previous pass (outer distance 1)"} {
		if !strings.Contains(joined, "row snapshot "+want) {
			t.Errorf("jacobi must read from a row snapshot %s, notes:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "whole-array") {
		t.Errorf("jacobi must not need the whole-array copy:\n%s", joined)
	}
	runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
}

func TestBigupdSOREndToEnd(t *testing.T) {
	// Gauss-Seidel: north/west read the NEW values (a2), south/east
	// the old (a1): all dependences agree with forward loops — pure
	// in-place, no node splitting at all.
	src := workloads.TwoSweeps(workloads.SORSrc)
	n := int64(10)
	params := map[string]int64{"n": n}
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)}}
	in := makeMatrix(n, n, func(i, j int64) float64 { return float64((i*3+j*5)%7) + 0.25 })
	p := compile(t, src, params, opts)
	cd := p.Defs["a2"]
	if cd.Mode() != "in-place" {
		t.Fatalf("second SOR sweep must compile in place:\n%s", p.Report())
	}
	joined := strings.Join(cd.Plan.Notes, "\n")
	if !strings.Contains(joined, "no copying") {
		t.Errorf("SOR must need no copies, notes:\n%s", joined)
	}
	runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
}

func TestBigupdShiftBackward(t *testing.T) {
	src := `param n;
	a2 = bigupd a [ i := a!(i-1) | i <- [2..n] ]`
	params := map[string]int64{"n": 8}
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": {Lo: []int64{1}, Hi: []int64{8}}}}
	in := runtime.NewStrict(runtime.NewBounds1(1, 8))
	for i := int64(1); i <= 8; i++ {
		in.Set(float64(i), i)
	}
	out := runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
	for i := int64(2); i <= 8; i++ {
		if out.At(i) != float64(i-1) {
			t.Errorf("a2(%d) = %v, want %v", i, out.At(i), i-1)
		}
	}
}

// TestNodeSplitKeepsBoundsCheck: a read that node splitting repairs
// keeps its bounds check. Each program's first update reads outside a1,
// which the thunked reference reports. The scalar and row tiers load
// their positions unchecked, so a read they cannot prove in bounds takes
// the whole-array copy, whose redirected read keeps the check.
func TestNodeSplitKeepsBoundsCheck(t *testing.T) {
	const n = 5
	cases := []struct {
		name, src, want string
		x               *runtime.Strict
	}{
		{"1-D", `param n;
		letrec*
		a1 = array (1,n) [ i := x!i | i <- [1..n] ];
		a2 = bigupd a1 [ i := a1!(i-1) + a1!(i+1) | i <- [1..n-1] ]
		in a2`, "subscript [0] out of bounds", runtime.NewStrict(runtime.NewBounds1(1, n))},
		{"2-D", `param n;
		letrec*
		a1 = array ((1,1),(n,n)) [ (i,j) := x!(i,j) | i <- [1..n], j <- [1..n] ];
		a2 = bigupd a1 [ (i,j) := a1!(i-1,j) + a1!(i+1,j) + a1!(i,j-1) + a1!(i,j+1)
		                 | i <- [2..n-1], j <- [1..n-1] ]
		in a2`, "subscript [2 0] out of bounds", makeMatrix(n, n, func(i, j int64) float64 { return float64(i + j) })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inputs := map[string]*runtime.Strict{"x": c.x}
			opts := Options{InputBounds: map[string]analysis.ArrayBounds{"x": {Lo: c.x.B.Lo, Hi: c.x.B.Hi}}}
			params := map[string]int64{"n": n}
			optsT := opts
			optsT.ForceThunked = true
			if _, err := compile(t, c.src, params, optsT).Run(inputs); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("thunked run: error %v, want %q", err, c.want)
			}
			p := compile(t, c.src, params, opts)
			if m := p.Defs["a2"].Mode(); m != "in-place" {
				t.Fatalf("a2 compiles %s, want in-place", m)
			}
			if _, err := p.Run(inputs); err == nil || !strings.Contains(err.Error(), "out of bounds") {
				t.Fatalf("compiled run: error %v, want the thunked run's out-of-bounds read\n%s", err, p.Report())
			}
		})
	}
}

func TestMultiDefChain(t *testing.T) {
	src := `letrec*
	  b = array (1,n) [ i := 2.0 * i | i <- [1..n] ];
	  c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];
	in c`
	params := map[string]int64{"n": 6}
	p := compile(t, src, params, Options{})
	if len(p.Order) != 2 || p.Order[0] != "b" || p.Order[1] != "c" {
		t.Fatalf("order = %v", p.Order)
	}
	out := runBoth(t, src, params, Options{}, nil)
	if out.At(4) != 9 {
		t.Errorf("c(4) = %v, want 9", out.At(4))
	}
}

func TestMutuallyRecursiveGroup(t *testing.T) {
	// Even/odd mutual recursion across two arrays.
	src := `param n;
	letrec*
	  ev = array (1,n) [ i := if i == 1 then 1.0 else od!(i-1) + 1.0 | i <- [1..n] ];
	  od = array (1,n) [ i := ev!i * 2.0 | i <- [1..n] ];
	in od`
	params := map[string]int64{"n": 5}
	p := compile(t, src, params, Options{})
	if p.Defs["ev"].Mode() != "thunked-group" || p.Defs["od"].Mode() != "thunked-group" {
		t.Fatalf("modes: ev=%s od=%s", p.Defs["ev"].Mode(), p.Defs["od"].Mode())
	}
	out, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// ev(1)=1, od(1)=2, ev(2)=3, od(2)=6, ev(3)=7, od(3)=14 …
	if out.At(3) != 14 {
		t.Errorf("od(3) = %v, want 14", out.At(3))
	}
}

func TestUnboundParameterError(t *testing.T) {
	if _, err := Compile(`a = array (1,n) [ i := 1.0 | i <- [1..n] ]`, nil, Options{}); err == nil {
		t.Fatal("unbound parameter must fail compilation")
	}
}

func TestBigupdMissingSourceBounds(t *testing.T) {
	src := `param n; a2 = bigupd a [ i := a!i | i <- [1..n] ]`
	if _, err := Compile(src, map[string]int64{"n": 4}, Options{}); err == nil {
		t.Fatal("unknown bigupd source bounds must fail compilation")
	}
}

func TestReportContainsEssentials(t *testing.T) {
	src := `a = array (1,n) ([ 1 := 1.0 ] ++ [ i := a!(i-1) + 1.0 | i <- [2..n] ])`
	p := compile(t, src, map[string]int64{"n": 5}, Options{})
	r := p.Report()
	for _, want := range []string{"== a (array, thunkless) ==", "flow (<)", "collision: no", "empties: excluded", "do i forward"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

// TestRandomRecurrenceDifferential drives randomized forward/backward
// 1-D recurrences through both pipelines and compares.
func TestRandomRecurrenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := int64(5 + rng.Intn(40))
		off := int64(1 + rng.Intn(3))
		backward := rng.Intn(2) == 0
		var src string
		if backward {
			src = fmt.Sprintf(
				`a = array (1,n) [ i := if i > n - %d then 1.5 else a!(i+%d) + 0.5 | i <- [1..n] ]`,
				off, off)
		} else {
			src = fmt.Sprintf(
				`a = array (1,n) [ i := if i <= %d then 1.5 else a!(i-%d) + 0.5 | i <- [1..n] ]`,
				off, off)
		}
		params := map[string]int64{"n": n}
		p := compile(t, src, params, Options{})
		if p.Defs["a"].Mode() != "thunkless" {
			t.Fatalf("trial %d: mode %s for %s\n%s", trial, p.Defs["a"].Mode(), src, p.Report())
		}
		runBoth(t, src, params, Options{}, nil)
	}
}

// TestRandomBigupdDifferential drives randomized in-place stencils
// through both pipelines.
func TestRandomBigupdDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := int64(6 + rng.Intn(10))
		di := rng.Intn(2)
		dj := rng.Intn(2)
		src := fmt.Sprintf(`param n;
	a2 = bigupd a
	  [* [ (i,j) := 0.5 * a!(i-%d,j) + 0.25 * a!(i,j-%d) + 0.125 * a!(i+1,j+1) ]
	   | i <- [2..n-1], j <- [2..n-1] *]`, di, dj)
		params := map[string]int64{"n": n}
		opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)}}
		in := makeMatrix(n, n, func(i, j int64) float64 {
			return float64(rng.Intn(100)) / 8
		})
		runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
	}
}

func TestDeadDefinitionPruned(t *testing.T) {
	src := `letrec*
	  unused = array (1,n) [ i := 1.0 | i <- [1..n] ];
	  a = array (1,n) [ i := 2.0 | i <- [1..n] ];
	in a`
	p := compile(t, src, map[string]int64{"n": 4}, Options{})
	for _, name := range p.Order {
		if name == "unused" {
			t.Fatalf("dead binding evaluated: order %v", p.Order)
		}
	}
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeadDefinitionWithErrorNeverEvaluated(t *testing.T) {
	// Non-strict letrec semantics: an unused binding whose evaluation
	// would fail (definite collision) must not block the program.
	src := `letrec*
	  broken = array (1,n) ([ 1 := 1.0 ] ++ [ 1 := 2.0 ] ++ [ i := 0.0 | i <- [2..n] ]);
	  a = array (1,n) [ i := 2.0 | i <- [1..n] ];
	in a`
	p := compile(t, src, map[string]int64{"n": 4}, Options{})
	out, err := p.Run(nil)
	if err != nil || out.At(2) != 2 {
		t.Fatalf("run: %v", err)
	}
}

func TestPlainLetrecCompilesThunked(t *testing.T) {
	// Plain letrec gives no strict-context guarantee (the paper's
	// hidden-self-dependence argument), so the definition must stay
	// thunked; the letrec* version of the same program compiles
	// thunklessly.
	lazy := `letrec a = array (1,n) ([ 1 := 1.0 ] ++ [ i := a!(i-1) + 1.0 | i <- [2..n] ]) in a`
	strict := `letrec* a = array (1,n) ([ 1 := 1.0 ] ++ [ i := a!(i-1) + 1.0 | i <- [2..n] ]) in a`
	params := map[string]int64{"n": 6}
	pl := compile(t, lazy, params, Options{})
	if pl.Defs["a"].Mode() != "thunked" {
		t.Errorf("plain letrec mode = %s, want thunked", pl.Defs["a"].Mode())
	}
	ps := compile(t, strict, params, Options{})
	if ps.Defs["a"].Mode() != "thunkless" {
		t.Errorf("letrec* mode = %s, want thunkless", ps.Defs["a"].Mode())
	}
	// Same values either way.
	got, err := pl.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ps.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWithin(want, 0) {
		t.Error("letrec and letrec* results differ")
	}
}
