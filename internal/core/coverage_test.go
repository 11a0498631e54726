package core

import (
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// TestBigupdTransposeFullCopy: a transposed in-place update (the
// second sweep, whose source is dead) reads elements the schedule
// cannot order before their kills in any uniform way — node splitting
// must fall back to the whole-array entry copy (the paper's "naive
// compilation" tier) and still be correct.
func TestBigupdTransposeFullCopy(t *testing.T) {
	n := int64(8)
	src := workloads.TwoSweeps(`param n;
	a2 = bigupd a [* [ (i,j) := a!(j,i) ] | i <- [1..n], j <- [1..n] *]`)
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)}}
	params := map[string]int64{"n": n}
	in := makeMatrix(n, n, func(i, j int64) float64 { return float64(i*10 + j) })
	p := compile(t, src, params, opts)
	cd := p.Defs["a2"]
	if cd.Mode() != "in-place" {
		t.Fatalf("transpose must still lower in place (with a copy):\n%s", p.Report())
	}
	joined := strings.Join(cd.Plan.Notes, "\n")
	if !strings.Contains(joined, "whole-array") {
		t.Fatalf("transpose must use the full-copy tier, notes:\n%s", joined)
	}
	// Two transposes restore the matrix.
	out := runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
	if !out.EqualWithin(in, 0) {
		t.Errorf("transpose wrong: %v vs %v", out.At(2, 5), in.At(2, 5))
	}
}

// TestBigupdNonAffineReadFullCopy: non-affine read subscripts defeat
// every uniform tier of an in-place (second-sweep) update.
func TestBigupdNonAffineReadFullCopy(t *testing.T) {
	n := int64(9)
	src := workloads.TwoSweeps(`param n;
	a2 = bigupd a [ i := a!(n - i + 1) + a!(i mod n + 1) | i <- [1..n] ]`)
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": {Lo: []int64{1}, Hi: []int64{n}}}}
	params := map[string]int64{"n": n}
	in := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := int64(1); i <= n; i++ {
		in.Set(float64(i*i), i)
	}
	p := compile(t, src, params, opts)
	joined := strings.Join(p.Defs["a2"].Plan.Notes, "\n")
	if !strings.Contains(joined, "whole-array") {
		t.Fatalf("non-affine read must use the full-copy tier:\n%s", joined)
	}
	runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
}

// TestBigupdReversalMixedTiers: a!(n+1-i) with forward writes is a
// reversal — distance varies per instance, requiring the copy tier;
// differential check included.
func TestBigupdReversal(t *testing.T) {
	n := int64(10)
	src := `param n;
	a2 = bigupd a [ i := a!(n + 1 - i) | i <- [1..n] ]`
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": {Lo: []int64{1}, Hi: []int64{n}}}}
	params := map[string]int64{"n": n}
	in := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := int64(1); i <= n; i++ {
		in.Set(float64(i), i)
	}
	out := runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
	for i := int64(1); i <= n; i++ {
		if out.At(i) != float64(n+1-i) {
			t.Errorf("a2(%d) = %v, want %v", i, out.At(i), n+1-i)
		}
	}
}

// TestGuardBetweenLoops exercises guards attached to inner loop nodes
// (conditioning the whole inner loop, not a clause).
func TestGuardBetweenLoops(t *testing.T) {
	src := `param n;
	a = array ((1,1),(n,n))
	  ([* [* [ (i,j) := 1.0 ] | j <- [1..n] *] | i <- [1..n], i mod 2 == 1 *] ++
	   [* [* [ (i,j) := 2.0 ] | j <- [1..n] *] | i <- [1..n], i mod 2 == 0 *])`
	params := map[string]int64{"n": 6}
	p := compile(t, src, params, Options{})
	dump := p.Defs["a"].Plan.Program.Dump()
	if !strings.Contains(dump, "if (i % 2) == 1 then") {
		t.Fatalf("loop-level guard not emitted:\n%s", dump)
	}
	out := runBoth(t, src, params, Options{}, nil)
	if out.At(1, 3) != 1 || out.At(2, 3) != 2 {
		t.Errorf("values: %v %v", out.At(1, 3), out.At(2, 3))
	}
}

// TestThunkedRichExpressions drives the thunked evaluator through
// builtins, float comparisons, boolean operators, lets and mod in
// value position — and checks it against the compiled plan.
func TestThunkedRichExpressions(t *testing.T) {
	src := `param n;
	a = array (1,n)
	  [ i := (if sqrt(1.0 * i) > 2.5 && not (i mod 7 == 0) || i == 1
	          then max(abs(0.0 - i), pow(2.0, 3.0))
	          else let h = min(1.0 * i, 4.0) in h / 2.0 + (i mod 3))
	  | i <- [1..n] ]`
	params := map[string]int64{"n": 40}
	runBoth(t, src, params, Options{}, nil)
}

// TestThunkedGuardsAndLets drives the thunked enumerator through
// guards that mix comparisons and lets.
func TestThunkedGuardsAndLets(t *testing.T) {
	src := `param n;
	a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], i mod 3 == 0 || i mod 3 == 1 ] ++
	   [ i := 2.0 | i <- [1..n], i mod 3 == 2 ])`
	params := map[string]int64{"n": 17}
	runBoth(t, src, params, Options{}, nil)
}

// TestFloatComparisonGuard: a guard comparing float expressions takes
// the BCmpFloat path in both pipelines.
func TestFloatComparisonGuard(t *testing.T) {
	src := `param n;
	a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], 1.0 * i / 2.0 < 3.0 ] ++
	   [ i := 2.0 | i <- [1..n], 1.0 * i / 2.0 >= 3.0 ])`
	params := map[string]int64{"n": 10}
	out := runBoth(t, src, params, Options{}, nil)
	if out.At(5) != 1 || out.At(6) != 2 {
		t.Errorf("values: %v %v", out.At(5), out.At(6))
	}
}

// TestBigupdOverwriteOrderPreserved: two clauses writing the same
// element in one bigupd — fold semantics says the later pair wins, and
// the output-dependence edges must force the compiled plan to agree.
func TestBigupdOverwriteOrderPreserved(t *testing.T) {
	n := int64(6)
	src := `param n;
	a2 = bigupd a [* [ i := 1.0 ] ++ [ i := 2.0 ] | i <- [1..n] *]`
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": {Lo: []int64{1}, Hi: []int64{n}}}}
	params := map[string]int64{"n": n}
	in := runtime.NewStrict(runtime.NewBounds1(1, n))
	out := runBoth(t, src, params, opts, map[string]*runtime.Strict{"a": in})
	for i := int64(1); i <= n; i++ {
		if out.At(i) != 2 {
			t.Errorf("a2(%d) = %v, want 2 (later pair wins)", i, out.At(i))
		}
	}
}

// TestReportGolden pins the report format for the paper's example 1 so
// downstream tooling can rely on it.
func TestReportGolden(t *testing.T) {
	src := `a = array (1,6)
	  [* [3*i := 2.0] ++
	     [3*i-1 := if i == 1 then 1.0 else 0.5 * a!(3*(i-1))] ++
	     [3*i-2 := 0.5 * a!(3*i)]
	   | i <- [1..2] *]`
	p := compile(t, src, nil, Options{})
	got := p.Report()
	for _, want := range []string{
		"== a (array, thunkless) ==",
		"graph: 3 vertices, 2 edges",
		"flow (<)",
		"flow (=)",
		"collision: no",
		"empties: excluded",
		"do i forward doacross [1..2 step 1]",
		"checks: {CollisionChecks:0 BoundsChecks:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}
