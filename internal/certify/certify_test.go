package certify

import (
	"testing"
	"time"

	"arraycomp/internal/deptest"
)

func vec(t *testing.T, s string) deptest.Vector {
	t.Helper()
	v, err := deptest.ParseVector(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSearchWitnessFindsSolution(t *testing.T) {
	// a!(i) vs a!(j): x = y everywhere.
	p := deptest.NewProblem(0, []int64{1}, 0, []int64{1}, []int64{10})
	w, found, exhaustive := SearchWitness([]deptest.Problem{p}, vec(t, "(*)"))
	if !found || !exhaustive {
		t.Fatalf("found=%v exhaustive=%v", found, exhaustive)
	}
	if !CheckWitness([]deptest.Problem{p}, vec(t, "(*)"), w) {
		t.Fatalf("witness %v failed re-evaluation", w)
	}
}

func TestSearchWitnessRefutesParity(t *testing.T) {
	// a!(2i) vs a!(2j+1): no collision, exhaustively provable at small
	// bounds.
	p := deptest.NewProblem(0, []int64{2}, 1, []int64{2}, []int64{10})
	_, found, exhaustive := SearchWitness([]deptest.Problem{p}, vec(t, "(*)"))
	if found {
		t.Fatal("found a witness for an even/odd collision")
	}
	if !exhaustive {
		t.Fatal("10 iterations must be covered exhaustively")
	}
	c := CertifyIndependence("analysis", NewBattery([]deptest.Problem{p}), vec(t, "(*)"))
	if c.Status != Certified || !c.Exhaustive {
		t.Fatalf("certificate: %s", c)
	}
}

func TestSearchWitnessDirectionConstraint(t *testing.T) {
	// x = y has solutions, but none with x < y.
	p := deptest.NewProblem(0, []int64{1}, 0, []int64{1}, []int64{10})
	_, found, exhaustive := SearchWitness([]deptest.Problem{p}, vec(t, "(<)"))
	if found || !exhaustive {
		t.Fatalf("found=%v exhaustive=%v", found, exhaustive)
	}
}

func TestShadowClampEngages(t *testing.T) {
	// Bounds beyond the clamp: a near-diagonal dependence is still
	// found (witness lies inside the shadow), but exhaustiveness is
	// forfeited.
	p := deptest.NewProblem(0, []int64{1}, 1, []int64{1}, []int64{100000})
	w, found, exhaustive := SearchWitness([]deptest.Problem{p}, vec(t, "(*)"))
	if !found {
		t.Fatal("x = y + 1 has witnesses within the clamp")
	}
	if exhaustive {
		t.Fatal("clamped search must not claim exhaustiveness")
	}
	if !CheckWitness([]deptest.Problem{p}, vec(t, "(*)"), w) {
		t.Fatalf("witness %v failed re-evaluation", w)
	}

	// A dependence whose nearest solution lies beyond the clamp:
	// x = y + 100 with ShadowClamp = 64 → x ≤ 64 forces y ≤ −36.
	far := deptest.NewProblem(100, []int64{1}, 0, []int64{1}, []int64{100000})
	_, found, exhaustive = SearchWitness([]deptest.Problem{far}, vec(t, "(*)"))
	if found || exhaustive {
		t.Fatalf("found=%v exhaustive=%v; witness lies outside the shadow", found, exhaustive)
	}
	if c := CertifyDependence("analysis", NewBattery([]deptest.Problem{far}), vec(t, "(*)")); c.Status != Skipped {
		t.Fatalf("unfindable definite witness must be Skipped, got %s", c)
	}
	if c := CertifyIndependence("analysis", NewBattery([]deptest.Problem{far}), vec(t, "(*)")); c.Status != Certified || c.Exhaustive {
		t.Fatalf("clamped independence must certify non-exhaustively, got %s", c)
	}
}

func TestSimultaneousDimensions(t *testing.T) {
	// Dim 1: x = y. Dim 2: x = y + 1. Each dimension alone admits
	// solutions; simultaneously they are contradictory — exactly the
	// coupled-subscript case per-dimension tests cannot refute.
	d1 := deptest.NewProblem(0, []int64{1}, 0, []int64{1}, []int64{8})
	d2 := deptest.NewProblem(1, []int64{1}, 0, []int64{1}, []int64{8})
	_, found, exhaustive := SearchWitness([]deptest.Problem{d1, d2}, vec(t, "(*)"))
	if found || !exhaustive {
		t.Fatalf("found=%v exhaustive=%v", found, exhaustive)
	}
	c := CertifyIndependence("analysis", NewBattery([]deptest.Problem{d1, d2}), vec(t, "(*)"))
	if c.Status != Certified || !c.Exhaustive {
		t.Fatalf("certificate: %s", c)
	}
}

func TestEmptyDomainExhaustive(t *testing.T) {
	p := deptest.NewProblem(0, []int64{1}, 0, []int64{1}, []int64{0})
	_, found, exhaustive := SearchWitness([]deptest.Problem{p}, vec(t, "(*)"))
	if found || !exhaustive {
		t.Fatalf("empty domain: found=%v exhaustive=%v", found, exhaustive)
	}
}

func TestCertifyDependenceWitness(t *testing.T) {
	// a!(2i) vs a!(2j): definite dependence, witness x = y.
	p := deptest.NewProblem(0, []int64{2}, 0, []int64{2}, []int64{16})
	c := CertifyDependence("analysis", NewBattery([]deptest.Problem{p}), vec(t, "(*)"))
	if c.Status != Certified || len(c.Witness) != 2 {
		t.Fatalf("certificate: %s", c)
	}
	// A claim of a dependence that cannot exist is falsified when the
	// domain is covered.
	no := deptest.NewProblem(0, []int64{2}, 1, []int64{2}, []int64{16})
	c = CertifyDependence("analysis", NewBattery([]deptest.Problem{no}), vec(t, "(*)"))
	if c.Status != Falsified {
		t.Fatalf("certificate: %s", c)
	}
}

func TestCheckWitnessRejects(t *testing.T) {
	p := deptest.NewProblem(0, []int64{1}, 0, []int64{1}, []int64{10})
	probs := []deptest.Problem{p}
	if CheckWitness(probs, vec(t, "(*)"), Witness{X: []int64{3}, Y: []int64{4}}) {
		t.Error("3 ≠ 4 must fail the equation")
	}
	if CheckWitness(probs, vec(t, "(*)"), Witness{X: []int64{11}, Y: []int64{11}}) {
		t.Error("out-of-bounds positions must be rejected")
	}
	if CheckWitness(probs, vec(t, "(<)"), Witness{X: []int64{3}, Y: []int64{3}}) {
		t.Error("direction-violating witness must be rejected")
	}
	if !CheckWitness(probs, vec(t, "(=)"), Witness{X: []int64{3}, Y: []int64{3}}) {
		t.Error("valid witness rejected")
	}
}

func TestUnsharedLoops(t *testing.T) {
	// Source-only loop k: A = [1], B = [0], unshared; sink fixed. The
	// pair collides iff x = delta for some x in range.
	p := deptest.Problem{
		A0: 0, B0: 5,
		A: []int64{1}, B: []int64{0},
		Bound:  []int64{10},
		Shared: []bool{false},
	}
	w, found, exhaustive := SearchWitness([]deptest.Problem{p}, vec(t, "(*)"))
	if !found || !exhaustive {
		t.Fatalf("found=%v exhaustive=%v", found, exhaustive)
	}
	if w.X[0] != 5 {
		t.Fatalf("witness %v, want x=5", w)
	}
	out := deptest.Problem{
		A0: 0, B0: 50,
		A: []int64{1}, B: []int64{0},
		Bound:  []int64{10},
		Shared: []bool{false},
	}
	if _, found, exhaustive := SearchWitness([]deptest.Problem{out}, vec(t, "(*)")); found || !exhaustive {
		t.Fatalf("x = 50 unreachable in [1..10]: found=%v exhaustive=%v", found, exhaustive)
	}
}

func TestReportAggregation(t *testing.T) {
	r := NewReport()
	r.Record(Certificate{Layer: "analysis", Claim: "a", Status: Certified})
	r.Record(Certificate{Layer: "schedule", Claim: "b", Status: Skipped})
	r.Record(Certificate{Layer: "plan", Claim: "c", Status: Falsified})
	if r.CertifiedCount != 1 || r.SkippedCount != 1 || r.FalsifiedCount != 1 {
		t.Fatalf("counts: %s", r.Summary())
	}
	if err := r.Err(); err == nil {
		t.Fatal("falsified report must error")
	}
	other := NewReport()
	other.Record(Certificate{Layer: "analysis", Claim: "d", Status: Certified})
	r.Merge(other)
	if r.CertifiedCount != 2 {
		t.Fatalf("merge lost counts: %s", r.Summary())
	}
	want := map[string]Tally{"analysis": {Certified: 2}, "schedule": {Skipped: 1}, "plan": {Falsified: 1}}
	for layer, tl := range want {
		if r.Layers[layer] != tl {
			t.Errorf("layer %s tally %+v, want %+v", layer, r.Layers[layer], tl)
		}
	}
	// Times merge by layer, and a layer with a time but no
	// certificates still gets its table line.
	r.AddTime("analysis", 2*time.Millisecond)
	other = NewReport()
	other.AddTime("analysis", time.Millisecond)
	other.AddTime("stencil", 500*time.Microsecond)
	r.Merge(other)
	if r.Times["analysis"] != 3*time.Millisecond || r.Times["stencil"] != 500*time.Microsecond {
		t.Errorf("merged times %v", r.Times)
	}
	wantTable := "  analysis  certified=2 falsified=0 skipped=0 exhaustive=0  3.000ms\n" +
		"  plan      certified=0 falsified=1 skipped=0 exhaustive=0  0.000ms\n" +
		"  schedule  certified=0 falsified=0 skipped=1 exhaustive=0  0.000ms\n" +
		"  stencil   certified=0 falsified=0 skipped=0 exhaustive=0  0.500ms\n"
	if got := r.LayerTable(); got != wantTable {
		t.Errorf("LayerTable:\n%s\nwant\n%s", got, wantTable)
	}
	clean := NewReport()
	clean.Record(Certificate{Status: Certified})
	if err := clean.Err(); err != nil {
		t.Fatalf("clean report must not error: %v", err)
	}
}

// parityBattery is a!(2i, j) written against a!(2i'+1, j') read over
// an m×m nest: no collision exists, so no search stops early on a
// witness.
func parityBattery(m int64) []deptest.Problem {
	return []deptest.Problem{
		deptest.NewProblem(0, []int64{2, 0}, 1, []int64{2, 0}, []int64{m, m}),
		deptest.NewProblem(0, []int64{0, 1}, 0, []int64{0, 1}, []int64{m, m}),
	}
}

// TestSearchWitnessAllocsFlat checks that a search's allocations do
// not grow with the clamp: buffers are sized by the loop and problem
// counts, never by the domain.
func TestSearchWitnessAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probs func(m int64) []deptest.Problem
		v     string
	}{
		{"refuted", parityBattery, "(*,*)"},
		{"found", func(m int64) []deptest.Problem {
			return []deptest.Problem{deptest.NewProblem(0, []int64{1, 1}, 1, []int64{1, 1}, []int64{m, m})}
		}, "(>,*)"},
	} {
		v := vec(t, tc.v)
		allocs := func(m int64) float64 {
			probs := tc.probs(m)
			return testing.AllocsPerRun(20, func() { SearchWitness(probs, v) })
		}
		if a8, a64 := allocs(8), allocs(64); a8 != a64 {
			t.Errorf("%s: %v allocs at Bound 8, %v at Bound 64", tc.name, a8, a64)
		}
	}
}

// BenchmarkSearchWitness certifies every concrete direction vector of
// a two-loop battery at the full shadow clamp, as the analysis layer
// does for one reference pair.
func BenchmarkSearchWitness(b *testing.B) {
	probs := parityBattery(ShadowClamp)
	var vs []deptest.Vector
	for _, d0 := range []deptest.Direction{deptest.DirLess, deptest.DirEqual, deptest.DirGreater} {
		for _, d1 := range []deptest.Direction{deptest.DirLess, deptest.DirEqual, deptest.DirGreater} {
			vs = append(vs, deptest.Vector{d0, d1})
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range vs {
			if _, found, _ := SearchWitness(probs, v); found {
				b.Fatalf("parity collision found under %s", v)
			}
		}
	}
}
