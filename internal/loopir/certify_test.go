package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/certify"
	"arraycomp/internal/runtime"
)

// jacobiOOP is out-of-place Jacobi's interior nest: a[i,j] averages
// b's four neighbours of (i,j), so no iterations conflict.
func jacobiOOP(n int64) *Program {
	rhs := VExpr(&VConst{Value: 0})
	for _, d := range [][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		rhs = &VBin{Op: '+', L: rhs, R: &ARef{Array: "b",
			Subs: []IntExpr{lin(d[0], term("i", 1)), lin(d[1], term("j", 1))}}}
	}
	return &Program{
		Name: "jac",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
			{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: true, Body: []Stmt{
				&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:   &VBin{Op: '*', L: &VConst{Value: 0.25}, R: rhs},
					},
				}},
			}},
		},
	}
}

// TestCertifyPlansShard2D: the planner shards out-of-place Jacobi's
// outer loop, and the certifier proves it by enumeration — over the
// whole iteration space at a small n, clamped at a large one. A nest
// whose only conflicts stay within a row (a[i,j] reads a[i,j-1]) is
// certified too: conflicting points share an outer iteration.
func TestCertifyPlansShard2D(t *testing.T) {
	rows := stencil2D(256, true, [][2]int64{{0, -1}})
	optimizeFor(rows)
	if rep := CertifyPlans(rows); rows.Stmts[0].(*Loop).Par == nil || rep.FalsifiedCount != 0 || rep.CertifiedCount != 1 {
		t.Fatalf("row-carried 2-D shard not certified:\n%s\n%s", rows.Dump(), rep)
	}
	for _, n := range []int64{32, 256} {
		p := jacobiOOP(n)
		optimizeFor(p)
		outer := p.Stmts[0].(*Loop)
		if n == 256 && (outer.Par == nil || outer.Par.Kind != ParShard) {
			t.Fatalf("n=%d: planner did not shard the outer loop:\n%s", n, p.Dump())
		}
		// Too little work to pay at the small size: attach the schedule
		// the planner picks at the large one.
		outer.Par = &ParSchedule{Kind: ParShard}
		rep := CertifyPlans(p)
		if rep.FalsifiedCount != 0 || rep.CertifiedCount != 1 {
			t.Fatalf("n=%d: legal 2-D shard not certified:\n%s", n, rep)
		}
		want := 0
		if n-2 <= certify.ShadowClamp {
			want = 1
		}
		if got := rep.Layers["plan"].Exhaustive; got != want {
			t.Fatalf("n=%d: %d exhaustive certificates, want %d", n, got, want)
		}
	}
}

func TestCertifyPlansWavefront(t *testing.T) {
	n := int64(384)
	p := &Program{
		Name:   "sor",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Doacross: true, Body: []Stmt{
				&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs: &VBin{Op: '+',
							L: &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1)), lin(0, term("j", 1))}},
							R: &ARef{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(-1, term("j", 1))}},
						},
					},
				}},
			}},
		},
	}
	optimizeFor(p)
	if d := p.Dump(); !strings.Contains(d, "[wavefront") {
		t.Fatalf("planner did not pick a wavefront:\n%s", d)
	}
	rep := CertifyPlans(p)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("legal wavefront falsified:\n%s", rep)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("wavefront schedule not certified: %s", rep.Summary())
	}
}

func TestCertifyPlansCatchesForgedShard(t *testing.T) {
	// A unit-distance recurrence sharded anyway: iterations i and i+1
	// conflict across any chunk boundary; the certifier must produce a
	// concrete witness pair.
	n := int64(4096)
	rec := &Program{
		Name:   "rec1",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n, Step: 1, Parallel: true,
				Par: &ParSchedule{Kind: ParShard},
				Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1))},
						Rhs:   &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1))}},
					},
				}},
		},
	}
	// SOR's nest carries a[i-1,j] across rows: sharding its outer loop
	// splits the dependence between workers.
	sor := stencil2D(64, true, [][2]int64{{-1, 0}, {0, -1}, {1, 0}, {0, 1}})
	sor.Stmts[0].(*Loop).Par = &ParSchedule{Kind: ParShard}
	for _, c := range []struct {
		p    *Program
		want string
	}{
		{rec, "[plan] loop i: shard schedule legal: falsified witness=[2 0 3 0] (conflicting accesses of a,2 run unordered)"},
		{sor, "[plan] loop i: shard schedule legal: falsified witness=[2 2 3 2] (conflicting accesses of a,2,2 run unordered)"},
	} {
		rep := CertifyPlans(c.p)
		if rep.FalsifiedCount != 1 {
			t.Fatalf("%s: illegal shard survived certification:\n%s", c.p.Name, rep)
		}
		if got := rep.Failures[0].String(); got != c.want {
			t.Errorf("%s: falsification changed:\n%s\nwant\n%s", c.p.Name, got, c.want)
		}
	}
}

func TestCertifyPlansCatchesZeroTile(t *testing.T) {
	n := int64(128)
	p := &Program{
		Name:   "zt",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true,
				Par: &ParSchedule{Kind: ParWavefront, TileI: 0, TileJ: 16},
				Body: []Stmt{
					&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
						&Assign{Array: "a",
							Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
							Rhs:  &VConst{Value: 1}},
					}},
				}},
		},
	}
	rep := CertifyPlans(p)
	if rep.FalsifiedCount == 0 {
		t.Fatalf("zero-diagonal tile survived certification:\n%s", rep)
	}
}

// TestSaturatedTripStaysSequential is the cost-model regression for
// huge spans: [−2^62 .. 2^62] used to wrap negative in tripCount; the
// saturating count must keep the nest sequential (no schedule, no
// degenerate tile) — asserted against a schedule dump golden.
func TestSaturatedTripStaysSequential(t *testing.T) {
	lo := -(int64(1) << 62)
	hi := int64(1) << 62
	p := &Program{
		Name:   "huge",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, 8, 8), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: lo, To: hi, Step: 1, Parallel: true, Body: []Stmt{
				&Loop{Var: "j", From: lo, To: hi, Step: 1, Body: []Stmt{
					&Assign{Array: "a",
						Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:  &VConst{Value: 1}},
				}},
			}},
		},
	}
	if trip := tripCount(lo, hi, 1); trip != tripSaturated {
		t.Fatalf("tripCount(−2^62, 2^62, 1) = %d, want saturation at %d", trip, tripSaturated)
	}
	Optimize(p)
	golden := "program huge\n" +
		"  array a ((1,1),(8,8)) out\n" +
		"  do i = -4611686018427387904, 4611686018427387904, 1  -- forward, parallel\n" +
		"    do j = -4611686018427387904, 4611686018427387904, 1  -- forward\n" +
		"      ind o$1 = -4611686018427387913+8*i step 1\n" +
		"      a[i,j]@{o$1} := 1\n"
	if d := p.Dump(); d != golden {
		t.Fatalf("schedule dump changed:\n--- got ---\n%s--- want ---\n%s", d, golden)
	}
	if rep := CertifyPlans(p); rep.FalsifiedCount != 0 {
		t.Fatalf("sequential nest falsified:\n%s", rep)
	}
}

func TestTripCountSaturation(t *testing.T) {
	cases := []struct {
		from, to, step int64
		want           int64
	}{
		{1, 10, 1, 10},
		{10, 1, -1, 10},
		{1, 10, 3, 4},
		{10, 1, 1, 0},
		{1, 10, 0, 0},
		{-(int64(1) << 62), int64(1) << 62, 1, tripSaturated},
		{int64(1) << 62, -(int64(1) << 62), -1, tripSaturated},
		{-(int64(1) << 62), int64(1) << 62, 1 << 40, (int64(1) << 23) + 1},
	}
	for _, c := range cases {
		if got := tripCount(c.from, c.to, c.step); got != c.want {
			t.Errorf("tripCount(%d,%d,%d) = %d, want %d", c.from, c.to, c.step, got, c.want)
		}
		if got := tripCount(c.from, c.to, c.step); got < 0 {
			t.Errorf("tripCount(%d,%d,%d) negative: %d", c.from, c.to, c.step, got)
		}
	}
}

func TestCertifyPlansWitnessDeterministic(t *testing.T) {
	// A 2-D nest with north and west dependences forced onto a shard:
	// many elements conflict across rows. Elements are
	// scanned in first-seen order, so every run reports the same
	// counterexample.
	n := int64(100)
	p := &Program{
		Name:   "sorbad",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n, Step: 1, Parallel: true,
				Par: &ParSchedule{Kind: ParShard},
				Body: []Stmt{
					&Loop{Var: "j", From: 2, To: n, Step: 1, Body: []Stmt{
						&Assign{
							Array: "a",
							Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
							Rhs: &VBin{Op: '+',
								L: &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1)), lin(0, term("j", 1))}},
								R: &ARef{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(-1, term("j", 1))}},
							},
						},
					}},
				}},
		},
	}
	first := CertifyPlans(p)
	if first.FalsifiedCount == 0 || len(first.Failures[0].Witness) != 4 {
		t.Fatalf("forged shard not falsified with a witness:\n%s", first)
	}
	if got, want := first.Failures[0].String(), "[plan] loop i: shard schedule legal: falsified witness=[2 2 3 2] (conflicting accesses of a,2,2 run unordered)"; got != want {
		t.Fatalf("falsification changed:\n%s\nwant\n%s", got, want)
	}
	for i := 1; i < 50; i++ {
		if rep := CertifyPlans(p); rep.String() != first.String() {
			t.Fatalf("run %d reported\n%s\nrun 0 reported\n%s", i, rep, first)
		}
	}
}

// BenchmarkCertifyPlans certifies a legal 2-D shard whose 126×126
// nest is clamped to the 64×64 shadow domain.
func BenchmarkCertifyPlans(b *testing.B) {
	n := int64(128)
	p := &Program{
		Name: "jac",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
			{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: true,
				Par: &ParSchedule{Kind: ParShard},
				Body: []Stmt{
					&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
						&Assign{
							Array: "a",
							Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
							Rhs: &VBin{Op: '+',
								L: &ARef{Array: "b", Subs: []IntExpr{lin(-1, term("i", 1)), lin(0, term("j", 1))}},
								R: &ARef{Array: "b", Subs: []IntExpr{lin(0, term("i", 1)), lin(1, term("j", 1))}},
							},
						},
					}},
				}},
		},
	}
	b.ReportAllocs()
	for b.Loop() {
		if rep := CertifyPlans(p); rep.FalsifiedCount != 0 || rep.CertifiedCount != 1 {
			b.Fatalf("2-D shard: %s", rep.Summary())
		}
	}
}
