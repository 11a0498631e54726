package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

func TestCertifyPlansTile(t *testing.T) {
	n := int64(256)
	p := &Program{
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
						Rhs:   &ARef{Array: "b", Subs: []IntExpr{lin(-1, term("i", 1)), lin(0, term("j", 1))}},
					},
				}},
			}},
		},
	}
	optimizeFor(p)
	if d := p.Dump(); !strings.Contains(d, "[tile") {
		t.Fatalf("planner did not tile:\n%s", d)
	}
	rep := CertifyPlans(p)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("legal tile schedule falsified:\n%s", rep)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("tile schedule not certified: %s", rep.Summary())
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
	p := &Program{
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
	rep := CertifyPlans(p)
	if rep.FalsifiedCount == 0 {
		t.Fatalf("illegal shard survived certification:\n%s", rep)
	}
	if len(rep.Failures[0].Witness) == 0 {
		t.Fatalf("falsification carries no witness: %s", rep.Failures[0])
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
	// A 2-D nest with north and west dependences forced onto a tile
	// schedule: many elements conflict across tiles. Elements are
	// scanned in first-seen order, so every run reports the same
	// counterexample.
	n := int64(100)
	p := &Program{
		Name:   "sorbad",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n, Step: 1, Parallel: true,
				Par: &ParSchedule{Kind: ParTile, TileI: 8, TileJ: 8},
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
		t.Fatalf("forged tile schedule not falsified with a witness:\n%s", first)
	}
	f := first.Failures[0]
	if !strings.HasPrefix(f.Detail, "conflicting accesses of a,") || !strings.HasSuffix(f.Detail, " run unordered") {
		t.Fatalf("detail %q changed format", f.Detail)
	}
	for i := 1; i < 50; i++ {
		if rep := CertifyPlans(p); rep.String() != first.String() {
			t.Fatalf("run %d reported\n%s\nrun 0 reported\n%s", i, rep, first)
		}
	}
}

// BenchmarkCertifyPlans certifies a legal 2-D tile schedule whose
// 126×126 nest is clamped to the 64×64 shadow domain.
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
				Par: &ParSchedule{Kind: ParTile, TileI: 16, TileJ: 16},
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
			b.Fatalf("tile schedule: %s", rep.Summary())
		}
	}
}
