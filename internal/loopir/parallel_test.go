package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

// sharded attaches a shard schedule to p's first loop by hand, so a
// test exercises the shard executor whatever the cost model says.
func sharded(p *Program) *Program {
	p.Stmts[0].(*Loop).Par = &ParSchedule{Kind: ParShard}
	return p
}

// runSharded runs p at four workers.
func runSharded(t *testing.T, p *Program) (*runtime.Strict, error) {
	t.Helper()
	ex := mustCompile(t, p)
	ex.SetWorkers(4)
	return ex.RunResult(nil)
}

func parallelSquares(n int64, parallel bool) *Program {
	return &Program{
		Name:   "psquares",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: parallel, Body: []Stmt{
				&Assign{
					Array: "a",
					Subs:  []IntExpr{lin(0, term("i", 1))},
					Rhs:   &VFromInt{X: &IBin{Op: '*', L: &IVar{Name: "i"}, R: &IVar{Name: "i"}}},
				},
			}},
		},
	}
}

func TestParallelLoopMatchesSequential(t *testing.T) {
	n := int64(10_000)
	seq, err := mustCompile(t, parallelSquares(n, false)).RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runSharded(t, sharded(parallelSquares(n, true)))
	if err != nil {
		t.Fatal(err)
	}
	if !seq.EqualWithin(par, 0) {
		t.Fatal("parallel and sequential results differ")
	}
}

func TestParallelSmallTripStaysSequential(t *testing.T) {
	// The planner must not shard a loop this small (and it must still
	// be correct).
	p := parallelSquares(64, true)
	Optimize(p)
	if l := p.Stmts[0].(*Loop); l.Par != nil {
		t.Fatalf("64-iteration loop got a %s schedule", l.Par)
	}
	out, err := mustCompile(t, p).RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(8) != 64 {
		t.Errorf("a(8) = %v", out.At(8))
	}
}

func TestParallelErrorPropagates(t *testing.T) {
	n := int64(8192)
	p := sharded(&Program{
		Name:   "pfail",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
				// Out-of-bounds at i = n (subscript i+1), checked.
				&Assign{
					Array:       "a",
					Subs:        []IntExpr{lin(1, term("i", 1))},
					Rhs:         &VConst{Value: 1},
					CheckBounds: true,
				},
			}},
		},
	})
	_, err := runSharded(t, p)
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("want bounds error from worker, got %v", err)
	}
}

func TestParallelBackwardLoop(t *testing.T) {
	n := int64(8192)
	p := sharded(&Program{
		Name:   "pback",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: n, To: 1, Step: -1, Parallel: true, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))},
					Rhs: &VFromInt{X: &IVar{Name: "i"}}},
			}},
		},
	})
	out, err := runSharded(t, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{1, n / 2, n} {
		if out.At(i) != float64(i) {
			t.Errorf("a(%d) = %v", i, out.At(i))
		}
	}
}

func TestTripCount(t *testing.T) {
	cases := []struct{ from, to, step, want int64 }{
		{1, 10, 1, 10},
		{10, 1, -1, 10},
		{1, 10, 3, 4},
		{1, 0, 1, 0},
		{0, 1, -1, 0},
		{5, 5, 1, 1},
		{9, 1, -2, 5},
	}
	for _, c := range cases {
		if got := tripCount(c.from, c.to, c.step); got != c.want {
			t.Errorf("tripCount(%d,%d,%d) = %d, want %d", c.from, c.to, c.step, got, c.want)
		}
	}
}

func TestParallelDumpAnnotation(t *testing.T) {
	d := parallelSquares(10, true).Dump()
	if !strings.Contains(d, "forward, parallel") {
		t.Errorf("dump missing parallel annotation:\n%s", d)
	}
}
