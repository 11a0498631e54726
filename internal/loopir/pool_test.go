package loopir

import (
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arraycomp/internal/runtime"
)

// Tests for the worker-pool executors. GOMAXPROCS may be 1 in CI, so
// every test forces a multi-worker cohort with SetWorkers — the
// goroutine interleaving (and the race detector) still exercises the
// synchronization even on one CPU.

// stencil2D builds an n×n in-place nest a[i,j] = f(neighbours) with the
// given subscript offsets read on the rhs. Offsets are (di,dj) pairs
// relative to (i,j).
func stencil2D(n int64, doacross bool, reads [][2]int64) *Program {
	rhs := VExpr(&VConst{Value: 1})
	for _, r := range reads {
		ref := &ARef{Array: "a", Subs: []IntExpr{
			lin(r[0], term("i", 1)), lin(r[1], term("j", 1)),
		}}
		rhs = &VBin{Op: '+', L: rhs, R: ref}
	}
	return &Program{
		Name:   "stencil",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Doacross: doacross, Body: []Stmt{
				&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:   &VBin{Op: '*', L: &VConst{Value: 0.5}, R: rhs},
					},
				}},
			}},
		},
	}
}

func seededMatrix(n int64) *runtime.Strict {
	m := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
	for i := range m.Data {
		m.Data[i] = float64(i%17) * 0.25
	}
	return m
}

// planWorkers is the worker target the schedule tests plan for, so a
// test's plan does not depend on the host it runs on.
const planWorkers = 2

// optimizeFor optimizes p for planWorkers workers.
func optimizeFor(p *Program) { OptimizeWith(p, OptOptions{Workers: planWorkers}) }

// runWorkers compiles (optionally optimizing) and runs with a fixed
// worker count.
func runWorkers(t *testing.T, p *Program, optimize bool, workers int, inputs map[string]*runtime.Strict) *runtime.Strict {
	t.Helper()
	if optimize {
		Optimize(p)
	}
	ex := mustCompile(t, p)
	ex.SetWorkers(workers)
	out, err := ex.RunResult(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWavefrontScheduleMatchesSequential(t *testing.T) {
	n := int64(256)
	reads := [][2]int64{{-1, 0}, {0, -1}, {1, 0}, {0, 1}} // SOR shape
	ref := runWorkers(t, stencil2D(n, false, reads), false, 1,
		map[string]*runtime.Strict{"a": seededMatrix(n)})
	p := stencil2D(n, true, reads)
	optimizeFor(p)
	if d := p.Dump(); !strings.Contains(d, "[wavefront") {
		t.Fatalf("planner did not pick a wavefront schedule:\n%s", d)
	}
	ex := mustCompile(t, p)
	for _, w := range []int{2, 3, 8} {
		ex.SetWorkers(w)
		got, err := ex.RunResult(map[string]*runtime.Strict{"a": seededMatrix(n)})
		if err != nil {
			t.Fatal(err)
		}
		if !ref.EqualWithin(got, 0) {
			t.Fatalf("wavefront result differs from sequential at workers=%d", w)
		}
	}
}

func TestShardNestMatchesSequential(t *testing.T) {
	// Reads come from a separate input: the nest is dependence-free and
	// its outer loop should shard without synchronization.
	n := int64(256)
	mk := func(parallel bool) *Program {
		return &Program{
			Name: "jac",
			Arrays: []ArrayDecl{
				{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
				{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: parallel, Body: []Stmt{
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
	}
	in := map[string]*runtime.Strict{"b": seededMatrix(n)}
	ref := runWorkers(t, mk(false), false, 1, in)
	p := mk(true)
	optimizeFor(p)
	if d := p.Dump(); !strings.Contains(d, "[shard]") {
		t.Fatalf("planner did not shard the nest:\n%s", d)
	}
	got := runWorkers(t, p, false, 4, in)
	if !ref.EqualWithin(got, 0) {
		t.Fatal("sharded nest differs from sequential")
	}
}

func TestRowBandScheduleMatchesSequential(t *testing.T) {
	// Only an inner-carried dependence (a[i,j-1]): rows are independent,
	// so the planner should shard the outer loop into bands of rows.
	n := int64(256)
	reads := [][2]int64{{0, -1}}
	ref := runWorkers(t, stencil2D(n, false, reads), false, 1,
		map[string]*runtime.Strict{"a": seededMatrix(n)})
	p := stencil2D(n, true, reads)
	optimizeFor(p)
	outer, ok := p.Stmts[0].(*Loop)
	if !ok || outer.Par == nil || outer.Par.Kind != ParShard {
		t.Fatalf("want the outer loop sharded, got:\n%s", p.Dump())
	}
	got := runWorkers(t, p, false, 4, map[string]*runtime.Strict{"a": seededMatrix(n)})
	if !ref.EqualWithin(got, 0) {
		t.Fatal("row-band result differs from sequential")
	}
}

func TestUnitDistanceRecurrenceStaysSequential(t *testing.T) {
	// Big enough that a shard would pay if it were legal. Distance 3
	// (three residue-class chains) stays sequential too: no schedule
	// runs a carried 1-D recurrence.
	n := int64(1 << 20)
	for _, d := range []int64{1, 3} {
		p := &Program{
			Name:   "rec",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleInOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1 + d, To: n, Step: 1, Doacross: true, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1))},
						Rhs: &VBin{Op: '+',
							L: &ARef{Array: "a", Subs: []IntExpr{lin(-d, term("i", 1))}},
							R: &VConst{Value: 1},
						},
					},
				}},
			},
		}
		st := Optimize(p)
		if outer := p.Stmts[0].(*Loop); outer.Par != nil || st.ParSchedules != 0 {
			t.Fatalf("distance-%d recurrence must stay sequential:\n%s", d, p.Dump())
		}
	}
}

func TestNonUniformDependenceStaysSequential(t *testing.T) {
	// a[i,j] reads a[j,i]: conflicts exist at varying distances, no
	// uniform vector, so every tiled schedule must be refused.
	n := int64(128)
	p := &Program{
		Name:   "transp",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Doacross: true, Body: []Stmt{
				&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:   &ARef{Array: "a", Subs: []IntExpr{lin(0, term("j", 1)), lin(0, term("i", 1))}},
					},
				}},
			}},
		},
	}
	Optimize(p)
	if outer := p.Stmts[0].(*Loop); outer.Par != nil {
		t.Fatalf("non-uniform dependence wrongly scheduled: %s", outer.Par)
	}
}

// TestWavefrontPrefixRows exercises the per-row prefix statements of a
// tiled nest (the fused border-column case): the prefix must run once
// per row, before the row's first tile column.
func TestWavefrontPrefixRows(t *testing.T) {
	n := int64(384)
	mk := func(doacross bool) *Program {
		return &Program{
			Name:   "wf",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 2, To: n, Step: 1, Doacross: doacross, Body: []Stmt{
					&Assign{ // border column 1, read by the first inner iteration
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(1)},
						Rhs:   &VFromInt{X: &IVar{Name: "i"}},
					},
					&Loop{Var: "j", From: 2, To: n, Step: 1, Body: []Stmt{
						&Assign{
							Array: "a",
							Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
							Rhs: &VBin{Op: '*',
								L: &VConst{Value: 0.25},
								R: &VBin{Op: '+',
									L: &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1)), lin(0, term("j", 1))}},
									R: &ARef{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(-1, term("j", 1))}},
								},
							},
						},
					}},
				}},
			},
		}
	}
	ref := runWorkers(t, mk(false), false, 1, map[string]*runtime.Strict{"a": seededMatrix(n)})
	p := mk(true)
	optimizeFor(p)
	if d := p.Dump(); !strings.Contains(d, "[wavefront") {
		t.Fatalf("planner did not pick a wavefront schedule:\n%s", d)
	}
	got := runWorkers(t, p, false, 5, map[string]*runtime.Strict{"a": seededMatrix(n)})
	if !ref.EqualWithin(got, 0) {
		t.Fatal("wavefront-with-prefix result differs from sequential")
	}
}

// TestShardDeterministicError: several workers fail at different
// iterations — the reported error must be the sequentially-first one.
func TestShardDeterministicError(t *testing.T) {
	n := int64(8192)
	bad := int64(3000) // first failing iteration: subscript exceeds n
	p := &Program{
		Name:   "perr",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Par: &ParSchedule{Kind: ParShard}, Body: []Stmt{
				// i < bad: writes a[i]; i >= bad: writes a[i + n] — out of
				// bounds, so every iteration from bad on fails.
				&Assign{
					Array: "a",
					Subs: []IntExpr{&IBin{Op: '+',
						L: &IVar{Name: "i"},
						R: &IBin{Op: '*',
							L: &IConst{Value: n},
							R: &IBin{Op: '/', L: &IVar{Name: "i"}, R: &IConst{Value: bad}},
						},
					}},
					Rhs:         &VConst{Value: 1},
					CheckBounds: true,
				},
			}},
		},
	}
	ex := mustCompile(t, p)
	seqErr := func() string {
		ex.SetWorkers(1)
		_, err := ex.RunResult(nil)
		if err == nil {
			t.Fatal("sequential run did not fail")
		}
		return err.Error()
	}()
	for _, w := range []int{2, 4, 7} {
		ex.SetWorkers(w)
		_, err := ex.RunResult(nil)
		if err == nil {
			t.Fatalf("workers=%d: no error", w)
		}
		if err.Error() != seqErr {
			t.Fatalf("workers=%d: error %q, sequential %q", w, err.Error(), seqErr)
		}
	}
}

// TestShard2DDeterministicError: a sharded 2-D nest fails in rows
// owned by different workers, and within one row in both the prefix
// and the inner loop. Every worker count reports the sequential run's
// message: the earliest row's failure, and within a row the prefix's.
func TestShard2DDeterministicError(t *testing.T) {
	n := int64(128)
	checked := func(arr string, subs ...IntExpr) *ARef {
		return &ARef{Array: "b", CheckBounds: true, Subs: []IntExpr{
			lin(0, term("i", 1)), &IIdx{Array: arr, Subs: subs, CheckBounds: true}}}
	}
	p := &Program{
		Name: "serr",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
			{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
			{Name: "c", B: runtime.NewBounds1(1, n), Role: RoleOut},
			{Name: "pidx", B: runtime.NewBounds1(1, n), Role: RoleIn},
			{Name: "idx", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			// The checked subscripts keep the planner away; force the
			// shard to exercise the executor's error path.
			&Loop{Var: "i", From: 1, To: n, Step: 1, Par: &ParSchedule{Kind: ParShard}, Body: []Stmt{
				&Assign{Array: "c", Subs: []IntExpr{lin(0, term("i", 1))},
					Rhs: checked("pidx", lin(0, term("i", 1)))},
				&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs: checked("idx", lin(0, term("i", 1)), lin(0, term("j", 1)))},
				}},
			}},
		},
	}
	// Rows 40 and 100 fall to different workers at widths 2 and 4.
	// Row 100 fails in its prefix and at its fifth column; row 40 only
	// at its fiftieth.
	inputs := func(row40 bool) map[string]*runtime.Strict {
		pidx := runtime.NewStrict(runtime.NewBounds1(1, n))
		idx := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
		for i := int64(1); i <= n; i++ {
			pidx.Set(float64(i), i)
			for j := int64(1); j <= n; j++ {
				idx.Set(float64(j), i, j)
			}
		}
		pidx.Set(-100, 100)
		idx.Set(-5, 100, 5)
		if row40 {
			idx.Set(-50, 40, 50)
		}
		return map[string]*runtime.Strict{"b": seededMatrix(n), "pidx": pidx, "idx": idx}
	}
	ex := mustCompile(t, p)
	for _, c := range []struct {
		row40 bool
		want  string
	}{{true, "subscript -50 "}, {false, "subscript -100 "}} {
		in := inputs(c.row40)
		ex.SetWorkers(1)
		_, err := ex.RunResult(in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("sequential run: %v, want the failure at %q", err, c.want)
		}
		seqErr := err.Error()
		for _, w := range []int{2, 4} {
			ex.SetWorkers(w)
			_, err := ex.RunResult(in)
			if err == nil || err.Error() != seqErr {
				t.Fatalf("workers=%d: error %v, sequential %q", w, err, seqErr)
			}
		}
	}
}

func TestSetWorkersBetweenRuns(t *testing.T) {
	n := int64(128)
	reads := [][2]int64{{-1, 0}, {0, -1}}
	p := stencil2D(n, true, reads)
	Optimize(p)
	ex := mustCompile(t, p)
	var ref *runtime.Strict
	for run, w := range []int{1, 6, 2, 0} {
		ex.SetWorkers(w)
		got, err := ex.RunResult(map[string]*runtime.Strict{"a": seededMatrix(n)})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			ref = got
		} else if !ref.EqualWithin(got, 0) {
			t.Fatalf("run with workers=%d differs", w)
		}
	}
}

func TestRunParallelPoolReuse(t *testing.T) {
	// Workers park back on the idle stack and are reused; repeated
	// cohorts must not leak or deadlock.
	for round := 0; round < 50; round++ {
		var mu sync.Mutex
		seen := map[int]bool{}
		RunParallel(8, func(w int) {
			mu.Lock()
			seen[w] = true
			mu.Unlock()
		})
		if len(seen) != 8 {
			t.Fatalf("round %d: %d workers ran, want 8", round, len(seen))
		}
	}
	workerPool.mu.Lock()
	idle := len(workerPool.idle)
	workerPool.mu.Unlock()
	if idle == 0 || idle > maxIdleWorkers {
		t.Fatalf("idle pool size %d after reuse rounds", idle)
	}
}

// TestShardAndWavefrontExecutors drives the two executors directly, as
// the native tier's emitted kernels do: a shard's chunks cover the
// iterations exactly once without splitting a run of equal align
// values, and a wavefront tile starts only after the tiles above and
// to the left of it, at every worker budget (including budgets larger
// than the parallelism, and empty grids).
func TestShardAndWavefrontExecutors(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 4} {
		for _, trip := range []int64{0, 1, 7, 100} {
			align := func(_ int, t int64) int64 { return t / 3 }
			hits := make([]atomic.Int32, trip)
			Shard(w, trip, align, func(_ int, lo, hi int64) {
				if lo > 0 && lo < trip && lo/3 == (lo-1)/3 {
					t.Errorf("w=%d trip=%d: chunk starts at %d inside a run", w, trip, lo)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if n := hits[i].Load(); n != 1 {
					t.Fatalf("w=%d trip=%d: iteration %d ran %d times", w, trip, i, n)
				}
			}
		}
		for _, g := range [][2]int64{{0, 3}, {3, 0}, {1, 5}, {5, 1}, {4, 6}} {
			nti, ntj := g[0], g[1]
			done := make([]atomic.Bool, nti*ntj)
			Wavefront(w, nti, ntj, func(_ int, bi, bj int64) {
				if bi > 0 && !done[(bi-1)*ntj+bj].Load() || bj > 0 && !done[bi*ntj+bj-1].Load() {
					t.Errorf("w=%d grid %dx%d: tile (%d,%d) ran before its predecessors", w, nti, ntj, bi, bj)
				}
				done[bi*ntj+bj].Store(true)
			})
			for i := range done {
				if !done[i].Load() {
					t.Fatalf("w=%d grid %dx%d: tile %d never ran", w, nti, ntj, i)
				}
			}
		}
	}
}

// TestBarrierLockstep drives the step barrier with cohorts larger than
// the one P the test allows: no worker starts a phase before every
// worker has finished the previous one, whether the others spin or,
// behind a slow worker, park; a worker's Break releases the
// rest at their next Wait, and a worker's panic reaches the caller
// once every worker has returned. The Barrier is reused across runs.
func TestBarrierLockstep(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var b Barrier
	for _, n := range []int{1, 2, 4, 8} {
		const phases = 200
		done := make([]atomic.Int32, phases)
		b.Run(n, func(w int) {
			for p := range phases {
				if p > 0 && done[p-1].Load() != int32(n) {
					t.Errorf("n=%d: worker %d entered phase %d before phase %d finished", n, w, p, p-1)
				}
				done[p].Add(1)
				if w == 0 && p%50 == 0 {
					time.Sleep(2 * barrierSpin) // the others park
				}
				if !b.Wait() {
					t.Errorf("n=%d: barrier broken without a Break", n)
					return
				}
			}
		})
		var waits atomic.Int32
		b.Run(n, func(w int) {
			for p := 0; ; p++ {
				if w == n-1 && p == 3 {
					b.Break()
					return
				}
				if !b.Wait() {
					return
				}
				waits.Add(1)
			}
		})
		if got := waits.Load(); got != int32(3*n) {
			t.Errorf("n=%d: %d waits passed around a Break at phase 3, want %d", n, got, 3*n)
		}
		func() {
			defer func() {
				if r := recover(); r != "worker 0" && r != "last worker" {
					t.Errorf("n=%d: caller recovered %v", n, r)
				}
			}()
			b.Run(n, func(w int) {
				switch w {
				case 0:
					b.Wait()
					panic("worker 0")
				case n - 1:
					panic("last worker")
				}
				for b.Wait() {
				}
			})
			t.Errorf("n=%d: a worker's panic did not reach the caller", n)
		}()
	}
}
