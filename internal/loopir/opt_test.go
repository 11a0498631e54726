package loopir

import (
	"testing"

	"arraycomp/internal/runtime"
)

// runBoth compiles and executes two structurally identical programs —
// one raw, one after Optimize — and fails unless they agree on the
// result array element-wise and on error presence. build must return a
// fresh program each call (Optimize mutates in place).
func runBoth(t *testing.T, build func() *Program) *OptStats {
	t.Helper()
	raw := build()
	opt := build()
	stats := Optimize(opt)
	wantOut, wantErr := execProgram(t, raw)
	gotOut, gotErr := execProgram(t, opt)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error disagreement: raw err=%v, optimized err=%v\noptimized IR:\n%s",
			wantErr, gotErr, opt.Dump())
	}
	if wantErr != nil {
		return stats
	}
	if wantOut.B.Size() != gotOut.B.Size() {
		t.Fatalf("size disagreement: raw %v, optimized %v", wantOut.B, gotOut.B)
	}
	for off := int64(0); off < wantOut.B.Size(); off++ {
		if wantOut.Data[off] != gotOut.Data[off] {
			t.Fatalf("element %d: raw %v, optimized %v\noptimized IR:\n%s",
				off, wantOut.Data[off], gotOut.Data[off], opt.Dump())
		}
	}
	return stats
}

func execProgram(t *testing.T, p *Program) (*runtime.Strict, error) {
	t.Helper()
	ex, err := Compile(p)
	if err != nil {
		t.Fatalf("compile %s: %v\n%s", p.Name, err, p.Dump())
	}
	return ex.RunResult(nil)
}

// iref reads a[i+d].
func iref(arr string, d int64) *ARef {
	return &ARef{Array: arr, Subs: []IntExpr{lin(d, term("i", 1))}}
}

// iassign writes arr[i+d] := rhs, unchecked.
func iassign(arr string, d int64, rhs VExpr) *Assign {
	return &Assign{Array: arr, Subs: []IntExpr{lin(d, term("i", 1))}, Rhs: rhs}
}

// TestFusionLegality drives fuseAdjacent through the dependence test:
// adjacent same-header passes fuse only when no fused-loop iteration
// would read an element a later iteration writes (iteration distance
// must be ≤ 0), and never across header or barrier differences.
func TestFusionLegality(t *testing.T) {
	const n = 16
	decl := func(names ...string) []ArrayDecl {
		var ds []ArrayDecl
		for i, nm := range names {
			role := RoleTemp
			if i == 0 {
				role = RoleOut
			}
			ds = append(ds, ArrayDecl{Name: nm, B: runtime.NewBounds1(1, n), Role: role})
		}
		return ds
	}
	loop := func(from, to, step int64, body ...Stmt) *Loop {
		return &Loop{Var: "i", From: from, To: to, Step: step, Body: body}
	}
	cases := []struct {
		name     string
		build    func() *Program
		wantFuse int
	}{
		{
			// Independent arrays: always fusable.
			"disjoint arrays",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(1, n, 1, iassign("a", 0, &VConst{Value: 2})),
				}}
			},
			1,
		},
		{
			// Same-iteration flow (read of b[i] after write of b[i]):
			// distance 0, safe.
			"same-iteration dependence",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(1, n, 1, iassign("a", 0, &VBin{Op: '*', L: iref("b", 0), R: &VConst{Value: 2}})),
				}}
			},
			1,
		},
		{
			// Backward flow (pass 2 reads b[i-1], written one iteration
			// earlier): distance -1, safe.
			"backward dependence",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(2, n, 1, &Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: iref("b", -1)}),
				}}
			},
			0, // headers differ (from 1 vs 2) — must not fuse
		},
		{
			// Same headers, backward flow: legal.
			"backward dependence same header",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(2, n, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(2, n, 1, iassign("a", 0, iref("b", -1))),
				}}
			},
			1,
		},
		{
			// Forward flow: pass 2 reads b[i+1], which pass 1 writes in
			// a LATER fused iteration. The split loops see the final
			// values; the fused loop would read stale ones. Must not
			// fuse — this is the dependence-carrying pass split.
			"forward dependence",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(1, n-1, 1, iassign("a", 0, iref("b", 1))),
				}}
			},
			0,
		},
		{
			// Forward output dependence with equal trip counts (so the
			// headers match exactly): pass 1 writes b[i], pass 2
			// rewrites b[i+1] — fusing would let pass 1's iteration i+1
			// clobber pass 2's earlier write.
			"forward output dependence",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n-1, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(1, n-1, 1, iassign("b", 1, &VConst{Value: 7})),
					loop(1, n, 1, iassign("a", 0, iref("b", 0))),
				}}
			},
			0,
		},
		{
			// Direction change: identical ranges walked opposite ways
			// must never fuse, even though the write sets are disjoint
			// arrays (headers differ).
			"direction change",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n, 1, iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(n, 1, -1, iassign("a", 0, &VConst{Value: 1})),
				}}
			},
			0,
		},
		{
			// Disjoint index ranges of the same array: the exact
			// distance test finds no feasible dependence.
			"disjoint halves",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a"), Stmts: []Stmt{
					&Loop{Var: "i", From: 1, To: n / 2, Step: 1, Body: []Stmt{iassign("a", 0, &VConst{Value: 1})}},
					&Loop{Var: "i", From: 1, To: n / 2, Step: 1, Body: []Stmt{iassign("a", n/2, &VConst{Value: 2})}},
				}}
			},
			1,
		},
		{
			// A Fail statement between two fusable loops is a barrier.
			"fail barrier",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					loop(1, n, 1, iassign("b", 0, &VConst{Value: 1})),
					&If{Cond: &BConst{Value: false}, Then: []Stmt{&Fail{Msg: "nope"}}},
					loop(1, n, 1, iassign("a", 0, &VConst{Value: 2})),
				}}
			},
			0,
		},
		{
			// Pass 2 gathers through b[i+1], which pass 1 writes in a
			// later fused iteration. An index load's element is
			// data-dependent, so it conflicts with every write of its
			// array: must not fuse.
			"index load of a later write",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b", "x"), Stmts: []Stmt{
					&Fill{Array: "b", Value: 1},
					loop(1, n, 1, iassign("x", 0, &VFromInt{X: &IVar{Name: "i"}})),
					loop(1, n-1, 1, iassign("b", 0, &VFromInt{X: lin(1, term("i", 1))})),
					loop(1, n-1, 1, iassign("a", 0, &ARef{Array: "x", CheckBounds: true,
						Subs: []IntExpr{&IIdx{Array: "b", Subs: []IntExpr{lin(1, term("i", 1))}, CheckBounds: true}}})),
				}}
			},
			0,
		},
		{
			// Pass 2 refills b every iteration, a whole-array write that
			// pass 1's read of b[i] must not see early.
			"fill in a pass",
			func() *Program {
				return &Program{Name: "p", Arrays: decl("a", "b"), Stmts: []Stmt{
					&Fill{Array: "b", Value: 5},
					loop(1, n, 1, iassign("a", 0, iref("b", 0))),
					loop(1, n, 1, &Fill{Array: "b", Value: 2}),
				}}
			},
			0,
		},
		{
			// Both passes write the same scalar: order matters for the
			// final value, so fusion is rejected.
			"shared scalar",
			func() *Program {
				p := &Program{Name: "p", Arrays: decl("a"), Scalars: []string{"s"}, Stmts: []Stmt{
					loop(1, n, 1,
						&SetScalar{Name: "s", Rhs: &VFromInt{X: &IVar{Name: "i"}}},
						iassign("a", 0, &VScalar{Name: "s"})),
					loop(1, n, 1,
						&SetScalar{Name: "s", Rhs: &VConst{Value: 9}}),
				}}
				return p
			},
			0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats := runBoth(t, tc.build)
			if stats.FusedLoops != tc.wantFuse {
				t.Errorf("FusedLoops = %d, want %d\noptimized IR:\n%s",
					stats.FusedLoops, tc.wantFuse, func() string { p := tc.build(); Optimize(p); return p.Dump() }())
			}
		})
	}
}

// TestFusionKeepsParallelOnlyWhenIndependent checks that fusing two
// parallel passes with a distance-0 dependence produces a sequential
// loop (the cross-pass flow is now intra-iteration, but conservatively
// only distance-free fusions stay parallel when every dependence is
// same-iteration and the analysis proves it).
func TestFusionCarriedKillsParallel(t *testing.T) {
	const n = 64
	build := func() *Program {
		return &Program{
			Name: "p",
			Arrays: []ArrayDecl{
				{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut},
				{Name: "b", B: runtime.NewBounds1(1, n), Role: RoleTemp},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
					iassign("b", 0, &VFromInt{X: &IVar{Name: "i"}}),
				}},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
					iassign("a", 0, iref("b", 0)),
				}},
			},
		}
	}
	stats := runBoth(t, build)
	if stats.FusedLoops != 1 {
		t.Fatalf("FusedLoops = %d, want 1", stats.FusedLoops)
	}
	p := build()
	Optimize(p)
	var loops []*Loop
	for _, s := range p.Stmts {
		if l, ok := s.(*Loop); ok {
			loops = append(loops, l)
		}
	}
	if len(loops) != 1 {
		t.Fatalf("want a single fused loop, got %d:\n%s", len(loops), p.Dump())
	}
	if !loops[0].Parallel {
		t.Errorf("distance-0 dependence should keep the fused loop parallel:\n%s", p.Dump())
	}
}

// TestGuardHoisting covers invariant-guard unswitching and its safety
// valves.
func TestGuardHoisting(t *testing.T) {
	const n = 8
	arrs := []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}}
	scalarGT := func(s string, v float64) BExpr {
		return &BCmpFloat{Op: ">", L: &VScalar{Name: s}, R: &VConst{Value: v}}
	}
	t.Run("whole guard unswitched", func(t *testing.T) {
		build := func() *Program {
			return &Program{Name: "p", Arrays: arrs, Scalars: []string{"s"}, Stmts: []Stmt{
				&SetScalar{Name: "s", Rhs: &VConst{Value: 1}},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&If{Cond: scalarGT("s", 0),
						Then: []Stmt{iassign("a", 0, &VConst{Value: 1})},
						Else: []Stmt{iassign("a", 0, &VConst{Value: 2})}},
				}},
				&Fill{Array: "a", Value: 0}, // keeps "a" defined on both paths irrelevant; see below
			}}
		}
		// Fill after the loop would clobber; drop it — build a simpler shape.
		build = func() *Program {
			return &Program{Name: "p", Arrays: arrs, Scalars: []string{"s"}, Stmts: []Stmt{
				&SetScalar{Name: "s", Rhs: &VConst{Value: 1}},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&If{Cond: scalarGT("s", 0),
						Then: []Stmt{iassign("a", 0, &VConst{Value: 1})},
						Else: []Stmt{iassign("a", 0, &VConst{Value: 2})}},
				}},
			}}
		}
		stats := runBoth(t, build)
		if stats.Unswitched != 1 {
			t.Errorf("Unswitched = %d, want 1", stats.Unswitched)
		}
	})
	t.Run("variant guard stays", func(t *testing.T) {
		build := func() *Program {
			return &Program{Name: "p", Arrays: arrs, Stmts: []Stmt{
				&Fill{Array: "a", Value: 0},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&If{Cond: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: 3}},
						Then: []Stmt{iassign("a", 0, &VConst{Value: 1})}},
				}},
			}}
		}
		stats := runBoth(t, build)
		if stats.Unswitched != 0 {
			t.Errorf("Unswitched = %d, want 0", stats.Unswitched)
		}
	})
	t.Run("conjunct split", func(t *testing.T) {
		// s > 0 is invariant and total; i == 3 is variant. The
		// invariant conjunct moves out, the variant one stays.
		build := func() *Program {
			return &Program{Name: "p", Arrays: arrs, Scalars: []string{"s"}, Stmts: []Stmt{
				&Fill{Array: "a", Value: 0},
				&SetScalar{Name: "s", Rhs: &VConst{Value: 1}},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&If{Cond: &BAnd{
						L: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: 3}},
						R: scalarGT("s", 0),
					}, Then: []Stmt{iassign("a", 0, &VConst{Value: 1})}},
				}},
			}}
		}
		stats := runBoth(t, build)
		if stats.Unswitched != 1 {
			t.Errorf("Unswitched = %d, want 1", stats.Unswitched)
		}
	})
	t.Run("failing conjunct not hoisted", func(t *testing.T) {
		// The guard is `i == 99 && 1/(i-i) == 1`. && short-circuits and
		// the left side is always false, so the division by zero never
		// runs. Splitting the invariant-looking right conjunct out of
		// the loop would introduce a failure that the original program
		// does not have; runBoth checks error agreement.
		divZero := &BCmpInt{Op: "==",
			L: &IBin{Op: '/', L: &IConst{Value: 1}, R: &IBin{Op: '-', L: &IVar{Name: "i"}, R: &IVar{Name: "i"}}},
			R: &IConst{Value: 1}}
		build := func() *Program {
			return &Program{Name: "p", Arrays: arrs, Stmts: []Stmt{
				&Fill{Array: "a", Value: 0},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&If{Cond: &BAnd{
						L: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: 99}},
						R: divZero,
					}, Then: []Stmt{iassign("a", 0, &VConst{Value: 1})}},
				}},
			}}
		}
		runBoth(t, build)
	})
}

// TestScalarAndSubexprHoisting checks loop-invariant SetScalar motion
// and common-subexpression extraction out of loop bodies.
func TestScalarAndSubexprHoisting(t *testing.T) {
	const n = 8
	t.Run("invariant SetScalar", func(t *testing.T) {
		build := func() *Program {
			return &Program{
				Name:    "p",
				Arrays:  []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
				Scalars: []string{"s"},
				Stmts: []Stmt{
					&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
						&SetScalar{Name: "s", Rhs: &VConst{Value: 2.5}},
						iassign("a", 0, &VScalar{Name: "s"}),
					}},
				},
			}
		}
		stats := runBoth(t, build)
		if stats.HoistedScalars != 1 {
			t.Errorf("HoistedScalars = %d, want 1", stats.HoistedScalars)
		}
	})
	t.Run("invariant subexpression", func(t *testing.T) {
		// sqrt(s) is invariant inside the loop; the optimizer gives it
		// a fresh scalar computed once before the loop.
		build := func() *Program {
			return &Program{
				Name:    "p",
				Arrays:  []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
				Scalars: []string{"s"},
				Stmts: []Stmt{
					&SetScalar{Name: "s", Rhs: &VConst{Value: 9}},
					&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
						iassign("a", 0, &VBin{Op: '+',
							L: &VCall{Fn: "sqrt", Args: []VExpr{&VScalar{Name: "s"}}},
							R: &VFromInt{X: &IVar{Name: "i"}}}),
					}},
				},
			}
		}
		stats := runBoth(t, build)
		if stats.HoistedExprs != 1 {
			t.Errorf("HoistedExprs = %d, want 1", stats.HoistedExprs)
		}
	})
}

// TestStrengthReductionStrides checks the induction-register
// bookkeeping, in particular under negative loop directions where the
// register step must follow the loop step's sign.
func TestStrengthReductionStrides(t *testing.T) {
	const n = 12
	t.Run("backward 1-D", func(t *testing.T) {
		// do i = n..2 step -1: a[i] := a[i-1] * 2 — reads march
		// backwards alongside writes.
		build := func() *Program {
			return &Program{
				Name:   "p",
				Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
				Stmts: []Stmt{
					&Fill{Array: "a", Value: 3},
					&Loop{Var: "i", From: n, To: 2, Step: -1, Body: []Stmt{
						iassign("a", 0, &VBin{Op: '*', L: iref("a", -1), R: &VConst{Value: 2}}),
					}},
				},
			}
		}
		stats := runBoth(t, build)
		if stats.IndRegisters == 0 || stats.ReducedAccesses == 0 {
			t.Fatalf("expected strength reduction, got %+v", *stats)
		}
		p := build()
		Optimize(p)
		var l *Loop
		for _, s := range p.Stmts {
			if x, ok := s.(*Loop); ok {
				l = x
			}
		}
		if l == nil || len(l.Inds) != 1 {
			t.Fatalf("want one induction register:\n%s", p.Dump())
		}
		if l.Inds[0].Step != -1 {
			t.Errorf("ind step = %d, want -1 (loop step -1 × coeff 1):\n%s", l.Inds[0].Step, p.Dump())
		}
	})
	t.Run("backward 2-D row base", func(t *testing.T) {
		// Backward outer row loop over a 2-D mesh: the inner register's
		// per-row Init depends on the outer variable, and the outer
		// walk is descending.
		build := func() *Program {
			return &Program{
				Name:   "p",
				Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut}},
				Stmts: []Stmt{
					&Fill{Array: "a", Value: 0},
					&Loop{Var: "i", From: n, To: 1, Step: -1, Body: []Stmt{
						&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
							&Assign{Array: "a",
								Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
								Rhs:  &VFromInt{X: &IBin{Op: '+', L: &IBin{Op: '*', L: &IVar{Name: "i"}, R: &IConst{Value: 100}}, R: &IVar{Name: "j"}}}},
						}},
					}},
				},
			}
		}
		stats := runBoth(t, build)
		if stats.IndRegisters == 0 {
			t.Fatalf("expected an induction register, got %+v", *stats)
		}
	})
	t.Run("non-unit coefficient", func(t *testing.T) {
		// a[3i] walks with stride 3; the register step must be
		// coeff × loop step = 3.
		build := func() *Program {
			return &Program{
				Name:   "p",
				Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 3*n), Role: RoleOut}},
				Stmts: []Stmt{
					&Fill{Array: "a", Value: 0},
					&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
						&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 3))}, Rhs: &VFromInt{X: &IVar{Name: "i"}}},
					}},
				},
			}
		}
		runBoth(t, build)
		p := build()
		Optimize(p)
		var l *Loop
		for _, s := range p.Stmts {
			if x, ok := s.(*Loop); ok {
				l = x
			}
		}
		if l == nil || len(l.Inds) != 1 || l.Inds[0].Step != 3 {
			t.Fatalf("want one stride-3 induction register:\n%s", p.Dump())
		}
	})
}

// TestDeadLoopRemoval: zero-trip loops disappear before any other pass
// (which is what makes trip ≥ 1 a sound hoisting precondition).
func TestDeadLoopRemoval(t *testing.T) {
	const n = 4
	build := func() *Program {
		return &Program{
			Name:   "p",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
			Stmts: []Stmt{
				&Fill{Array: "a", Value: 1},
				&Loop{Var: "i", From: 5, To: 4, Step: 1, Body: []Stmt{
					iassign("a", 0, &VConst{Value: 99}),
				}},
			},
		}
	}
	stats := runBoth(t, build)
	if stats.DeadLoops != 1 {
		t.Errorf("DeadLoops = %d, want 1", stats.DeadLoops)
	}
}

// TestEstimateWorkSaturates: a nest of huge trip counts must clamp at
// workSaturated rather than wrapping negative (which used to disable
// the parallel executor for exactly the loops that want it most).
func TestEstimateWorkSaturates(t *testing.T) {
	body := []Stmt{&SetScalar{Name: "s", Rhs: &VConst{Value: 1}}}
	for d := 0; d < 5; d++ {
		body = []Stmt{&Loop{Var: "i", From: 1, To: 1 << 40, Step: 1, Body: body}}
	}
	got := estimateWork(body)
	if got != workSaturated {
		t.Fatalf("estimateWork = %d, want saturation at %d", got, workSaturated)
	}
	if got <= 0 {
		t.Fatalf("estimateWork overflowed negative: %d", got)
	}
}

// TestOptimizeIdempotent: running Optimize twice must not change the
// program again (Off annotations mark accesses as already reduced).
func TestOptimizeIdempotent(t *testing.T) {
	p := squaresProgram(16)
	Optimize(p)
	first := p.Dump()
	st := Optimize(p)
	if st.Changed() {
		t.Fatalf("second Optimize changed the program: %s\n%s", st, p.Dump())
	}
	if p.Dump() != first {
		t.Fatalf("second Optimize altered the dump:\n%s\nvs\n%s", p.Dump(), first)
	}
}
