package loopir

import (
	"math"
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

// runOpt builds the program via mk twice, optimizes one copy with the
// stencil specializer on and one with it off, runs both, and returns
// the two result arrays for bitwise comparison. The specializer's
// contract is bitwise identity, not tolerance agreement.
func runSplitVsPlain(t *testing.T, mk func() *Program) (*runtime.Strict, *runtime.Strict) {
	t.Helper()
	ins := func(p *Program) map[string]*runtime.Strict {
		m := map[string]*runtime.Strict{}
		for _, d := range p.Arrays {
			if d.Role != RoleIn && d.Role != RoleInOut {
				continue
			}
			a := runtime.NewStrict(d.B)
			for i := range a.Data {
				a.Data[i] = 0.25 * float64(i+1)
			}
			m[d.Name] = a
		}
		return m
	}
	spec := mk()
	Optimize(spec)
	plain := mk()
	OptimizeWith(plain, OptOptions{NoStencil: true})
	specOut, err := mustCompile(t, spec).RunResult(ins(spec))
	if err != nil {
		t.Fatalf("specialized run: %v", err)
	}
	plainOut, err := mustCompile(t, plain).RunResult(ins(plain))
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	return specOut, plainOut
}

func assertBitwise(t *testing.T, spec, plain *runtime.Strict) {
	t.Helper()
	if len(spec.Data) != len(plain.Data) {
		t.Fatalf("result sizes differ: %d vs %d", len(spec.Data), len(plain.Data))
	}
	for i := range spec.Data {
		if math.Float64bits(spec.Data[i]) != math.Float64bits(plain.Data[i]) {
			t.Fatalf("element %d differs bitwise: specialized %v, plain %v",
				i, spec.Data[i], plain.Data[i])
		}
	}
}

// guarded1D builds: do i = 1..n: a[i] := if i == 1 then 1 else 0.5 + a[i-1]
// — the paper's Example 1 shape, the canonical interior/boundary split.
func guarded1D(n int64) func() *Program {
	return func() *Program {
		return &Program{
			Name:   "g1d",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1))},
						Rhs: &VCond{
							C: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: 1}},
							T: &VConst{Value: 1},
							E: &VBin{Op: '+',
								L: &VConst{Value: 0.5},
								R: &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1))}}},
						},
					},
				}},
			},
		}
	}
}

func TestStencilSplitGuarded1D(t *testing.T) {
	mk := guarded1D(10)
	p := mk()
	Optimize(p)
	d := p.Dump()
	if !strings.Contains(d, "[stencil boundary]") && !strings.Contains(d, "boundary]") {
		t.Fatalf("no boundary clone in dump:\n%s", d)
	}
	if !strings.Contains(d, "interior]") {
		t.Fatalf("no interior clone in dump:\n%s", d)
	}
	if strings.Contains(d, "?") || strings.Contains(d, "if ") {
		// The guard must be fully resolved in both clones.
		t.Fatalf("residual guard after split:\n%s", d)
	}
	rep := CertifySplits(p)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("legal split falsified:\n%s", rep)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("split not certified: %s", rep.Summary())
	}
	spec, plain := runSplitVsPlain(t, mk)
	assertBitwise(t, spec, plain)
	if got := spec.At(int64(10)); got != 5.5 {
		t.Fatalf("a[10] = %v, want 5.5", got)
	}
}

// TestStencilNestedGuardSplit reproduces the fuzzer shape where a
// clone of one split carries a residual guard that is resolved by a
// second pass: if k <= 3 then (if k <= 3 then 2.25 else 99) else 2.
// The clone over [1..3] must keep its membership in split #1 while
// gaining a record for the in-place resolution of the inner guard.
func TestStencilNestedGuardSplit(t *testing.T) {
	mk := func() *Program {
		inner := &VCond{
			C: &BCmpInt{Op: "<=", L: &IVar{Name: "k"}, R: &IConst{Value: 3}},
			T: &VConst{Value: 2.25},
			E: &VConst{Value: 99},
		}
		return &Program{
			Name:   "nested",
			Arrays: []ArrayDecl{{Name: "b", B: runtime.NewBounds1(1, 6), Role: RoleOut}},
			Stmts: []Stmt{
				&Loop{Var: "k", From: 1, To: 6, Step: 1, Body: []Stmt{
					&Assign{
						Array: "b",
						Subs:  []IntExpr{lin(0, term("k", 1))},
						Rhs: &VCond{
							C: &BCmpInt{Op: "<=", L: &IVar{Name: "k"}, R: &IConst{Value: 3}},
							T: inner,
							E: &VConst{Value: 2},
						},
					},
				}},
			},
		}
	}
	p := mk()
	Optimize(p)
	// Both loops survive; the [1..3] clone must carry two records: the
	// outer split and the in-place inner resolution.
	var recs int
	for _, s := range p.Stmts {
		if l, ok := s.(*Loop); ok && l.Sten != nil {
			recs += len(l.Sten.Splits)
		}
	}
	if recs < 3 {
		t.Fatalf("want >=3 split records across clones (2 partition + 1 in-place), got %d:\n%s", recs, p.Dump())
	}
	rep := CertifySplits(p)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("nested split falsified:\n%s", rep)
	}
	spec, plain := runSplitVsPlain(t, mk)
	assertBitwise(t, spec, plain)
	for k := int64(1); k <= 6; k++ {
		want := 2.25
		if k > 3 {
			want = 2
		}
		if got := spec.At(k); got != want {
			t.Fatalf("b[%d] = %v, want %v", k, got, want)
		}
	}
}

// TestStencilEmptyInterior splits on i == 2 over [1..3]: three
// width-1 clones, no meaningful interior. The split must stay exact
// and the results identical.
func TestStencilEmptyInterior(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Name:   "allb",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 3), Role: RoleOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: 3, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1))},
						Rhs: &VCond{
							C: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: 2}},
							T: &VConst{Value: 7},
							E: &VConst{Value: 3},
						},
					},
				}},
			},
		}
	}
	p := mk()
	Optimize(p)
	if rep := CertifySplits(p); rep.FalsifiedCount != 0 {
		t.Fatalf("all-boundary split falsified:\n%s", rep)
	}
	spec, plain := runSplitVsPlain(t, mk)
	assertBitwise(t, spec, plain)
	want := []float64{3, 7, 3}
	for i := int64(1); i <= 3; i++ {
		if spec.At(i) != want[i-1] {
			t.Fatalf("a[%d] = %v, want %v", i, spec.At(i), want[i-1])
		}
	}
}

// Degenerate shapes must fall back to the general path (or split
// trivially) and stay bitwise identical to the unspecialized build.
func TestStencilDegenerateFallback(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Program
	}{
		{"one-wide-array", guarded1D(1)},
		{"footprint-exceeds-extent", func() *Program {
			// Reads at ±2 over a 2-iteration loop: halo 2 >= extent 2.
			return &Program{
				Name: "fat",
				Arrays: []ArrayDecl{
					{Name: "a", B: runtime.NewBounds1(1, 8), Role: RoleOut},
					{Name: "b", B: runtime.NewBounds1(1, 8), Role: RoleIn},
				},
				Stmts: []Stmt{
					&Loop{Var: "i", From: 3, To: 4, Step: 1, Body: []Stmt{
						&Assign{
							Array: "a",
							Subs:  []IntExpr{lin(0, term("i", 1))},
							Rhs: &VBin{Op: '+',
								L: &ARef{Array: "b", Subs: []IntExpr{lin(-2, term("i", 1))}},
								R: &ARef{Array: "b", Subs: []IntExpr{lin(2, term("i", 1))}}},
						},
					}},
				},
			}
		}},
		{"asymmetric-offsets", func() *Program {
			return &Program{
				Name: "asym",
				Arrays: []ArrayDecl{
					{Name: "a", B: runtime.NewBounds1(1, 16), Role: RoleOut},
					{Name: "b", B: runtime.NewBounds1(1, 16), Role: RoleIn},
				},
				Stmts: []Stmt{
					&Loop{Var: "i", From: 4, To: 14, Step: 1, Body: []Stmt{
						&Assign{
							Array: "a",
							Subs:  []IntExpr{lin(0, term("i", 1))},
							Rhs: &VBin{Op: '+',
								L: &ARef{Array: "b", Subs: []IntExpr{lin(-3, term("i", 1))}},
								R: &ARef{Array: "b", Subs: []IntExpr{lin(1, term("i", 1))}}},
						},
					}},
				},
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, plain := runSplitVsPlain(t, c.mk)
			assertBitwise(t, spec, plain)
		})
	}
}

// TestStencilNegativeStrideUntouched: the splitter is defined over
// unit-stride loops only; a backward recurrence must
// come out with no stencil marks and unchanged semantics.
func TestStencilNegativeStrideUntouched(t *testing.T) {
	mk := func() *Program {
		n := int64(8)
		return &Program{
			Name:   "bwd",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: n, To: 1, Step: -1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1))},
						Rhs: &VCond{
							C: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: n}},
							T: &VConst{Value: 1},
							E: &VBin{Op: '*',
								L: &ARef{Array: "a", Subs: []IntExpr{lin(1, term("i", 1))}},
								R: &VConst{Value: 2}},
						},
					},
				}},
			},
		}
	}
	p := mk()
	Optimize(p)
	if strings.Contains(p.Dump(), "stencil") {
		t.Fatalf("negative-stride loop gained a stencil mark:\n%s", p.Dump())
	}
	spec, plain := runSplitVsPlain(t, mk)
	assertBitwise(t, spec, plain)
	if got := spec.At(int64(1)); got != 128 {
		t.Fatalf("a[1] = %v, want 128", got)
	}
}

// TestCertifySplitsFalsifiesMisSplit forges broken splits — a gap in
// the partition, an overlap, and a wrong resolved guard value — and
// requires CertifySplits to falsify each with a witness.
func TestCertifySplitsFalsifiesMisSplit(t *testing.T) {
	guard := func() BExpr {
		return &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: 1}}
	}
	body := func() []Stmt {
		return []Stmt{&Assign{
			Array: "a",
			Subs:  []IntExpr{lin(0, term("i", 1))},
			Rhs:   &VConst{Value: 1},
		}}
	}
	mk := func(f1, t1, f2, t2 int64, val2 bool) *Program {
		return &Program{
			Name:   "forged",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 10), Role: RoleOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: f1, To: t1, Step: 1,
					Sten: &StencilInfo{Boundary: true, Splits: []SplitRecord{
						{ID: 1, OrigFrom: 1, OrigTo: 10, Guard: guard(), GuardVal: true}}},
					Body: body()},
				&Loop{Var: "i", From: f2, To: t2, Step: 1,
					Sten: &StencilInfo{Splits: []SplitRecord{
						{ID: 1, OrigFrom: 1, OrigTo: 10, Guard: guard(), GuardVal: val2}}},
					Body: body()},
			},
		}
	}
	cases := []struct {
		name string
		p    *Program
	}{
		{"gap", mk(1, 1, 3, 10, false)},        // iteration 2 lost
		{"overlap", mk(1, 2, 2, 10, false)},    // iteration 2 runs twice
		{"wrong-value", mk(1, 1, 2, 10, true)}, // guard is false on [2..10]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := CertifySplits(c.p)
			if rep.FalsifiedCount == 0 {
				t.Fatalf("forged split survived certification:\n%s", rep)
			}
			if len(rep.Failures[0].Witness) == 0 {
				t.Fatalf("falsification carries no witness: %s", rep.Failures[0])
			}
		})
	}
}

// TestStencilSplitStats checks the optimizer stats counters feed
// through Changed/String so `hacc report` surfaces the specializer.
func TestStencilSplitStats(t *testing.T) {
	p := guarded1D(10)()
	st := OptimizeWith(p, OptOptions{})
	if st.StencilSplits == 0 || st.StencilGuards == 0 {
		t.Fatalf("split stats not recorded: %+v", st)
	}
	if !st.Changed() {
		t.Fatal("stats with splits must report Changed")
	}
	if s := st.String(); !strings.Contains(s, "stencil") {
		t.Fatalf("stats string missing stencil counters: %s", s)
	}
}
