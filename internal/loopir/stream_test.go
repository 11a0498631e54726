package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

// b1 builds rank-1 bounds.
func b1(lo, hi int64) runtime.Bounds { return runtime.NewBounds1(lo, hi) }

// elementwiseProg is out[i] = x[i]*2 + x[i-1] for i in 2..n, out[1] = x[1].
func elementwiseProg(n int64) *Program {
	return &Program{
		Name: "ew",
		Arrays: []ArrayDecl{
			{Name: "x", B: b1(1, n), Role: RoleIn},
			{Name: "ew", B: b1(1, n), Role: RoleOut},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 1, Step: 1, Body: []Stmt{
				&Assign{Array: "ew", Subs: []IntExpr{&IVar{Name: "i"}},
					Rhs: &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}}},
			}},
			&Loop{Var: "i", From: 2, To: n, Step: 1, Body: []Stmt{
				&Assign{Array: "ew", Subs: []IntExpr{&IVar{Name: "i"}},
					Rhs: &VBin{Op: '+',
						L: &VBin{Op: '*', L: &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}}, R: &VConst{Value: 2}},
						R: &ARef{Array: "x", Subs: []IntExpr{&ILin{Const: -1, Terms: []ITerm{{Var: "i", Coeff: 1}}}}}}},
			}},
		},
	}
}

func TestStreamPlanElementwise(t *testing.T) {
	p := elementwiseProg(100)
	sp, err := BuildStreamPlan(p)
	if err != nil {
		t.Fatalf("BuildStreamPlan: %v", err)
	}
	if sp.Out != "ew" || sp.Lo != 1 || sp.Hi != 100 {
		t.Fatalf("bad output identity: %+v", sp)
	}
	if sp.SelfBack != 0 {
		t.Fatalf("no self reads expected, got SelfBack=%d", sp.SelfBack)
	}
	w := sp.Read("x")
	if w == nil || !w.Windowable || w.Back != 1 || w.Fwd != 0 {
		t.Fatalf("x window wrong: %+v", w)
	}
	if sp.MaxDist != 1 || sp.Loops != 2 {
		t.Fatalf("MaxDist=%d Loops=%d", sp.MaxDist, sp.Loops)
	}
}

// recurrenceProg is the first-order recurrence out[1]=x[1];
// out[i] = out[i-1]*0.5 + x[i].
func recurrenceProg(n int64) *Program {
	return &Program{
		Name: "rec",
		Arrays: []ArrayDecl{
			{Name: "x", B: b1(1, n), Role: RoleIn},
			{Name: "rec", B: b1(1, n), Role: RoleOut},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 1, Step: 1, Body: []Stmt{
				&Assign{Array: "rec", Subs: []IntExpr{&IVar{Name: "i"}},
					Rhs: &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}}},
			}},
			&Loop{Var: "i", From: 2, To: n, Step: 1, Body: []Stmt{
				&Assign{Array: "rec", Subs: []IntExpr{&IVar{Name: "i"}},
					Rhs: &VBin{Op: '+',
						L: &VBin{Op: '*', L: &ARef{Array: "rec", Subs: []IntExpr{&ILin{Const: -1, Terms: []ITerm{{Var: "i", Coeff: 1}}}}}, R: &VConst{Value: 0.5}},
						R: &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}}}},
			}},
		},
	}
}

func TestStreamPlanRecurrence(t *testing.T) {
	sp, err := BuildStreamPlan(recurrenceProg(50))
	if err != nil {
		t.Fatalf("BuildStreamPlan: %v", err)
	}
	if sp.SelfBack != 1 {
		t.Fatalf("SelfBack=%d, want 1", sp.SelfBack)
	}
	if sp.MaxDist != 1 {
		t.Fatalf("MaxDist=%d, want 1", sp.MaxDist)
	}
}

func TestStreamPlanRejections(t *testing.T) {
	n := int64(50)
	cases := []struct {
		name string
		mut  func(p *Program)
		want string
	}{
		{"forward self read", func(p *Program) {
			// out[i] = out[i+1] — reads ahead of the write.
			l := p.Stmts[1].(*Loop)
			l.Body[0].(*Assign).Rhs = &ARef{Array: "rec", Subs: []IntExpr{&ILin{Const: 1, Terms: []ITerm{{Var: "i", Coeff: 1}}}}}
		}, "strictly backward"},
		{"non-unit write", func(p *Program) {
			l := p.Stmts[1].(*Loop)
			l.Body[0].(*Assign).Subs = []IntExpr{&ILin{Terms: []ITerm{{Var: "i", Coeff: 2}}}}
		}, "not i+c"},
		{"backward step", func(p *Program) {
			l := p.Stmts[1].(*Loop)
			l.From, l.To, l.Step = n, 2, -1
		}, "step -1"},
		{"runtime check kept", func(p *Program) {
			l := p.Stmts[1].(*Loop)
			l.Body[0].(*Assign).Rhs.(*VBin).R.(*ARef).CheckBounds = true
		}, "runtime checks"},
		{"div guard", func(p *Program) {
			l := p.Stmts[1].(*Loop)
			l.Body = []Stmt{&If{
				Cond: &BCmpInt{Op: "==", L: &IBin{Op: '%', L: &IVar{Name: "i"}, R: &IConst{Value: 2}}, R: &IConst{Value: 0}},
				Then: l.Body,
			}}
		}, "non-affine"},
		{"accumulate", func(p *Program) {
			l := p.Stmts[1].(*Loop)
			l.Body[0].(*Assign).HasAccum = true
		}, "accumulation"},
		{"tracked bitmap", func(p *Program) {
			p.Arrays[1].TrackDefs = true
		}, "definedness bitmap"},
		{"distance beyond cap", func(p *Program) {
			l := p.Stmts[1].(*Loop)
			l.Body[0].(*Assign).Rhs.(*VBin).R.(*ARef).Subs = []IntExpr{&ILin{Const: -(StreamMaxDistance + 1), Terms: []ITerm{{Var: "i", Coeff: 1}}}}
		}, "exceeds the streaming cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := recurrenceProg(n)
			tc.mut(p)
			_, err := BuildStreamPlan(p)
			if err == nil {
				t.Fatalf("expected rejection")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStreamPlanCrossLoopForwardRead covers the interleaving hazard: a
// loop reading the output inside a *later* loop's write range would
// observe zeros materialized but values chunked.
func TestStreamPlanCrossLoopForwardRead(t *testing.T) {
	n := int64(50)
	p := &Program{
		Name: "xl",
		Arrays: []ArrayDecl{
			{Name: "x", B: b1(1, n), Role: RoleIn},
			{Name: "xl", B: b1(1, 2*n), Role: RoleOut},
		},
		Stmts: []Stmt{
			// L1 writes [1..n] reading xl[i-1]: range [0..n-1] overlaps
			// nothing later... make it read into L2's range instead:
			// write i, read i-1 is fine; so L1 writes [n+1..2n] region
			// via offset and reads backward into L2's range [1..n],
			// which L2 (the later loop) writes.
			&Loop{Var: "i", From: n + 1, To: 2 * n, Step: 1, Body: []Stmt{
				&Assign{Array: "xl", Subs: []IntExpr{&IVar{Name: "i"}},
					Rhs: &ARef{Array: "xl", Subs: []IntExpr{&ILin{Const: -n, Terms: []ITerm{{Var: "i", Coeff: 1}}}}}},
			}},
			&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
				&Assign{Array: "xl", Subs: []IntExpr{&IVar{Name: "i"}},
					Rhs: &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}}},
			}},
		},
	}
	_, err := BuildStreamPlan(p)
	if err == nil || !strings.Contains(err.Error(), "chunked interleaving would reorder") {
		t.Fatalf("want interleaving rejection, got %v", err)
	}
	// The same reads are fine when the defining loop comes first.
	p.Stmts[0], p.Stmts[1] = p.Stmts[1], p.Stmts[0]
	if _, err := BuildStreamPlan(p); err != nil {
		t.Fatalf("legal order rejected: %v", err)
	}
}
