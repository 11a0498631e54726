package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
)

// scatterProg builds the canonical dual-lowered indirect scatter
// s!(p!(i)) := x!(i): a guarded fast branch with unchecked index loads
// and untracked stores, and a fully checked fallback.
func scatterProg(guard idxprop.Claims) *Program {
	fastLoop := &Loop{
		Var: "i", From: 1, To: 4, Step: 1,
		Body: []Stmt{&Assign{
			Array:   "s",
			Subs:    []IntExpr{&IIdx{Array: "p", Subs: []IntExpr{&IVar{Name: "i"}}}},
			Rhs:     &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}, CheckBounds: true},
			NoTrack: true,
		}},
	}
	slowLoop := &Loop{
		Var: "i", From: 1, To: 4, Step: 1,
		Body: []Stmt{&Assign{
			Array:          "s",
			Subs:           []IntExpr{&IIdx{Array: "p", Subs: []IntExpr{&IVar{Name: "i"}}, CheckBounds: true}},
			Rhs:            &ARef{Array: "x", Subs: []IntExpr{&IVar{Name: "i"}}, CheckBounds: true},
			CheckBounds:    true,
			CheckCollision: true,
		}},
	}
	return &Program{
		Name: "scatter",
		Arrays: []ArrayDecl{
			{Name: "p", B: runtime.NewBounds1(1, 4), Role: RoleIn},
			{Name: "x", B: runtime.NewBounds1(1, 4), Role: RoleIn},
			{Name: "s", B: runtime.NewBounds1(1, 4), Role: RoleOut, TrackDefs: true},
		},
		Stmts: []Stmt{&If{
			Cond: &BVerify{Array: "p", Claims: guard},
			Then: []Stmt{fastLoop},
			Else: []Stmt{slowLoop, &CheckFull{Array: "s"}},
		}},
	}
}

func TestCertifyClaimsScatterCovered(t *testing.T) {
	guard := idxprop.Claims{
		{Array: "p", Kind: idxprop.KInjective},
		{Array: "p", Kind: idxprop.KRange, Lo: 1, Hi: 4},
	}
	rep := CertifyClaims(scatterProg(guard), nil)
	if err := rep.Err(); err != nil {
		t.Fatalf("covered scatter falsified: %v", err)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("no certificate issued: %s", rep.Summary())
	}
}

func TestCertifyClaimsMissingInjectivityFalsifies(t *testing.T) {
	guard := idxprop.Claims{{Array: "p", Kind: idxprop.KRange, Lo: 1, Hi: 4}}
	rep := CertifyClaims(scatterProg(guard), nil)
	if rep.Err() == nil {
		t.Fatalf("untracked store without injectivity claim must falsify: %s", rep.Summary())
	}
	if !strings.Contains(rep.Err().Error(), "injectivity") {
		t.Fatalf("wrong falsification: %v", rep.Err())
	}
}

func TestCertifyClaimsMissingRangeFalsifies(t *testing.T) {
	guard := idxprop.Claims{{Array: "p", Kind: idxprop.KInjective}}
	rep := CertifyClaims(scatterProg(guard), nil)
	if rep.Err() == nil {
		t.Fatalf("unchecked index load without range claim must falsify")
	}
}

func TestCertifyClaimsNarrowRangeFalsifies(t *testing.T) {
	// Range claim 1..9 does not cover the destination's 1..4.
	guard := idxprop.Claims{
		{Array: "p", Kind: idxprop.KInjective},
		{Array: "p", Kind: idxprop.KRange, Lo: 1, Hi: 9},
	}
	rep := CertifyClaims(scatterProg(guard), nil)
	if rep.Err() == nil {
		t.Fatalf("range claim wider than the destination must falsify")
	}
}

func TestCertifyClaimsUnguardedFastBranchFalsifies(t *testing.T) {
	// The fast branch hoisted out of its guard: no dominating claims.
	p := scatterProg(idxprop.Claims{
		{Array: "p", Kind: idxprop.KInjective},
		{Array: "p", Kind: idxprop.KRange, Lo: 1, Hi: 4},
	})
	ifStmt := p.Stmts[0].(*If)
	p.Stmts = append(ifStmt.Then, ifStmt.Else...)
	if CertifyClaims(p, nil).Err() == nil {
		t.Fatalf("unguarded claim-assuming branch must falsify")
	}
}

func TestCertifyClaimsStaticClaimsCover(t *testing.T) {
	// Same fast branch, unguarded — but the claims were discharged
	// statically, so they hold everywhere.
	p := scatterProg(nil)
	ifStmt := p.Stmts[0].(*If)
	p.Stmts = ifStmt.Then
	static := idxprop.Claims{
		{Array: "p", Kind: idxprop.KInjective, Static: true},
		{Array: "p", Kind: idxprop.KRange, Lo: 1, Hi: 4, Static: true},
	}
	if err := CertifyClaims(p, static).Err(); err != nil {
		t.Fatalf("statically covered plan falsified: %v", err)
	}
}

func TestCertifyClaimsMonoShard(t *testing.T) {
	mk := func(guard idxprop.Claims) *Program {
		align := &IIdx{Array: "b", Subs: []IntExpr{&IVar{Name: "k"}}}
		loop := &Loop{
			Var: "k", From: 1, To: 8, Step: 1,
			Par: &ParSchedule{Kind: ParShard, AlignOn: align},
			Body: []Stmt{&Assign{
				Array:    "h",
				Subs:     []IntExpr{&IIdx{Array: "b", Subs: []IntExpr{&IVar{Name: "k"}}}},
				Rhs:      &VConst{Value: 1},
				HasAccum: true,
			}},
		}
		return &Program{
			Name:    "hist",
			AccumOp: "+",
			Arrays: []ArrayDecl{
				{Name: "b", B: runtime.NewBounds1(1, 8), Role: RoleIn},
				{Name: "h", B: runtime.NewBounds1(1, 4), Role: RoleOut},
			},
			Stmts: []Stmt{
				&Fill{Array: "h", Value: 0},
				&If{
					Cond: &BVerify{Array: "b", Claims: guard},
					Then: []Stmt{loop},
					Else: []Stmt{&Fail{Msg: "fallback"}},
				},
			},
		}
	}
	full := idxprop.Claims{
		{Array: "b", Kind: idxprop.KMonoNonDec},
		{Array: "b", Kind: idxprop.KRange, Lo: 1, Hi: 4},
	}
	if err := CertifyClaims(mk(full), nil).Err(); err != nil {
		t.Fatalf("covered aligned shard falsified: %v", err)
	}
	noMono := idxprop.Claims{{Array: "b", Kind: idxprop.KRange, Lo: 1, Hi: 4}}
	if CertifyClaims(mk(noMono), nil).Err() == nil {
		t.Fatalf("aligned shard without monotonicity claim must falsify")
	}
}
