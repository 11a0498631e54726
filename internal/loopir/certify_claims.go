package loopir

import (
	"fmt"

	"arraycomp/internal/certify"
	"arraycomp/internal/idxprop"
)

// Certification of claim-conditional plans. A dual lowering relaxes
// runtime checks — unchecked index-array loads (IIdx), untracked
// stores (Assign.NoTrack), aligned shards — on the strength of
// index-array property claims, discharged either statically (the
// claims passed in) or by the BVerify guard dominating the relaxed
// branch. CertifyClaims re-walks the program and demands that every
// relaxation is actually covered by a dominating claim that implies
// it; a forged plan whose guard omits the needed property (or whose
// fast branch leaked into unguarded code) is falsified. The *value*
// properties are what this auditor covers; the in-bounds facts about
// the index array's own (affine) subscripts are static affine proofs
// audited at the analysis layer.
//
// Soundness division of labor: this auditor proves "the plan only
// assumes what some claim states"; the runtime verifier (or, for
// static claims, the core layer's materialize-and-verify replay)
// proves "the claims hold for the actual data".

// CertifyClaims audits every claim-conditional relaxation in p,
// treating the given statically discharged claims as proven
// everywhere and BVerify-guarded claims as proven inside the guarded
// branch only.
func CertifyClaims(p *Program, static idxprop.Claims) *certify.Report {
	rep := certify.NewReport()
	a := &claimAuditor{prog: p, rep: rep}
	a.stmts(p.Stmts, static)
	if a.sites > 0 && !a.bad {
		rep.Record(certify.Certificate{
			Layer:      "claims",
			Claim:      fmt.Sprintf("%d claim-conditional relaxations covered by dominating claims", a.sites),
			Status:     certify.Certified,
			Exhaustive: true,
		})
	}
	return rep
}

type claimAuditor struct {
	prog  *Program
	rep   *certify.Report
	sites int
	bad   bool
}

func (a *claimAuditor) falsify(format string, args ...any) {
	a.bad = true
	a.rep.Record(certify.Certificate{
		Layer:  "claims",
		Claim:  "claim-conditional relaxations covered by dominating claims",
		Status: certify.Falsified,
		Detail: fmt.Sprintf(format, args...),
	})
}

func hasClaim(active idxprop.Claims, arr string, kind idxprop.Kind) bool {
	for _, c := range active {
		if c.Array == arr && c.Kind == kind {
			return true
		}
	}
	return false
}

// rangeOf intersects every active range claim on arr.
func rangeOf(active idxprop.Claims, arr string) (lo, hi int64, ok bool) {
	for _, c := range active {
		if c.Array != arr || c.Kind != idxprop.KRange {
			continue
		}
		if !ok {
			lo, hi, ok = c.Lo, c.Hi, true
		} else {
			lo, hi = max64i(lo, c.Lo), min64i(hi, c.Hi)
		}
	}
	return lo, hi, ok
}

// guardClaims collects the claims of every BVerify conjunct of an If
// condition: inside the Then branch they are known to hold (other
// conjuncts narrow the branch further but never weaken a verifier's
// verdict).
func guardClaims(b BExpr) idxprop.Claims {
	switch x := b.(type) {
	case *BVerify:
		return x.Claims
	case *BAnd:
		return append(append(idxprop.Claims(nil), guardClaims(x.L)...), guardClaims(x.R)...)
	}
	return nil
}

func (a *claimAuditor) stmts(list []Stmt, active idxprop.Claims) {
	for _, s := range list {
		switch x := s.(type) {
		case *Loop:
			if x.Par != nil && x.Par.AlignOn != nil {
				a.sites++
				idx, isIdx := x.Par.AlignOn.(*IIdx)
				switch {
				case !isIdx:
					a.falsify("aligned shard loop %s aligns on a non-index expression", x.Var)
				case !hasClaim(active, idx.Array, idxprop.KMonoNonDec):
					a.falsify("aligned shard loop %s aligned on %s without a dominating monotonicity claim", x.Var, idx.Array)
				case !hasClaim(active, idx.Array, idxprop.KRange):
					a.falsify("aligned shard loop %s aligned on %s without a dominating range claim", x.Var, idx.Array)
				}
				if isIdx {
					a.intExpr(idx, active, nil, 0)
				}
			}
			for _, ind := range x.Inds {
				a.intExpr(ind.Init, active, nil, 0)
			}
			a.stmts(x.Body, active)
		case *If:
			a.bexpr(x.Cond, active)
			a.stmts(x.Then, append(append(idxprop.Claims(nil), active...), guardClaims(x.Cond)...))
			a.stmts(x.Else, active)
		case *Assign:
			decl := a.prog.Decl(x.Array)
			for d, sub := range x.Subs {
				dest := decl
				if x.CheckBounds {
					dest = nil // the runtime check covers any claim gap
				}
				a.intExpr(sub, active, dest, d)
			}
			if x.NoTrack {
				a.sites++
				if !injectiveStore(x.Subs, active) {
					a.falsify("untracked store to %s has no dominating injectivity claim on its index array", x.Array)
				}
			}
			a.vexpr(x.Rhs, active)
		case *SetScalar:
			a.vexpr(x.Rhs, active)
		}
	}
}

// injectiveStore reports whether some index array loaded in the store
// subscripts carries an active injectivity claim (distinct iterations
// then hit distinct elements, so the definedness bitmap is redundant).
func injectiveStore(subs []IntExpr, active idxprop.Claims) bool {
	found := false
	var scan func(e IntExpr)
	scan = func(e IntExpr) {
		switch x := e.(type) {
		case *IIdx:
			if hasClaim(active, x.Array, idxprop.KInjective) {
				found = true
			}
		case *IBin:
			scan(x.L)
			scan(x.R)
		}
	}
	for _, s := range subs {
		scan(s)
	}
	return found
}

// intExpr audits an integer expression. dest/dim are set when the
// expression is a subscript of dest's dimension dim whose bounds check
// was elided — the value claim must then cover the destination range.
func (a *claimAuditor) intExpr(e IntExpr, active idxprop.Claims, dest *ArrayDecl, dim int) {
	switch x := e.(type) {
	case *IIdx:
		decl := a.prog.Decl(x.Array)
		if decl == nil {
			a.falsify("index load references undeclared array %s", x.Array)
			return
		}
		if !x.CheckBounds {
			a.sites++
			lo, hi, ok := rangeOf(active, x.Array)
			switch {
			case !ok:
				a.falsify("unchecked load of index array %s has no dominating range claim", x.Array)
			case dest != nil && (lo < dest.B.Lo[dim] || hi > dest.B.Hi[dim]):
				a.falsify("range claim %d..%d on %s does not cover %s dimension %d (%d..%d)",
					lo, hi, x.Array, dest.Name, dim, dest.B.Lo[dim], dest.B.Hi[dim])
			}
		}
		for d, sub := range x.Subs {
			inner := decl
			if x.CheckBounds {
				inner = nil
			}
			a.intExpr(sub, active, inner, d)
		}
	case *IBin:
		a.intExpr(x.L, active, nil, 0)
		a.intExpr(x.R, active, nil, 0)
	}
}

func (a *claimAuditor) vexpr(e VExpr, active idxprop.Claims) {
	switch x := e.(type) {
	case *ARef:
		decl := a.prog.Decl(x.Array)
		for d, sub := range x.Subs {
			dest := decl
			if x.CheckBounds {
				dest = nil
			}
			a.intExpr(sub, active, dest, d)
		}
	case *VFromInt:
		a.intExpr(x.X, active, nil, 0)
	case *VBin:
		a.vexpr(x.L, active)
		a.vexpr(x.R, active)
	case *VNeg:
		a.vexpr(x.X, active)
	case *VCall:
		for _, arg := range x.Args {
			a.vexpr(arg, active)
		}
	case *VCond:
		a.bexpr(x.C, active)
		a.vexpr(x.T, active)
		a.vexpr(x.E, active)
	}
}

func (a *claimAuditor) bexpr(e BExpr, active idxprop.Claims) {
	switch x := e.(type) {
	case *BCmpInt:
		a.intExpr(x.L, active, nil, 0)
		a.intExpr(x.R, active, nil, 0)
	case *BCmpFloat:
		a.vexpr(x.L, active)
		a.vexpr(x.R, active)
	case *BAnd:
		a.bexpr(x.L, active)
		a.bexpr(x.R, active)
	case *BOr:
		a.bexpr(x.L, active)
		a.bexpr(x.R, active)
	case *BNot:
		a.bexpr(x.X, active)
	case *BVerify:
		decl := a.prog.Decl(x.Array)
		if decl == nil || decl.B.Rank() != 1 {
			a.falsify("runtime verifier targets %s, which is not a declared rank-1 array", x.Array)
		}
	}
}

func max64i(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64i(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
