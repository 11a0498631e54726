package analysis

import (
	"fmt"

	"arraycomp/internal/affine"
	"arraycomp/internal/deptest"
	"arraycomp/internal/idxprop"
	"arraycomp/internal/lang"
)

// Conditional analysis for subscripted subscripts (Bhosale &
// Eigenmann). The unconditional analysis treats an indirect subscript
// `idx!(g)` as opaque: the scatter `out!(idx!(g))` gets Collision =
// Maybe (full collision checks, definedness bitmap, empties sweep),
// and the gather `x!(idx!(g))` keeps its bounds check. This pass
// re-answers those questions *conditionally on index-array
// properties*: the verdicts in a CondResult hold provided the claims
// do, and the claims are discharged either statically (idxprop.Infer
// over the index array's defining comprehension — the core layer does
// this, it can see the whole program) or by the one-pass runtime
// verifier guarding the claim-assuming plan (loopir.BVerify).

// CondResult is the claim-assumed re-analysis of one definition.
type CondResult struct {
	// Claims are the index-array properties every verdict below
	// assumes, normalized. The core layer marks a claim Static when
	// idxprop.Infer proves it from the index array's own definition;
	// the rest must be verified at runtime.
	Claims idxprop.Claims
	// Verdicts are the property-conditional deptest verdicts backing
	// the re-analysis, for diagnostics and certification.
	Verdicts []deptest.CondVerdict
	// Trusted names the index arrays whose loaded values may be used
	// as unchecked subscripts under Claims: every occurrence of the
	// array in a subscript position was matched by the recognizer,
	// its own subscript is provably within the index array's bounds,
	// and a range claim covers the enclosing context.
	Trusted map[string]bool
	// Collision is the claim-assumed collision verdict (monolithic
	// scatters become No under injectivity + range).
	Collision Verdict
	// NoEmpties is the claim-assumed totality verdict (pigeonhole:
	// injective in-range writes, one per element).
	NoEmpties bool
	// WriteInBounds / ReadInBounds are the claim-assumed bounds
	// proofs, superseding the unconditional ones where true.
	WriteInBounds []bool
	ReadInBounds  map[*ReadRef]bool
	// MonoAccum marks the commutative-accumulation pattern: the
	// single clause writes out!(MonoArray!(g)) with g traversing the
	// index array in position order, so the claim-assuming plan may
	// run under an aligned shard schedule (chunks aligned to
	// equal-value runs; bitwise equal to sequential accumulation).
	MonoAccum bool
	MonoArray string
	// Detail is a one-line human-readable summary for reports.
	Detail string
}

// AllStatic reports whether every claim was discharged statically.
func (c *CondResult) AllStatic() bool {
	for _, cl := range c.Claims {
		if !cl.Static {
			return false
		}
	}
	return true
}

// indirectSub matches a one-level indirect subscript `idx!(inner)`
// against clause cl: idx must be an external rank-1 array whose bounds
// are known, and inner must be affine over the clause nest with a
// value range provably within idx's bounds (the load itself can then
// never fault). Returns the index array name, or "" when the shape
// does not match.
func (r *Result) indirectSub(cl *FlatClause, sub lang.Expr) string {
	ix, ok := sub.(*lang.Index)
	if !ok || len(ix.Subs) != 1 {
		return ""
	}
	if ix.Array == r.Def.Name || ix.Array == r.Def.Source {
		return "" // self-indirection: the values are not inputs
	}
	b, ok := r.external[ix.Array]
	if !ok || b.Rank() != 1 {
		return ""
	}
	isIndex := func(v string) bool { return cl.Nest.Index(v) >= 0 }
	form, err := affine.FromExpr(wrapLets(ix.Subs[0], cl.Lets), isIndex, r.Env)
	if err != nil {
		return ""
	}
	iv, err := FormRange(form, cl)
	if err != nil || iv.Lo < b.Lo[0] || iv.Hi > b.Hi[0] {
		return ""
	}
	return ix.Array
}

// innerForm re-extracts the affine form of the matched indirect
// subscript's inner expression (callers that need the traversal
// coefficient).
func (r *Result) innerForm(cl *FlatClause, sub lang.Expr) (affine.Form, string, bool) {
	ix, ok := sub.(*lang.Index)
	if !ok || len(ix.Subs) != 1 {
		return affine.Form{}, "", false
	}
	isIndex := func(v string) bool { return cl.Nest.Index(v) >= 0 }
	form, err := affine.FromExpr(wrapLets(ix.Subs[0], cl.Lets), isIndex, r.Env)
	if err != nil {
		return affine.Form{}, "", false
	}
	return form, ix.Array, true
}

// analyzeCond builds the conditional re-analysis. It is deliberately
// conservative: any indirect write outside the recognized scatter /
// aligned-accumulation patterns, and the definition gets no
// CondResult at all (the unconditional checked path stands alone).
// Unmatched indirect *reads* merely stay checked in the claim-assuming
// plan.
func (r *Result) analyzeCond() {
	if r.Def.Kind == lang.BigUpd {
		return
	}
	cond := &CondResult{
		Trusted:       map[string]bool{},
		Collision:     r.Collision,
		NoEmpties:     r.NoEmpties,
		WriteInBounds: append([]bool(nil), r.WriteInBounds...),
		ReadInBounds:  map[*ReadRef]bool{},
	}
	indirect := false

	// Writes first: a non-affine write subscript must match one of the
	// two scatter patterns or the whole conditional analysis is off.
	for i, cl := range r.Clauses {
		if cl.WriteAffine {
			continue
		}
		if len(cl.Clause.Subs) != 1 || r.Bounds.Rank() != 1 {
			return
		}
		idx := r.indirectSub(cl, cl.Clause.Subs[0])
		if idx == "" {
			return
		}
		form, _, ok := r.innerForm(cl, cl.Clause.Subs[0])
		if !ok {
			return
		}
		switch r.Def.Kind {
		case lang.Monolithic:
			// Scatter out!(idx!(g)): distinct instances must hit
			// distinct idx positions, so injectivity of the index
			// array's values forces distinct target elements.
			if len(r.Clauses) != 1 || cl.Guarded || len(cl.Nest) != 1 {
				return
			}
			a := form.CoeffOf(cl.Nest[0].Var)
			if (a != 1 && a != -1) || cl.Nest[0].Stride*cl.Nest[0].Stride != 1 {
				return
			}
			v := deptest.ScatterIndependent(idx, r.Bounds.Lo[0], r.Bounds.Hi[0])
			cond.Verdicts = append(cond.Verdicts, v)
			cond.Claims = append(cond.Claims, v.Claims...)
			cond.Collision = No
			cond.WriteInBounds[i] = true
			if cl.Instances == r.Bounds.Size() {
				// Pigeonhole: Instances distinct in-range writes into
				// exactly Instances elements define every element.
				cond.NoEmpties = true
			}
			cond.Trusted[idx] = true
			indirect = true
		case lang.Accumulated:
			if !r.Def.Accum.Commutative() {
				return
			}
			v := deptest.AccumAligned(idx, r.Bounds.Lo[0], r.Bounds.Hi[0])
			cond.Verdicts = append(cond.Verdicts, v)
			cond.Claims = append(cond.Claims, v.Claims...)
			cond.WriteInBounds[i] = true
			cond.Trusted[idx] = true
			indirect = true
			// Mono-shard alignment additionally needs the traversal to
			// visit idx positions in increasing order: a single clause
			// under a single forward unit-stride loop with coefficient
			// +1 on the loop variable.
			if len(r.Clauses) == 1 && len(cl.Nest) == 1 &&
				cl.Nest[0].Stride == 1 && form.CoeffOf(cl.Nest[0].Var) == 1 {
				cond.MonoAccum = true
				cond.MonoArray = idx
			}
		default:
			return
		}
	}

	// Reads: each non-affine read whose every dimension is either
	// affine-in-bounds or a matched indirect subscript becomes
	// in-bounds under range claims. Unmatched reads stay checked.
	for _, cl := range r.Clauses {
		for _, rd := range cl.Reads {
			if rd.Affine || r.ReadInBounds[rd] {
				continue
			}
			b, ok := r.readBounds(rd.Ix.Array)
			if !ok || b.Rank() != len(rd.Ix.Subs) {
				continue
			}
			var claims idxprop.Claims
			var verdicts []deptest.CondVerdict
			matched := true
			isIndex := func(v string) bool { return cl.Nest.Index(v) >= 0 }
			for d, sub := range rd.Ix.Subs {
				if form, err := affine.FromExpr(wrapLets(sub, cl.Lets), isIndex, r.Env); err == nil {
					iv, err := FormRange(form, cl)
					if err != nil || iv.Lo < b.Lo[d] || iv.Hi > b.Hi[d] {
						matched = false
						break
					}
					continue
				}
				idx := r.indirectSub(cl, sub)
				if idx == "" {
					matched = false
					break
				}
				v := deptest.GatherInBounds(idx, b.Lo[d], b.Hi[d])
				verdicts = append(verdicts, v)
				claims = append(claims, v.Claims...)
			}
			if !matched || len(claims) == 0 {
				continue
			}
			cond.Verdicts = append(cond.Verdicts, verdicts...)
			cond.Claims = append(cond.Claims, claims...)
			cond.ReadInBounds[rd] = true
			for _, c := range claims {
				cond.Trusted[c.Array] = true
			}
			indirect = true
		}
	}

	if !indirect {
		return
	}
	cond.Claims = cond.Claims.Normalize()
	empties := "possible"
	if cond.NoEmpties {
		empties = "excluded"
	}
	cond.Detail = fmt.Sprintf("conditional on %s: collision %s, empties %s",
		cond.Claims, cond.Collision, empties)
	r.Cond = cond
	for _, v := range cond.Verdicts {
		r.Diagnostics = append(r.Diagnostics, fmt.Sprintf("idxprop: %s (%s)", v, v.Detail))
	}
}

// readBounds resolves the bounds of an array a clause reads.
func (r *Result) readBounds(name string) (ArrayBounds, bool) {
	if name == r.Def.Name || name == r.Def.Source {
		return r.Bounds, true
	}
	b, ok := r.external[name]
	return b, ok
}
