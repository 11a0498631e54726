package gogen

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"arraycomp/internal/loopir"
)

// Stencil interior emission, and the only stencil recognizer. A
// unit-step loop whose body is a single unchecked offset-form
// assignment, every read of which sits at a constant delta on the
// store's own unit-step induction register, is a stencil row — the
// inner loop of a SOR, Jacobi or wavefront nest, a split clone's
// interior, a 1-D stencil or a pointwise map. It is emitted as
// constant-width row slices indexed by a loop-local counter:
//
//	b := <row base register init>
//	s0 := a[b-66 : b-66+64]    // one slice per (array, offset delta)
//	s1 := a[b-1 : b-1+64]
//	sd := a[b : b+64]
//	for j := int64(0); j < 64; j++ {
//	    sd[j] = omega*(s0[j]+s1[j]+...) + ...
//	}
//
// The width is a compile-time constant (bounds are concrete per
// parameter binding), so Go's prove pass knows each slice's length and
// eliminates every bounds check in the row — the guard cost that kept
// the native tier behind hand-written code on SOR and wavefront. The
// slices alias the same backing array the generic emission indexes, so
// every memory operation happens in the same order on the same
// addresses (Gauss-Seidel reads of elements written earlier in the row
// observe the new values exactly as before) and results are bitwise
// identical. Rows at least 8 wide are unrolled by 4.
//
// Slicing is safe unconditionally: the compiler proved every o+delta
// in range for o in [base, base+W), hence base+delta ≥ 0 and
// base+delta+W ≤ len.

// stencilUnrollMin is the narrowest row worth unrolling by 4.
const stencilUnrollMin = 8

type sliceKey struct {
	arr string
	d   int64
}

// emitStencilLoop emits the BCE-friendly interior form when the loop
// qualifies, reporting whether it did. Callers fall through to the
// generic emission on false.
func (e *emitter) emitStencilLoop(x *loopir.Loop) bool {
	if x.Step != 1 || len(x.Body) != 1 {
		return false
	}
	a, ok := x.Body[0].(*loopir.Assign)
	if !ok || a.CheckBounds || a.CheckCollision || a.HasAccum || a.Off == nil {
		return false
	}
	d := e.decl[a.Array]
	if d == nil || d.TrackDefs {
		return false
	}
	wlin, ok := a.Off.(*loopir.ILin)
	if !ok || len(wlin.Terms) != 1 || wlin.Terms[0].Coeff != 1 {
		return false
	}
	base := wlin.Terms[0].Var
	var baseInit loopir.IntExpr
	for _, ind := range x.Inds {
		if ind.Name == base {
			if ind.Step != 1 {
				return false
			}
			baseInit = ind.Init
		}
	}
	if baseInit == nil {
		return false
	}
	w := x.To - x.From + 1
	if w < 1 {
		return false
	}
	reads := map[sliceKey]bool{}
	if !collectStencilReads(a.Rhs, base, e.decl, reads) {
		return false
	}
	// The write's own slice; reads at the same delta share it.
	dstKey := sliceKey{a.Array, wlin.Const}
	reads[dstKey] = true

	e.line("{")
	e.depth++
	e.line("// stencil interior: %d-wide row over constant-length slices (bounds checks eliminated)", w)
	bv := e.fresh("b")
	e.line("%s := %s", bv, e.intExpr(baseInit))
	rows := map[sliceKey]string{}
	keys := slices.SortedFunc(maps.Keys(reads), func(a, b sliceKey) int {
		return cmp.Or(strings.Compare(a.arr, b.arr), cmp.Compare(a.d, b.d))
	})
	for _, k := range keys {
		sv := e.fresh("s")
		rows[k] = sv
		lo := bv
		if k.d != 0 {
			lo = fmt.Sprintf("%s%+d", bv, k.d)
		}
		e.line("%s := %s[%s : %s+%d]", sv, e.ident[k.arr], lo, lo, w)
	}
	jv := e.fresh("j")
	store := func(idx string) {
		e.row = func(r *loopir.ARef) string {
			return fmt.Sprintf("%s[%s]", rows[sliceKey{r.Array, r.Off.(*loopir.ILin).Const}], idx)
		}
		rhs := e.valueExpr(a.Rhs)
		e.row = nil
		e.line("%s[%s] = %s", rows[dstKey], idx, rhs)
	}
	if w >= stencilUnrollMin {
		e.line("%s := int64(0)", jv)
		// The `j < w-3` form (not `j+3 < w`) keeps the induction
		// analysis simple enough for the prove pass to eliminate the
		// bounds checks on all four unrolled accesses.
		e.line("for ; %s < %d; %s += 4 {", jv, w-3, jv)
		e.depth++
		store(jv)
		store(jv + "+1")
		store(jv + "+2")
		store(jv + "+3")
		e.depth--
		e.line("}")
		e.line("for ; %s < %d; %s++ {", jv, w, jv)
		e.depth++
		store(jv)
		e.depth--
		e.line("}")
	} else {
		e.line("for %s := int64(0); %s < %d; %s++ {", jv, jv, w, jv)
		e.depth++
		store(jv)
		e.depth--
		e.line("}")
	}
	e.depth--
	e.line("}")
	return true
}

// collectStencilReads validates the body expression and gathers the
// (array, delta) pairs it reads. Anything outside the pure stencil
// fragment — checked or subscript-form accesses, reads off a different
// register, conditionals, int conversions (which could observe the
// unmaintained loop variable) — rejects the emission.
func collectStencilReads(v loopir.VExpr, base string, decl map[string]*loopir.ArrayDecl, out map[sliceKey]bool) bool {
	switch x := v.(type) {
	case *loopir.VConst, *loopir.VScalar:
		return true
	case *loopir.ARef:
		if x.CheckBounds || x.CheckDefined || x.Off == nil {
			return false
		}
		d := decl[x.Array]
		if d == nil || d.TrackDefs {
			return false
		}
		lin, ok := x.Off.(*loopir.ILin)
		if !ok || len(lin.Terms) != 1 || lin.Terms[0].Coeff != 1 || lin.Terms[0].Var != base {
			return false
		}
		out[sliceKey{x.Array, lin.Const}] = true
		return true
	case *loopir.VBin:
		return collectStencilReads(x.L, base, decl, out) && collectStencilReads(x.R, base, decl, out)
	case *loopir.VNeg:
		return collectStencilReads(x.X, base, decl, out)
	case *loopir.VCall:
		for _, arg := range x.Args {
			if !collectStencilReads(arg, base, decl, out) {
				return false
			}
		}
		return true
	}
	return false
}
