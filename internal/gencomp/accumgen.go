package gencomp

import (
	"fmt"

	"arraycomp/internal/lang"
)

// Accumulations the row kernels run unchecked. The accumArray shape of
// gencomp.go scatters through a mod subscript, which stays checked and
// takes the generic row form; these take the specialized forms. A
// dense accumArray covers its bounds with unit-step generators, so its
// store is an offset-form access that folds each value in as
// comb(old, new); a second cover over part of the bounds folds into
// what the first stored. A scatter accumulates through an index array
// whose range claim is proven statically or verified at run time; a
// violating shape routes to the checked branch instead. Values are
// straight-line expressions (affine reads, constants, sums,
// differences and halvings), so the kernels take them whole. None
// reads the array it accumulates: the reference semantics reject that.

// accumDefs returns the definitions of one such accumulation starting
// at definition k; the last is the program result.
func (g *gen) accumDefs(k int) []*lang.ArrayDef {
	name := fmt.Sprintf("%c", 'a'+k)
	comb := combiners[g.intn(len(combiners))]
	init := lang.Expr(lang.Num(0))
	if comb == "*" || comb == "min" {
		init = lang.Num(1)
	}
	def := &lang.ArrayDef{
		Name:   name,
		Kind:   lang.Accumulated,
		Accum:  &lang.AccumSpec{Combine: comb, Init: init},
		Strict: true,
	}
	if g.chance(400) {
		idxName, consName := name, fmt.Sprintf("%c", 'a'+k+1)
		m := min(2+g.rng.Int63n(g.cfg.MaxExtent-1), g.env["n"]+2)
		v := g.freshVar()
		def.Name = consName
		def.Bounds = []lang.Bound{{Lo: lang.Num(1), Hi: g.boundExpr(m)}}
		def.Comp = g.genNode(v, 1, m, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.At(idxName, lang.Name(v))},
			Value: g.lineValue(2, vrange{v, 1, m}),
		})
		return []*lang.ArrayDef{g.indexArrayDef(idxName, m, g.idxShape(m)), def}
	}
	_, lo, hi := g.freshBounds()
	def.Bounds = g.langBounds(lo[:1], hi[:1])
	l, h := lo[0], hi[0]
	cover := func(from int64) lang.CompNode {
		v := g.freshVar()
		return g.genNode(v, from, h, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: g.lineValue(2, vrange{v, from, h}),
		})
	}
	switch {
	case g.chance(500):
		// Two passes: the second folds into what the first stored.
		def.Comp = &lang.Append{Parts: []lang.CompNode{cover(l), cover(l + g.rng.Int63n(h-l+1))}}
	default:
		def.Comp = cover(l)
	}
	return []*lang.ArrayDef{def}
}

// lineValue is a straight-line value over generator variable v: affine
// reads of rank-1 arrays wide enough for v's range, small dyadic
// constants, sums, differences and halvings.
func (g *gen) lineValue(depth int, v vrange) lang.Expr {
	if depth <= 0 || g.chance(300) {
		var wide []readable
		for _, r := range g.readables("") {
			if r.bounds.Rank() == 1 && r.bounds.Hi[0]-r.bounds.Lo[0] >= v.max-v.min {
				wide = append(wide, r)
			}
		}
		if len(wide) == 0 || g.chance(250) {
			return &lang.FloatLit{Value: float64(g.intn(16)) / 4}
		}
		r := wide[g.intn(len(wide))]
		return &lang.Index{Array: r.name, Subs: []lang.Expr{g.shiftExpr(v, r.bounds.Lo[0])}}
	}
	switch g.pick(40, 30, 30) {
	case 0:
		return lang.Add(g.lineValue(depth-1, v), g.lineValue(depth-1, v))
	case 1:
		return lang.Sub(g.lineValue(depth-1, v), g.lineValue(depth-1, v))
	default:
		return &lang.BinOp{Op: lang.OpMul, L: &lang.FloatLit{Value: 0.5}, R: g.lineValue(depth-1, v)}
	}
}
