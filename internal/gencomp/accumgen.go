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
// Some draws are order-sensitive writes instead (collidingDef), and
// some recurrences that read themselves d elements back (distantRecur).

// accumDefs returns the definitions of one such accumulation starting
// at definition k; the last is the program result.
func (g *gen) accumDefs(k int) []*lang.ArrayDef {
	name := fmt.Sprintf("%c", 'a'+k)
	if g.chance(300) {
		return []*lang.ArrayDef{g.collidingDef(name)}
	}
	if g.chance(250) {
		return []*lang.ArrayDef{g.distantRecur(name)}
	}
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

// collidingDef is a definition whose writes must keep list order: an
// accumArray with a non-commutative combiner (right or left) or a
// bigupd of a rank-1 array. Two clauses under one generator write
// elements that collide in both directions, so neither clause may run
// all its instances first: i beside l+h-i (a mirror), i beside i+s (a
// shift) or i beside 2i-l (a doubled stride), in either clause order.
// The clauses store distinct values, so any reordering of a collision
// shows in the result.
func (g *gen) collidingDef(name string) *lang.ArrayDef {
	var srcs []arr
	for _, a := range g.arrs {
		if a.bounds.Rank() == 1 {
			srcs = append(srcs, a)
		}
	}
	var def *lang.ArrayDef
	var l, h int64
	if len(srcs) > 0 && g.chance(400) {
		src := srcs[g.intn(len(srcs))]
		def = &lang.ArrayDef{Name: name, Kind: lang.BigUpd, Source: src.name, Strict: true}
		l, h = src.bounds.Lo[0], src.bounds.Hi[0]
	} else {
		_, lo, hi := g.freshBounds()
		l, h = lo[0], hi[0]
		comb := [...]string{"right", "left"}[g.intn(2)]
		def = &lang.ArrayDef{
			Name:   name,
			Kind:   lang.Accumulated,
			Bounds: g.langBounds(lo[:1], hi[:1]),
			Accum:  &lang.AccumSpec{Combine: comb, Init: lang.Num(0)},
			Strict: true,
		}
	}
	v := g.freshVar()
	x := func() lang.Expr { return lang.Name(v) }
	last := h
	var s1, s2 lang.Expr
	switch g.pick(40, 30, 30) {
	case 0:
		s1, s2 = x(), lang.Sub(lang.Num(l+h), x())
	case 1:
		s := min(1+g.rng.Int63n(2), h-l)
		last = h - s
		s1, s2 = x(), lang.Add(x(), lang.Num(s))
	default:
		last = l + (h-l)/2
		s1, s2 = x(), lang.Sub(lang.Mul(lang.Num(2), x()), lang.Num(l))
	}
	if g.chance(500) {
		s1, s2 = s2, s1
	}
	def.Comp = g.genNode(v, l, last, 1, &lang.Append{Parts: []lang.CompNode{
		&lang.Clause{Subs: []lang.Expr{s1}, Value: lang.Add(x(), lang.Num(1))},
		&lang.Clause{Subs: []lang.Expr{s2}, Value: lang.Sub(lang.Num(0), lang.Add(x(), lang.Num(1)))},
	}})
	return def
}

// distantRecur is a rank-1 recurrence that reads itself d elements
// back, at the edges of the row kernels' carried band (their strip
// form runs 256 iterations at a time, and a read is carried when it
// reaches back less than a strip): d from 3 to 8 over a short trip, or
// d from 254 to 258 over a trip past 256. The first d elements are
// straight-line values; the rest fold a!(i-d) into one, as a halving,
// under negation, or averaged with a!(i-1).
func (g *gen) distantRecur(name string) *lang.ArrayDef {
	d, trip := 3+g.rng.Int63n(6), 1+g.rng.Int63n(2*g.cfg.MaxExtent)
	if g.chance(300) {
		d, trip = 254+g.rng.Int63n(5), 257+g.rng.Int63n(40)
	}
	lo := int64(g.pick(5, 4, 1))
	hi := lo + d + trip - 1
	base, v := g.freshVar(), g.freshVar()
	half := func(e lang.Expr) lang.Expr { return &lang.BinOp{Op: lang.OpMul, L: &lang.FloatLit{Value: 0.5}, R: e} }
	back := func(k int64) lang.Expr { return lang.At(name, lang.Sub(lang.Name(v), lang.Num(k))) }
	val := g.lineValue(1, vrange{v, lo + d, hi})
	var rhs lang.Expr
	switch g.pick(40, 30, 30) {
	case 0:
		rhs = lang.Add(half(back(d)), val)
	case 1:
		rhs = lang.Sub(val, half(&lang.UnOp{Op: lang.OpNeg, X: back(d)}))
	default:
		rhs = lang.Sub(half(lang.Add(back(d), back(1))), val)
	}
	return &lang.ArrayDef{
		Name:   name,
		Kind:   lang.Monolithic,
		Bounds: g.langBounds([]int64{lo}, []int64{hi}),
		Strict: true,
		Comp: &lang.Append{Parts: []lang.CompNode{
			g.genNode(base, lo, lo+d-1, 1, &lang.Clause{Subs: []lang.Expr{lang.Name(base)}, Value: g.lineValue(1, vrange{base, lo, lo + d - 1})}),
			g.genNode(v, lo+d, hi, 1, &lang.Clause{Subs: []lang.Expr{lang.Name(v)}, Value: rhs}),
		}},
	}
}
