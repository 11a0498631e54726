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
// Some draws are order-sensitive writes instead (collidingDef), some
// recurrences that read themselves d elements back (distantRecur), and
// some in-place updates that node splitting repairs (splitDefs).

// accumDefs returns the definitions of one such accumulation starting
// at definition k; the last is the program result.
func (g *gen) accumDefs(k int) []*lang.ArrayDef {
	name := fmt.Sprintf("%c", 'a'+k)
	if g.chance(250) {
		return g.splitDefs(name, fmt.Sprintf("%c", 'a'+k+1))
	}
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

// splitDefs returns a definition src and an in-place update name =
// bigupd src, the program result, so src is dead after the update. The
// update reads old values its own writes kill, which the schedule
// cannot order, so node splitting repairs them (paper section 9):
//
//   - inner, outer and both: a 2-D interior update reading the old
//     west and east neighbours, the north and south ones, or all four
//     (Jacobi), which take the row tier;
//   - 1-D: the same with i−1 and i+1;
//   - a row swap, whose kill is in the same instance (the scalar tier);
//   - a row swap that reads one row reversed, whose kills cross
//     instances (the whole-array copy tier);
//   - when errors are drawn, the 1-D update over the whole array, whose
//     first iteration reads outside it: the copy tier keeps the check,
//     and every backend fails.
func (g *gen) splitDefs(src, name string) []*lang.ArrayDef {
	shape := g.pick(15, 15, 15, 15, 20, 20)
	rank := 2
	if shape == 3 {
		rank = 1
	}
	var lo, hi []int64
	var vars []vrange
	var whole [][2]int64
	for d := 0; d < rank; d++ {
		l := int64(g.pick(5, 4, 1))
		lo, hi = append(lo, l), append(hi, l+3+g.rng.Int63n(3))
		vars = append(vars, vrange{g.freshVar(), lo[d], hi[d]})
		whole = append(whole, [2]int64{lo[d], hi[d]})
	}
	// nest runs body over the given ranges of vars.
	nest := func(body lang.CompNode, ranges ...[2]int64) lang.CompNode {
		for d := len(ranges) - 1; d >= 0; d-- {
			body = g.genNode(vars[d].name, ranges[d][0], ranges[d][1], 1, body)
		}
		return body
	}
	// at stores e at the position vars name.
	at := func(e lang.Expr) *lang.Clause {
		subs := make([]lang.Expr, rank)
		for d, v := range vars {
			subs[d] = lang.Name(v.name)
		}
		return &lang.Clause{Subs: subs, Value: e}
	}
	srcDef := &lang.ArrayDef{Name: src, Kind: lang.Monolithic, Bounds: g.langBounds(lo, hi), Strict: true,
		Comp: nest(at(g.value(2, vars, g.readables(src))), whole...)}
	// old reads src at the update's position shifted by di rows and dj
	// columns (dj alone in 1-D).
	old := func(di, dj int64) lang.Expr {
		if rank == 1 {
			return lang.At(src, g.shiftExpr(vrange{name: vars[0].name}, dj))
		}
		return lang.At(src, g.shiftExpr(vrange{name: vars[0].name}, di), g.shiftExpr(vrange{name: vars[1].name}, dj))
	}
	var comp lang.CompNode
	switch shape {
	case 0:
		comp = nest(at(g.combine(old(0, -1), old(0, 1))), [2]int64{lo[0], hi[0]}, [2]int64{lo[1] + 1, hi[1] - 1})
	case 1:
		comp = nest(at(g.combine(old(-1, 0), old(1, 0))), [2]int64{lo[0] + 1, hi[0] - 1}, [2]int64{lo[1], hi[1]})
	case 2:
		comp = nest(at(g.combine(g.combine(old(-1, 0), old(1, 0)), g.combine(old(0, -1), old(0, 1)))),
			[2]int64{lo[0] + 1, hi[0] - 1}, [2]int64{lo[1] + 1, hi[1] - 1})
	case 3:
		first := lo[0] + 1
		if g.chance(g.cfg.ErrorWeight * 4) {
			first = lo[0]
		}
		comp = nest(at(g.combine(old(0, -1), old(0, 1))), [2]int64{first, hi[0] - 1})
	default:
		// Rows r0 and r1 swap; the second clause reads r0 reversed when
		// shape is 5.
		r0 := lo[0] + g.rng.Int63n(hi[0]-lo[0])
		r1 := r0 + 1 + g.rng.Int63n(hi[0]-r0)
		j := lang.Name(vars[1].name)
		var back lang.Expr = j
		if shape == 5 {
			back = lang.Sub(lang.Num(lo[1]+hi[1]), j)
		}
		comp = g.genNode(vars[1].name, lo[1], hi[1], 1, &lang.Append{Parts: []lang.CompNode{
			&lang.Clause{Subs: []lang.Expr{lang.Num(r0), j}, Value: lang.At(src, lang.Num(r1), j)},
			&lang.Clause{Subs: []lang.Expr{lang.Num(r1), j}, Value: lang.At(src, lang.Num(r0), back)},
		}})
	}
	return []*lang.ArrayDef{srcDef, {Name: name, Kind: lang.BigUpd, Source: src, Strict: true, Comp: comp}}
}
