package loopir

import "arraycomp/internal/runtime"

// The row kernel. Every loop compiles its body once, to a rowFn that
// runs the trip-relative iterations [t0, t1) of the loop: iteration t
// binds the loop variable to From + t·Step and each induction register
// to its entry value + t·step. Every executor calls that one kernel —
// the sequential loop runs row(f, 0, trip), a shard worker its chunk
// (on a 2-D nest, of the outer loop's kernel, whose rows run the inner
// loop's), a wavefront worker each row's slice of its tile — so a
// parallel schedule runs exactly the sequential arm's inner loop. The
// kernel compiler picks the strongest of three forms:
//
//   - copy: a body `dst@{r1} := src@{r2}` over two step-one registers
//     lowers to builtin copy, one memmove per row. Node splitting's
//     row buffering produces it (Jacobi's `rowbuf[j] := a[i-1,j]`).
//   - straight line: unchecked, untracked Assign and SetScalar
//     statements whose every access is either offset-form on a
//     register stepping by one, or a rank-1 gather or scatter
//     `arr[idx[k+c]]`: an unchecked load from a rank-1 index array at
//     c + 1·k, k the variable of a step-one loop, which acts as one
//     more register. The primary register — the loop variable when a
//     gather or scatter uses it, else the register most accesses hang
//     off — lives in a local o, so each of its accesses is Data[o+d]
//     and a gather reads arr.Data[int64(idx.Data[o+d]) − lo]; any
//     other register sits a constant distance from it within a row,
//     stored once per row in that register's slot. A store may
//     accumulate, folding its value in as comb(old, new) with + and *
//     inlined. Such a body cannot observe the loop variable or the
//     registers otherwise (int conversions, calls and conditionals
//     take the generic form), so neither is maintained. Expressions
//     evaluate in the generic form's operation order, so results are
//     bitwise identical. This covers the stencil interiors, node
//     splitting's multi-statement chains (Jacobi's rowbuf/prev/cur),
//     and the claim-verified branches of SpMV, histograms and
//     neighbour gathers.
//   - generic: the closure tree, writing the loop variable and the
//     registers every iteration.
//
// Only the generic form raises runtime errors: the others take
// unchecked accesses only, and an unchecked index-array load needs a
// range claim that was proven statically or verified by the BVerify
// guard of its branch. Since the generic form's
// loop variable slot holds the failing iteration, an executor's
// recover derives the failure's rank from it.
//
// Stream stages (stage.go) run the same kernels. A register holds an
// offset from the declared lower bound lo, but a stage binds each array
// slot to a window whose element 0 is position base, so in stage mode
// the copy and straight-line forms add lo − base once per row. Stages
// take no gathers, scatters or accumulating stores.
//
// An earlier revision compiled straight-line bodies to postfix tapes
// run by a small stack VM; its dispatch overhead made it strictly
// slower than the closure tree on every workload.

// rowFn runs the trip-relative iterations [t0, t1) of one loop on f.
type rowFn func(f *frame, t0, t1 int64)

type rowKind uint8

const (
	rowGeneric rowKind = iota
	rowCopy
	rowStraight
)

// rowKernel is a loop's compiled row kernel and the form it took.
type rowKernel struct {
	run  rowFn
	kind rowKind
}

// genericRows makes every loop take the generic form, so tests can
// compare the specialized forms with it bit for bit.
var genericRows bool

// rowFor returns x's row kernel, compiling it on first use. The
// sequential loop and the parallel executor of one loop share it.
func (c *compiler) rowFor(x *Loop) *rowKernel {
	if rk := c.rows[x]; rk != nil {
		return rk
	}
	inds := c.compileInds(x)
	rk := &rowKernel{}
	if !genericRows {
		rk.kind, rk.run = rowCopy, c.copyRow(x, inds)
		if rk.run == nil {
			rk.kind, rk.run = rowStraight, c.straightRow(x, inds)
		}
	}
	if rk.run == nil {
		rk.kind, rk.run = rowGeneric, c.genericRow(x, inds)
	}
	c.rows[x] = rk
	return rk
}

// parRow returns the row kernel the parallel executor of scheduled
// loop x runs over loop l (x itself, or a tiled nest's inner loop).
func (c *compiler) parRow(x, l *Loop) rowFn {
	rk := c.rowFor(l)
	c.parRows[x] = rk
	return rk.run
}

func (c *compiler) compileInds(x *Loop) []cInd {
	inds := make([]cInd, len(x.Inds))
	for i, ind := range x.Inds {
		inds[i] = cInd{slot: c.intSlots[ind.Name], init: c.compileInt(ind.Init), step: ind.Step}
	}
	return inds
}

// genericRow runs the compiled statements once per iteration.
func (c *compiler) genericRow(x *Loop, inds []cInd) rowFn {
	body := c.compileStmts(x.Body)
	slot, from, step := c.intSlots[x.Var], x.From, x.Step
	return func(f *frame, t0, t1 int64) {
		for i := range inds {
			f.ints[inds[i].slot] = inds[i].init(f) + t0*inds[i].step
		}
		v := from + t0*step
		for t := t0; t < t1; t++ {
			f.ints[slot] = v
			runAll(body, f)
			v += step
			for i := range inds {
				f.ints[inds[i].slot] += inds[i].step
			}
		}
	}
}

// copyRow compiles the copy form, or returns nil.
func (c *compiler) copyRow(x *Loop, inds []cInd) rowFn {
	if len(x.Body) != 1 {
		return nil
	}
	a, ok := x.Body[0].(*Assign)
	if !ok || !c.plainStore(a) || a.Accumulate != nil {
		return nil
	}
	src, ok := a.Rhs.(*ARef)
	if !ok || !c.plainLoad(src) || src.Array == a.Array {
		return nil
	}
	di, dOff, okD := unitReg(x, a.Off)
	si, sOff, okS := unitReg(x, src.Off)
	if !okD || !okS {
		return nil
	}
	dst, srcSlot := c.arraySlots[a.Array], c.arraySlots[src.Array]
	dInit, sInit := inds[di].init, inds[si].init
	stage, dLo, sLo := c.stage, c.prog.Arrays[dst].B.Lo[0], c.prog.Arrays[srcSlot].B.Lo[0]
	return func(f *frame, t0, t1 int64) {
		if t1 <= t0 {
			return
		}
		do := dInit(f) + dOff + t0
		so := sInit(f) + sOff + t0
		if stage {
			do += dLo - f.base[dst]
			so += sLo - f.base[srcSlot]
		}
		copy(f.arrays[dst].Data[do:do+t1-t0], f.arrays[srcSlot].Data[so:so+t1-t0])
	}
}

// plainStore reports whether a is an unchecked, untracked store the
// specialized forms may perform directly.
func (c *compiler) plainStore(a *Assign) bool {
	slot, ok := c.arraySlots[a.Array]
	if !ok || a.CheckBounds || a.CheckCollision {
		return false
	}
	d := c.prog.Arrays[slot]
	return d.Role != RoleIn && !(d.TrackDefs && !a.NoTrack)
}

// plainLoad reports whether r is an unchecked offset-form load.
func (c *compiler) plainLoad(r *ARef) bool {
	_, ok := c.arraySlots[r.Array]
	return ok && !r.CheckBounds && !r.CheckDefined && r.Off != nil
}

// gather matches the subscript of an unchecked rank-1 access to arr
// with no offset form: one unchecked load from a rank-1 index array at
// c + 1·k, k the loop variable of a step-one loop. It returns the index
// array's slot and the load's distance from k, so the access touches
// arr's element int64(idx.Data[k+d]) − lo. Stream stages take none.
func (c *compiler) gather(x *Loop, arr string, subs []IntExpr, off IntExpr) (int, int64, bool) {
	slot, ok := c.arraySlots[arr]
	if c.stage || x.Step != 1 || off != nil || !ok || len(subs) != 1 || c.prog.Arrays[slot].B.Rank() != 1 {
		return 0, 0, false
	}
	ii, ok := subs[0].(*IIdx)
	if !ok || ii.CheckBounds || len(ii.Subs) != 1 {
		return 0, 0, false
	}
	ix, ok := c.arraySlots[ii.Array]
	if !ok || c.prog.Arrays[ix].B.Rank() != 1 {
		return 0, 0, false
	}
	var k int64
	switch v := ii.Subs[0].(type) {
	case *IVar:
		ok = v.Name == x.Var
	case *ILin:
		ok = len(v.Terms) == 1 && v.Terms[0].Var == x.Var && v.Terms[0].Coeff == 1
		k = v.Const
	default:
		ok = false
	}
	return ix, k - c.prog.Arrays[ix].B.Lo[0], ok
}

// unitReg matches an offset expression const + 1·reg where reg is one
// of x's registers stepping by one, returning reg's index in x.Inds
// and the constant.
func unitReg(x *Loop, off IntExpr) (int, int64, bool) {
	lin, isLin := off.(*ILin)
	if !isLin || len(lin.Terms) != 1 || lin.Terms[0].Coeff != 1 {
		return 0, 0, false
	}
	for i, ind := range x.Inds {
		if ind.Name == lin.Terms[0].Var {
			return i, lin.Const, ind.Step == 1
		}
	}
	return 0, 0, false
}

// sfn evaluates a straight-line expression at o, the primary
// register's value.
type sfn func(f *frame, o int64) float64

// rowDist is a row distance the straight-line form stores in slot at
// the start of each row: init − o, a register's distance from the
// primary one, less base[arr] in stage mode (arr is -1 outside it).
type rowDist struct {
	slot int
	init intFn
	arr  int
}

// sstore is a straight-line store. It writes element o+d of array arr,
// plus the row distance in slot s when s ≥ 0; a scatter (ix ≥ 0)
// writes element int64(Data_ix[o+d]) − lo instead. op 0 overwrites;
// an accumulating store folds the value in as comb(old, new), with +
// and * inlined.
type sstore struct {
	arr, s, ix int
	d, lo      int64
	op         byte
	comb       runtime.CombineFunc
	rhs        sfn
}

func (st *sstore) put(data []float64, i int64, v float64) {
	switch st.op {
	case 0:
		data[i] = v
	case '+':
		data[i] = data[i] + v
	case '*':
		data[i] = data[i] * v
	default:
		data[i] = st.comb(data[i], v)
	}
}

func (st *sstore) run(f *frame, o int64) {
	i := o + st.d
	if st.s >= 0 {
		i += f.ints[st.s]
	}
	if st.ix >= 0 {
		i = int64(f.arrays[st.ix].Data[i]) - st.lo
	}
	st.put(f.arrays[st.arr].Data, i, st.rhs(f, o))
}

// straightRow compiles the straight-line form, or returns nil. Its
// registers are the loop's induction registers and, at index
// len(x.Inds), the loop variable, which gathers and scatters index by;
// when they do, it is the primary register.
func (c *compiler) straightRow(x *Loop, inds []cInd) rowFn {
	lv := len(x.Inds)
	uses := make([]int, lv+1)
	if len(x.Body) == 0 || !c.straightBody(x, uses) || lv == 0 && uses[lv] == 0 {
		return nil
	}
	p := 0
	for i := range uses {
		if uses[i] > uses[p] {
			p = i
		}
	}
	if uses[lv] > 0 {
		p = lv
	}
	var dists []rowDist
	for i, ind := range inds {
		if i != p && uses[i] > 0 && !c.stage {
			dists = append(dists, rowDist{slot: ind.slot, init: ind.init, arr: -1})
		}
	}
	// at returns an access's distance from the primary register, and -1
	// or the slot start stores the access's row distance in: a secondary
	// register's own, or in stage mode one per (array, register) pair,
	// which also holds the array's window shift.
	at := func(arr int, off IntExpr) (int64, int) {
		i, d, _ := unitReg(x, off)
		if c.stage {
			name := c.prog.Arrays[arr].Name + "@" + x.Inds[i].Name
			slot, ok := c.intSlots[name]
			if !ok {
				slot = len(c.intSlots)
				c.intSlots[name] = slot
				dists = append(dists, rowDist{slot: slot, init: inds[i].init, arr: arr})
			}
			return d + c.prog.Arrays[arr].B.Lo[0], slot
		}
		if i == p {
			return d, -1
		}
		return d, inds[i].slot
	}
	var expr func(e VExpr) sfn
	expr = func(e VExpr) sfn {
		switch v := e.(type) {
		case *VConst:
			k := v.Value
			return func(*frame, int64) float64 { return k }
		case *VScalar:
			slot := c.floatSlots[v.Name]
			return func(f *frame, _ int64) float64 { return f.floats[slot] }
		case *ARef:
			arr := c.arraySlots[v.Array]
			if ix, d, ok := c.gather(x, v.Array, v.Subs, v.Off); ok {
				lo := c.prog.Arrays[arr].B.Lo[0]
				return func(f *frame, o int64) float64 {
					return f.arrays[arr].Data[int64(f.arrays[ix].Data[o+d])-lo]
				}
			}
			d, s := at(arr, v.Off)
			if s >= 0 {
				return func(f *frame, o int64) float64 { return f.arrays[arr].Data[o+f.ints[s]+d] }
			}
			return func(f *frame, o int64) float64 { return f.arrays[arr].Data[o+d] }
		case *VNeg:
			fn := expr(v.X)
			return func(f *frame, o int64) float64 { return -fn(f, o) }
		}
		v := e.(*VBin)
		l, r := expr(v.L), expr(v.R)
		switch v.Op {
		case '+':
			return func(f *frame, o int64) float64 { return l(f, o) + r(f, o) }
		case '-':
			return func(f *frame, o int64) float64 { return l(f, o) - r(f, o) }
		case '*':
			return func(f *frame, o int64) float64 { return l(f, o) * r(f, o) }
		}
		return func(f *frame, o int64) float64 { return l(f, o) / r(f, o) }
	}
	store := func(a *Assign) *sstore {
		st := &sstore{arr: c.arraySlots[a.Array], s: -1, ix: -1, comb: a.Accumulate, rhs: expr(a.Rhs)}
		if ix, d, ok := c.gather(x, a.Array, a.Subs, a.Off); ok {
			st.ix, st.d, st.lo = ix, d, c.prog.Arrays[st.arr].B.Lo[0]
		} else {
			st.d, st.s = at(st.arr, a.Off)
		}
		if a.Accumulate != nil {
			st.op = 'c'
			if op := c.prog.AccumOp; op == "+" || op == "*" {
				st.op = op[0]
			}
		}
		return st
	}
	pInit := func(*frame) int64 { return x.From }
	if p < lv {
		pInit = inds[p].init
	}
	start := func(f *frame, t0 int64) int64 {
		o := pInit(f)
		for _, s := range dists {
			f.ints[s.slot] = s.init(f) - o
			if s.arr >= 0 {
				f.ints[s.slot] -= f.base[s.arr]
			}
		}
		return o + t0
	}
	if a, ok := x.Body[0].(*Assign); ok && len(x.Body) == 1 {
		// One store, a stencil interior or a gather/scatter: hoist the
		// destination, its row distance and its index array, and
		// inline the store.
		st := store(a)
		if st.op == 0 && st.ix < 0 {
			rhs := st.rhs
			return func(f *frame, t0, t1 int64) {
				data := f.arrays[st.arr].Data
				o := start(f, t0)
				dd := st.d
				if st.s >= 0 {
					dd += f.ints[st.s]
				}
				for n := t1 - t0; n > 0; o, n = o+1, n-1 {
					data[o+dd] = rhs(f, o)
				}
			}
		}
		return func(f *frame, t0, t1 int64) {
			data := f.arrays[st.arr].Data
			o := start(f, t0)
			dd := st.d
			if st.s >= 0 {
				dd += f.ints[st.s]
			}
			var ix []float64
			if st.ix >= 0 {
				ix = f.arrays[st.ix].Data
			}
			for n := t1 - t0; n > 0; o, n = o+1, n-1 {
				i := o + dd
				if ix != nil {
					i = int64(ix[i]) - st.lo
				}
				st.put(data, i, st.rhs(f, o))
			}
		}
	}
	stmts := make([]func(f *frame, o int64), len(x.Body))
	for i, s := range x.Body {
		switch st := s.(type) {
		case *Assign:
			ss := store(st)
			arr, d, rhs := ss.arr, ss.d, ss.rhs
			switch {
			case ss.op != 0 || ss.ix >= 0:
				stmts[i] = ss.run
			case ss.s >= 0:
				s := ss.s
				stmts[i] = func(f *frame, o int64) { f.arrays[arr].Data[o+f.ints[s]+d] = rhs(f, o) }
			default:
				stmts[i] = func(f *frame, o int64) { f.arrays[arr].Data[o+d] = rhs(f, o) }
			}
		case *SetScalar:
			slot, rhs := c.floatSlots[st.Name], expr(st.Rhs)
			stmts[i] = func(f *frame, o int64) { f.floats[slot] = rhs(f, o) }
		}
	}
	return func(f *frame, t0, t1 int64) {
		for o, n := start(f, t0), t1-t0; n > 0; o, n = o+1, n-1 {
			for _, s := range stmts {
				s(f, o)
			}
		}
	}
}

// straightBody reports whether x's body fits the straight-line form,
// counting each register's accesses into uses (the loop variable's at
// index len(x.Inds)).
func (c *compiler) straightBody(x *Loop, uses []int) bool {
	access := func(arr string, subs []IntExpr, off IntExpr) bool {
		if _, _, ok := c.gather(x, arr, subs, off); ok {
			uses[len(x.Inds)]++
			return true
		}
		i, _, ok := unitReg(x, off)
		if ok {
			uses[i]++
		}
		return ok
	}
	var expr func(e VExpr) bool
	expr = func(e VExpr) bool {
		switch v := e.(type) {
		case *VConst:
			return true
		case *VScalar:
			_, ok := c.floatSlots[v.Name]
			return ok
		case *ARef:
			_, ok := c.arraySlots[v.Array]
			return ok && !v.CheckBounds && !v.CheckDefined && access(v.Array, v.Subs, v.Off)
		case *VBin:
			return (v.Op == '+' || v.Op == '-' || v.Op == '*' || v.Op == '/') && expr(v.L) && expr(v.R)
		case *VNeg:
			return expr(v.X)
		}
		return false
	}
	for _, s := range x.Body {
		switch st := s.(type) {
		case *Assign:
			if !c.plainStore(st) || c.stage && st.Accumulate != nil || !access(st.Array, st.Subs, st.Off) || !expr(st.Rhs) {
				return false
			}
		case *SetScalar:
			if _, ok := c.floatSlots[st.Name]; !ok || !expr(st.Rhs) {
				return false
			}
		default:
			return false
		}
	}
	return true
}
