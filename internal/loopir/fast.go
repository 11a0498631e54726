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
//   - strip: a straight-line body (below) that is one store, unless
//     it gathers through the array it writes or gathers by it, or is a
//     scatter or an accumulating store that reads it. It runs stripLen
//     iterations at a time, node by node, the "lifted" evaluation of
//     data-parallel comprehensions: a load is a sub-slice of Data, a
//     gather fills a strip, each + − * / and negation is one loop over
//     its operands' strips, and constants and scalars are one value per
//     strip. A strip is read before any of it is stored, so a read of
//     the stored array sees what the sequential loop sees unless it is
//     carried: at a distance d iterations from the store, on the
//     store's register, with −min(stripLen, trip) < d < 0, or on
//     another register, whose distance is unknown. The loop's access
//     table (access.go) classifies the reads in one filter
//     (selfReads). With carried reads, every subtree without one is
//     still a strip, computed before the strip's stores, and only the
//     spine, the path from the carried reads to the root, runs once
//     per element: one closure per node and IEEE operation, its
//     off-spine operand a constant or a strip, its carried reads
//     loading Data, which holds what the previous element stored
//     (SOR, Livermore 23, the wavefront, stream recurrences). Without
//     carried reads the spine is empty. A plain store that does not
//     read its own array evaluates its root straight into the
//     destination, so `dst@{r1} := src@{r2}` is one builtin copy per
//     strip (node splitting's row buffering, Jacobi's
//     `rowbuf[j] := a[i-1,j]`). A scatter, an accumulating store or a
//     store that reads its own array computes the strip into scratch,
//     then stores it in element order.
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
//     take the generic form), so neither is maintained. This form
//     keeps what the strip form may not take: node splitting's
//     multi-statement chains (Jacobi's rowbuf/prev/cur), scatters and
//     accumulating stores that read the array they write, and stores
//     that gather through it or by it.
//   - generic: the closure tree, writing the loop variable and the
//     registers every iteration.
//
// Every form evaluates each element through the generic form's IEEE
// operations in the same order, so results are bitwise identical. A
// strip loop, and a spine closure, performs exactly one operation per
// element: fusing a multiply and an add into one loop body would let a
// compiler contract them into an FMA (Go permits it on arm64), which
// rounds once.
//
// The strip form and a scatter's element-order store rely on one
// invariant: distinct array slots never share storage. A store's
// destination is then disjoint from every strip its right side reads
// from another array, so writing a strip before, or instead of,
// reading the next one cannot change what is read. A body that reads
// its own array breaks that: a read at d > 0 overlaps the destination
// strip shifted by d. Such a body therefore evaluates into scratch and
// stores afterwards (its carried spine stores each element as it
// computes it), and never evaluates its root into the destination.
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
// the strip and straight-line forms add lo − base once per row. Stages
// take no gathers, scatters or accumulating stores; their recurrences
// take the strip form with a carried spine.
//
// An earlier revision compiled straight-line bodies to postfix tapes
// run by a small stack VM; its dispatch overhead made it strictly
// slower than the closure tree on every workload.

// rowFn runs the trip-relative iterations [t0, t1) of one loop on f.
type rowFn func(f *frame, t0, t1 int64)

type rowKind uint8

const (
	rowGeneric rowKind = iota
	rowStrip
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
		rk.kind, rk.run = c.straightRow(x, inds)
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

// rowStart returns the row's starting element distance of st, the
// hoisted part of its subscript.
func (st *sstore) rowStart(f *frame) int64 {
	if st.s >= 0 {
		return st.d + f.ints[st.s]
	}
	return st.d
}

// straightRow compiles the strip or the straight-line form, or returns
// nil. Its registers are the loop's induction registers and, at index
// len(x.Inds), the loop variable, which gathers and scatters index by;
// when they do, it is the primary register.
func (c *compiler) straightRow(x *Loop, inds []cInd) (rowKind, rowFn) {
	lv := len(x.Inds)
	uses := make([]int, lv+1)
	if len(x.Body) == 0 || !c.straightBody(x, uses) || lv == 0 && uses[lv] == 0 {
		return rowGeneric, nil
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
	// store compiles where an Assign writes; the caller compiles its
	// right side.
	store := func(a *Assign) *sstore {
		st := &sstore{arr: c.arraySlots[a.Array], s: -1, ix: -1, comb: a.Accumulate}
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
	if a, ok := x.Body[0].(*Assign); ok && len(x.Body) == 1 {
		if carried, self, ok := c.selfReads(x); ok {
			return rowStrip, c.stripRow(x, store(a), a.Rhs, carried, self, at, start)
		}
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
	if a, ok := x.Body[0].(*Assign); ok && len(x.Body) == 1 {
		// One store that gathers through the array it writes, or a
		// scatter or accumulating store that reads itself: hoist the
		// destination, its row distance and its index array, and inline
		// the store.
		st := store(a)
		st.rhs = expr(a.Rhs)
		return rowStraight, func(f *frame, t0, t1 int64) {
			data := f.arrays[st.arr].Data
			o := start(f, t0)
			dd := st.rowStart(f)
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
			ss.rhs = expr(st.Rhs)
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
	return rowStraight, func(f *frame, t0, t1 int64) {
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

// selfReads decides whether x's body, one store, may take the strip
// form, by the distance of each read of the stored array. The store is
// the access table's first record, and every later one is a read. A
// read at distance d iterations from the store on the store's register
// is carried when −min(stripLen, trip) < d < 0: the sequential loop
// reads what an earlier iteration of the same strip stored. A read on
// another register has no distance known at compile time and is
// carried too. Any other read sees what it would see sequentially when
// the strip is read before it is stored. A gather through the stored
// array, or of it, and a scatter or accumulating store that reads
// itself keep the straight-line form (ok false). self reports whether
// the body reads the stored array at all.
func (c *compiler) selfReads(x *Loop) (carried map[*ARef]bool, self, ok bool) {
	t := collectAccesses(x.Body, false)
	defer t.release()
	sr, sd, dense := unitReg(x, t.acc[0].node.(*Assign).Off)
	band := min(stripLen, x.TripCount())
	for k := 1; k < len(t.acc); k++ {
		a := &t.acc[k]
		if a.array != t.acc[0].array {
			continue
		}
		self = true
		ref, isRef := a.node.(*ARef)
		if !isRef || !dense || t.acc[0].accum {
			return nil, true, false
		}
		r, d, direct := unitReg(x, ref.Off)
		if !direct {
			return nil, true, false
		}
		if d -= sd; r != sr || -band < d && d < 0 {
			if carried == nil {
				carried = map[*ARef]bool{}
			}
			carried[ref] = true
		}
	}
	return carried, self, true
}

// stripLen is the strip form's strip: long enough that one closure call
// per node and strip costs little, short enough that a body's strips
// stay in L1.
const stripLen = 256

// vfn evaluates a strip expression over the len(out) iterations from
// o. It returns out, which it filled, or a view of an array's Data.
type vfn func(f *frame, o int64, out []float64) []float64

// snode is a compiled strip expression: a strip (vec), or one value
// for the whole strip (val) when it reads no array. A view's vec
// returns a sub-slice of Data and leaves out alone.
type snode struct {
	vec  vfn
	val  func(f *frame) float64
	view bool
}

// efn evaluates one element of a carried chain: o is the primary
// register's value at the element and i its index in the strip.
type efn func(f *frame, o int64, i int) float64

// stripRow compiles the strip form of the one-store body st := rhs,
// whose reads of the stored array in carried are carried (selfReads)
// and which reads the stored array at all when self is set.
//
// A subtree that holds no carried read is a strip. A node writes its
// strip into the out its parent passes: a binary node hands its own
// out to its left operand and a scratch strip to its right, unless the
// left is a view or a value, so scratch strips are needed only for
// right operands that compute. Scratch strip k is
// f.strip[k·stripLen:]; c.strips is the most any strip body needs.
//
// The spine, every node with a carried read below it, runs once per
// element instead, after the strips its off-spine operands need; its
// carried reads load Data, so each sees what the previous element
// stored.
func (c *compiler) stripRow(x *Loop, st *sstore, rhs VExpr, carried map[*ARef]bool, self bool, at func(int, IntExpr) (int64, int), start func(*frame, int64) int64) rowFn {
	scratch := func(k int) int {
		c.strips = max(c.strips, (k+1)*stripLen)
		return k * stripLen
	}
	var node func(e VExpr, next int) snode
	node = func(e VExpr, next int) snode {
		switch v := e.(type) {
		case *VConst:
			k := v.Value
			return snode{val: func(*frame) float64 { return k }}
		case *VScalar:
			slot := c.floatSlots[v.Name]
			return snode{val: func(f *frame) float64 { return f.floats[slot] }}
		case *ARef:
			arr := c.arraySlots[v.Array]
			if ix, d, ok := c.gather(x, v.Array, v.Subs, v.Off); ok {
				lo := c.prog.Arrays[arr].B.Lo[0]
				return snode{vec: func(f *frame, o int64, out []float64) []float64 {
					data, idx := f.arrays[arr].Data, f.arrays[ix].Data[o+d:o+d+int64(len(out))]
					for i, k := range idx {
						out[i] = data[int64(k)-lo]
					}
					return out
				}}
			}
			d, s := at(arr, v.Off)
			return snode{view: true, vec: func(f *frame, o int64, out []float64) []float64 {
				o += d
				if s >= 0 {
					o += f.ints[s]
				}
				return f.arrays[arr].Data[o : o+int64(len(out))]
			}}
		case *VNeg:
			a := node(v.X, next)
			if a.val != nil {
				return snode{val: func(f *frame) float64 { return -a.val(f) }}
			}
			return snode{vec: func(f *frame, o int64, out []float64) []float64 {
				stripNeg(out, a.vec(f, o, out))
				return out
			}}
		}
		v := e.(*VBin)
		op := v.Op
		l := node(v.L, next)
		computes := l.vec != nil && !l.view
		rNext := next
		if computes {
			rNext++
		}
		r := node(v.R, rNext)
		switch {
		case l.val != nil && r.val != nil:
			lv, rv := l.val, r.val
			switch op {
			case '+':
				return snode{val: func(f *frame) float64 { return lv(f) + rv(f) }}
			case '-':
				return snode{val: func(f *frame) float64 { return lv(f) - rv(f) }}
			case '*':
				return snode{val: func(f *frame) float64 { return lv(f) * rv(f) }}
			}
			return snode{val: func(f *frame) float64 { return lv(f) / rv(f) }}
		case r.val != nil:
			return snode{vec: func(f *frame, o int64, out []float64) []float64 {
				stripVK(op, out, l.vec(f, o, out), r.val(f))
				return out
			}}
		case l.val != nil:
			return snode{vec: func(f *frame, o int64, out []float64) []float64 {
				stripKV(op, out, l.val(f), r.vec(f, o, out))
				return out
			}}
		case computes && !r.view:
			k := scratch(next)
			return snode{vec: func(f *frame, o int64, out []float64) []float64 {
				a := l.vec(f, o, out)
				stripVV(op, out, a, r.vec(f, o, f.strip[k:k+len(out)]))
				return out
			}}
		}
		return snode{vec: func(f *frame, o int64, out []float64) []float64 {
			a := l.vec(f, o, out)
			stripVV(op, out, a, r.vec(f, o, out))
			return out
		}}
	}
	run := func(f *frame, t0, t1 int64, strip func(f *frame, o, dd int64, n int)) {
		o := start(f, t0)
		dd := st.rowStart(f)
		for n := t1 - t0; n > 0; {
			m := min(n, stripLen)
			strip(f, o, dd, int(m))
			o, n = o+m, n-m
		}
	}
	if len(carried) > 0 {
		root, fills := c.spine(rhs, carried, node, scratch, at)
		strip := func(f *frame, o, dd int64, n int) {
			for _, fill := range fills {
				fill(f, o, n)
			}
			dst := f.arrays[st.arr].Data[o+dd : o+dd+int64(n)]
			for i := range dst {
				dst[i] = root(f, o+int64(i), i)
			}
		}
		return func(f *frame, t0, t1 int64) { run(f, t0, t1, strip) }
	}
	if st.op == 0 && st.ix < 0 && !self {
		// A plain store that does not read its own array: the root
		// evaluates into the destination.
		root := node(rhs, 0)
		var strip func(f *frame, o, dd int64, n int)
		switch {
		case root.val != nil:
			strip = func(f *frame, o, dd int64, n int) {
				stripFill(f.arrays[st.arr].Data[o+dd:o+dd+int64(n)], root.val(f))
			}
		case root.view:
			strip = func(f *frame, o, dd int64, n int) {
				dst := f.arrays[st.arr].Data[o+dd : o+dd+int64(n)]
				copy(dst, root.vec(f, o, dst))
			}
		default:
			strip = func(f *frame, o, dd int64, n int) {
				root.vec(f, o, f.arrays[st.arr].Data[o+dd:o+dd+int64(n)])
			}
		}
		return func(f *frame, t0, t1 int64) { run(f, t0, t1, strip) }
	}
	// A scatter, an accumulating store, or a plain store that reads its
	// own array: the root evaluates into scratch strip 0 (or is a view,
	// which copy moves like memmove), then the strip is stored in
	// element order.
	root := node(rhs, 1)
	scratch(0)
	strip := func(f *frame, o, dd int64, n int) {
		v := f.strip[:n]
		if root.val != nil {
			stripFill(v, root.val(f))
		} else {
			v = root.vec(f, o, v)
		}
		data := f.arrays[st.arr].Data
		if st.ix < 0 {
			dst := data[o+dd : o+dd+int64(n)]
			switch st.op {
			case 0:
				copy(dst, v)
			case 'c':
				for i, x := range v {
					dst[i] = st.comb(dst[i], x)
				}
			default:
				stripVV(st.op, dst, dst, v)
			}
			return
		}
		idx := f.arrays[st.ix].Data[o+dd : o+dd+int64(n)]
		lo := st.lo
		switch st.op {
		case 0:
			for k, x := range v {
				data[int64(idx[k])-lo] = x
			}
		case '+':
			for k, x := range v {
				i := int64(idx[k]) - lo
				data[i] = data[i] + x
			}
		case '*':
			for k, x := range v {
				i := int64(idx[k]) - lo
				data[i] = data[i] * x
			}
		default:
			for k, x := range v {
				i := int64(idx[k]) - lo
				data[i] = st.comb(data[i], x)
			}
		}
	}
	return func(f *frame, t0, t1 int64) { run(f, t0, t1, strip) }
}

// spine compiles the spine of rhs, the nodes above its carried reads,
// to one closure per node, each doing one IEEE operation. Every
// off-spine operand is a constant or a strip: off-spine operand j is
// compiled by node into scratch strip j, its own subtree's scratch
// above it, and filled once per strip by fills[j], in order.
func (c *compiler) spine(rhs VExpr, carried map[*ARef]bool, node func(VExpr, int) snode, scratch func(int) int, at func(int, IntExpr) (int64, int)) (efn, []func(f *frame, o int64, n int)) {
	var fills []func(f *frame, o int64, n int)
	var onSpine func(e VExpr) bool
	onSpine = func(e VExpr) bool {
		switch v := e.(type) {
		case *ARef:
			return carried[v]
		case *VNeg:
			return onSpine(v.X)
		case *VBin:
			return onSpine(v.L) || onSpine(v.R)
		}
		return false
	}
	// operand returns an off-spine operand: the constant k when q < 0,
	// else the scratch offset q of its strip.
	operand := func(e VExpr) (k float64, q int) {
		if v, ok := e.(*VConst); ok {
			return v.Value, -1
		}
		q = scratch(len(fills))
		n := node(e, len(fills)+1)
		fills = append(fills, func(f *frame, o int64, m int) {
			out := f.strip[q : q+m]
			switch {
			case n.val != nil:
				stripFill(out, n.val(f))
			case n.view:
				copy(out, n.vec(f, o, out))
			default:
				n.vec(f, o, out)
			}
		})
		return 0, q
	}
	var spine func(e VExpr) efn
	spine = func(e VExpr) efn {
		switch v := e.(type) {
		case *ARef:
			arr := c.arraySlots[v.Array]
			d, s := at(arr, v.Off)
			if s >= 0 {
				return func(f *frame, o int64, _ int) float64 { return f.arrays[arr].Data[o+f.ints[s]+d] }
			}
			return func(f *frame, o int64, _ int) float64 { return f.arrays[arr].Data[o+d] }
		case *VNeg:
			a := spine(v.X)
			return func(f *frame, o int64, i int) float64 { return -a(f, o, i) }
		}
		v := e.(*VBin)
		switch {
		case !onSpine(v.R):
			k, q := operand(v.R)
			return spineVK(v.Op, spine(v.L), k, q)
		case !onSpine(v.L):
			k, q := operand(v.L)
			return spineKV(v.Op, k, q, spine(v.R))
		}
		return spineVV(v.Op, spine(v.L), spine(v.R))
	}
	return spine(rhs), fills
}

// The spine's binary nodes: both operands on the spine (spineVV), or
// the right or left one off it, the constant k when q < 0, else
// element i of the scratch strip at q (spineVK, spineKV).

func spineVV(op byte, l, r efn) efn {
	switch op {
	case '+':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) + r(f, o, i) }
	case '-':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) - r(f, o, i) }
	case '*':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) * r(f, o, i) }
	}
	return func(f *frame, o int64, i int) float64 { return l(f, o, i) / r(f, o, i) }
}

func spineVK(op byte, l efn, k float64, q int) efn {
	switch {
	case q < 0 && op == '+':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) + k }
	case q < 0 && op == '-':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) - k }
	case q < 0 && op == '*':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) * k }
	case q < 0:
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) / k }
	case op == '+':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) + f.strip[q+i] }
	case op == '-':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) - f.strip[q+i] }
	case op == '*':
		return func(f *frame, o int64, i int) float64 { return l(f, o, i) * f.strip[q+i] }
	}
	return func(f *frame, o int64, i int) float64 { return l(f, o, i) / f.strip[q+i] }
}

func spineKV(op byte, k float64, q int, r efn) efn {
	switch {
	case q < 0 && op == '+':
		return func(f *frame, o int64, i int) float64 { return k + r(f, o, i) }
	case q < 0 && op == '-':
		return func(f *frame, o int64, i int) float64 { return k - r(f, o, i) }
	case q < 0 && op == '*':
		return func(f *frame, o int64, i int) float64 { return k * r(f, o, i) }
	case q < 0:
		return func(f *frame, o int64, i int) float64 { return k / r(f, o, i) }
	case op == '+':
		return func(f *frame, o int64, i int) float64 { return f.strip[q+i] + r(f, o, i) }
	case op == '-':
		return func(f *frame, o int64, i int) float64 { return f.strip[q+i] - r(f, o, i) }
	case op == '*':
		return func(f *frame, o int64, i int) float64 { return f.strip[q+i] * r(f, o, i) }
	}
	return func(f *frame, o int64, i int) float64 { return f.strip[q+i] / r(f, o, i) }
}

// The strip loops. Each performs one floating-point operation per
// element; see the header for why none may do two.

func stripVV(op byte, out, a, b []float64) {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case '+':
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case '-':
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case '*':
		for i := range out {
			out[i] = a[i] * b[i]
		}
	default:
		for i := range out {
			out[i] = a[i] / b[i]
		}
	}
}

func stripVK(op byte, out, a []float64, k float64) {
	a = a[:len(out)]
	switch op {
	case '+':
		for i := range out {
			out[i] = a[i] + k
		}
	case '-':
		for i := range out {
			out[i] = a[i] - k
		}
	case '*':
		for i := range out {
			out[i] = a[i] * k
		}
	default:
		for i := range out {
			out[i] = a[i] / k
		}
	}
}

func stripKV(op byte, out []float64, k float64, b []float64) {
	b = b[:len(out)]
	switch op {
	case '+':
		for i := range out {
			out[i] = k + b[i]
		}
	case '-':
		for i := range out {
			out[i] = k - b[i]
		}
	case '*':
		for i := range out {
			out[i] = k * b[i]
		}
	default:
		for i := range out {
			out[i] = k / b[i]
		}
	}
}

func stripNeg(out, a []float64) {
	a = a[:len(out)]
	for i := range out {
		out[i] = -a[i]
	}
}

func stripFill(out []float64, k float64) {
	for i := range out {
		out[i] = k
	}
}
