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
// kernel compiler picks the stronger of two forms:
//
//   - strip: a body of unchecked, untracked Assign and SetScalar
//     statements whose every access is either offset-form on a
//     register stepping by one, or a rank-1 gather or scatter
//     `arr[idx[k+c]]`: an unchecked load from a rank-1 index array at
//     c + 1·k, k the variable of a step-one loop, which acts as one
//     more register. The primary register — the loop variable when a
//     gather or scatter uses it, else the register most accesses hang
//     off — lives in a local o, so each of its accesses is Data[o+d]
//     and a gather reads arr.Data[int64(idx.Data[o+d]) − lo]; any
//     other register sits a constant distance from it within a row,
//     stored once per row in that register's slot. Such a body cannot
//     observe the loop variable or the registers otherwise (int
//     conversions, calls and conditionals take the generic form), so
//     neither is maintained.
//
//     The body runs stripLen iterations at a time, node by node, the
//     "lifted" evaluation of data-parallel comprehensions: a load is a
//     sub-slice of Data, a gather fills a strip, each + − * / and
//     negation is one loop over its operands' strips, and constants
//     and scalars are one value per strip. What a strip cannot compute
//     is the spine: the path from each leaf that may see what an
//     earlier element of the same strip stored up to its statement's
//     root. The spine runs once per element, one closure per node and
//     IEEE operation, its off-spine operands constants or strips
//     filled before the strip's first element, its leaves loading Data
//     or a scalar slot, which hold what the previous element stored.
//
//     A body of plain stores — neither accumulating nor scattering — to
//     distinct arrays, none of which it reads, has no spine: per strip,
//     each store's root evaluates straight into its destination in turn,
//     so `dst@{r1} := src@{r2}` is one builtin copy per strip (node
//     splitting's row snapshots, `row[j] := a[i,j-1]`). Distinct arrays
//     share no storage, so running one store's strip before the next's
//     cannot change what either reads.
//
//     A body that is one other store has a spine only for its carried
//     reads of the stored array. A strip is read before any of it is
//     stored, so such a read sees what the sequential loop sees unless
//     it is carried: at a distance d iterations from the store, on the
//     store's register, with −min(stripLen, trip) < d < 0, or on
//     another register, whose distance is unknown. The loop's access
//     table (access.go) classifies the reads in one filter
//     (selfReads). A carried spine stores each element as it computes
//     it (SOR, Livermore 23, the wavefront, stream recurrences).
//     Without carried reads, a scatter, an accumulating store
//     (comb(old, new), + and * inlined) or a store that reads its own
//     array computes the strip into scratch, then stores it in element
//     order.
//
//     Every other body — several statements that set a scalar, write
//     one array twice or read what they write (fused border loops, the
//     row swap), a store that gathers through the array it writes or by
//     it, a scatter or accumulating store that reads it — puts on its
//     spine every read of an array the body writes and of a scalar it
//     sets; only the subtrees that read neither are strips. Per
//     element, each statement's spine runs in statement order and its
//     root stores or sets the value, so every read sees what it sees in
//     the sequential loop.
//   - generic: the closure tree, writing the loop variable and the
//     registers every iteration.
//
// Both forms evaluate each element through the same IEEE operations in
// the same order, so results are bitwise identical. A strip loop, and a
// spine closure, performs exactly one operation per element: fusing a
// multiply and an add into one loop body would let a compiler contract
// them into an FMA (Go permits it on arm64), which rounds once.
//
// The strip form and a scatter's element-order store rely on one
// invariant: distinct array slots never share storage. A store's
// destination is then disjoint from every strip its right side reads
// from another array, so writing a strip before, or instead of,
// reading the next one cannot change what is read. A store that reads
// its own array breaks that: a read at d > 0 overlaps the destination
// strip shifted by d. Such a store therefore evaluates into scratch and
// stores afterwards, or stores per element from its spine, and never
// evaluates its root into the destination.
//
// Only the generic form raises runtime errors: the strip form takes
// unchecked accesses only, and an unchecked index-array load needs a
// range claim that was proven statically or verified by the BVerify
// guard of its branch. Since the generic form's
// loop variable slot holds the failing iteration, an executor's
// recover derives the failure's rank from it.
//
// Stream stages (stage.go) run the same kernels. A register holds an
// offset from the declared lower bound lo, but a stage binds each array
// slot to a window whose element 0 is position base, so in stage mode
// the strip form adds lo − base once per row. Stages take no gathers,
// scatters or accumulating stores; their recurrences and per-iteration
// temporaries run on the spine.
//
// An earlier revision compiled straight-line bodies to postfix tapes
// run by a small stack VM; its dispatch overhead made it strictly
// slower than the closure tree on every workload.

// rowFn runs the trip-relative iterations [t0, t1) of one loop on f.
type rowFn func(f *frame, t0, t1 int64)

// rowKernel is a loop's compiled row kernel and whether it took the
// strip form.
type rowKernel struct {
	run   rowFn
	strip bool
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
		rk.run = c.stripRow(x, inds)
		rk.strip = rk.run != nil
	}
	if rk.run == nil {
		rk.run = c.genericRow(x, inds)
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

// rowDist is a row distance the strip form stores in slot at the start
// of each row: init − o, a register's distance from the primary one,
// less base[arr] in stage mode (arr is -1 outside it).
type rowDist struct {
	slot int
	init intFn
	arr  int
}

// sstore is a store of the strip form. It writes element o+d of array
// arr, plus the row distance in slot s when s ≥ 0; a scatter (ix ≥ 0)
// writes element int64(Data_ix[o+d]) − lo instead. op 0 overwrites;
// an accumulating store folds the value in as comb(old, new), with +
// and * inlined in a single store's strip.
type sstore struct {
	arr, s, ix int
	d, lo      int64
	op         byte
	comb       runtime.CombineFunc
}

// rowStart returns the row's starting element distance of st, the
// hoisted part of its subscript.
func (st *sstore) rowStart(f *frame) int64 {
	if st.s >= 0 {
		return st.d + f.ints[st.s]
	}
	return st.d
}

// stripRow compiles x's body to the strip form, or returns nil when the
// body does not fit it (stripBody). Its registers are the loop's
// induction registers and, at index len(x.Inds), the loop variable,
// which gathers and scatters index by; when they do, it is the primary
// register.
func (c *compiler) stripRow(x *Loop, inds []cInd) rowFn {
	lv := len(x.Inds)
	uses := make([]int, lv+1)
	if len(x.Body) == 0 || !c.stripBody(x, uses) || lv == 0 && uses[lv] == 0 {
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
	store := func(a *Assign) *sstore {
		st := &sstore{arr: c.arraySlots[a.Array], s: -1, ix: -1}
		if ix, d, ok := c.gather(x, a.Array, a.Subs, a.Off); ok {
			st.ix, st.d, st.lo = ix, d, c.prog.Arrays[st.arr].B.Lo[0]
		} else {
			st.d, st.s = at(st.arr, a.Off)
		}
		if a.HasAccum {
			st.op, st.comb = 'c', c.combiner()
			if op := c.prog.AccumOp; op == "+" || op == "*" {
				st.op = op[0]
			}
		}
		return st
	}
	node := c.stripNode(x, at)
	var fills []fillFn
	var strip func(f *frame, o, dd int64, n int)
	// st is the one store a carried or scratch strip stores to; plain
	// stores read their own row starts per strip, and any other body's
	// roots store per element, so there st hoists nothing.
	st, rhs := &sstore{s: -1}, VExpr(nil)
	plain, a, carried := c.selfReads(x)
	if a != nil {
		st, rhs = store(a), a.Rhs
	}
	switch {
	case plain:
		// Per strip, each store's root evaluates into its destination in
		// turn.
		stores := make([]func(f *frame, o, _ int64, n int), len(x.Body))
		for k, s := range x.Body {
			put := s.(*Assign)
			stores[k] = intoDst(store(put), node(put.Rhs, 0))
		}
		strip = stores[0]
		if len(stores) > 1 {
			strip = func(f *frame, o, _ int64, n int) {
				for _, run := range stores {
					run(f, o, 0, n)
				}
			}
		}
	case a == nil:
		// Any other body: the spine holds every read of an array the
		// body writes and of a scalar it sets, and per element each
		// statement's root stores or sets its value, in statement order.
		t := collectAccesses(x.Body, false)
		written, set := map[string]bool{}, t.scalarW
		for _, a := range t.acc {
			written[a.array] = written[a.array] || a.write
		}
		t.release()
		elem := c.spine(x, func(e VExpr) bool {
			switch v := e.(type) {
			case *VScalar:
				return set[v.Name]
			case *ARef:
				ix, _, gathers := c.gather(x, v.Array, v.Subs, v.Off)
				return written[v.Array] || gathers && written[c.prog.Arrays[ix].Name]
			}
			return false
		}, node, at, &fills)
		roots := make([]func(f *frame, o int64, i int), len(x.Body))
		for k, s := range x.Body {
			switch s := s.(type) {
			case *Assign:
				st, e := store(s), elem(s.Rhs)
				roots[k] = func(f *frame, o int64, i int) {
					data, j := f.arrays[st.arr].Data, o+st.rowStart(f)
					if st.ix >= 0 {
						j = int64(f.arrays[st.ix].Data[j]) - st.lo
					}
					if v := e(f, o, i); st.op == 0 {
						data[j] = v
					} else {
						data[j] = st.comb(data[j], v)
					}
				}
			case *SetScalar:
				slot, e := c.floatSlots[s.Name], elem(s.Rhs)
				roots[k] = func(f *frame, o int64, i int) { f.floats[slot] = e(f, o, i) }
			}
		}
		strip = func(f *frame, o, _ int64, n int) {
			for i := range n {
				for _, root := range roots {
					root(f, o+int64(i), i)
				}
			}
		}
	case len(carried) > 0:
		root := c.spine(x, func(e VExpr) bool { return carried[e] }, node, at, &fills)(rhs)
		strip = func(f *frame, o, dd int64, n int) {
			dst := f.arrays[st.arr].Data[o+dd : o+dd+int64(n)]
			for i := range dst {
				dst[i] = root(f, o+int64(i), i)
			}
		}
	default:
		// A scatter, an accumulating store, or a store that reads its
		// own array: the root evaluates into scratch strip 0 (or is a
		// view, which copy moves like memmove), then the strip is stored
		// in element order.
		root := node(rhs, 1)
		c.scratch(0)
		strip = func(f *frame, o, dd int64, n int) {
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
	}
	return func(f *frame, t0, t1 int64) {
		o := x.From
		if p < lv {
			o = inds[p].init(f)
		}
		for _, s := range dists {
			f.ints[s.slot] = s.init(f) - o
			if s.arr >= 0 {
				f.ints[s.slot] -= f.base[s.arr]
			}
		}
		dd := st.rowStart(f)
		for o, n := o+t0, t1-t0; n > 0; {
			m := min(n, stripLen)
			for _, fill := range fills {
				fill(f, o, int(m))
			}
			strip(f, o, dd, int(m))
			o, n = o+m, n-m
		}
	}
}

// intoDst returns the strip of a plain store whose root evaluates
// straight into its destination, so `dst@{r1} := src@{r2}` is one
// builtin copy per strip. The store's row start is read per strip.
func intoDst(st *sstore, root snode) func(f *frame, o, _ int64, n int) {
	switch {
	case root.val != nil:
		return func(f *frame, o, _ int64, n int) {
			d := o + st.rowStart(f)
			stripFill(f.arrays[st.arr].Data[d:d+int64(n)], root.val(f))
		}
	case root.view:
		return func(f *frame, o, _ int64, n int) {
			d := o + st.rowStart(f)
			dst := f.arrays[st.arr].Data[d : d+int64(n)]
			copy(dst, root.vec(f, o, dst))
		}
	}
	return func(f *frame, o, _ int64, n int) {
		d := o + st.rowStart(f)
		root.vec(f, o, f.arrays[st.arr].Data[d:d+int64(n)])
	}
}

// stripBody reports whether x's body fits the strip form, counting
// each register's accesses into uses (the loop variable's at index
// len(x.Inds)).
func (c *compiler) stripBody(x *Loop, uses []int) bool {
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
			slot, ok := c.arraySlots[st.Array]
			if !ok || st.CheckBounds || st.CheckCollision || c.stage && st.HasAccum || !access(st.Array, st.Subs, st.Off) || !expr(st.Rhs) {
				return false
			}
			if d := c.prog.Arrays[slot]; d.Role == RoleIn || d.TrackDefs && !st.NoTrack {
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

// selfReads classifies x's body by what it reads of what it writes.
// plain reports a body of plain stores — neither accumulating nor
// scattering — to distinct arrays, none of which the body reads: its
// spine is empty, and since distinct arrays share no storage, each
// store may run a whole strip before the next. Otherwise a is the
// body's store when the body is one store whose spine holds only its
// carried reads of the stored array, deciding by the distance of each
// read of the stored array. The store is the access table's first
// record, and every later one is a read. A read at distance d
// iterations from the store on the store's register is carried when
// −min(stripLen, trip) < d < 0: the sequential loop reads what an
// earlier iteration of the same strip stored. A read on another
// register has no distance known at compile time and is carried too.
// Any other read sees what it would see sequentially when the strip is
// read before it is stored. A body of several statements that is not
// plain, a gather through the stored array or of it, and a scatter or
// accumulating store that reads itself return nil: every read of a
// written array goes on the spine instead.
func (c *compiler) selfReads(x *Loop) (plain bool, a *Assign, carried map[VExpr]bool) {
	t := collectAccesses(x.Body, false)
	defer t.release()
	plain = t.scalarW == nil
	for k := range t.acc {
		if s, ok := t.acc[k].node.(*Assign); ok {
			_, _, scatters := c.gather(x, s.Array, s.Subs, s.Off)
			plain = plain && !s.HasAccum && !scatters
		}
		for _, r := range t.acc[:k] {
			plain = plain && (r.array != t.acc[k].array || !r.write && !t.acc[k].write)
		}
	}
	a, one := x.Body[0].(*Assign)
	if plain || !one || len(x.Body) > 1 {
		return plain, nil, nil
	}
	sr, sd, dense := unitReg(x, a.Off)
	band := min(stripLen, x.TripCount())
	for k := 1; k < len(t.acc); k++ {
		if t.acc[k].array != a.Array {
			continue
		}
		ref, isRef := t.acc[k].node.(*ARef)
		if !isRef || !dense || a.HasAccum {
			return false, nil, nil
		}
		r, d, direct := unitReg(x, ref.Off)
		if !direct {
			return false, nil, nil
		}
		if d -= sd; r != sr || -band < d && d < 0 {
			if carried == nil {
				carried = map[VExpr]bool{}
			}
			carried[ref] = true
		}
	}
	return false, a, carried
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

// efn evaluates one element of a spine: o is the primary register's
// value at the element and i its index in the strip.
type efn func(f *frame, o int64, i int) float64

// fillFn computes one off-spine operand's strip of n elements from o.
type fillFn func(f *frame, o int64, n int)

// scratch returns the offset in f.strip of scratch strip k; c.strips is
// the most any strip body needs.
func (c *compiler) scratch(k int) int {
	c.strips = max(c.strips, (k+1)*stripLen)
	return k * stripLen
}

// stripNode returns the strip compiler of x's expressions, whose
// offset-form accesses sit where at places them. A node writes its
// strip into the out its parent passes: a binary node hands its own
// out to its left operand and scratch strip next to its right, unless
// the left is a view or a value, so scratch strips are needed only for
// right operands that compute.
func (c *compiler) stripNode(x *Loop, at func(int, IntExpr) (int64, int)) func(e VExpr, next int) snode {
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
			k := c.scratch(next)
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
	return node
}

// spine returns the compiler of x's spines, whose leaves are the
// expressions leaf reports: an expression compiles to one closure per
// node with a leaf below it, each doing one IEEE operation, and its
// leaves load Data or a scalar slot per element. Every off-spine
// operand, and an expression with no leaf at all, is a constant or a
// strip: the j-th strip is compiled by node into scratch strip j, its
// own subtree's scratch above it, and filled once per strip by
// (*fills)[j], in order.
func (c *compiler) spine(x *Loop, leaf func(VExpr) bool, node func(VExpr, int) snode, at func(int, IntExpr) (int64, int), fills *[]fillFn) func(VExpr) efn {
	var onSpine func(e VExpr) bool
	onSpine = func(e VExpr) bool {
		switch v := e.(type) {
		case *VNeg:
			return onSpine(v.X)
		case *VBin:
			return onSpine(v.L) || onSpine(v.R)
		}
		return leaf(e)
	}
	// operand returns an off-spine operand: the constant k when q < 0,
	// else the scratch offset q of its strip.
	operand := func(e VExpr) (k float64, q int) {
		if v, ok := e.(*VConst); ok {
			return v.Value, -1
		}
		j := len(*fills)
		q = c.scratch(j)
		n := node(e, j+1)
		*fills = append(*fills, func(f *frame, o int64, m int) {
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
		case *VScalar:
			slot := c.floatSlots[v.Name]
			return func(f *frame, _ int64, _ int) float64 { return f.floats[slot] }
		case *ARef:
			arr := c.arraySlots[v.Array]
			if ix, d, ok := c.gather(x, v.Array, v.Subs, v.Off); ok {
				lo := c.prog.Arrays[arr].B.Lo[0]
				return func(f *frame, o int64, _ int) float64 { return f.arrays[arr].Data[int64(f.arrays[ix].Data[o+d])-lo] }
			}
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
	return func(e VExpr) efn {
		if onSpine(e) {
			return spine(e)
		}
		if k, q := operand(e); q < 0 {
			return func(*frame, int64, int) float64 { return k }
		} else {
			return func(f *frame, _ int64, i int) float64 { return f.strip[q+i] }
		}
	}
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
