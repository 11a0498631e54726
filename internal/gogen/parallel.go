package gogen

import (
	"arraycomp/internal/loopir"
)

// Emission of planned parallel schedules (loopir.ParSchedule). A
// scheduled loop becomes one runner call with a kernel closure:
// RunShard(workers, trip, align, rows) calls rows per chunk of the
// iteration ordinals (a 2-D nest shards whole rows; an aligned shard
// passes its write subscript as align), and RunWavefront(workers, nti,
// ntj, tile) calls tile per cache tile, whose rows run in order with
// the per-row prefix in the column-0 tile. The runners own chunking,
// band progress and the worker count: native assigns them
// loopir.Shard and loopir.Wavefront, the interpreter's executors, and
// standalone output declares the sequential defaults in Runners.
//
// Loops without a schedule are emitted sequentially, so emitted code
// parallelizes exactly the loops the interpreter does. Bodies with
// runtime checks or integer division never reach these shapes (the
// caller gates on loopir.CanFail): a `return err` inside a kernel
// closure would not compile.

// Runners declares the runner variables with sequential defaults.
// Every emitted package includes it once.
const Runners = `// RunShard runs rows(wi, lo, hi) over chunks of [0, trip) that never
// split a run of equal align values; RunWavefront runs tile(wi, bi, bj)
// after the tiles above and left of it. These defaults run
// sequentially; assign parallel executors to use the workers budget.
var RunShard = func(workers int, trip int64, align func(wi int, t int64) int64, rows func(wi int, lo, hi int64)) {
	rows(0, 0, trip)
}

var RunWavefront = func(workers int, nti, ntj int64, tile func(wi int, bi, bj int64)) {
	for bi := int64(0); bi < nti; bi++ {
		for bj := int64(0); bj < ntj; bj++ {
			tile(0, bi, bj)
		}
	}
}
`

// emitShardLoop renders a RunShard call whose rows closure runs one
// chunk of iterations in order, the body (on a 2-D nest the row's
// prefix and inner loop) emitted as usual. An aligned shard's align
// closure evaluates Par.AlignOn at an iteration ordinal. Returns false
// when the shape cannot be emitted (the caller emits sequentially).
func (e *emitter) emitShardLoop(x *loopir.Loop) bool {
	align := x.Par.AlignOn
	if align != nil && loopir.CanFail(align) {
		return false
	}
	trip := x.TripCount()
	if trip == 0 {
		return true // empty loop: nothing to emit
	}
	v := goName(x.Var)
	bindVar := func() {
		e.line("%s := int64(%d) + t*int64(%d)", v, x.From, x.Step)
		e.line("_ = %s // may be fully strength-reduced away", v)
	}
	if align != nil {
		e.line("// shard loop over %s: equal-subscript runs stay in one chunk", v)
		e.line("RunShard(workers, int64(%d), func(_ int, t int64) int64 {", trip)
		e.depth++
		bindVar()
		e.line("return %s", e.intExpr(align))
		e.depth--
		e.line("}, func(_ int, lo, hi int64) {")
	} else {
		e.line("// shard loop over %s: no carried dependences between iterations", v)
		e.line("RunShard(workers, int64(%d), nil, func(_ int, lo, hi int64) {", trip)
	}
	e.depth++
	e.line("for t := lo; t < hi; t++ {")
	e.depth++
	bindVar()
	for _, ind := range x.Inds {
		// Chunks start mid-space: rebase the register from the
		// iteration ordinal instead of carrying it.
		e.line("%s := %s + t*int64(%d)", goName(ind.Name), e.intExpr(ind.Init), ind.Step)
		e.line("_ = %s", goName(ind.Name))
	}
	e.emitStmts(x.Body)
	e.depth--
	e.line("}")
	e.depth--
	e.line("})")
	return true
}

// emitWavefront renders a RunWavefront call whose tile closure runs
// one tile's rows. The nest shape is the planner's: any per-row prefix
// assignments followed by a step-1 inner loop, both loops step 1.
func (e *emitter) emitWavefront(x *loopir.Loop) bool {
	if x.Step != 1 || len(x.Body) == 0 {
		return false
	}
	inner, ok := x.Body[len(x.Body)-1].(*loopir.Loop)
	if !ok || inner.Step != 1 {
		return false
	}
	prefix := x.Body[:len(x.Body)-1]
	for _, s := range prefix {
		if _, ok := s.(*loopir.Assign); !ok {
			return false
		}
	}
	ni, nj := x.TripCount(), inner.TripCount()
	tI, tJ := x.Par.TileI, x.Par.TileJ
	if ni < 1 || nj < 1 || tI < 1 || tJ < 1 {
		return false
	}
	iv, jv := goName(x.Var), goName(inner.Var)
	e.line("// wavefront nest over %s,%s: %dx%d tiles, pipelined row bands", iv, jv, tI, tJ)
	e.line("RunWavefront(workers, int64(%d), int64(%d), func(_ int, bi, bj int64) {", (ni+tI-1)/tI, (nj+tJ-1)/tJ)
	e.depth++
	e.line("iLo, jLo := int64(%d)+bi*%d, int64(%d)+bj*%d", x.From, tI, inner.From, tJ)
	e.line("iHi, jHi := min(iLo+%d, %d), min(jLo+%d, %d)", tI-1, x.To, tJ-1, inner.To)
	e.line("for %s := iLo; %s <= iHi; %s++ {", iv, iv, iv)
	e.depth++
	for _, ind := range x.Inds {
		// Rows run out of order across tiles: rebase outer registers
		// from the row ordinal.
		e.line("%s := %s + (%s-int64(%d))*int64(%d)", goName(ind.Name), e.intExpr(ind.Init), iv, x.From, ind.Step)
		e.line("_ = %s", goName(ind.Name))
	}
	if len(prefix) > 0 {
		e.line("if bj == 0 { // per-row prefix runs with the row's first tile")
		e.depth++
		e.emitStmts(prefix)
		e.depth--
		e.line("}")
	}
	for _, ind := range inner.Inds {
		e.line("%s := %s + (jLo-int64(%d))*int64(%d)", goName(ind.Name), e.intExpr(ind.Init), inner.From, ind.Step)
	}
	e.line("for %s := jLo; %s <= jHi; %s++ {", jv, jv, jv)
	e.depth++
	e.emitStmts(inner.Body)
	for _, ind := range inner.Inds {
		if ind.Step != 0 {
			e.line("%s += %d", goName(ind.Name), ind.Step)
		}
	}
	e.depth--
	e.line("}")
	e.depth--
	e.line("}")
	e.depth--
	e.line("})")
	return true
}
