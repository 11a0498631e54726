package gogen

import (
	"arraycomp/internal/loopir"
)

// Emission of planned parallel schedules (loopir.ParSchedule). Each
// shape is rendered inline — generated functions stay self-contained —
// and mirrors the interpreter's executors in internal/loopir/parallel.go:
//
//   - ParShard:     contiguous chunks, one goroutine per worker; a 2-D
//     nest shards its outer loop, whole rows to one goroutine
//   - ParWavefront: anti-diagonal bands of tiles with a WaitGroup
//     barrier between diagonals (the interpreter pipelines row bands
//     instead; both orders respect the planner's non-negative
//     distances); per-row prefix statements run in the column-0 tile,
//     so full row order is preserved
//
// Loops without a schedule are emitted sequentially, so emitted code
// parallelizes exactly the loops the interpreter does. Bodies with
// runtime checks never reach these shapes (the caller gates on
// hasErrorPaths): a `return err` inside a goroutine closure would not
// compile.

// emitScheduledLoop renders x under its attached schedule. Returns
// false when the schedule's shape cannot be matched (the caller then
// falls back to sequential emission).
func (e *emitter) emitScheduledLoop(x *loopir.Loop) bool {
	switch x.Par.Kind {
	case loopir.ParShard:
		return e.emitShardLoop(x)
	case loopir.ParWavefront:
		return e.emitWavefront(x)
	}
	return false
}

// emitShardLoop splits the loop's iterations into one contiguous chunk
// per worker, each run by a goroutine in sequential order. The body —
// on a 2-D nest the row's prefix and inner loop — is emitted as usual
// inside the chunk loop. An aligned shard's write subscript
// (Par.AlignOn) was verified non-decreasing: chunk boundaries advance
// to the next change of the subscript value, so a run of equal
// subscripts never straddles two goroutines and the result is bitwise
// identical to sequential left-to-right accumulation. Mirrors the
// interpreter's compileShardLoop.
func (e *emitter) emitShardLoop(x *loopir.Loop) bool {
	align := x.Par.AlignOn
	if align != nil && intHasChecks(align) {
		return false
	}
	v := goName(x.Var)
	var tripVal int64
	if x.Step > 0 {
		tripVal = (x.To-x.From)/x.Step + 1
	} else {
		tripVal = (x.From-x.To)/(-x.Step) + 1
	}
	if tripVal < 1 {
		return true // empty loop: nothing to emit
	}
	trip := e.fresh("trip")
	if align != nil {
		e.line("{ // shard loop over %s: equal-subscript runs stay in one chunk", v)
	} else {
		e.line("{ // shard loop over %s: no carried dependences between iterations", v)
	}
	e.depth++
	e.line("%s := int64(%d)", trip, tripVal)
	e.line("workers := int64(runtime.GOMAXPROCS(0))")
	e.line("if workers > %s {", trip)
	e.depth++
	e.line("workers = %s", trip)
	e.depth--
	e.line("}")
	e.line("chunk := (%s + workers - 1) / workers", trip)
	if align != nil {
		e.line("alignAt := func(t int64) int64 {")
		e.depth++
		e.line("%s := int64(%d) + t*int64(%d)", v, x.From, x.Step)
		e.line("_ = %s", v)
		e.line("return %s", e.intExpr(align))
		e.depth--
		e.line("}")
		e.line("advance := func(t int64) int64 {")
		e.depth++
		e.line("for t > 0 && t < %s && alignAt(t) == alignAt(t-1) {", trip)
		e.depth++
		e.line("t++")
		e.depth--
		e.line("}")
		e.line("return t")
		e.depth--
		e.line("}")
	}
	e.line("var wg sync.WaitGroup")
	e.line("for w := int64(0); w < workers; w++ {")
	e.depth++
	e.line("lo, hi := w*chunk, (w+1)*chunk")
	e.line("if hi > %s {", trip)
	e.depth++
	e.line("hi = %s", trip)
	e.depth--
	e.line("}")
	if align != nil {
		e.line("lo, hi = advance(lo), advance(hi)")
	}
	e.line("wg.Add(1)")
	e.line("go func(lo, hi int64) {")
	e.depth++
	e.line("defer wg.Done()")
	e.line("for t := lo; t < hi; t++ {")
	e.depth++
	e.line("%s := int64(%d) + t*int64(%d)", v, x.From, x.Step)
	e.line("_ = %s // may be fully strength-reduced away", v)
	for _, ind := range x.Inds {
		// Chunks start mid-space: rebase the register from the
		// iteration ordinal instead of carrying it.
		if ind.Step != 0 {
			e.line("%s := %s + t*int64(%d)", goName(ind.Name), e.intExpr(ind.Init), ind.Step)
		} else {
			e.line("%s := %s", goName(ind.Name), e.intExpr(ind.Init))
		}
		e.line("_ = %s", goName(ind.Name))
	}
	e.emitStmts(x.Body)
	e.depth--
	e.line("}")
	e.depth--
	e.line("}(lo, hi)")
	e.depth--
	e.line("}")
	e.line("wg.Wait()")
	e.depth--
	e.line("}")
	return true
}

// emitWavefront renders a 2-D nest under a wavefront schedule. The
// nest shape is the planner's: any per-row prefix assignments followed
// by a step-1 inner loop, both loops step 1.
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
	ni := x.To - x.From + 1
	nj := inner.To - inner.From + 1
	tI, tJ := x.Par.TileI, x.Par.TileJ
	if ni < 1 || nj < 1 || tI < 1 || tJ < 1 {
		return false
	}
	nti := (ni + tI - 1) / tI
	ntj := (nj + tJ - 1) / tJ
	iv, jv := goName(x.Var), goName(inner.Var)

	// runTile renders the body of one (bi, bj) tile: the tile's rows in
	// order, each row running its prefix first (column-0 tiles only)
	// and then the row's slice of inner iterations.
	runTile := func() {
		e.line("iLo := int64(%d) + bi*%d", x.From, tI)
		e.line("iHi := iLo + %d - 1", tI)
		e.line("if iHi > %d {", x.To)
		e.depth++
		e.line("iHi = %d", x.To)
		e.depth--
		e.line("}")
		e.line("jLo := int64(%d) + bj*%d", inner.From, tJ)
		e.line("jHi := jLo + %d - 1", tJ)
		e.line("if jHi > %d {", inner.To)
		e.depth++
		e.line("jHi = %d", inner.To)
		e.depth--
		e.line("}")
		e.line("for %s := iLo; %s <= iHi; %s++ {", iv, iv, iv)
		e.depth++
		for _, ind := range x.Inds {
			// Rows run out of order across tiles: rebase outer registers
			// from the row ordinal.
			if ind.Step != 0 {
				e.line("%s := %s + (%s-int64(%d))*int64(%d)", goName(ind.Name), e.intExpr(ind.Init), iv, x.From, ind.Step)
			} else {
				e.line("%s := %s", goName(ind.Name), e.intExpr(ind.Init))
			}
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
			if ind.Step != 0 {
				e.line("%s := %s + (jLo-int64(%d))*int64(%d)", goName(ind.Name), e.intExpr(ind.Init), inner.From, ind.Step)
			} else {
				e.line("%s := %s", goName(ind.Name), e.intExpr(ind.Init))
			}
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
	}

	e.line("{ // wavefront nest over %s,%s: %dx%d tiles, anti-diagonal bands", iv, jv, tI, tJ)
	e.depth++
	e.line("nti, ntj := int64(%d), int64(%d)", nti, ntj)
	e.line("for d := int64(0); d < nti+ntj-1; d++ {")
	e.depth++
	e.line("biLo, biHi := d-ntj+1, d")
	e.line("if biLo < 0 {")
	e.depth++
	e.line("biLo = 0")
	e.depth--
	e.line("}")
	e.line("if biHi > nti-1 {")
	e.depth++
	e.line("biHi = nti - 1")
	e.depth--
	e.line("}")
	e.line("var wg sync.WaitGroup")
	e.line("for bi := biLo; bi <= biHi; bi++ {")
	e.depth++
	e.line("wg.Add(1)")
	e.line("go func(bi int64) {")
	e.depth++
	e.line("defer wg.Done()")
	e.line("bj := d - bi")
	runTile()
	e.depth--
	e.line("}(bi)")
	e.depth--
	e.line("}")
	e.line("wg.Wait()")
	e.depth--
	e.line("}")
	e.depth--
	e.line("}")
	return true
}
