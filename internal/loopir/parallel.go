package loopir

import "sync"

// Parallel execution of scheduled loops (the paper's section 10
// extension, grown into a doacross engine). The scheduler guarantees
// which dependences a loop carries; the optimizer's planning pass (see
// plan.go) verifies the concrete distance vectors and attaches a
// ParSchedule; this file compiles those schedules to closures over the
// persistent worker pool (see pool.go): a shard deals contiguous
// chunks of the loop's iterations (compileShardLoop), a wavefront
// pipelines row bands of tiles (compileWavefront). Each worker gets
// its own register frame from the Exec's frame pool — loop variables
// and scalars are thread-local, array storage and definedness bitmaps
// are shared.
//
// Every parallel executor reads the worker count from the frame at run
// time (Exec.SetWorkers / GOMAXPROCS), falls back to the sequential
// closure when only one worker is available, and reports the runtime
// error of the lowest iteration in the loop's sequential order, so a
// parallel run fails exactly like the sequential one would.

// workSaturated caps the work estimate: deeply nested loops with huge
// trip counts would overflow int64 under naive trip × body-cost
// multiplication, and an overflowed (negative) estimate would wrongly
// disqualify exactly the loops most worth parallelizing. Any estimate
// at the cap already clears every threshold, so precision beyond it is
// irrelevant.
const workSaturated = int64(1) << 50

func satAdd(a, b int64) int64 {
	if a > workSaturated-b {
		return workSaturated
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > workSaturated/b {
		return workSaturated
	}
	return a * b
}

// estimateWork statically estimates a statement list's cost in
// abstract operations: expression nodes count individually (an array
// access costs more than a scalar read), nested loops multiply by
// their trip counts. The estimate saturates at workSaturated instead
// of overflowing.
func estimateWork(stmts []Stmt) int64 {
	var total int64
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			trip := tripCount(x.From, x.To, x.Step)
			total = satAdd(total, satAdd(1, satMul(trip, estimateWork(x.Body))))
		case *If:
			thenW := estimateWork(x.Then)
			elseW := estimateWork(x.Else)
			if elseW > thenW {
				thenW = elseW
			}
			total = satAdd(total, satAdd(1, thenW))
		case *Assign:
			total = satAdd(total, satAdd(2, vexprWork(x.Rhs)))
		case *SetScalar:
			total = satAdd(total, satAdd(1, vexprWork(x.Rhs)))
		default:
			total = satAdd(total, 1)
		}
	}
	return total
}

// vexprWork counts the operations of a value expression.
func vexprWork(e VExpr) int64 {
	switch x := e.(type) {
	case *ARef:
		return 2 // offset + load
	case *VFromInt:
		return 2
	case *VBin:
		return satAdd(1, satAdd(vexprWork(x.L), vexprWork(x.R)))
	case *VNeg:
		return satAdd(1, vexprWork(x.X))
	case *VCall:
		t := int64(4)
		for _, a := range x.Args {
			t = satAdd(t, vexprWork(a))
		}
		return t
	case *VCond:
		w := vexprWork(x.T)
		if e := vexprWork(x.E); e > w {
			w = e
		}
		return satAdd(2, w)
	}
	return 1
}

// tripSaturated is the trip-count cap: spans too wide for int64
// arithmetic clamp here instead of wrapping negative. A negative
// "trip" used to reach the cost model for loops like [−2^62 .. 2^62],
// where chooseTile would hand the wavefront executor a zero (or
// negative) tile extent.
const tripSaturated = int64(1) << 62

func tripCount(from, to, step int64) int64 {
	if step == 0 {
		return 0
	}
	var span, mag uint64
	if step > 0 {
		if to < from {
			return 0
		}
		span = uint64(to) - uint64(from)
		mag = uint64(step)
	} else {
		if to > from {
			return 0
		}
		span = uint64(from) - uint64(to)
		mag = -uint64(step)
	}
	trips := span/mag + 1
	if trips >= uint64(tripSaturated) {
		return tripSaturated
	}
	return int64(trips)
}

// cInd is a compiled induction register: an entry-time base value and
// a constant per-iteration step. A row kernel starting at trip index t0
// binds it to base + t0·step and advances it in place.
type cInd struct {
	slot int
	init intFn
	step int64
}

// workersFor resolves the effective cohort size for this run: the
// frame's worker count (set from Options.Workers or GOMAXPROCS when the
// run started) capped by the schedulable parallelism.
func workersFor(f *frame, limit int64) int {
	w := f.workers
	if w < 1 {
		w = 1
	}
	if int64(w) > limit {
		w = int(limit)
	}
	return w
}

// catchRow, deferred by a worker running a row kernel over a 1-D
// loop, records the kernel's runtime failure under the failing
// iteration's trip index, read back from the loop variable slot (only
// the generic kernel fails, and it writes that slot every iteration).
// The rest of the worker's range is skipped; its iterations all follow
// the failing one, so it is the range's first failure.
func (p *parError) catchRow(wf *frame, slot int, from, step int64) {
	if r := recover(); r != nil {
		ee, ok := r.(*ExecError)
		if !ok {
			panic(r)
		}
		p.record((wf.ints[slot]-from)/step, ee)
	}
}

// compileShardLoop splits a loop's [0..trip) iteration space into one
// contiguous chunk per worker, each run by the loop's row kernel. seq
// is the single-worker path. On a 2-D nest that kernel is the outer
// loop's: each iteration runs the row's prefix and then the inner loop,
// which keeps its own row kernel.
//
// An aligned shard's write subscript (Par.AlignOn, typically an
// indirect idx!(i) read) has been verified non-decreasing over the
// iteration space. Naive chunk boundaries are advanced to the next
// change of the subscript value, so a run of equal subscripts never
// straddles two chunks: each output element is written by exactly one
// worker, in sequential iteration order, and the parallel result is
// bitwise identical to the sequential left-to-right accumulation.
// Every worker computes the boundary adjustment with the same pure
// function, so adjacent workers agree on their shared boundary without
// communicating.
func (c *compiler) compileShardLoop(x *Loop, trip int64, seq stmtFn) stmtFn {
	var align intFn
	if x.Par.AlignOn != nil {
		align = c.compileInt(x.Par.AlignOn)
	}
	row := c.parRow(x, x)
	fp, slot, from, step := c.fp, c.intSlots[x.Var], x.From, x.Step
	return func(f *frame) {
		w := workersFor(f, trip)
		if w <= 1 {
			seq(f)
			return
		}
		chunk := (trip + int64(w) - 1) / int64(w)
		errs := make([]parError, w)
		RunParallel(w, func(wi int) {
			wf := fp.get(f)
			defer fp.put(wf)
			defer errs[wi].catchRow(wf, slot, from, step)
			// The write subscript reads only the loop variable, so a
			// probe binds just that; a failing probe reports the probe
			// point.
			alignAt := func(t int64) int64 {
				wf.ints[slot] = from + t*step
				return align(wf)
			}
			advance := func(t int64) int64 {
				for align != nil && t > 0 && t < trip && alignAt(t) == alignAt(t-1) {
					t++
				}
				return t
			}
			row(wf, advance(int64(wi)*chunk), advance(min(int64(wi+1)*chunk, trip)))
		})
		raiseMin(errs)
	}
}

// tiledNest is the compiled form of a 2-D nest scheduled as a
// wavefront of cache tiles: the outer loop, optional per-row prefix
// statements, and the inner loop's row kernel. Both loops step by +1.
type tiledNest struct {
	oSlot     int
	oFrom, ni int64
	oInds     []cInd
	prefix    []stmtFn
	iSlot     int
	iFrom, nj int64
	row       rowFn
	tI, tJ    int64
}

// runTile executes tile (bi,bj) on the worker frame wf: rows in order,
// the row prefix first when the tile is in column 0, then the row
// kernel over the tile's columns. Runtime failures are recorded
// (tagged with the iteration's rank in sequential order) and end the
// tile; later tiles of the same worker still run, which guarantees the
// globally first failure is reached regardless of band-to-worker
// assignment.
func (tn *tiledNest) runTile(wf *frame, bi, bj int64, oBases []int64, perr *parError) {
	iLo := tn.oFrom + bi*tn.tI
	iHi := min(iLo+tn.tI, tn.oFrom+tn.ni)
	t0 := bj * tn.tJ
	t1 := min(t0+tn.tJ, tn.nj)
	var i int64
	inPrefix := false
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(*ExecError)
			if !ok {
				panic(r)
			}
			// Rank iterations so a row's prefix sorts after the
			// previous row's last point and before the row's own
			// points. The row kernel left the failing column in the
			// inner loop variable.
			rank := (i - tn.oFrom) * (tn.nj + 1)
			if !inPrefix {
				rank += 1 + (wf.ints[tn.iSlot] - tn.iFrom)
			}
			perr.record(rank, ee)
		}
	}()
	for i = iLo; i < iHi; i++ {
		wf.ints[tn.oSlot] = i
		for r := range tn.oInds {
			wf.ints[tn.oInds[r].slot] = oBases[r] + (i-tn.oFrom)*tn.oInds[r].step
		}
		if bj == 0 && len(tn.prefix) > 0 {
			inPrefix = true
			runAll(tn.prefix, wf)
			inPrefix = false
		}
		tn.row(wf, t0, t1)
	}
}

// bandProgress counts the finished tiles of one wavefront row band. A
// worker waiting on it blocks rather than spins, so a cohort larger
// than the CPUs it gets still makes progress at full speed.
type bandProgress struct {
	mu   sync.Mutex
	cond sync.Cond
	done int64
}

// await blocks until the band has finished at least n tiles.
func (b *bandProgress) await(n int64) {
	b.mu.Lock()
	for b.done < n {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// finish records that the band has finished n tiles.
func (b *bandProgress) finish(n int64) {
	b.mu.Lock()
	b.done = n
	b.cond.Broadcast()
	b.mu.Unlock()
}

// compileWavefront compiles a ParWavefront schedule: row bands of
// tiles pipeline, each tile waiting only for the tile above it.
// Returns nil when the nest shape is not the one the planner scheduled
// (defensive — the caller then falls back to sequential execution).
func (c *compiler) compileWavefront(x *Loop, trip int64, seq stmtFn) stmtFn {
	if x.Step != 1 || len(x.Body) == 0 {
		return nil
	}
	inner, ok := x.Body[len(x.Body)-1].(*Loop)
	if !ok || inner.Step != 1 {
		return nil
	}
	sched := x.Par
	if sched.TileI < 1 || sched.TileJ < 1 {
		return nil
	}
	inds := c.compileInds(x)
	iTrip := tripCount(inner.From, inner.To, inner.Step)
	tn := &tiledNest{
		oSlot:  c.intSlots[x.Var],
		oFrom:  x.From,
		ni:     trip,
		oInds:  inds,
		prefix: c.compileStmts(x.Body[:len(x.Body)-1]),
		iSlot:  c.intSlots[inner.Var],
		iFrom:  inner.From,
		nj:     iTrip,
		row:    c.parRow(x, inner),
		tI:     sched.TileI,
		tJ:     sched.TileJ,
	}
	nti := (trip + tn.tI - 1) / tn.tI
	ntj := (iTrip + tn.tJ - 1) / tn.tJ
	fp := c.fp
	return func(f *frame) {
		w := workersFor(f, min(nti, ntj))
		if w <= 1 || trip == 0 || iTrip == 0 {
			seq(f)
			return
		}
		oBases := make([]int64, len(inds))
		for i := range inds {
			oBases[i] = inds[i].init(f)
		}
		errs := make([]parError, w)
		// Row bands are dealt to workers cyclically, and a band runs
		// its tiles left to right. Tile (bi,bj) starts once band bi-1
		// has finished its tile bj, so by induction every tile up and
		// to the left of it is done: each carried dependence
		// (component-wise non-negative by the planner's legality check)
		// crosses a finished tile.
		bands := make([]bandProgress, nti)
		for b := range bands {
			bands[b].cond.L = &bands[b].mu
		}
		RunParallel(w, func(wi int) {
			wf := fp.get(f)
			defer fp.put(wf)
			for bi := int64(wi); bi < nti; bi += int64(w) {
				for bj := int64(0); bj < ntj; bj++ {
					if bi > 0 {
						bands[bi-1].await(bj + 1)
					}
					tn.runTile(wf, bi, bj, oBases, &errs[wi])
					bands[bi].finish(bj + 1)
				}
			}
		})
		raiseMin(errs)
	}
}
