package loopir

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel execution of scheduled loops (the paper's section 10
// extension, grown into a doacross engine). The scheduler guarantees
// which dependences a loop carries; the optimizer's planning pass (see
// plan.go) verifies the concrete distance vectors and attaches a
// ParSchedule. Each schedule has one executor over the persistent
// worker pool (see pool.go) that owns chunking, band progress and the
// worker count and calls back a kernel: Shard deals contiguous chunks
// of a loop's iterations, Wavefront pipelines row bands of tiles, and
// a Barrier runs a stream pipeline's steps in lockstep. The
// interpreter passes its row kernels (compileShardLoop,
// compileWavefront); native assigns both executors to a plugin's
// runners, so emitted kernels run on them too.
//
// In the interpreter each worker gets its own register frame from the
// Exec's frame pool — loop variables and scalars are thread-local,
// array storage and definedness bitmaps are shared. The worker count
// is read from the frame at run time (Exec.SetWorkers / GOMAXPROCS),
// a single worker runs the sequential closure, and the runtime error
// of the lowest iteration in the loop's sequential order is reported,
// so a parallel run fails exactly like the sequential one would.

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

// TripCount is the loop's iteration count, saturating at 2^62 like
// every trip count the planner and the executors use.
func (l *Loop) TripCount() int64 { return tripCount(l.From, l.To, l.Step) }

// cInd is a compiled induction register: an entry-time base value and
// a constant per-iteration step. A row kernel starting at trip index t0
// binds it to base + t0·step and advances it in place.
type cInd struct {
	slot int
	init intFn
	step int64
}

// clampWorkers caps a worker budget by the schedulable parallelism,
// keeping at least one worker.
func clampWorkers(w int, limit int64) int { return int(max(1, min(int64(w), limit))) }

// Shard runs the iterations [0, trip) of a sharded loop as w
// contiguous chunks, rows(wi, lo, hi) running chunk [lo, hi) on worker
// wi. The cohort is the budget w capped by trip; worker 0 runs on the
// calling goroutine. Workers claim chunks in order, so a worker that
// is slow to wake costs at most the chunks it has not yet claimed.
//
// A non-nil align is an aligned shard's write subscript at an
// iteration (ParSchedule.AlignOn), verified non-decreasing over the
// iteration space. Naive chunk boundaries are advanced to the next
// change of the subscript value, so a run of equal subscripts never
// straddles two chunks: each output element is written by exactly one
// worker, in sequential iteration order, and the parallel result is
// bitwise identical to the sequential left-to-right accumulation.
// Every worker computes the boundary adjustment with the same pure
// function, so adjacent workers agree on their shared boundary without
// communicating. align(wi, t) is called on worker wi's goroutine.
func Shard(w int, trip int64, align func(wi int, t int64) int64, rows func(wi int, lo, hi int64)) {
	w = clampWorkers(w, trip)
	chunk := (trip + int64(w) - 1) / int64(w)
	var next atomic.Int64
	RunParallel(w, func(wi int) {
		advance := func(t int64) int64 {
			for align != nil && t > 0 && t < trip && align(wi, t) == align(wi, t-1) {
				t++
			}
			return t
		}
		for c := next.Add(1) - 1; c < int64(w); c = next.Add(1) - 1 {
			rows(wi, advance(c*chunk), advance(min((c+1)*chunk, trip)))
		}
	})
}

// Wavefront runs an nti×ntj grid of tiles, tile(wi, bi, bj) running
// tile (bi, bj) on worker wi. Row bands of tiles are dealt to workers
// cyclically and a band runs its tiles left to right; tile (bi, bj)
// starts once band bi-1 has finished its tile bj, so by induction
// every tile up and to the left of it is done, and each carried
// dependence (component-wise non-negative by the planner's legality
// check) crosses a finished tile. The cohort is the budget w capped by
// min(nti, ntj); worker 0 runs on the calling goroutine.
func Wavefront(w int, nti, ntj int64, tile func(wi int, bi, bj int64)) {
	w = clampWorkers(w, min(nti, ntj))
	bands := make([]bandProgress, nti)
	for b := range bands {
		bands[b].cond.L = &bands[b].mu
	}
	RunParallel(w, func(wi int) {
		for bi := int64(wi); bi < nti; bi += int64(w) {
			for bj := int64(0); bj < ntj; bj++ {
				if bi > 0 {
					bands[bi-1].await(bj + 1)
				}
				tile(wi, bi, bj)
				bands[bi].finish(bj + 1)
			}
		}
	})
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

// Barrier is the pool's third cohort shape, beside Shard's chunk
// claims and Wavefront's band progress: a cohort that runs a static
// schedule in lockstep, such as a stream pipeline's steps
// (internal/stream), meets at the barrier between phases. Run starts
// the cohort as one RunParallel call, so a pass of many steps costs one
// pool handoff, not one per step.
//
// A waiting worker spins, yielding its P with runtime.Gosched, for up
// to barrierSpin and only then parks: a step is a few tens of
// microseconds of work, and a futex wakeup per worker per phase costs
// as much as the parallelism gains. Gosched keeps the barrier live
// when the cohort is larger than the Ps it gets (GOMAXPROCS 1, or
// several cohorts at once), because a spinner hands its P to the
// worker it waits for. A caller should still cap the cohort at
// GOMAXPROCS, since spinners on a shared P cost that worker time.
//
// A Barrier may be reused for successive runs, not shared by
// concurrent ones. Its zero value is ready for Run.
type Barrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32
	broken  atomic.Bool
	// parked counts the workers blocked on cond after their spin
	// budget; the last arrival broadcasts only when there are any.
	parked atomic.Int32
	mu     sync.Mutex
	cond   sync.Cond
	pv     any // first panic of the run, re-raised by Run
	pnk    bool
}

// barrierSpin is how long a waiting worker spins before it parks. A
// balanced step waits far less. A longer wait most likely means a
// partner's thread has lost its CPU to another process, and spinning
// would only keep that CPU from it.
const barrierSpin = 100 * time.Microsecond

// Run executes fn(0) … fn(n-1) as one cohort synchronizing on b, fn(0)
// on the calling goroutine. A worker's panic is recovered on its own
// goroutine and breaks the barrier, so the other workers' Wait returns
// false and no worker is left waiting; once every worker has returned,
// Run re-raises the first panic on the caller.
func (b *Barrier) Run(n int, fn func(w int)) {
	b.n = int32(max(n, 1))
	b.arrived.Store(0)
	b.broken.Store(false)
	b.cond.L = &b.mu
	b.pv, b.pnk = nil, false
	RunParallel(n, func(w int) {
		defer b.recoverPanic()
		fn(w)
	})
	if b.pnk {
		pv := b.pv
		b.pv = nil
		panic(pv)
	}
}

// recoverPanic, deferred by each worker, records the worker's panic and
// releases the cohort.
func (b *Barrier) recoverPanic() {
	if r := recover(); r != nil {
		b.mu.Lock()
		if !b.pnk {
			b.pv, b.pnk = r, true
		}
		b.mu.Unlock()
		b.Break()
	}
}

// Wait blocks until all n workers of the run have called Wait for this
// phase and reports true, or reports false once a worker has called
// Break: a worker that breaks never arrives, so the phase cannot
// complete, and every Wait after a Break fails at once.
func (b *Barrier) Wait() bool {
	if b.broken.Load() {
		return false
	}
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		// The last arrival resets the count before opening the next
		// generation, so an early arrival at the next phase counts anew.
		b.arrived.Store(0)
		b.gen.Add(1)
		if b.parked.Load() > 0 {
			b.wake()
		}
		return true
	}
	start := time.Now()
	for spins := 1; b.gen.Load() == g; spins++ {
		if b.broken.Load() {
			return false
		}
		if spins%64 == 0 && time.Since(start) > barrierSpin {
			return b.park(g)
		}
		goruntime.Gosched()
	}
	return true
}

// park blocks the calling worker until generation g ends or the
// barrier breaks. parked is raised before gen is read again, and the
// last arrival raises gen before it reads parked, so either this
// worker sees the new generation or the last arrival sees it parked
// and wakes it.
func (b *Barrier) park(g uint32) bool {
	b.mu.Lock()
	b.parked.Add(1)
	for b.gen.Load() == g && !b.broken.Load() {
		b.cond.Wait()
	}
	b.parked.Add(-1)
	b.mu.Unlock()
	return b.gen.Load() != g
}

// wake releases every parked worker.
func (b *Barrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Break fails the phase in progress and every later one: each worker
// waiting at the barrier, now or later, gets false from Wait. A worker
// that fails calls it instead of Wait.
func (b *Barrier) Break() {
	b.broken.Store(true)
	b.wake()
}

// cohort is the interpreter's per-worker state for one parallel loop
// run: each worker's register frame, taken from the Exec's frame pool
// on the worker's own goroutine at its first kernel call, and its
// first runtime failure.
type cohort []struct {
	wf   *frame
	perr parError
}

// frame returns worker wi's frame; call it on wi's goroutine only.
func (c cohort) frame(fp *framePool, f *frame, wi int) *frame {
	if c[wi].wf == nil {
		c[wi].wf = fp.get(f)
	}
	return c[wi].wf
}

// finish returns the frames to the pool and re-raises the failure of
// the lowest iteration in sequential order, if any, so a parallel loop
// fails exactly like the sequential one would.
func (c cohort) finish(fp *framePool) {
	var best *parError
	for i := range c {
		if c[i].wf != nil {
			fp.put(c[i].wf)
		}
		if e := &c[i].perr; e.err != nil && (best == nil || e.idx < best.idx) {
			best = e
		}
	}
	if best != nil {
		panic(best.err)
	}
}

// catchRow, deferred by a worker running a row kernel (or an align
// probe) over a 1-D loop, records the kernel's runtime failure under
// the failing iteration's trip index, read back from the loop variable
// slot (only the generic kernel fails, and it writes that slot every
// iteration).
func (p *parError) catchRow(wf *frame, slot int, from, step int64) {
	if r := recover(); r != nil {
		ee, ok := r.(*ExecError)
		if !ok {
			panic(r)
		}
		p.record((wf.ints[slot]-from)/step, ee)
	}
}

// compileShardLoop runs a ParShard loop on Shard, each chunk by the
// loop's row kernel on the worker's frame. seq is the single-worker
// path. On a 2-D nest that kernel is the outer loop's: each iteration
// runs the row's prefix and then the inner loop, which keeps its own
// row kernel. A worker's first failure skips the rest of its work, all
// of which follows the failing iteration: an align probe binds just
// the loop variable, so a failing probe reports the probe point.
func (c *compiler) compileShardLoop(x *Loop, trip int64, seq stmtFn) stmtFn {
	var align intFn
	if x.Par.AlignOn != nil {
		align = c.compileInt(x.Par.AlignOn)
	}
	row := c.parRow(x, x)
	fp, slot, from, step := c.fp, c.intSlots[x.Var], x.From, x.Step
	return func(f *frame) {
		w := clampWorkers(f.workers, trip)
		if w == 1 {
			seq(f)
			return
		}
		ws := make(cohort, w)
		var alignAt func(wi int, t int64) int64
		if align != nil {
			alignAt = func(wi int, t int64) int64 {
				wf := ws.frame(fp, f, wi)
				if ws[wi].perr.err != nil {
					return t // boundaries no longer matter
				}
				defer ws[wi].perr.catchRow(wf, slot, from, step)
				wf.ints[slot] = from + t*step
				return align(wf)
			}
		}
		Shard(w, trip, alignAt, func(wi int, lo, hi int64) {
			wf := ws.frame(fp, f, wi)
			if ws[wi].perr.err != nil {
				return
			}
			defer ws[wi].perr.catchRow(wf, slot, from, step)
			row(wf, lo, hi)
		})
		ws.finish(fp)
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

// compileWavefront runs a ParWavefront schedule on Wavefront, each
// tile by runTile on the worker's frame. Returns nil when the nest
// shape is not the one the planner scheduled (defensive — the caller
// then falls back to sequential execution).
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
		w := clampWorkers(f.workers, min(nti, ntj))
		if w == 1 {
			seq(f)
			return
		}
		oBases := make([]int64, len(inds))
		for i := range inds {
			oBases[i] = inds[i].init(f)
		}
		ws := make(cohort, w)
		Wavefront(w, nti, ntj, func(wi int, bi, bj int64) {
			tn.runTile(ws.frame(fp, f, wi), bi, bj, oBases, &ws[wi].perr)
		})
		ws.finish(fp)
	}
}
