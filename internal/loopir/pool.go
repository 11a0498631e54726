package loopir

import (
	"sync"
)

// Persistent worker pool shared by every parallel loop execution in the
// process. Workers are plain goroutines parked on a private channel;
// acquiring one hands it a closure, and when the closure returns the
// worker parks itself back on the idle stack instead of exiting. This
// removes the goroutine spawn from the steady-state cost of a parallel
// loop — a compiled program executed repeatedly (the benchmark and
// server cases) reuses the same workers every run.
//
// The pool is safe for concurrent use: several Execs (or several runs
// of one Exec) may run parallel loops at the same time, each borrowing
// as many workers as it needs. There is no fixed pool size — a request
// that finds the idle stack empty simply starts another goroutine, so a
// cohort of workers that wait for each other can never deadlock
// waiting to be scheduled. Only the parked reserve is bounded.

const maxIdleWorkers = 64

var workerPool struct {
	mu   sync.Mutex
	idle []chan func()
}

// acquireWorker returns a channel feeding a live worker goroutine.
func acquireWorker() chan func() {
	workerPool.mu.Lock()
	if n := len(workerPool.idle); n > 0 {
		ch := workerPool.idle[n-1]
		workerPool.idle[n-1] = nil
		workerPool.idle = workerPool.idle[:n-1]
		workerPool.mu.Unlock()
		return ch
	}
	workerPool.mu.Unlock()
	ch := make(chan func())
	go workerLoop(ch)
	return ch
}

func workerLoop(ch chan func()) {
	for fn := range ch {
		fn()
		workerPool.mu.Lock()
		if len(workerPool.idle) >= maxIdleWorkers {
			workerPool.mu.Unlock()
			return
		}
		workerPool.idle = append(workerPool.idle, ch)
		workerPool.mu.Unlock()
	}
}

// RunParallel executes fn(0) … fn(n-1) concurrently — fn(0) on the
// calling goroutine, the rest on pool workers — and returns when all
// have finished. Each fn runs on its own goroutine, so the cohort may
// synchronize internally (a wavefront band waits for the band above).
// fn must not panic, since no caller's recover reaches a pool worker.
// Interpreted parallel loop bodies convert runtime failures to
// recorded errors. Native kernels reach this pool only for bodies
// that cannot fail (gogen gates kernel closures on loopir.CanFail);
// bodies with checks or integer division run sequentially on the
// caller and return their errors. Parallel loops and the pass cohorts
// of a stream pipeline (Barrier.Run, internal/stream) share this one
// pool.
func RunParallel(n int, fn func(w int)) {
	if n <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		ch := acquireWorker()
		w := w
		ch <- func() {
			defer wg.Done()
			fn(w)
		}
	}
	fn(0)
	wg.Wait()
}

// framePool recycles per-worker register frames across loop executions.
// Slot counts are fixed per compiled program, so the pool lives on the
// Exec and its New is bound after compilation.
type framePool struct {
	p sync.Pool
}

// get returns a worker frame: registers copied from the caller's frame,
// array storage and definedness bitmaps shared.
func (fp *framePool) get(f *frame) *frame {
	wf := fp.p.Get().(*frame)
	copy(wf.ints, f.ints)
	copy(wf.floats, f.floats)
	wf.arrays = f.arrays
	wf.defs = f.defs
	wf.workers = f.workers
	return wf
}

// put releases a worker frame back to the pool, dropping references to
// the run's array storage.
func (fp *framePool) put(wf *frame) {
	wf.arrays = nil
	wf.defs = nil
	fp.p.Put(wf)
}

// parError is one worker's first runtime failure, tagged with the
// row-major index of the failing iteration in the loop's sequential
// order. After a join the minimum index wins (cohort.finish), so a
// parallel loop reports the same error sequential execution would
// have.
type parError struct {
	idx int64
	err *ExecError
}

// record keeps the lowest-index failure seen by this worker.
func (p *parError) record(idx int64, err *ExecError) {
	if p.err == nil || idx < p.idx {
		p.idx, p.err = idx, err
	}
}
