// Package stream is the bounded-memory streaming execution engine:
// it runs a pipeline of stream-legal loop-IR programs (see
// loopir.BuildStreamPlan) as one chunk-major loop over O(d)-sized
// sliding windows, one per stage, instead of materialized O(n) arrays.
//
// Execution model. The union of the pipeline's output ranges is cut
// into fixed chunks, and the loop steps that chunk grid. At step t,
// stage i runs chunk t − lag[i], where lag[i] is the largest lag[p] +
// kAhead + 1 over its producers p and kAhead is the number of chunks
// of lookahead stage i reads of p. The schedule is static, so one
// worker cohort runs a whole pass: worker 0 is the calling goroutine,
// the rest come from loopir's worker pool in one handoff, and each
// worker owns a fixed set of stages, dealt round-robin in Build with
// the result stage on worker 0. Each step has two phases, separated by
// a step barrier (loopir.Barrier). First every worker slides the
// window of each of its stages that runs this step: it keeps the
// history its readers need and zeroes the fresh chunk, as a fresh
// materialized output would be. Then, with no window moving, each
// worker points its stages at their producers' windows and runs their
// chunks; worker 0 hands the result chunk to emit as soon as it has
// run it. A consumer reads its producers' windows in place, so nothing
// is copied between stages; the +1 in the lag means that within a step
// no stage reads a chunk another stage is writing. A producer window
// therefore keeps max(SelfBack, back + (lag[c] − lag[p])·chunk)
// elements of history for its consumers c. When the result is
// collected, the result stage writes straight into the result array
// instead of a window. A failing stage, a failing emit or a panic on
// any worker breaks the barrier, so every worker stops at its next
// wait; the run returns the error or re-panics on the caller.
//
// There is one compiler. Each stage runs the row kernels
// loopir.CompileStage builds with the materialized interpreter's own
// compiler; the only difference is that every array slot is bound to
// a slice plus a base position: a resident input (base = its lower
// bound), an upstream window, or the stage's own window.
//
// Bitwise identity with the materialized path is by construction, not
// by tolerance: each element is computed once (the compiler proved
// writes collision-free), by the loop-IR interpreter's own kernels,
// reading operands that the window invariants prove are the same
// values the materialized order would observe. No window moves while
// any stage runs, and the order in which one step's stages run cannot
// change a value, so results are identical at every cohort width. The
// oracle's `stream` ablation arm cross-checks this bit-for-bit on
// generated programs.
//
// Memory accounting is a closed form: every window is allocated before
// the first step, so the peak is the resident inputs plus every stage
// window, plus the result array when collecting.
package stream

import (
	"fmt"
	goruntime "runtime"

	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
)

// DefaultChunkSize is the chunk grid pitch when the caller does not
// set one. It is raised automatically to the pipeline's max window
// distance so one chunk of lookahead always suffices.
const DefaultChunkSize = 4096

// Def is one pipeline stage: a compiled definition with its stream
// plan. Name is the definition's array name — the name consumers
// declare as RoleIn when they read it.
type Def struct {
	Name string
	Prog *loopir.Program
	Plan *loopir.StreamPlan
}

// Config tunes pipeline construction.
type Config struct {
	// ChunkSize is the chunk grid pitch (0 = DefaultChunkSize). It is
	// raised to the pipeline's max window distance when smaller.
	ChunkSize int64
}

// Report is the outcome accounting of one pipeline run.
type Report struct {
	// PeakBytes is the live streaming memory: resident inputs plus
	// every stage window, where a collected result array stands in for
	// the result stage's window.
	PeakBytes int64
	// MaterializedBytes is what the interpreted pipeline would hold
	// live at its peak: every input plus every definition's output.
	MaterializedBytes int64
	// Chunks is the number of grid chunks each stage walked.
	Chunks int64
	// ChunkSize is the grid pitch used.
	ChunkSize int64
	// Stages is the stage count.
	Stages int
	// MaxDist is the largest window distance in the pipeline.
	MaxDist int64
}

// Pipeline is a compiled streaming pipeline: per-stage kernels, the
// chunk-major schedule, and the binding of every array slot they
// declare. Apart from SetWorkers it is immutable after Build and safe
// for concurrent Runs.
type Pipeline struct {
	defs   []Def
	stages []*loopir.Stage
	result int // index of the result stage
	chunk  int64
	nCh    int64 // grid chunk count
	gridLo int64
	// Stage i runs chunk t−lag[i] at step t of steps, keeping hist[i]
	// positions of history in its window.
	lag, hist []int64
	steps     int64
	workers   int
	// deal is the stage order a run's cohort deals round-robin: worker
	// w of n owns deal[w], deal[w+n], …. The result stage comes first,
	// so worker 0, the calling goroutine, owns it at every width.
	deal []int
	// Every declared array slot of stage i is bound to exactly one of:
	// self[i], its own output window; a resident[i] input; an edges[i]
	// upstream window.
	self     []int
	resident [][]residentBind
	edges    [][]edgeSpec
	// residentNames is the deduplicated external input set with the
	// bounds each must have.
	residentNames map[string]runtime.Bounds
	maxDist       int64
	matBytes      int64 // materialized-path live bytes (inputs + outputs)
}

// residentBind binds a stage's array slot to a caller input.
type residentBind struct {
	slot int
	name string
}

// edgeSpec binds a consumer's array slot to a producer's window.
type edgeSpec struct {
	from int // producer stage
	slot int // consumer frame array slot
	back int64
}

// Build compiles a pipeline from definitions in evaluation order.
// Every array a stage declares binds to exactly one of its own output
// window, an earlier stage's output through a window (its reads must
// be at constant offsets), or a resident external input; a declared
// array that binds to none fails the build.
func Build(defs []Def, result string, cfg Config) (*Pipeline, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("stream: empty pipeline")
	}
	p := &Pipeline{
		defs:          defs,
		chunk:         cfg.ChunkSize,
		result:        -1,
		residentNames: map[string]runtime.Bounds{},
	}
	if p.chunk <= 0 {
		p.chunk = DefaultChunkSize
	}
	prodIdx := map[string]int{}
	for i, d := range defs {
		if d.Prog == nil || d.Plan == nil {
			return nil, fmt.Errorf("stream: stage %s has no plan", d.Name)
		}
		if d.Plan.Out != d.Name {
			return nil, fmt.Errorf("stream: stage %s writes %s; stages must write their own name", d.Name, d.Plan.Out)
		}
		if _, dup := prodIdx[d.Name]; dup {
			return nil, fmt.Errorf("stream: duplicate stage %s", d.Name)
		}
		prodIdx[d.Name] = i
		if d.Name == result {
			p.result = i
		}
		p.maxDist = max(p.maxDist, d.Plan.MaxDist)
	}
	if p.result < 0 {
		return nil, fmt.Errorf("stream: result %s is not a stage", result)
	}
	p.chunk = max(p.chunk, p.maxDist)
	// Grid, per-stage kernels, slot bindings and the chunk-major
	// schedule.
	p.gridLo = defs[0].Plan.Lo
	gridHi := defs[0].Plan.Hi
	for _, d := range defs {
		p.gridLo, gridHi = min(p.gridLo, d.Plan.Lo), max(gridHi, d.Plan.Hi)
		p.matBytes += (d.Plan.Hi - d.Plan.Lo + 1) * 8
	}
	p.nCh = (gridHi-p.gridLo)/p.chunk + 1
	p.stages = make([]*loopir.Stage, len(defs))
	p.lag = make([]int64, len(defs))
	p.hist = make([]int64, len(defs))
	p.self = make([]int, len(defs))
	p.resident = make([][]residentBind, len(defs))
	p.edges = make([][]edgeSpec, len(defs))
	for i, d := range defs {
		st, err := loopir.CompileStage(d.Prog, d.Plan)
		if err != nil {
			return nil, fmt.Errorf("stream: stage %s: %w", d.Name, err)
		}
		p.stages[i] = st
		for slot, decl := range d.Prog.Arrays {
			if decl.Name == d.Name {
				p.self[i] = slot
				continue
			}
			w := d.Plan.Read(decl.Name)
			if w == nil {
				return nil, fmt.Errorf("stream: stage %s declares %s but never reads it", d.Name, decl.Name)
			}
			src, produced := prodIdx[decl.Name]
			if !produced {
				if have, seen := p.residentNames[decl.Name]; seen && !have.Equal(decl.B) {
					return nil, fmt.Errorf("stream: input %s declared with two different bounds", decl.Name)
				}
				p.residentNames[decl.Name] = decl.B
				p.resident[i] = append(p.resident[i], residentBind{slot: slot, name: decl.Name})
				continue
			}
			if src >= i {
				return nil, fmt.Errorf("stream: stage %s reads %s out of evaluation order", d.Name, decl.Name)
			}
			if !w.Windowable {
				return nil, fmt.Errorf("stream: stage %s needs %s resident, but it is a pipeline stage output", d.Name, decl.Name)
			}
			sp := defs[src].Plan
			if decl.B.Lo[0] != sp.Lo || decl.B.Hi[0] != sp.Hi {
				return nil, fmt.Errorf("stream: stage %s declares %s with bounds differing from its producer", d.Name, decl.Name)
			}
			kAhead := (w.Fwd + p.chunk - 1) / p.chunk
			p.lag[i] = max(p.lag[i], p.lag[src]+kAhead+1)
			p.edges[i] = append(p.edges[i], edgeSpec{from: src, slot: slot, back: w.Back})
		}
		// Window history: the stage's own reads, and each consumer's
		// reads back from the chunk it runs while its producer runs a
		// later one.
		p.hist[i] = max(p.hist[i], d.Plan.SelfBack)
		for _, e := range p.edges[i] {
			p.hist[e.from] = max(p.hist[e.from], e.back+(p.lag[i]-p.lag[e.from])*p.chunk)
		}
		p.steps = max(p.steps, p.lag[i]+p.nCh)
	}
	p.deal = append(p.deal, p.result)
	for i := range defs {
		if i != p.result {
			p.deal = append(p.deal, i)
		}
	}
	// Materialized-path live bytes: every external input plus every
	// definition's output stays in the interpreter's store for the
	// whole run.
	for _, b := range p.residentNames {
		p.matBytes += b.Size() * 8
	}
	return p, nil
}

// ChunkSize reports the grid pitch the pipeline will run with.
func (p *Pipeline) ChunkSize() int64 { return p.chunk }

// MaxDist reports the pipeline's largest window distance.
func (p *Pipeline) MaxDist() int64 { return p.maxDist }

// Stages reports the stage count.
func (p *Pipeline) Stages() int { return len(p.defs) }

// SetWorkers fixes the cohort width budget of subsequent runs: how many
// workers share the stages. n <= 0 restores the default, GOMAXPROCS.
// Each run caps the budget by the stage count and by GOMAXPROCS at the
// time it starts, since a worker without a P of its own only spins at
// the step barrier. Results and the reported peak are the same at
// every width. Not safe to call concurrently with a run.
func (p *Pipeline) SetWorkers(n int) { p.workers = max(n, 0) }

// MaterializedBytes reports the materialized path's live footprint.
func (p *Pipeline) MaterializedBytes() int64 { return p.matBytes }

// ResultBounds returns the rank-1 bounds of the streamed result.
func (p *Pipeline) ResultBounds() (lo, hi int64) {
	plan := p.defs[p.result].Plan
	return plan.Lo, plan.Hi
}

// Run executes the pipeline and materializes the result array.
func (p *Pipeline) Run(inputs map[string]*runtime.Strict) (*runtime.Strict, Report, error) {
	return p.run(inputs, nil, true)
}

// RunEmit executes the pipeline, delivering each non-empty result
// chunk to emit in position order without materializing the result.
// The data slice is the result stage's window, only valid during the
// callback. A non-nil error from emit aborts the run, and the run's
// error wraps it.
func (p *Pipeline) RunEmit(inputs map[string]*runtime.Strict, emit func(lo int64, data []float64) error) (Report, error) {
	_, rep, err := p.run(inputs, emit, false)
	return rep, err
}

// window is one stage's output storage for a run: its current chunk
// after hist positions of history, or the whole collected result array,
// which is written in place and never slides.
type window struct {
	buf  []float64
	base int64 // position of buf[0]
}

// slide advances the window by one chunk of c positions: it keeps the
// last len(buf)−c elements as history and zeroes the fresh chunk, like
// a fresh materialized output.
func (w *window) slide(c int64) {
	copy(w.buf, w.buf[c:])
	clear(w.buf[int64(len(w.buf))-c:])
	w.base += c
}

// stageRun is one stage's state for a run: its window, its frame, and
// the first error its chunks returned.
type stageRun struct {
	win window
	fr  *loopir.StageFrame
	err error
}

// width is the cohort size of a run: the SetWorkers budget (default
// GOMAXPROCS), capped by the stage count and by GOMAXPROCS, since
// workers beyond the Ps only spin at the step barrier.
func (p *Pipeline) width() int {
	procs := goruntime.GOMAXPROCS(0)
	w := p.workers
	if w <= 0 {
		w = procs
	}
	return min(w, len(p.defs), procs)
}

// run drives one execution. collect materializes the result; emit, if
// non-nil, receives result chunks in order.
func (p *Pipeline) run(inputs map[string]*runtime.Strict, emit func(int64, []float64) error, collect bool) (*runtime.Strict, Report, error) {
	rep := Report{
		MaterializedBytes: p.matBytes,
		Chunks:            p.nCh,
		ChunkSize:         p.chunk,
		Stages:            len(p.defs),
		MaxDist:           p.maxDist,
	}
	for name, b := range p.residentNames {
		in, ok := inputs[name]
		if !ok {
			return nil, rep, fmt.Errorf("stream: missing input array %q", name)
		}
		if !in.B.Equal(b) {
			return nil, rep, fmt.Errorf("stream: input %s has bounds %v..%v, want %v..%v", name, in.B.Lo, in.B.Hi, b.Lo, b.Hi)
		}
		rep.PeakBytes += b.Size() * 8
	}
	// Allocate every window up front, so the peak is their sum plus the
	// resident inputs whatever the cohort width, and bind every array
	// slot: the own window, resident inputs, and the producers' windows
	// in place (Build proved each slot has exactly one). A consumer
	// moves its producers' window bases each step, once they have slid.
	var out *runtime.Strict
	sr := make([]stageRun, len(p.defs))
	for i, st := range p.stages {
		// The frame's scalars and scratch strips ride the window's
		// allocation, past its end.
		var floats []float64
		if plan := p.defs[i].Plan; collect && i == p.result {
			out = runtime.NewStrict(runtime.NewBounds1(plan.Lo, plan.Hi))
			sr[i].win = window{buf: out.Data, base: plan.Lo}
			floats = make([]float64, st.FrameFloats())
		} else {
			w := p.hist[i] + p.chunk
			buf := make([]float64, w+int64(st.FrameFloats()))
			sr[i].win = window{buf: buf[:w:w], base: p.gridLo - p.hist[i]}
			floats = buf[w:]
		}
		rep.PeakBytes += int64(len(sr[i].win.buf)) * 8
		fr := st.NewFrame(floats)
		fr.Bind(p.self[i], sr[i].win.buf, sr[i].win.base)
		for _, r := range p.resident[i] {
			in := inputs[r.name]
			fr.Bind(r.slot, in.Data, in.B.Lo[0])
		}
		for _, e := range p.edges[i] {
			fr.Bind(e.slot, sr[e.from].win.buf, sr[e.from].win.base)
		}
		sr[i].fr = fr
	}
	// One cohort runs the whole pass: worker w owns the stages at
	// p.deal[w], p.deal[w+n], …, so the result stage is worker 0's and
	// emit runs on this goroutine.
	var b loopir.Barrier
	var emitErr error
	n := p.width()
	b.Run(n, func(w int) {
		for t := int64(0); t < p.steps; t++ {
			// Phase 1: each owned stage that runs chunk c = t−lag this
			// step slides its window past chunk c−1.
			for k := w; k < len(p.deal); k += n {
				i := p.deal[k]
				c := t - p.lag[i]
				if c > 0 && c < p.nCh && (out == nil || i != p.result) {
					sr[i].win.slide(p.chunk)
					sr[i].fr.Slide(p.self[i], sr[i].win.base)
				}
			}
			if !b.Wait() {
				return
			}
			// Phase 2: no window moves until the next barrier, so each
			// owned stage rebinds its producers' windows and runs its
			// chunk. The lag keeps every read behind every write.
			for k := w; k < len(p.deal); k += n {
				i := p.deal[k]
				c := t - p.lag[i]
				if c < 0 || c >= p.nCh {
					continue
				}
				for _, e := range p.edges[i] {
					sr[i].fr.Slide(e.slot, sr[e.from].win.base)
				}
				clo := p.gridLo + c*p.chunk
				if err := p.stages[i].RunChunk(sr[i].fr, clo, clo+p.chunk-1); err != nil {
					sr[i].err = err
					b.Break()
					continue
				}
				if i != p.result || emit == nil {
					continue
				}
				plan, rw := p.defs[i].Plan, &sr[i].win
				if s, e := max(clo, plan.Lo), min(clo+p.chunk-1, plan.Hi); s <= e {
					if err := emit(s, rw.buf[s-rw.base:e-rw.base+1]); err != nil {
						emitErr = err
						b.Break()
						return
					}
				}
			}
			if !b.Wait() {
				return
			}
		}
	})
	// A failing step stops every worker at its next barrier; report its
	// first failing stage in evaluation order, as a serial step would.
	for i := range sr {
		if sr[i].err != nil {
			return nil, rep, fmt.Errorf("stream: stage %s: %w", p.defs[i].Name, sr[i].err)
		}
	}
	if emitErr != nil {
		return nil, rep, fmt.Errorf("stream: emit: %w", emitErr)
	}
	return out, rep, nil
}
