// Package stream is the bounded-memory streaming execution engine:
// it runs a pipeline of stream-legal loop-IR programs (see
// loopir.BuildStreamPlan) as chunked producer/consumer stages
// connected by bounded channels, holding O(d)-sized sliding windows
// per array instead of materialized O(n) arrays.
//
// Execution model. The union of the pipeline's output ranges is cut
// into fixed chunks. Every stage walks the same chunk grid: for chunk
// c it first drains its input channels until each upstream window
// covers the chunk plus that edge's forward lookahead, then executes
// its loops restricted to the write positions inside the chunk, then
// emits an immutable copy of its own chunk to every consumer (and the
// emit collector, for the result stage). Windows slide by one chunk
// per step, retaining exactly the backward history the stream plan
// proved sufficient. When the result is collected, the result stage
// writes straight into the result array instead of a window, so its
// chunks are never copied.
//
// There is one closure compiler. Each stage runs the closures
// loopir.CompileStage builds with the materialized interpreter's own
// compiler; the only difference is that every array slot is bound to
// a slice plus a base position: a resident input (base = its lower
// bound), an upstream window, or the stage's own window. Sliding a
// window moves its data and advances its base.
//
// Bitwise identity with the materialized path is by construction, not
// by tolerance: each element is computed once (the compiler proved
// writes collision-free), by closures from the loop-IR interpreter's
// own compiler, reading operands that the window invariants prove are
// the same values the materialized order would observe. The oracle's
// `stream` ablation arm cross-checks this bit-for-bit on generated
// programs.
//
// Memory accounting is a meter, not RSS sampling: an accountant
// charges every live buffer (resident inputs, windows, in-flight
// chunks, and the materialized result when collecting) and records the
// high-water mark. That mark depends on how the stage goroutines
// interleave, so it can differ between runs on a multicore host.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
)

// DefaultChunkSize is the chunk grid pitch when the caller does not
// set one. It is raised automatically to the pipeline's max window
// distance so one chunk of lookahead always suffices.
const DefaultChunkSize = 4096

// chanSlack is the bounded-channel capacity beyond the lookahead
// chunks a consumer holds unconsumed — the producer may run at most
// this many chunks ahead before blocking (back-pressure).
const chanSlack = 2

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
	// PeakBytes is the high-water mark of live streaming memory:
	// resident inputs + windows + in-flight chunks (+ the materialized
	// result when collecting).
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

// Pipeline is a compiled streaming pipeline: per-stage closure
// programs plus the binding of every array slot they declare. It is
// immutable after Build and safe for concurrent Runs.
type Pipeline struct {
	defs   []Def
	stages []*loopir.Stage
	result int // index of the result stage
	chunk  int64
	nCh    int64 // grid chunk count
	gridLo int64
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

// edgeSpec is the Build-time description of one producer→consumer
// window.
type edgeSpec struct {
	from   int // producer stage
	slot   int // consumer frame array slot
	back   int64
	fwd    int64
	kAhead int64 // lookahead chunks: ceil(fwd/chunk)
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
		if d.Plan.MaxDist > p.maxDist {
			p.maxDist = d.Plan.MaxDist
		}
	}
	if p.result < 0 {
		return nil, fmt.Errorf("stream: result %s is not a stage", result)
	}
	if p.chunk < p.maxDist {
		p.chunk = p.maxDist
	}
	// Grid, per-stage closures, and slot bindings.
	gridLo, gridHi := defs[0].Plan.Lo, defs[0].Plan.Hi
	p.stages = make([]*loopir.Stage, len(defs))
	p.self = make([]int, len(defs))
	p.resident = make([][]residentBind, len(defs))
	p.edges = make([][]edgeSpec, len(defs))
	for i, d := range defs {
		if d.Plan.Lo < gridLo {
			gridLo = d.Plan.Lo
		}
		if d.Plan.Hi > gridHi {
			gridHi = d.Plan.Hi
		}
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
			p.edges[i] = append(p.edges[i], edgeSpec{from: src, slot: slot, back: w.Back, fwd: w.Fwd, kAhead: kAhead})
		}
	}
	p.gridLo = gridLo
	p.nCh = (gridHi-gridLo)/p.chunk + 1
	// Materialized-path live bytes: every external input plus every
	// definition's output stays in the interpreter's store for the
	// whole run.
	for _, b := range p.residentNames {
		p.matBytes += b.Size() * 8
	}
	for _, d := range defs {
		p.matBytes += (d.Plan.Hi - d.Plan.Lo + 1) * 8
	}
	return p, nil
}

// ChunkSize reports the grid pitch the pipeline will run with.
func (p *Pipeline) ChunkSize() int64 { return p.chunk }

// MaxDist reports the pipeline's largest window distance.
func (p *Pipeline) MaxDist() int64 { return p.maxDist }

// Stages reports the stage count.
func (p *Pipeline) Stages() int { return len(p.defs) }

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
// The data slice is only valid during the callback. A non-nil error
// from emit aborts the run.
func (p *Pipeline) RunEmit(inputs map[string]*runtime.Strict, emit func(lo int64, data []float64) error) (Report, error) {
	_, rep, err := p.run(inputs, emit, false)
	return rep, err
}

// --- run state ---

// accountant is the live-byte meter; its peak is a high-water mark.
type accountant struct {
	cur, peak atomic.Int64
}

func (a *accountant) charge(b int64) {
	c := a.cur.Add(b)
	for {
		pk := a.peak.Load()
		if c <= pk || a.peak.CompareAndSwap(pk, c) {
			return
		}
	}
}

func (a *accountant) release(b int64) { a.cur.Add(-b) }

// chunkMsg is one emitted chunk: an immutable copy of the producer's
// window over [start, start+len(data)), refcounted across receivers
// for accounting.
type chunkMsg struct {
	idx   int64
	start int64
	data  []float64
	bytes int64
	refs  atomic.Int32
	acct  *accountant
}

func (m *chunkMsg) release() {
	if m.refs.Add(-1) == 0 && m.bytes > 0 {
		m.acct.release(m.bytes)
	}
}

// runEdge is the per-run state of one upstream window.
type runEdge struct {
	spec    edgeSpec
	ch      chan *chunkMsg
	buf     []float64
	base    int64 // absolute position of buf[0]
	recvIdx int64 // last integrated chunk index
}

// run drives one execution. collect materializes the result; emit, if
// non-nil, receives result chunks in order.
func (p *Pipeline) run(inputs map[string]*runtime.Strict, emit func(int64, []float64) error, collect bool) (*runtime.Strict, Report, error) {
	acct := &accountant{}
	rep := Report{
		MaterializedBytes: p.matBytes,
		Chunks:            p.nCh,
		ChunkSize:         p.chunk,
		Stages:            len(p.defs),
		MaxDist:           p.maxDist,
	}
	// Validate and charge resident inputs.
	for name, b := range p.residentNames {
		in, ok := inputs[name]
		if !ok {
			return nil, rep, fmt.Errorf("stream: missing input array %q", name)
		}
		if !in.B.Equal(b) {
			return nil, rep, fmt.Errorf("stream: input %s has bounds %v..%v, want %v..%v", name, in.B.Lo, in.B.Hi, b.Lo, b.Hi)
		}
		acct.charge(b.Size() * 8)
	}
	// Abort plumbing: first error wins, every blocked send/recv
	// unblocks on the closed channel.
	var abortOnce sync.Once
	abortCh := make(chan struct{})
	var abortErr error
	abort := func(err error) {
		abortOnce.Do(func() {
			abortErr = err
			close(abortCh)
		})
	}
	// Wire the edges: one channel per producer→consumer pair, plus the
	// collector channel off the result stage.
	chans := make([][]*runEdge, len(p.defs)) // consumer-side
	outs := make([][]chan *chunkMsg, len(p.defs))
	for i := range p.defs {
		for _, es := range p.edges[i] {
			e := &runEdge{
				spec:    es,
				ch:      make(chan *chunkMsg, chanSlack+es.kAhead),
				buf:     make([]float64, es.back+p.chunk+es.kAhead*p.chunk),
				recvIdx: -1,
			}
			chans[i] = append(chans[i], e)
			outs[es.from] = append(outs[es.from], e.ch)
		}
	}
	var collectCh chan *chunkMsg
	if emit != nil {
		collectCh = make(chan *chunkMsg, chanSlack)
		outs[p.result] = append(outs[p.result], collectCh)
	}
	// The collected result is the result stage's own storage.
	var out *runtime.Strict
	if collect {
		resPlan := p.defs[p.result].Plan
		out = runtime.NewStrict(runtime.NewBounds1(resPlan.Lo, resPlan.Hi))
		acct.charge(out.B.Size() * 8)
	}

	var wg sync.WaitGroup
	for i := range p.defs {
		var own *runtime.Strict
		if i == p.result {
			own = out
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			if err := p.runStage(si, inputs, own, chans[si], outs[si], acct, abortCh); err != nil {
				abort(err)
			}
		}(i)
	}
	// Emit collector: drain the result stage in chunk order.
	var emitErr error
collector:
	for got := int64(0); collectCh != nil && got < p.nCh; got++ {
		select {
		case m := <-collectCh:
			if len(m.data) > 0 && emitErr == nil {
				if err := emit(m.start, m.data); err != nil {
					emitErr = err
					abort(fmt.Errorf("stream: emit: %w", err))
				}
			}
			m.release()
		case <-abortCh:
			break collector
		}
	}
	wg.Wait()
	rep.PeakBytes = acct.peak.Load()
	if abortErr != nil {
		return nil, rep, abortErr
	}
	return out, rep, nil
}

// runStage walks the chunk grid for one stage. A non-nil own is the
// collected result array: the stage writes into it in place of its own
// window.
func (p *Pipeline) runStage(si int, inputs map[string]*runtime.Strict, own *runtime.Strict, edges []*runEdge, outs []chan *chunkMsg, acct *accountant, abortCh <-chan struct{}) error {
	st := p.stages[si]
	plan := p.defs[si].Plan
	C := p.chunk
	// Own output window: [clo-SelfBack, chi], zero-initialized like a
	// fresh materialized output. The result array is already zeroed
	// and charged, and holds every position, so it never slides.
	var ownBuf []float64
	var ownBase, winBytes int64
	if own != nil {
		ownBuf, ownBase = own.Data, own.B.Lo[0]
	} else {
		ownBuf = make([]float64, plan.SelfBack+C)
		ownBase = p.gridLo - plan.SelfBack
		winBytes = int64(len(ownBuf)) * 8
	}
	for _, e := range edges {
		e.base = p.gridLo - e.spec.back
		winBytes += int64(len(e.buf)) * 8
	}
	acct.charge(winBytes)
	defer acct.release(winBytes)
	// Bind every array slot: the own window, resident inputs, and
	// upstream windows (Build proved each slot has exactly one).
	fr := st.NewFrame()
	fr.Bind(p.self[si], ownBuf, ownBase)
	for _, r := range p.resident[si] {
		in := inputs[r.name]
		fr.Bind(r.slot, in.Data, in.B.Lo[0])
	}
	for _, e := range edges {
		fr.Bind(e.spec.slot, e.buf, e.base)
	}

	for ci := int64(0); ci < p.nCh; ci++ {
		clo := p.gridLo + ci*C
		chi := clo + C - 1
		if ci > 0 {
			// Slide: retain the backward history, zero the fresh span
			// of the own window (fresh-array semantics).
			if own == nil {
				copy(ownBuf[:plan.SelfBack], ownBuf[C:])
				for k := plan.SelfBack; k < int64(len(ownBuf)); k++ {
					ownBuf[k] = 0
				}
				ownBase += C
				fr.Slide(p.self[si], ownBase)
			}
			for _, e := range edges {
				copy(e.buf[:int64(len(e.buf))-C], e.buf[C:])
				e.base += C
				fr.Slide(e.spec.slot, e.base)
			}
		}
		// Drain upstream until every window covers this chunk's reads
		// plus lookahead.
		for _, e := range edges {
			need := ci + e.spec.kAhead
			if need > p.nCh-1 {
				need = p.nCh - 1
			}
			for e.recvIdx < need {
				select {
				case m := <-e.ch:
					if len(m.data) > 0 {
						dst := m.start - e.base
						if dst < 0 || dst+int64(len(m.data)) > int64(len(e.buf)) {
							m.release()
							return fmt.Errorf("stream: stage %s: chunk %d from %s outside window", p.defs[si].Name, m.idx, p.defs[e.spec.from].Name)
						}
						copy(e.buf[dst:], m.data)
					}
					e.recvIdx = m.idx
					m.release()
				case <-abortCh:
					return nil
				}
			}
		}
		// Execute the chunk: top-level statements in program order,
		// loops clamped to write positions inside [clo, chi].
		if err := st.RunChunk(fr, clo, chi); err != nil {
			return fmt.Errorf("stream: stage %s: %w", p.defs[si].Name, err)
		}
		// Emit the immutable chunk copy.
		s, e := clo, chi
		if plan.Lo > s {
			s = plan.Lo
		}
		if plan.Hi < e {
			e = plan.Hi
		}
		var data []float64
		if s <= e {
			data = make([]float64, e-s+1)
			copy(data, ownBuf[s-ownBase:])
		}
		if len(outs) == 0 {
			continue
		}
		m := &chunkMsg{idx: ci, start: s, data: data, bytes: int64(len(data)) * 8, acct: acct}
		m.refs.Store(int32(len(outs)))
		if m.bytes > 0 {
			acct.charge(m.bytes)
		}
		for _, ch := range outs {
			select {
			case ch <- m:
			case <-abortCh:
				return nil
			}
		}
	}
	return nil
}
