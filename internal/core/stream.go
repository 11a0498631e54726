// Streaming execution wiring: when Options.Stream is set, core tries
// to lower the whole compiled pipeline to bounded-memory chunked
// stages (internal/stream) and routes Run through it. Any definition
// the window-legality analysis rejects makes the *whole program* fall
// back to the materialized path with a note saying why — streaming is
// an execution-mode optimization, never a semantics change, so the
// fallback is silent to callers beyond the reported tier.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"arraycomp/internal/loopir"
	"arraycomp/internal/metrics"
	"arraycomp/internal/runtime"
	"arraycomp/internal/stream"
)

// streamState is the streaming-mode state of a compiled program.
type streamState struct {
	pipeline *stream.Pipeline
	// reason is the fallback note when pipeline is nil.
	reason string
	// last holds the most recent run's accounting for reports.
	last atomic.Pointer[stream.Report]
}

// streamDefs derives the per-definition stream plans, in evaluation
// order. It fails on the first definition that cannot stream.
func (p *Program) streamDefs() ([]stream.Def, error) {
	defs := make([]stream.Def, 0, len(p.Order))
	for _, name := range p.Order {
		cd := p.Defs[name]
		if cd.GroupIdx >= 0 || cd.Plan == nil {
			return nil, fmt.Errorf("%s compiled %s; streaming needs thunkless plans", name, cd.Mode())
		}
		if cd.Plan.InPlace || cd.Plan.CopyUpdate {
			return nil, fmt.Errorf("%s is a bigupd (%s); streaming stages own their windows", name, cd.Mode())
		}
		sp, err := loopir.BuildStreamPlan(cd.Plan.Program)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		defs = append(defs, stream.Def{Name: name, Prog: cd.Plan.Program, Plan: sp})
	}
	return defs, nil
}

// initStream attempts to build the streaming pipeline, whose step
// width is workers (Options.Workers).
func (p *Program) initStream(rep *metrics.CompileReport, workers int) error {
	t0 := time.Now()
	p.streamSt = &streamState{}
	defs, err := p.streamDefs()
	var pl *stream.Pipeline
	if err == nil {
		pl, err = stream.Build(defs, p.Result, stream.Config{})
	}
	if err != nil {
		p.streamSt.reason = err.Error()
		p.note("stream: materialized fallback: %v", err)
		rep.AddPhase(metrics.PhasePlan, time.Since(t0))
		return nil
	}
	pl.SetWorkers(workers)
	p.streamSt.pipeline = pl
	p.note("stream: %d-stage pipeline, chunk %d, window d=%d, materialized footprint %d bytes",
		pl.Stages(), pl.ChunkSize(), pl.MaxDist(), pl.MaterializedBytes())
	rep.AddPhase(metrics.PhasePlan, time.Since(t0))
	return nil
}

// StreamActive reports whether Run is served by the streaming
// pipeline.
func (p *Program) StreamActive() bool {
	return p.streamSt != nil && p.streamSt.pipeline != nil
}

// StreamFallback returns the reason streaming fell back to the
// materialized path ("" when streaming is active or was not
// requested).
func (p *Program) StreamFallback() string {
	if p.streamSt == nil {
		return ""
	}
	return p.streamSt.reason
}

// StreamBounds returns the streamed result's rank-1 bounds; ok is
// false when streaming is not active.
func (p *Program) StreamBounds() (lo, hi int64, ok bool) {
	if !p.StreamActive() {
		return 0, 0, false
	}
	lo, hi = p.streamSt.pipeline.ResultBounds()
	return lo, hi, true
}

// StreamReport returns the accounting of the most recent streaming
// run, or nil before the first.
func (p *Program) StreamReport() *stream.Report {
	if p.streamSt == nil {
		return nil
	}
	return p.streamSt.last.Load()
}

// runStream serves one call from the streaming pipeline, recording
// the run's accounting.
func (p *Program) runStream(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	out, rep, err := p.streamSt.pipeline.Run(inputs)
	p.streamSt.last.Store(&rep)
	return out, err
}

// RunStream executes the streaming pipeline, delivering result chunks
// to emit in position order without materializing the result (the
// /evalstream path). It fails when streaming is not active — callers
// check StreamActive and fall back to Run.
func (p *Program) RunStream(inputs map[string]*runtime.Strict, emit func(lo int64, data []float64) error) (stream.Report, error) {
	if !p.StreamActive() {
		return stream.Report{}, fmt.Errorf("core: streaming is not active for this program (%s)", p.StreamFallback())
	}
	rep, err := p.streamSt.pipeline.RunEmit(inputs, emit)
	p.streamSt.last.Store(&rep)
	return rep, err
}
