package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"testing"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/oracle"
	"arraycomp/internal/runtime"
	"arraycomp/internal/stream"
	"arraycomp/internal/workloads"
)

// A pass runs as one worker cohort meeting at a step barrier. These
// tests run it at every cohort width under several GOMAXPROCS, and
// check that each way a pass can fail releases the whole cohort.

// cohortProcs and cohortWidths are the GOMAXPROCS settings and
// SetWorkers budgets every cohort test runs at; a budget above
// GOMAXPROCS or the stage count is capped.
var (
	cohortProcs  = []int{1, 2, 4}
	cohortWidths = []int{1, 2, 3, 4, 5}
)

// cohortDeadline bounds every run: a worker left spinning at the
// barrier, or one a failure did not release, hangs the run past it.
const cohortDeadline = 60 * time.Second

// withProcs runs f at each GOMAXPROCS setting.
func withProcs(t *testing.T, f func(t *testing.T)) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, procs := range cohortProcs {
		goruntime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs%d", procs), f)
	}
}

// pipelineCase is a pipeline with its inputs and its materialized
// result.
type pipelineCase struct {
	name   string
	pl     *stream.Pipeline
	inputs map[string]*runtime.Strict
	want   *runtime.Strict
}

// compiledCase builds the stream pipeline of a compiled program's
// stage programs at the given chunk size.
func compiledCase(t *testing.T, name string, p *core.Program, inputs map[string]*runtime.Strict, chunk int64) pipelineCase {
	t.Helper()
	var defs []stream.Def
	for _, d := range p.Order {
		defs = append(defs, mkDef(t, d, p.Defs[d].Plan.Program))
	}
	pl, err := stream.Build(defs, p.Result, stream.Config{ChunkSize: chunk})
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	return pipelineCase{name: name, pl: pl, inputs: inputs, want: runMaterialized(t, defs, inputs, p.Result)}
}

// e23Case is E23's ten-stage chain at a small n and chunk, so a pass
// has dozens of steps.
func e23Case(t *testing.T) pipelineCase {
	t.Helper()
	const n = 1000
	p, err := core.Compile(workloads.StreamChainSrc(), map[string]int64{"n": n}, core.Options{InputBounds: inBounds("x", 1, n)})
	if err != nil {
		t.Fatal(err)
	}
	return compiledCase(t, "e23", p, map[string]*runtime.Strict{"x": fill(b1(1, n), 35)}, 16)
}

// generatedCases are the first stream-legal programs among the seeds
// hacc fuzz draws, with the inputs the oracle's stream arm runs them
// on, at chunk size 1.
func generatedCases(t *testing.T) []pipelineCase {
	t.Helper()
	var cases []pipelineCase
	for seed := uint64(1); seed <= 400 && len(cases) < 16; seed++ {
		g := gencomp.Generate(seed, gencomp.Config{AccumWeight: 250})
		p, err := core.CompileProgram(g.Prog, g.Params, core.Options{Stream: true, InputBounds: g.Inputs})
		if err != nil || !p.StreamActive() {
			continue
		}
		inputs := oracle.FillInputs(g)
		if _, err := p.Run(inputs); err != nil {
			continue // error-shaped programs fail alike on both paths
		}
		cases = append(cases, compiledCase(t, fmt.Sprintf("seed%d", seed), p, inputs, 1))
	}
	if len(cases) == 0 {
		t.Fatal("no generated program streams")
	}
	return cases
}

// emitAll runs the pipeline in emit mode and requires contiguous
// chunks in position order covering the result bounds; it returns
// their concatenation.
func emitAll(pl *stream.Pipeline, inputs map[string]*runtime.Strict) ([]float64, error) {
	lo, hi := pl.ResultBounds()
	next := lo
	var got []float64
	_, err := pl.RunEmit(inputs, func(clo int64, data []float64) error {
		if clo != next || len(data) == 0 {
			return fmt.Errorf("chunk of %d at %d, want one at %d", len(data), clo, next)
		}
		next += int64(len(data))
		got = append(got, data...)
		return nil
	})
	if err == nil && next != hi+1 {
		err = fmt.Errorf("chunks end at %d, want %d", next-1, hi)
	}
	return got, err
}

// sameBits reports the first element where got and want differ
// bitwise, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// within runs f on a fresh goroutine and fails the test unless f
// returns or panics before cohortDeadline. It returns f's panic value
// and error. Afterwards no goroutine may still be waiting at a step
// barrier.
func within(t *testing.T, f func() error) (pv any, err error) {
	t.Helper()
	type result struct {
		pv  any
		err error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			r.pv = recover()
			done <- r
		}()
		r.err = f()
	}()
	select {
	case r := <-done:
		pv, err = r.pv, r.err
	case <-time.After(cohortDeadline):
		t.Fatalf("run did not finish within %v", cohortDeadline)
	}
	deadline := time.Now().Add(cohortDeadline)
	for barrierWaiters() {
		if time.Now().After(deadline) {
			t.Fatalf("a worker is still waiting at the step barrier %v after its run ended", cohortDeadline)
		}
		goruntime.Gosched()
	}
	return pv, err
}

// barrierWaiters reports whether any goroutine is in a step barrier.
func barrierWaiters() bool {
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	return bytes.Contains(buf[:n], []byte("loopir.(*Barrier).Wait"))
}

// checkRuns runs the pipeline collected and emitted and requires both
// to equal the materialized result bitwise.
func (c pipelineCase) checkRuns() error {
	got, _, err := c.pl.Run(c.inputs)
	if err != nil {
		return fmt.Errorf("Run: %w", err)
	}
	if i := sameBits(got.Data, c.want.Data); i >= 0 {
		return fmt.Errorf("collected element %d differs from the materialized run", i)
	}
	emitted, err := emitAll(c.pl, c.inputs)
	if err != nil {
		return fmt.Errorf("RunEmit: %w", err)
	}
	if i := sameBits(emitted, c.want.Data); i >= 0 {
		return fmt.Errorf("emitted element %d differs from the materialized run", i)
	}
	return nil
}

// TestCohortWidths runs E23's chain and the stream-legal generated
// programs at every width under GOMAXPROCS 1, 2 and 4, collected and
// emitted, each bitwise equal to the materialized run.
func TestCohortWidths(t *testing.T) {
	gen := generatedCases(t)
	t.Logf("%d stream-legal generated programs", len(gen))
	cases := append([]pipelineCase{e23Case(t)}, gen...)
	withProcs(t, func(t *testing.T) {
		for _, c := range cases {
			for _, w := range cohortWidths {
				c.pl.SetWorkers(w)
				if _, err := within(t, c.checkRuns); err != nil {
					t.Fatalf("%s width %d: %v", c.name, w, err)
				}
			}
		}
	})
}

// TestCohortFailures: an emit error at chunk k, an emit panic at chunk
// k and a failing stage each end the pass at every width. The run
// returns the error or re-panics on the caller, and the cohort's
// workers are released; the pipeline then runs correctly again.
func TestCohortFailures(t *testing.T) {
	c := e23Case(t)
	const k = 5
	errGone := errors.New("client went away")
	// A resident input whose data stops halfway through its bounds makes
	// the first stage, which every width above 1 deals to a pool
	// worker, index past it.
	x := c.inputs["x"]
	half := len(x.Data) / 2
	short := map[string]*runtime.Strict{"x": {B: x.B, Data: x.Data[:half:half]}}
	withProcs(t, func(t *testing.T) {
		for _, w := range cohortWidths {
			c.pl.SetWorkers(w)
			calls := 0
			_, err := within(t, func() error {
				_, err := c.pl.RunEmit(c.inputs, func(int64, []float64) error {
					if calls++; calls == k {
						return errGone
					}
					return nil
				})
				return err
			})
			if !errors.Is(err, errGone) || calls != k {
				t.Errorf("width %d: emit error at chunk %d: run error %v after %d calls", w, k, err, calls)
			}
			calls = 0
			pv, _ := within(t, func() error {
				_, err := c.pl.RunEmit(c.inputs, func(int64, []float64) error {
					if calls++; calls == k {
						panic(errGone)
					}
					return nil
				})
				return err
			})
			if pv != errGone || calls != k {
				t.Errorf("width %d: emit panic at chunk %d: caller recovered %v after %d calls", w, k, pv, calls)
			}
			if pv, err := within(t, func() error { _, _, err := c.pl.Run(short); return err }); pv == nil {
				t.Errorf("width %d: a stage indexing past its input did not re-panic on the caller (run error %v)", w, err)
			}
			if _, err := within(t, c.checkRuns); err != nil {
				t.Errorf("width %d: after the failures: %v", w, err)
			}
		}
	})
}
