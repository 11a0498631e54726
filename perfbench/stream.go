package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
	"arraycomp/internal/stream"
	"arraycomp/internal/workloads"
)

// The stream workload runs E23's 10-stage bounded-distance chain under
// Options.Stream in emit mode (Program.RunStream); it is the only
// workload that runs internal/stream. One op is one pipeline pass. A
// pass's output is folded into a digest as it is emitted, and the
// materialized run that checks it bit for bit is made after the timed
// phase, so its store of every stage's array does not count in the
// run's peak RSS.
const streamN = 1 << 20

// chainSource alternates elementwise maps, 3-point smoothing and
// carried d=1 recurrences; every read is a constant-offset neighbour,
// so the window analysis admits the whole pipeline.
func chainSource() string {
	var sb strings.Builder
	sb.WriteString("letrec* s1 = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ]")
	prev := "s1"
	for k := 2; k <= 10; k++ {
		name := fmt.Sprintf("s%d", k)
		sb.WriteString(";\n  ")
		switch k % 3 {
		case 0:
			fmt.Fprintf(&sb, "%[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := (%[2]s!(i-1) + %[2]s!i + %[2]s!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := %[2]s!n ])", name, prev)
		case 1:
			fmt.Fprintf(&sb, "%[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := %[1]s!(i-1) * 0.75 + %[2]s!i * 0.25 | i <- [2..n] ])", name, prev)
		case 2:
			fmt.Fprintf(&sb, "%s = array (1,n) [ i := %s!i * 0.5 + 0.25 | i <- [1..n] ]", name, prev)
		}
		prev = name
	}
	fmt.Fprintf(&sb, "\nin %s", prev)
	return sb.String()
}

// digest folds emitted chunks into 64 bits in position order (FNV-1a
// over the float64 bit patterns, a word at a time) and checks that the
// chunks are contiguous.
type digest struct {
	h    uint64
	next int64
}

func newDigest(lo int64) *digest { return &digest{h: 14695981039346656037, next: lo} }

func (d *digest) emit(lo int64, data []float64) error {
	if lo != d.next {
		return fmt.Errorf("chunk at %d, want %d", lo, d.next)
	}
	for _, v := range data {
		d.h = (d.h ^ math.Float64bits(v)) * 1099511628211
	}
	d.next += int64(len(data))
	return nil
}

type streamState struct {
	j    *job
	prog *core.Program
}

// buildStream makes the input from seed and compiles the chain for
// streaming: the set-up a user pays.
func buildStream(seed int64) (*streamState, error) {
	j := &job{name: "chain", src: chainSource(), params: map[string]int64{"n": streamN},
		inputs: map[string]*runtime.Strict{"x": workloads.Vector(streamN, seed)}}
	opts := j.options(workers)
	opts.Stream = true
	p, err := core.Compile(j.src, j.params, opts)
	if err != nil {
		return nil, err
	}
	if !p.StreamActive() {
		return nil, fmt.Errorf("the chain did not stream: %s", p.StreamFallback())
	}
	return &streamState{j: j, prog: p}, nil
}

func runStream(cfg config) (*outcome, error) {
	st, setup, err := repeatSetup(func() (*streamState, error) { return buildStream(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	lo, hi, _ := st.prog.StreamBounds()
	// The same chain compiled without Stream: the reference, and in
	// traced runs the materialized pass each traced pass is compared to.
	mat, err := core.Compile(st.j.src, st.j.params, st.j.options(workers))
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var sums []uint64
	var reps []stream.Report
	var untraced, traced, matTimes []time.Duration
	ph := runPhase(cfg.budget, cfg.minOps, func(i int) (time.Duration, error) {
		var tr *recorder
		if cfg.trace && i%2 == 1 {
			tr = rec
		}
		d := newDigest(lo)
		start := time.Now()
		root := tr.begin(i, -1, "bench.op")
		sp := tr.begin(i, root, "stream.run")
		rep, err := st.prog.RunStream(st.j.inputs, d.emit)
		tr.end(sp)
		tr.end(root)
		lat := time.Since(start)
		sums = append(sums, d.h)
		if err != nil {
			return lat, err
		}
		if d.next != hi+1 {
			return lat, fmt.Errorf("pass emitted %d..%d, want %d..%d", lo, d.next-1, lo, hi)
		}
		reps = append(reps, rep)
		if tr == nil {
			untraced = append(untraced, lat)
			return lat, nil
		}
		traced = append(traced, lat)
		t0 := time.Now()
		if _, err := mat.Run(st.j.inputs); err != nil {
			return lat, err
		}
		matTimes = append(matTimes, time.Since(t0))
		return lat, nil
	})
	rss := maxRSSMiB()
	ref, err := mat.Run(st.j.inputs)
	if err != nil {
		return nil, fmt.Errorf("materialized reference: %w", err)
	}
	want := newDigest(lo)
	if err := want.emit(lo, ref.Data); err != nil {
		return nil, err
	}
	for i, h := range sums {
		if h != want.h {
			ph.fail(i, fmt.Errorf("pass output differs from the materialized run"))
		}
	}
	o := &outcome{setup: setup, phase: ph, rssMiB: rss, stamp: map[string]any{
		"sizes":    map[string]int64{"n": streamN},
		"pipeline": st.prog.Notes,
	}}
	if cfg.trace {
		o.spans = rec
		o.layers = streamLayers(reps, untraced, matTimes)
		traceLayers(o.layers, rec, untraced, traced)
	}
	return o, nil
}

// streamLayers reports the engine's own accounting of the passes and
// the untraced pass time over the materialized run's.
func streamLayers(reps []stream.Report, passes, mat []time.Duration) map[string]float64 {
	if len(reps) == 0 {
		return map[string]float64{}
	}
	peaks := make([]int64, len(reps))
	for i, r := range reps {
		peaks[i] = r.PeakBytes
	}
	const mib = 1 << 20
	return map[string]float64{
		"stream.peak_mb":         float64(median(peaks)) / mib,
		"stream.materialized_mb": float64(reps[0].MaterializedBytes) / mib,
		"stream.chunks":          float64(reps[0].Chunks),
		"stream.stages":          float64(reps[0].Stages),
		"stream.vs_materialized": ratio(float64(median(passes)), float64(median(mat))),
	}
}
