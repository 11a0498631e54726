package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// phase is a run's timed part: one latency and one error slot per
// attempted op.
type phase struct {
	lats   []time.Duration
	errs   []error
	failed int
	wall   time.Duration
}

func (p *phase) attempted() int { return len(p.lats) }

// fail marks op i failed; outputs checked after the timed phase use it
// too. The first few failures are logged.
func (p *phase) fail(i int, err error) {
	if p.errs[i] != nil {
		return
	}
	p.errs[i] = err
	p.failed++
	if p.failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
	}
}

// latencies returns the latencies of the ops that succeeded.
func (p *phase) latencies() []time.Duration {
	out := make([]time.Duration, 0, len(p.lats))
	for i, d := range p.lats {
		if p.errs[i] == nil {
			out = append(out, d)
		}
	}
	return out
}

// runPhase calls op(0), op(1), ... after a collection, until the budget
// is spent and at least min ops were attempted, but never past four
// budgets. op returns its latency, which leaves out checking the output
// and any side measurement, and an error when the op failed or its
// output was wrong.
func runPhase(budget time.Duration, min int, op func(i int) (time.Duration, error)) *phase {
	p := &phase{}
	goruntime.GC()
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= budget && i >= min) || el >= 4*budget {
			break
		}
		lat, err := op(i)
		p.lats = append(p.lats, lat)
		p.errs = append(p.errs, nil)
		if err != nil {
			p.fail(i, err)
		}
	}
	p.wall = time.Since(start)
	return p
}

// repeatSetup runs build setupReps times and returns the last state
// with every repetition's duration. Each repetition starts after a
// collection, so an earlier repetition's garbage is not collected inside
// the next one's timing; release, when set, frees each state that is
// not kept.
func repeatSetup[T any](build func() (T, error), release func(T)) (T, []time.Duration, error) {
	var state, zero T
	var ds []time.Duration
	for r := 0; r < setupReps; r++ {
		if r > 0 && release != nil {
			release(state)
		}
		state = zero
		goruntime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return zero, nil, err
		}
		ds = append(ds, time.Since(t0))
		state = s
	}
	return state, ds, nil
}

// recorder keeps a traced run's spans in memory and writes them out
// when the run ends. The benchmark opens a span around each of its own
// calls into a layer's public functions; nothing inside the program is
// instrumented. Methods on a nil recorder record nothing, so traced and
// untraced ops run the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

// span is one timed call. An op's root span has Parent -1 and a name in
// the "bench" layer; a span's layer is the first dotted element of its
// name.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span of op under parent and returns its id.
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ops counts the traced ops.
func (r *recorder) ops() int {
	n := 0
	for _, s := range r.spans {
		if s.Parent < 0 {
			n++
		}
	}
	return n
}

// perOpMs returns the summed duration of the spans named name, in
// milliseconds per traced op.
func (r *recorder) perOpMs(name string) float64 {
	var t time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return ratio(ms(t), float64(r.ops()))
}

// selfTimes returns each span's duration minus the part its children
// cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfMsPerOp returns each layer's self time in milliseconds per traced
// op; the layers add up to the traced op time.
func (r *recorder) selfMsPerOp() map[string]float64 {
	out := map[string]float64{}
	n := float64(r.ops())
	for i, d := range r.selfTimes() {
		layer, _, _ := strings.Cut(r.spans[i].Name, ".")
		out[layer] += ratio(ms(d), n)
	}
	return out
}

// unattributedFrac is the share of traced op time that no layer span
// covers: the root spans' self time over their duration.
func (r *recorder) unattributedFrac() float64 {
	self := r.selfTimes()
	var own, total time.Duration
	for i, s := range r.spans {
		if s.Parent < 0 {
			own += self[i]
			total += s.dur()
		}
	}
	return ratio(float64(own), float64(total))
}

// traceLayers adds the metrics every traced run reports: the tracing
// overhead (median traced op over median untraced op, minus one) and
// the share of traced op time no layer span covers.
func traceLayers(l map[string]float64, rec *recorder, untraced, traced []time.Duration) {
	u := float64(median(untraced))
	l["trace.overhead_frac"] = ratio(float64(median(traced))-u, u)
	l["trace.unattributed_frac"] = rec.unattributedFrac()
}

// write saves the spans with the per-layer self times as one JSON
// document.
func (r *recorder) write(path string, cfg config, self map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Ops         int                `json:"ops"`
		SelfMsPerOp map[string]float64 `json:"self_ms_per_op"`
		Spans       []span             `json:"spans"`
	}{cfg.workload, cfg.seed, r.ops(), self, r.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
