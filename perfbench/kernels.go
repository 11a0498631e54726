package main

import (
	"fmt"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// The kernels workload is execution-bound: six kernels are compiled
// once in set-up, and one op is a round that steps every kernel once.
// The op is a round rather than one kernel because the kernels differ
// in cost, so the median of single-kernel ops would jump between those
// costs from run to run.
const (
	meshN   = 384
	l23N    = 256
	spmvN   = 20000
	spmvDeg = 8
)

// kernelNames lists the kernels in round order.
var kernelNames = []string{"sor", "jacobi", "l23", "wavefront", "jacobi_oop", "spmv"}

// kernel is one compiled kernel of the round.
type kernel struct {
	*job
	prog *core.Program // Workers: 2
	// The fields below are set after set-up, by prepare.
	want  *runtime.Strict
	prog1 *core.Program // Workers: 1, traced runs only
	// def is the program's only definition, scratch its input map whose
	// source entry dispatch rounds replace by a clone, and span the name
	// of the span around the definition's plan run.
	def     *core.CompiledDef
	scratch map[string]*runtime.Strict
	span    string
}

// buildKernels makes the inputs from seed and compiles every kernel:
// the set-up a user pays.
func buildKernels(seed int64) ([]*kernel, error) {
	jobs := stencilJobs(meshN, l23N, seed)
	oop := workloads.Mesh(meshN, seed+7)
	csr := workloads.CSRInputs(spmvN, spmvDeg, seed+8)
	jobs = append(jobs,
		&job{name: "jacobi_oop", src: workloads.JacobiMonolithicSrc, params: map[string]int64{"n": meshN},
			inputs: map[string]*runtime.Strict{"b": oop},
			hand:   func() *runtime.Strict { return workloads.HandJacobiMonolithic(oop) }},
		&job{name: "spmv", src: workloads.SpMVSrc, params: csr.Params, inputs: csr.Inputs,
			hand: func() *runtime.Strict { return workloads.HandSpMV(csr) }},
	)
	ks := make([]*kernel, len(jobs))
	for i, j := range jobs {
		p, err := core.Compile(j.src, j.params, j.options(workers))
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", j.name, err)
		}
		ks[i] = &kernel{job: j, prog: p}
	}
	return ks, nil
}

// prepare computes the kernel's reference and what dispatch rounds
// need; traced runs also compile the kernel at one worker.
func (k *kernel) prepare(traced bool) error {
	k.want = k.hand()
	def := k.prog.Defs[k.prog.Result]
	if len(k.prog.Order) != 1 || def.Plan == nil {
		return fmt.Errorf("%s: dispatch rounds need one compiled definition, got %v", k.name, k.prog.Order)
	}
	k.def = def
	k.scratch = map[string]*runtime.Strict{}
	for name, a := range k.inputs {
		k.scratch[name] = a
	}
	k.span = "loopir.exec." + k.name
	if traced {
		p, err := core.Compile(k.src, k.params, k.options(1))
		if err != nil {
			return fmt.Errorf("compile %s at one worker: %w", k.name, err)
		}
		k.prog1 = p
	}
	return nil
}

// kernelTimes holds a traced run's measurements besides the spans.
// Per-kernel slices are indexed in round order.
type kernelTimes struct {
	// rounds holds round latencies by kind: Program.Run at two workers
	// (the untraced op), traced dispatch, Program.Run at one worker.
	rounds [3][]time.Duration
	run    [][]time.Duration // Program.Run per kernel, two workers
	run1   [][]time.Duration // the same at one worker
	hand   [][]time.Duration
	verify []time.Duration
}

func runKernels(cfg config) (*outcome, error) {
	ks, setup, err := repeatSetup(func() ([]*kernel, error) { return buildKernels(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		if err := k.prepare(cfg.trace); err != nil {
			return nil, err
		}
	}
	n := len(ks)
	t := &kernelTimes{run: make([][]time.Duration, n), run1: make([][]time.Duration, n), hand: make([][]time.Duration, n)}
	var rec *recorder
	var perRun [][]time.Duration
	if cfg.trace {
		rec = newRecorder()
		perRun = t.run
	}
	row := ks[n-1].inputs["row"].Data
	claims := idxprop.Claims{
		{Array: "row", Kind: idxprop.KMonoNonDec},
		{Array: "row", Kind: idxprop.KRange, Lo: 1, Hi: spmvN},
	}
	ph := runPhase(cfg.budget, cfg.minOps, func(i int) (time.Duration, error) {
		kind := 0
		if cfg.trace {
			kind = i % 3
		}
		var lat time.Duration
		var outs []*runtime.Strict
		var err error
		switch kind {
		case 0:
			lat, outs, err = runRound(ks, false, perRun)
		case 1:
			lat, outs, err = dispatchRound(i, ks, rec)
		default:
			lat, outs, err = runRound(ks, true, t.run1)
		}
		if err != nil {
			return lat, err
		}
		t.rounds[kind] = append(t.rounds[kind], lat)
		if kind == 1 {
			if err := t.handAndVerify(ks, row, claims); err != nil {
				return lat, err
			}
		}
		return lat, checkKernels(ks, outs)
	})
	o := &outcome{setup: setup, phase: ph, rssMiB: maxRSSMiB(), stamp: kernelStamp(ks)}
	if cfg.trace {
		o.spans = rec
		o.layers = kernelLayers(ks, t, rec)
	}
	return o, nil
}

// runRound steps every kernel once through Program.Run, the path a
// library caller takes, timing each kernel into per when it is set.
func runRound(ks []*kernel, oneWorker bool, per [][]time.Duration) (time.Duration, []*runtime.Strict, error) {
	outs := make([]*runtime.Strict, len(ks))
	start := time.Now()
	for j, k := range ks {
		p := k.prog
		if oneWorker {
			p = k.prog1
		}
		t0 := time.Now()
		out, err := p.Run(k.inputs)
		if per != nil {
			per[j] = append(per[j], time.Since(t0))
		}
		if err != nil {
			return time.Since(start), nil, fmt.Errorf("%s: %w", k.name, err)
		}
		outs[j] = out
	}
	return time.Since(start), outs, nil
}

// dispatchRound steps every kernel once by doing Program.Run's dispatch
// in the open — clone the in-place source when the plan needs it, then
// run the definition's loop-IR plan — with a span around each call.
func dispatchRound(op int, ks []*kernel, rec *recorder) (time.Duration, []*runtime.Strict, error) {
	outs := make([]*runtime.Strict, len(ks))
	start := time.Now()
	root := rec.begin(op, -1, "bench.round")
	defer rec.end(root)
	for j, k := range ks {
		in := k.inputs
		if k.def.CloneSource {
			s := rec.begin(op, root, "runtime.clone")
			src := in[k.def.Def.Source].Clone()
			rec.end(s)
			k.scratch[k.def.Def.Source] = src
			in = k.scratch
		}
		s := rec.begin(op, root, k.span)
		out, err := k.def.Plan.Run(in)
		rec.end(s)
		if err != nil {
			return time.Since(start), nil, fmt.Errorf("%s: %w", k.name, err)
		}
		outs[j] = out
	}
	return time.Since(start), outs, nil
}

// handAndVerify times each hand-written baseline once and one direct
// idxprop.Verify pass over the SpMV row array.
func (t *kernelTimes) handAndVerify(ks []*kernel, row []float64, claims idxprop.Claims) error {
	for j, k := range ks {
		t0 := time.Now()
		k.hand()
		t.hand[j] = append(t.hand[j], time.Since(t0))
	}
	t0 := time.Now()
	v := idxprop.Verify(row, claims)
	t.verify = append(t.verify, time.Since(t0))
	if !v.OK {
		return fmt.Errorf("spmv row array failed verification: %s", v.Reason)
	}
	return nil
}

func checkKernels(ks []*kernel, outs []*runtime.Strict) error {
	for j, k := range ks {
		if err := agree(k.want, outs[j], false); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	return nil
}

func kernelLayers(ks []*kernel, t *kernelTimes, rec *recorder) map[string]float64 {
	l := map[string]float64{}
	var runMs, execMs float64
	for j, k := range ks {
		exec := rec.perOpMs(k.span)
		l["loopir.exec_ms."+k.name] = exec
		execMs += exec
		runMs += ms(mean(t.run[j]))
		l["kernels.vs_hand."+k.name] = ratio(float64(median(t.run[j])), float64(median(t.hand[j])))
		l["loopir.w2_speedup."+k.name] = ratio(float64(median(t.run1[j])), float64(median(t.run[j])))
	}
	clone := rec.perOpMs("runtime.clone")
	l["runtime.clone_ms"] = clone
	l["core.dispatch_ms"] = runMs - execMs - clone
	l["idxprop.verify_ms"] = ms(mean(t.verify))
	spmv := len(ks) - 1
	runs := float64(len(t.run[spmv]) + rec.ops())
	v := ks[spmv].prog.IdxVerify.Snapshot()
	l["idxprop.verified"] = ratio(float64(v.Verified), runs)
	l["idxprop.failed"] = ratio(float64(v.Failed), runs)
	traceLayers(l, rec, t.rounds[0], t.rounds[1])
	return l
}

func kernelStamp(ks []*kernel) map[string]any {
	shapes := map[string]map[string]int{}
	for _, k := range ks {
		shapes[k.name] = k.prog.Stats.Counters.SchedulesByKind
	}
	return map[string]any{
		"sizes":       map[string]int64{"mesh_n": meshN, "l23_n": l23N, "spmv_n": spmvN, "spmv_deg": spmvDeg},
		"plan_shapes": shapes,
	}
}
