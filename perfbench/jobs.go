package main

import (
	"errors"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/oracle"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// job is one program with its parameter binding, its inputs and, where
// the workloads package has one, a hand-written baseline that computes
// the same result without the compiler. A baseline clones whatever it
// mutates, as Program.Run does.
type job struct {
	name   string
	src    string
	params map[string]int64
	inputs map[string]*runtime.Strict
	hand   func() *runtime.Strict
}

// stencilJobs returns the paper's §9 stencils with inputs drawn from
// seed: SOR and Jacobi updating an n×n mesh in place (bigupd), Livermore
// Kernel 23 on an l23n×l23n grid, and the §3 wavefront.
func stencilJobs(n, l23n, seed int64) []*job {
	p := map[string]int64{"n": n}
	sor := workloads.Mesh(n, seed)
	jac := workloads.Mesh(n, seed+1)
	l23 := map[string]*runtime.Strict{}
	for i, name := range []string{"za", "zr", "zb", "zu", "zv"} {
		l23[name] = workloads.Mesh(l23n, seed+2+int64(i))
	}
	return []*job{
		{name: "sor", src: workloads.SORSrc, params: p, inputs: map[string]*runtime.Strict{"a": sor},
			hand: func() *runtime.Strict { a := sor.Clone(); workloads.HandSOR(a); return a }},
		{name: "jacobi", src: workloads.JacobiSrc, params: p, inputs: map[string]*runtime.Strict{"a": jac},
			hand: func() *runtime.Strict { a := jac.Clone(); workloads.HandJacobi(a); return a }},
		{name: "l23", src: workloads.Livermore23Src, params: map[string]int64{"n": l23n}, inputs: l23,
			hand: func() *runtime.Strict {
				za := l23["za"].Clone()
				workloads.HandLivermore23(za, l23["zr"], l23["zb"], l23["zu"], l23["zv"])
				return za
			}},
		{name: "wavefront", src: workloads.WavefrontSrc, params: p,
			hand: func() *runtime.Strict { return workloads.HandWavefront(n) }},
	}
}

// options returns the job's compile options: its input bounds, Parallel
// on, and w workers.
func (j *job) options(w int) core.Options {
	b := map[string]analysis.ArrayBounds{}
	for name, a := range j.inputs {
		b[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	return core.Options{Parallel: true, Workers: w, InputBounds: b}
}

// thunkedRun computes the job's result with every definition on the
// thunked evaluator (Options.ForceThunked), the semantics the
// differential oracle checks compiled plans against.
func (j *job) thunkedRun() (*runtime.Strict, error) {
	opts := j.options(workers)
	opts.Parallel = false
	opts.ForceThunked = true
	p, err := core.Compile(j.src, j.params, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(j.inputs)
}

// agree checks got against want: bit for bit, or within the oracle's
// 1e-9 relative tolerance.
func agree(want, got *runtime.Strict, bitwise bool) error {
	cmp := oracle.Agree
	if bitwise {
		cmp = oracle.BitwiseAgree
	}
	if ok, detail := cmp(oracle.Outcome{Value: want}, oracle.Outcome{Value: got}); !ok {
		return errors.New(detail)
	}
	return nil
}
