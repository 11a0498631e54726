package loopir_test

import (
	"math"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// TestExecutorsBitwiseEquivalent runs the benchmark kernels at sizes
// where their parallel schedules engage, compiled for 1, 2 and 4
// workers and with the stencil specializer off. Every executor runs
// the same row kernels in the same per-element order, so the results
// must agree bit for bit.
func TestExecutorsBitwiseEquivalent(t *testing.T) {
	mesh := func(n, seed int64) *runtime.Strict { return workloads.Mesh(n, seed) }
	csr := workloads.CSRInputs(20000, 8, 5)
	cases := []struct {
		name     string
		src      string
		params   map[string]int64
		inputs   map[string]*runtime.Strict
		schedule string // the kind the 2- and 4-worker plans must carry; "" for none
	}{
		{"sor", workloads.SORSrc, map[string]int64{"n": 384},
			map[string]*runtime.Strict{"a": mesh(384, 1)}, "wavefront"},
		{"jacobi", workloads.JacobiSrc, map[string]int64{"n": 384},
			map[string]*runtime.Strict{"a": mesh(384, 2)}, ""},
		{"l23", workloads.Livermore23Src, map[string]int64{"n": 256},
			workloads.Livermore23Inputs(256), "wavefront"},
		{"wavefront", workloads.WavefrontSrc, map[string]int64{"n": 384}, nil, "wavefront"},
		{"jacobi_oop", workloads.JacobiMonolithicSrc, map[string]int64{"n": 384},
			map[string]*runtime.Strict{"b": mesh(384, 3)}, "shard"},
		{"spmv", workloads.SpMVSrc, csr.Params, csr.Inputs, "shard"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bounds := map[string]analysis.ArrayBounds{}
			for name, a := range c.inputs {
				bounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
			}
			configs := []struct {
				label string
				opts  core.Options
			}{
				{"w=1", core.Options{Parallel: true, Workers: 1, InputBounds: bounds}},
				{"w=2", core.Options{Parallel: true, Workers: 2, InputBounds: bounds}},
				{"w=4", core.Options{Parallel: true, Workers: 4, InputBounds: bounds}},
				{"nostencil w=2", core.Options{Parallel: true, Workers: 2, NoStencil: true, InputBounds: bounds}},
			}
			var ref []float64
			for _, cfg := range configs {
				p, err := core.Compile(c.src, c.params, cfg.opts)
				if err != nil {
					t.Fatalf("%s: %v", cfg.label, err)
				}
				if kinds := p.Stats.Counters.SchedulesByKind; c.schedule != "" &&
					(cfg.label == "w=2" || cfg.label == "w=4") && kinds[c.schedule] == 0 {
					t.Fatalf("%s: schedules %v, want a %s schedule", cfg.label, kinds, c.schedule)
				}
				out, err := p.Run(c.inputs)
				if err != nil {
					t.Fatalf("%s: %v", cfg.label, err)
				}
				if ref == nil {
					ref = out.Data
					continue
				}
				for i, v := range out.Data {
					if math.Float64bits(v) != math.Float64bits(ref[i]) {
						t.Fatalf("%s: element %d is %v, w=1 gave %v", cfg.label, i, v, ref[i])
					}
				}
			}
		})
	}
}
