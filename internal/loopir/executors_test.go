package loopir_test

import (
	"math"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// TestExecutorsBitwiseEquivalent runs the benchmark kernels and the
// irregular gather/scatter bodies at sizes where their parallel
// schedules engage, compiled for 1, 2 and 4 workers, with the stencil
// specializer off, and with every loop forced to the generic row form.
// Every executor runs the same row kernels in the same per-element
// order, and every form evaluates in the generic form's operation
// order, so the results must agree bit for bit.
func TestExecutorsBitwiseEquivalent(t *testing.T) {
	mesh := func(n, seed int64) *runtime.Strict { return workloads.Mesh(n, seed) }
	csr := workloads.CSRInputs(20000, 8, 5)
	hist := workloads.HistogramIdxInputs(40000, 256, 6, true)
	adj := workloads.AdjInputs(5000, 40000, 7)
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
		{"histogram", workloads.HistogramIdxSrc, hist.Params, hist.Inputs, "shard"},
		{"adjgather", workloads.AdjGatherSrc, adj.Params, adj.Inputs, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bounds := map[string]analysis.ArrayBounds{}
			for name, a := range c.inputs {
				bounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
			}
			configs := []struct {
				label   string
				opts    core.Options
				generic bool
			}{
				{"w=1", core.Options{Parallel: true, Workers: 1, InputBounds: bounds}, false},
				{"w=2", core.Options{Parallel: true, Workers: 2, InputBounds: bounds}, false},
				{"w=4", core.Options{Parallel: true, Workers: 4, InputBounds: bounds}, false},
				{"nostencil w=2", core.Options{Parallel: true, Workers: 2, NoStencil: true, InputBounds: bounds}, false},
				{"generic w=1", core.Options{Parallel: true, Workers: 1, InputBounds: bounds}, true},
				{"generic w=4", core.Options{Parallel: true, Workers: 4, InputBounds: bounds}, true},
			}
			var ref []float64
			for _, cfg := range configs {
				old := loopir.SetGenericRows(cfg.generic)
				p, err := core.Compile(c.src, c.params, cfg.opts)
				loopir.SetGenericRows(old)
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
				if v := p.IdxVerify.Snapshot(); v.Failed != 0 {
					t.Fatalf("%s: %d claim verifications failed; the verified branch never ran", cfg.label, v.Failed)
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
