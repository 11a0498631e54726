package loopir_test

import (
	"slices"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/loopir"
	"arraycomp/internal/workloads"
)

// TestGatherScatterRowForms: the claim-verified branch of each
// irregular workload takes the strip row form — SpMV's
// accumulating scatter through row with its gather through col, the
// histogram's accumulating scatter, the adjacency gather — while the
// checked else branch keeps the generic form, which alone raises
// runtime errors, and a stream-stage compile never takes it.
func TestGatherScatterRowForms(t *testing.T) {
	cases := []struct {
		name string
		src  string
		c    workloads.SparseCase
	}{
		{"spmv", workloads.SpMVSrc, workloads.CSRInputs(2000, 8, 5)},
		{"histogram", workloads.HistogramIdxSrc, workloads.HistogramIdxInputs(4000, 64, 6, true)},
		{"adjgather", workloads.AdjGatherSrc, workloads.AdjInputs(2000, 8000, 7)},
	}
	for _, tc := range cases {
		bounds := map[string]analysis.ArrayBounds{}
		for name, a := range tc.c.Inputs {
			bounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
		}
		p, err := core.Compile(tc.src, tc.c.Params, core.Options{Parallel: true, Workers: 2, InputBounds: bounds})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prog := p.Defs[p.Result].Plan.Program
		// Inspect visits the verified branch's loop, then the checked one's.
		if got := loopir.RowForms(prog, false); !slices.Equal(got, []string{"strip", "generic"}) {
			t.Errorf("%s: forms %v, want [strip generic] (verified, checked):\n%s", tc.name, got, prog.Dump())
		}
		// A stage takes unchecked accesses only: compile the verified branch.
		verified := *prog
		for _, s := range prog.Stmts {
			if x, ok := s.(*loopir.If); ok {
				verified.Stmts = x.Then
			}
		}
		if got := loopir.RowForms(&verified, true); !slices.Equal(got, []string{"generic"}) {
			t.Errorf("%s: stage forms %v, want [generic]", tc.name, got)
		}
	}
}
