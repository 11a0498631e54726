package core_test

import (
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// TestParallelWorkersMatchSequential runs the benchmark kernels through
// the whole pipeline twice — once sequential, once with Parallel
// scheduling and a forced multi-worker pool — and demands identical
// results. The doacross schedules preserve the sequential dependence
// order exactly, so the comparison is bitwise, not approximate.
func TestParallelWorkersMatchSequential(t *testing.T) {
	mb := func(n int64) analysis.ArrayBounds {
		lo, hi := workloads.MatrixBounds(n)
		return analysis.ArrayBounds{Lo: lo, Hi: hi}
	}
	cases := []struct {
		name, src string
		n         int64
		bounds    map[string]analysis.ArrayBounds
		inputs    func(n int64) map[string]*runtime.Strict
		schedule  string // substring expected in some plan dump; "" = none required
	}{
		{
			name: "sor", src: workloads.SORSrc, n: 384,
			bounds:   map[string]analysis.ArrayBounds{"a": mb(384)},
			inputs:   func(n int64) map[string]*runtime.Strict { return map[string]*runtime.Strict{"a": workloads.Mesh(n, 9)} },
			schedule: "[wavefront",
		},
		{
			name: "livermore23", src: workloads.Livermore23Src, n: 256,
			bounds: map[string]analysis.ArrayBounds{
				"za": mb(256), "zr": mb(256), "zb": mb(256), "zu": mb(256), "zv": mb(256),
			},
			inputs:   workloads.Livermore23Inputs,
			schedule: "[wavefront",
		},
		{
			name: "wavefront", src: workloads.WavefrontSrc, n: 384,
			inputs:   func(int64) map[string]*runtime.Strict { return nil },
			schedule: "[wavefront",
		},
		{
			name: "jacobimono", src: workloads.JacobiMonolithicSrc, n: 192,
			bounds:   map[string]analysis.ArrayBounds{"b": mb(192)},
			inputs:   func(n int64) map[string]*runtime.Strict { return map[string]*runtime.Strict{"b": workloads.Mesh(n, 3)} },
			schedule: "[shard]",
		},
		{
			// Unit-distance recurrence: doacross-eligible but unschedulable
			// (a single chain); must still run, sequentially, under
			// Parallel+Workers.
			name: "recurrence", src: workloads.RecurrenceSrc, n: 100000,
			inputs:   func(int64) map[string]*runtime.Strict { return nil },
			schedule: "",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			params := workloads.ParamsFor(c.name, c.n)
			seqProg, err := core.Compile(c.src, params, core.Options{InputBounds: c.bounds})
			if err != nil {
				t.Fatal(err)
			}
			want, err := seqProg.Run(c.inputs(c.n))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				parProg, err := core.Compile(c.src, params, core.Options{
					Parallel: true, Workers: workers, InputBounds: c.bounds,
				})
				if err != nil {
					t.Fatal(err)
				}
				if c.schedule != "" && workers == 4 {
					found := false
					for _, name := range parProg.Order {
						if cd := parProg.Defs[name]; cd.Plan != nil &&
							strings.Contains(cd.Plan.Program.Dump(), c.schedule) {
							found = true
						}
					}
					if !found {
						t.Fatalf("no plan carries a %q schedule", c.schedule)
					}
				}
				got, err := parProg.Run(c.inputs(c.n))
				if err != nil {
					t.Fatal(err)
				}
				if err := workloads.CheckClose(got, want, 0); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
		})
	}
}
