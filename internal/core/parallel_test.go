package core

import (
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// TestParallelJacobiMonolithic: the fully independent out-of-place
// Jacobi step must be marked parallel and agree with the sequential
// and thunked results.
func TestParallelJacobiMonolithic(t *testing.T) {
	n := int64(80) // interior trip 78×78 = 6084 > sharding threshold
	params := map[string]int64{"n": n}
	in := workloads.Mesh(n, 5)
	opts := Options{
		Parallel:    true,
		InputBounds: map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}},
	}
	p := compile(t, workloads.JacobiMonolithicSrc, params, opts)
	dump := p.Defs["a"].Plan.Program.Dump()
	if !strings.Contains(dump, "parallel") {
		t.Fatalf("no parallel loop emitted:\n%s", dump)
	}
	got, err := p.Run(map[string]*runtime.Strict{"b": in})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential compile of the same program.
	seqOpts := opts
	seqOpts.Parallel = false
	ps := compile(t, workloads.JacobiMonolithicSrc, params, seqOpts)
	want, err := ps.Run(map[string]*runtime.Strict{"b": in})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWithin(want, 0) {
		t.Fatal("parallel and sequential results differ")
	}
	if !got.EqualWithin(workloads.HandJacobiMonolithic(in), 1e-12) {
		t.Fatal("parallel result differs from hand-written")
	}
}

// TestParallelNotMarkedOnCarriedLoops: recurrences must never be
// parallelized even when requested.
func TestParallelNotMarkedOnCarriedLoops(t *testing.T) {
	for _, src := range []string{workloads.RecurrenceSrc, workloads.WavefrontSrc} {
		p := compile(t, src, map[string]int64{"n": 64}, Options{Parallel: true})
		for _, name := range p.Order {
			cd := p.Defs[name]
			if cd.Plan == nil {
				continue
			}
			dump := cd.Plan.Program.Dump()
			// The wavefront border loops ARE dependence-free and may be
			// parallel; the recurrence nests must not be. Check that no
			// loop whose body reads the array it writes is parallel by
			// running and comparing against the thunked oracle.
			_ = dump
			got, err := p.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			pt := compile(t, src, map[string]int64{"n": 64}, Options{ForceThunked: true})
			want, err := pt.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualWithin(want, 1e-9) {
				t.Fatalf("parallel-enabled compile of %s diverges", name)
			}
		}
	}
	// Specifically: the recurrence's single loop must stay sequential.
	p := compile(t, workloads.RecurrenceSrc, map[string]int64{"n": 100000}, Options{Parallel: true})
	dump := p.Defs["a"].Plan.Program.Dump()
	if strings.Contains(dump, "parallel") {
		t.Fatalf("carried recurrence wrongly parallelized:\n%s", dump)
	}
}

// TestParallelDisabledForTrackedDefs: guarded programs (definedness
// bitmaps) must refuse to parallelize.
func TestParallelDisabledForTrackedDefs(t *testing.T) {
	src := `a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], i mod 2 == 1 ] ++
	   [ i := 2.0 | i <- [1..n], i mod 2 == 0 ])`
	p := compile(t, src, map[string]int64{"n": 10000}, Options{Parallel: true})
	dump := p.Defs["a"].Plan.Program.Dump()
	if strings.Contains(dump, "parallel") {
		t.Fatalf("bitmap-tracked program wrongly parallelized:\n%s", dump)
	}
}

// TestParallelDisabledForNodeSplitting: an in-place bigupd with
// node-splitting temps (Jacobi's second sweep) must stay sequential.
func TestParallelDisabledForNodeSplitting(t *testing.T) {
	n := int64(64)
	opts := Options{
		Parallel:    true,
		InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)},
	}
	p := compile(t, workloads.TwoSweeps(workloads.JacobiSrc), map[string]int64{"n": n}, opts)
	dump := p.Defs["a2"].Plan.Program.Dump()
	if !strings.Contains(dump, "row$") || !strings.Contains(dump, "rowsave$") {
		t.Fatalf("second jacobi sweep must be node-split:\n%s", dump)
	}
	if strings.Contains(dump, "parallel") {
		t.Fatalf("node-split bigupd wrongly parallelized:\n%s", dump)
	}
}

// TestParallelRace runs the parallel plan repeatedly; combined with
// `go test -race` this exercises the worker sharding for data races.
func TestParallelRace(t *testing.T) {
	n := int64(80)
	params := map[string]int64{"n": n}
	in := workloads.Mesh(n, 6)
	opts := Options{
		Parallel:    true,
		InputBounds: map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}},
	}
	p := compile(t, workloads.JacobiMonolithicSrc, params, opts)
	want, err := p.Run(map[string]*runtime.Strict{"b": in})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		got, err := p.Run(map[string]*runtime.Strict{"b": in})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualWithin(want, 0) {
			t.Fatal("nondeterministic parallel result")
		}
	}
}
