package core_test

import (
	"testing"

	"arraycomp/internal/core"
	"arraycomp/internal/native"
	"arraycomp/internal/runtime"
)

// Colliding writes keep list order. In `[* [ i := … ] ++ [ 6-i := … ]
// | i <- [1..5] *]` the second clause's instance at i = 1 writes
// element 5 before the first clause's instance at i = 5 does, so the
// two clauses collide in both directions and neither may run all of
// its instances first: elements 1–3 end with the later clause's 2,
// elements 4 and 5 with the first clause's 1. Every tier must agree
// with the thunked reference bit for bit.

func TestAccumArrayCollidingWritesKeepListOrder(t *testing.T) {
	checkListOrder(t, "accum", `h = accumArray right 0.0 (1,5) [* [ i := 1.0 ] ++ [ 6-i := 2.0 ] | i <- [1..5] *]`,
		nil, []float64{2, 2, 2, 1, 1})
	// The same collisions along the inner loop of a 2-D nest: vectors
	// (=, <) and (=, >).
	checkListOrder(t, "accum2d", `h = accumArray right 0.0 ((1,1),(2,3)) [* [ (i,j) := 1.0 ] ++ [ (i,4-j) := 2.0 ] | i <- [1..2], j <- [1..3] *]`,
		nil, []float64{2, 2, 1, 2, 2, 1})
}

func TestBigupdCollidingWritesKeepListOrder(t *testing.T) {
	a := runtime.NewStrict(runtime.NewBounds1(1, 5))
	checkListOrder(t, "bigupd", `b = bigupd a [* [ i := 1.0 ] ++ [ 6-i := 2.0 ] | i <- [1..5] *]`,
		map[string]*runtime.Strict{"a": a}, []float64{2, 2, 2, 1, 1})
}

func checkListOrder(t *testing.T, key, src string, inputs map[string]*runtime.Strict, want []float64) {
	t.Helper()
	compile := func(opts core.Options) *core.Program {
		t.Helper()
		opts.InputBounds = boundsOf(inputs)
		p, err := core.Compile(src, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(p *core.Program) *runtime.Strict {
		t.Helper()
		out, err := p.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(compile(core.Options{ForceThunked: true}))
	for k, w := range want {
		if ref.Data[k] != w {
			t.Fatalf("%s: reference element %d = %v, want %v", key, k, ref.Data[k], w)
		}
	}
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"interpreted", core.Options{}},
		{"parallel-w2", core.Options{Parallel: true, Workers: 2}},
		{"parallel-w4", core.Options{Parallel: true, Workers: 4}},
		{"stream", core.Options{Stream: true}},
	} {
		p := compile(c.opts)
		if c.opts.Stream && !p.StreamActive() {
			t.Logf("stream: materialized fallback (%s)", p.StreamFallback())
		}
		bitwiseEqual(t, key+" "+c.name, ref, run(p))
	}
	p := compile(core.Options{})
	spec, err := p.NativeSpec(key)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := native.Build([]native.ProgramSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	p.AdoptNative(mod.Plan(key))
	got, tier, err := p.RunTiered(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tier != core.TierNative {
		t.Fatalf("served by %q, want native", tier)
	}
	bitwiseEqual(t, key+" native", ref, got)
}
