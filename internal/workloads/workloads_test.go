package workloads

import (
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
)

func compileWorkload(t *testing.T, src string, params map[string]int64, inputs map[string]*runtime.Strict) *core.Program {
	t.Helper()
	opts := core.Options{InputBounds: map[string]analysis.ArrayBounds{}}
	for name, a := range inputs {
		opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	p, err := core.Compile(src, params, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// TestHandBaselinesMatchCompiled cross-validates every hand-written
// baseline against the compiled pipeline — if these drift, the
// benchmark comparisons are meaningless.
func TestHandBaselinesMatchCompiled(t *testing.T) {
	n := int64(24)

	t.Run("squares", func(t *testing.T) {
		p := compileWorkload(t, SquaresSrc, ParamsFor("squares", n), nil)
		got, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckClose(got, HandSquares(n), 0); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("recurrence", func(t *testing.T) {
		p := compileWorkload(t, RecurrenceSrc, ParamsFor("recurrence", n), nil)
		got, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckClose(got, HandRecurrence(n), 1e-12); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("wavefront", func(t *testing.T) {
		p := compileWorkload(t, WavefrontSrc, ParamsFor("wavefront", n), nil)
		got, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckClose(got, HandWavefront(n), 1e-9); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("rowswap", func(t *testing.T) {
		params := ParamsFor("rowswap", n)
		in := Mesh(n, 7)
		p := compileWorkload(t, RowSwapSrc, params, map[string]*runtime.Strict{"a": in})
		got, err := p.Run(map[string]*runtime.Strict{"a": in})
		if err != nil {
			t.Fatal(err)
		}
		want := in.Clone()
		HandRowSwap(want, params["i0"], params["k0"])
		if err := CheckClose(got, want, 0); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("jacobi", func(t *testing.T) {
		in := Mesh(n, 8)
		p := compileWorkload(t, JacobiSrc, ParamsFor("jacobi", n), map[string]*runtime.Strict{"a": in})
		got, err := p.Run(map[string]*runtime.Strict{"a": in})
		if err != nil {
			t.Fatal(err)
		}
		want := in.Clone()
		HandJacobi(want)
		if err := CheckClose(got, want, 1e-12); err != nil {
			t.Fatal(err)
		}
		// The naive copying baseline must agree too.
		if err := CheckClose(got, NaiveJacobiCopying(in), 1e-12); err != nil {
			t.Fatalf("naive copying baseline: %v", err)
		}
		if err := CheckClose(got, TrailerJacobi(in), 1e-12); err != nil {
			t.Fatalf("trailer baseline: %v", err)
		}
	})

	t.Run("sor", func(t *testing.T) {
		in := Mesh(n, 9)
		p := compileWorkload(t, SORSrc, ParamsFor("sor", n), map[string]*runtime.Strict{"a": in})
		got, err := p.Run(map[string]*runtime.Strict{"a": in})
		if err != nil {
			t.Fatal(err)
		}
		want := in.Clone()
		HandSOR(want)
		if err := CheckClose(got, want, 1e-12); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("livermore23", func(t *testing.T) {
		inputs := Livermore23Inputs(n)
		p := compileWorkload(t, Livermore23Src, ParamsFor("livermore23", n), inputs)
		got, err := p.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		want := inputs["za"].Clone()
		HandLivermore23(want, inputs["zr"], inputs["zb"], inputs["zu"], inputs["zv"])
		if err := CheckClose(got, want, 1e-12); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWorkloadModes(t *testing.T) {
	// A bigupd of the caller's array compiles to a copy-update plan;
	// chained behind a first sweep (TwoSweeps) its source is dead and
	// the same update compiles in place.
	n := int64(16)
	cases := []struct {
		name, src, def, wantMode string
		inputs                   map[string]*runtime.Strict
	}{
		{"squares", SquaresSrc, "sq", "thunkless", nil},
		{"wavefront", WavefrontSrc, "a", "thunkless", nil},
		{"example1", Example1Src, "a", "thunkless", nil},
		{"mixedpass", MixedPassSrc, "a", "thunkless", nil},
		{"cyclic", CyclicSrc, "a", "thunked", nil},
		{"rowswap", RowSwapSrc, "a2", "copy-update", map[string]*runtime.Strict{"a": Mesh(n, 1)}},
		{"jacobi", JacobiSrc, "a2", "copy-update", map[string]*runtime.Strict{"a": Mesh(n, 1)}},
		{"sor", SORSrc, "a2", "copy-update", map[string]*runtime.Strict{"a": Mesh(n, 1)}},
		{"scalerow", ScaleRowSrc, "a2", "copy-update", map[string]*runtime.Strict{"a": Mesh(n, 1)}},
		{"saxpy", SaxpyRowSrc, "a2", "copy-update", map[string]*runtime.Strict{"a": Mesh(n, 1)}},
		{"livermore23", Livermore23Src, "za2", "copy-update", Livermore23Inputs(n)},
		{"histogram", HistogramSrc, "h", "thunkless", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := compileWorkload(t, c.src, ParamsFor(c.name, n), c.inputs)
			if got := p.Defs[c.def].Mode(); got != c.wantMode {
				t.Errorf("mode = %s, want %s\n%s", got, c.wantMode, p.Report())
			}
			if c.wantMode != "copy-update" {
				return
			}
			p = compileWorkload(t, TwoSweeps(c.src), ParamsFor(c.name, n), c.inputs)
			if got := p.Defs[c.def].Mode(); got != "in-place" {
				t.Errorf("second sweep mode = %s, want in-place\n%s", got, p.Report())
			}
		})
	}
}

func TestScaleAndSaxpyNoSplitting(t *testing.T) {
	n := int64(12)
	in := Mesh(n, 3)
	for _, src := range []string{ScaleRowSrc, SORSrc, Livermore23Src} {
		name := "a2"
		inputs := map[string]*runtime.Strict{"a": in}
		if src == Livermore23Src {
			name = "za2"
			inputs = Livermore23Inputs(n)
		}
		// The second sweep updates a dead source in place.
		p := compileWorkload(t, TwoSweeps(src), ParamsFor("scalerow", n), inputs)
		cd := p.Defs[name]
		if cd.Mode() != "in-place" {
			t.Fatalf("%s: mode %s, want in-place", name, cd.Mode())
		}
		for _, note := range cd.Plan.Notes {
			if note != "" && (containsAny(note, "scalar", "row snapshot", "whole-array")) {
				t.Errorf("%s must need no node splitting, note: %s", name, note)
			}
		}
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
		}
	}
	return false
}

func TestDeforestationVariantsAgree(t *testing.T) {
	a, b := Vector(500, 1), Vector(500, 2)
	x := SumProductsFused(a, b)
	if y := SumProductsListComp(a, b); x != y {
		t.Errorf("list comp %v != fused %v", y, x)
	}
	if y := SumProductsConsList(a, b); x != y {
		t.Errorf("cons list %v != fused %v", y, x)
	}
}

func TestMeshDeterminism(t *testing.T) {
	if !Mesh(8, 42).EqualWithin(Mesh(8, 42), 0) {
		t.Error("Mesh must be deterministic per seed")
	}
	if Mesh(8, 1).EqualWithin(Mesh(8, 2), 0) {
		t.Error("Mesh seeds must differ")
	}
}
