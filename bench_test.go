package arraycomp

// Benchmark harness: one benchmark family per experiment in
// EXPERIMENTS.md. The paper has no numbered tables/figures; its
// evaluation consists of worked examples plus performance claims, each
// regenerated here:
//
//	E1/E2  — analysis cost on the section 5 examples
//	E3     — wavefront: compiled vs thunked vs hand-written
//	E4     — pass-split scheduling (mixed < and > edges)
//	E5     — thunked fallback cost on the unschedulable cycle
//	E6/E7  — runtime collision/empties checks vs statically elided
//	E8     — LINPACK row swap: in-place node splitting vs copying
//	E9     — Jacobi: node splitting vs snapshot vs naive copying
//	E10    — SOR / Livermore 23: pure in-place updates
//	E11    — headline: thunkless ≈ hand-written, thunked far slower
//	E12    — dependence-test costs vs nesting depth
//	E13    — deforestation: fused loops vs intermediate lists

import (
	"fmt"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/codegen"
	"arraycomp/internal/core"
	"arraycomp/internal/deptest"
	"arraycomp/internal/parser"
	"arraycomp/internal/runtime"
	"arraycomp/internal/schedule"
	"arraycomp/internal/workloads"
)

// deadSourcePlan returns the in-place plan of def, the second sweep of
// workloads.TwoSweeps(src), whose source is dead after the update.
func deadSourcePlan(b *testing.B, src string, params map[string]int64, inputs map[string]*runtime.Strict, def string) *codegen.Plan {
	b.Helper()
	cd := mustCompileW(b, workloads.TwoSweeps(src), params, inputs, false).Defs[def]
	if cd.Mode() != "in-place" {
		b.Fatalf("%s compiled %s, want in-place", def, cd.Mode())
	}
	return cd.Plan
}

func mustCompileW(b *testing.B, src string, params map[string]int64, inputs map[string]*runtime.Strict, thunked bool) *core.Program {
	b.Helper()
	opts := core.Options{ForceThunked: thunked, InputBounds: map[string]analysis.ArrayBounds{}}
	for name, a := range inputs {
		opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	p, err := core.Compile(src, params, opts)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func runProg(b *testing.B, p *core.Program, inputs map[string]*runtime.Strict) {
	b.Helper()
	if _, err := p.Run(inputs); err != nil {
		b.Fatal(err)
	}
}

// --- E1/E2: analysis cost on the paper's examples ---

func BenchmarkE1_AnalyzeExample1(b *testing.B) {
	prog, err := parser.ParseProgram(workloads.Example1Src)
	if err != nil {
		b.Fatal(err)
	}
	def := prog.Defs[0]
	env := map[string]int64{"n": 100}
	bounds, _ := analysis.EvalBounds(def, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(def, env, bounds, nil, analysis.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_AnalyzeExample2(b *testing.B) {
	prog, err := parser.ParseProgram(workloads.Example2Src)
	if err != nil {
		b.Fatal(err)
	}
	def := prog.Defs[0]
	env := map[string]int64{"n": 10, "m": 20}
	bounds, _ := analysis.EvalBounds(def, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(def, env, bounds, nil, analysis.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: wavefront ---

func benchSizes() []int64 { return []int64{32, 128, 512} }

func BenchmarkE3_Wavefront(b *testing.B) {
	for _, n := range benchSizes() {
		params := map[string]int64{"n": n}
		b.Run(fmt.Sprintf("compiled/n=%d", n), func(b *testing.B) {
			p := mustCompileW(b, workloads.WavefrontSrc, params, nil, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runProg(b, p, nil)
			}
		})
		b.Run(fmt.Sprintf("thunked/n=%d", n), func(b *testing.B) {
			p := mustCompileW(b, workloads.WavefrontSrc, params, nil, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runProg(b, p, nil)
			}
		})
		b.Run(fmt.Sprintf("handwritten/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				workloads.HandWavefront(n)
			}
		})
	}
}

// --- E4: pass-split scheduling ---

func BenchmarkE4_MixedPass(b *testing.B) {
	n := int64(20_000)
	params := map[string]int64{"n": n}
	b.Run("compiled-2passes", func(b *testing.B) {
		p := mustCompileW(b, workloads.MixedPassSrc, params, nil, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, nil)
		}
	})
	b.Run("thunked", func(b *testing.B) {
		p := mustCompileW(b, workloads.MixedPassSrc, params, nil, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, nil)
		}
	})
}

// --- E5: unschedulable cycle must run thunked ---

func BenchmarkE5_ThunkedFallback(b *testing.B) {
	n := int64(20_000)
	params := map[string]int64{"n": n}
	p := mustCompileW(b, workloads.CyclicSrc, params, nil, false)
	if mode := p.Defs["a"].Mode(); mode != "thunked" {
		b.Fatalf("mode = %s", mode)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runProg(b, p, nil)
	}
}

// --- E6/E7: runtime checks vs elided checks ---

func BenchmarkE6E7_Checks(b *testing.B) {
	n := int64(100_000)
	// Elided: the even/odd interleave written with stride generators is
	// a provable permutation.
	elided := `a = array (1,n) ([ i := 1.0 | i <- [1,3..n-1] ] ++ [ i := 2.0 | i <- [2,4..n] ])`
	// Checked: the same array written with guards defeats the proof,
	// compiling collision checks, a definedness bitmap and a final
	// sweep.
	checked := `a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], i mod 2 == 1 ] ++
	   [ i := 2.0 | i <- [1..n], i mod 2 == 0 ])`
	params := map[string]int64{"n": n}
	b.Run("checks-elided", func(b *testing.B) {
		p := mustCompileW(b, elided, params, nil, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, nil)
		}
	})
	b.Run("checks-compiled", func(b *testing.B) {
		p := mustCompileW(b, checked, params, nil, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, nil)
		}
	})
}

// --- E8: LINPACK row swap ---

func BenchmarkE8_RowSwap(b *testing.B) {
	n := int64(512)
	params := workloads.ParamsFor("rowswap", n)
	in := workloads.Mesh(n, 7)
	inputs := map[string]*runtime.Strict{"a": in}
	b.Run("inplace-nodesplit", func(b *testing.B) {
		// Benchmark the raw in-place plan of a dead source (the second
		// sweep) on a scratch array, exactly like the hand-written
		// variant.
		plan := deadSourcePlan(b, workloads.RowSwapSrc, params, inputs, "a2")
		scratch := map[string]*runtime.Strict{"a1": in.Clone()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thunked-snapshot", func(b *testing.B) {
		p := mustCompileW(b, workloads.RowSwapSrc, params, inputs, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, inputs)
		}
	})
	b.Run("naive-copying", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workloads.NaiveRowSwapCopying(in, params["i0"], params["k0"])
		}
	})
	b.Run("handwritten", func(b *testing.B) {
		scratch := in.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			workloads.HandRowSwap(scratch, params["i0"], params["k0"])
		}
	})
}

// --- E9: Jacobi node splitting ---

func BenchmarkE9_Jacobi(b *testing.B) {
	for _, n := range []int64{64, 256} {
		params := map[string]int64{"n": n}
		in := workloads.Mesh(n, 8)
		inputs := map[string]*runtime.Strict{"a": in}
		b.Run(fmt.Sprintf("nodesplit/n=%d", n), func(b *testing.B) {
			plan := deadSourcePlan(b, workloads.JacobiSrc, params, inputs, "a2")
			scratch := map[string]*runtime.Strict{"a1": in.Clone()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("copyupdate/n=%d", n), func(b *testing.B) {
			p := mustCompileW(b, workloads.JacobiSrc, params, inputs, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runProg(b, p, inputs)
			}
		})
		b.Run(fmt.Sprintf("thunked-snapshot/n=%d", n), func(b *testing.B) {
			p := mustCompileW(b, workloads.JacobiSrc, params, inputs, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runProg(b, p, inputs)
			}
		})
		if n <= 64 {
			b.Run(fmt.Sprintf("naive-copying/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					workloads.NaiveJacobiCopying(in)
				}
			})
		}
		if n <= 64 {
			// The trailer baseline is O(updates²) when reading through a
			// stale version; larger sizes take minutes (hacbench e9
			// measures it at n=128).
			b.Run(fmt.Sprintf("trailer/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					workloads.TrailerJacobi(in)
				}
			})
		}
		b.Run(fmt.Sprintf("handwritten/n=%d", n), func(b *testing.B) {
			scratch := in.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workloads.HandJacobi(scratch)
			}
		})
	}
}

// --- E10: SOR and Livermore 23 pure in-place updates ---

func BenchmarkE10_SOR(b *testing.B) {
	n := int64(256)
	params := map[string]int64{"n": n}
	in := workloads.Mesh(n, 9)
	inputs := map[string]*runtime.Strict{"a": in}
	b.Run("inplace", func(b *testing.B) {
		plan := deadSourcePlan(b, workloads.SORSrc, params, inputs, "a2")
		scratch := map[string]*runtime.Strict{"a1": in.Clone()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thunked-snapshot", func(b *testing.B) {
		p := mustCompileW(b, workloads.SORSrc, params, inputs, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, inputs)
		}
	})
	b.Run("handwritten", func(b *testing.B) {
		scratch := in.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			workloads.HandSOR(scratch)
		}
	})
}

func BenchmarkE10_Livermore23(b *testing.B) {
	n := int64(128)
	params := map[string]int64{"n": n}
	inputs := workloads.Livermore23Inputs(n)
	b.Run("inplace", func(b *testing.B) {
		plan := deadSourcePlan(b, workloads.Livermore23Src, params, inputs, "za2")
		scratch := map[string]*runtime.Strict{}
		for k, v := range inputs {
			scratch[k] = v
		}
		scratch["za1"] = inputs["za"].Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thunked-snapshot", func(b *testing.B) {
		p := mustCompileW(b, workloads.Livermore23Src, params, inputs, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, inputs)
		}
	})
	b.Run("handwritten", func(b *testing.B) {
		za := inputs["za"].Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			workloads.HandLivermore23(za, inputs["zr"], inputs["zb"], inputs["zu"], inputs["zv"])
		}
	})
}

// --- E11: headline thunked vs thunkless vs hand-written ---

func BenchmarkE11_Headline(b *testing.B) {
	n := int64(100_000)
	params := map[string]int64{"n": n}
	for _, w := range []struct {
		name, src string
		hand      func()
	}{
		{"squares", workloads.SquaresSrc, func() { workloads.HandSquares(n) }},
		{"recurrence", workloads.RecurrenceSrc, func() { workloads.HandRecurrence(n) }},
	} {
		b.Run(w.name+"/thunkless", func(b *testing.B) {
			p := mustCompileW(b, w.src, params, nil, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runProg(b, p, nil)
			}
		})
		b.Run(w.name+"/thunked", func(b *testing.B) {
			p := mustCompileW(b, w.src, params, nil, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runProg(b, p, nil)
			}
		})
		b.Run(w.name+"/handwritten", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.hand()
			}
		})
	}
}

// --- E12: dependence test costs vs nesting depth ---

func depthProblem(d int) deptest.Problem {
	a := make([]int64, d)
	bb := make([]int64, d)
	m := make([]int64, d)
	for k := 0; k < d; k++ {
		a[k] = int64(k + 1)
		bb[k] = int64(k + 2)
		m[k] = 10
	}
	return deptest.NewProblem(0, a, 1, bb, m)
}

func BenchmarkE12_DepTests(b *testing.B) {
	for _, d := range []int{1, 2, 4, 8} {
		p := depthProblem(d)
		v := deptest.AnyVector(d)
		b.Run(fmt.Sprintf("gcd/depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := deptest.GCDTest(p, v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("banerjee/depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := deptest.BanerjeeTest(p, v, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		if d <= 2 {
			b.Run(fmt.Sprintf("exact/depth=%d", d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := deptest.ExactTest(p, v, deptest.DefaultExactBudget); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("refine/depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := deptest.RefineDirections(p, deptest.CombinedTester()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E13: deforestation ---

func BenchmarkE13_Deforestation(b *testing.B) {
	n := int64(100_000)
	x, y := workloads.Vector(n, 1), workloads.Vector(n, 2)
	var sink float64
	b.Run("cons-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = workloads.SumProductsConsList(x, y)
		}
	})
	b.Run("slice-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = workloads.SumProductsListComp(x, y)
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = workloads.SumProductsFused(x, y)
		}
	})
	_ = sink
}

// --- compile-time cost of the full pipeline ---

func BenchmarkCompileWavefront(b *testing.B) {
	params := map[string]int64{"n": 256}
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(workloads.WavefrontSrc, params, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleWavefront(b *testing.B) {
	prog, err := parser.ParseProgram(workloads.WavefrontSrc)
	if err != nil {
		b.Fatal(err)
	}
	env := map[string]int64{"n": 256}
	bounds, _ := analysis.EvalBounds(prog.Defs[0], env)
	res, err := analysis.Analyze(prog.Defs[0], env, bounds, nil, analysis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Build(res, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: the section 10 parallelization extension ---

func BenchmarkE14_Parallel(b *testing.B) {
	n := int64(768)
	params := map[string]int64{"n": n}
	in := workloads.Mesh(n, 14)
	inputs := map[string]*runtime.Strict{"b": in}
	compileP := func(parallel bool) *core.Program {
		opts := core.Options{
			Parallel:    parallel,
			InputBounds: map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}},
		}
		p, err := core.Compile(workloads.JacobiMonolithicSrc, params, opts)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("sequential", func(b *testing.B) {
		p := compileP(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, inputs)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		p := compileP(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runProg(b, p, inputs)
		}
	})
	b.Run("handwritten-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workloads.HandJacobiMonolithic(in)
		}
	})
}
