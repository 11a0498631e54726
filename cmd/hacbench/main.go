// Command hacbench regenerates the experiment tables of EXPERIMENTS.md:
// for every experiment (E1–E20) it runs the relevant workloads through
// the compiled pipeline and the baselines and prints one table row per
// variant, including the qualitative expectation the paper states.
//
// Usage:
//
//	hacbench            # run every experiment
//	hacbench e3 e8 e11  # run a subset
//	hacbench -quick     # smaller sizes / shorter timing
//
// -json FILE merges machine-readable timings (label → ns/op and
// allocs/op) into FILE, keeping entries from earlier runs; -noopt
// disables the loop-IR optimizer and prefixes the labels with "noopt/"
// instead of "opt/", so two runs produce a pre/post comparison in one
// file:
//
//	hacbench -json BENCH.json -noopt e3 e9 e10 e11
//	hacbench -json BENCH.json        e3 e9 e10 e11
//
// cmd/benchdiff compares a -json file against a committed one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/benchcmp"
	"arraycomp/internal/cache"
	"arraycomp/internal/codegen"
	"arraycomp/internal/core"
	"arraycomp/internal/depgraph"
	"arraycomp/internal/deptest"
	"arraycomp/internal/idxprop"
	"arraycomp/internal/parser"
	"arraycomp/internal/runtime"
	"arraycomp/internal/schedule"
	"arraycomp/internal/serve"
	"arraycomp/internal/workloads"
)

var (
	quick    = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	noopt    = flag.Bool("noopt", false, "disable the loop-IR optimizer (pre/post comparisons)")
	jsonPath = flag.String("json", "", "merge machine-readable results into FILE")
	workersF = flag.Int("workers", 0, "bench parallel arms at this worker count only (0 = 1, 2 and NumCPU)")
)

var jsonResults = map[string]benchcmp.Result{}

func main() {
	flag.Parse()
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}
	all := len(want) == 0
	for _, exp := range experiments {
		if all || want[exp.id] {
			fmt.Printf("\n### %s — %s\n", strings.ToUpper(exp.id), exp.title)
			if exp.expect != "" {
				fmt.Printf("paper expectation: %s\n", exp.expect)
			}
			exp.run()
		}
	}
	writeJSON()
}

// writeJSON merges this run's results into -json FILE (earlier entries
// under other labels survive, so an opt and a noopt run accumulate).
func writeJSON() {
	if *jsonPath == "" {
		return
	}
	merged := map[string]benchcmp.Result{}
	if data, err := os.ReadFile(*jsonPath); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			die(fmt.Errorf("existing %s is not a result file: %v", *jsonPath, err))
		}
	}
	for k, v := range jsonResults {
		merged[k] = v
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	die(err)
	die(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
}

type experiment struct {
	id     string
	title  string
	expect string
	run    func()
}

func bench(label string, f func()) float64 {
	return benchW(label, 0, f)
}

// benchW records a parallel arm's worker count in the -json output.
func benchW(label string, workers int, f func()) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	fmt.Printf("  %-34s %14.0f ns/op\n", label, ns)
	if *jsonPath != "" {
		prefix := "opt/"
		if *noopt {
			prefix = "noopt/"
		}
		res := benchcmp.Result{NsPerOp: ns, AllocsPerOp: r.AllocsPerOp(), Workers: workers}
		// Every entry carries the measuring host so benchdiff can
		// refuse (or flag) cross-host comparisons.
		benchcmp.CurrentHost().Stamp(&res)
		jsonResults[prefix+label] = res
	}
	return ns
}

// record stores a non-timing measurement (byte counts
// here) under the same label scheme as timing results, so benchdiff's
// ratio engine gates it: a -minspeedup 'MATERIALIZED|PEAK|4.0' check
// over two byte labels asserts peak <= 25% of materialized. The value
// lands in the ns_per_op slot — the field is just "the gated number".
func record(label string, value float64) {
	fmt.Printf("  %-34s %14.0f bytes\n", label, value)
	if *jsonPath != "" {
		prefix := "opt/"
		if *noopt {
			prefix = "noopt/"
		}
		res := benchcmp.Result{NsPerOp: value}
		benchcmp.CurrentHost().Stamp(&res)
		jsonResults[prefix+label] = res
	}
}

// workerCounts returns the pool sizes the parallel arms measure:
// -workers pins a single count, otherwise 1, 2 and NumCPU (deduped).
func workerCounts() []int {
	if *workersF > 0 {
		return []int{*workersF}
	}
	counts := []int{1, 2}
	if ncpu := goruntime.NumCPU(); ncpu > 2 {
		counts = append(counts, ncpu)
	}
	return counts
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hacbench:", err)
		os.Exit(1)
	}
}

func compileW(src string, params map[string]int64, inputs map[string]*runtime.Strict, thunked bool) *core.Program {
	opts := core.Options{ForceThunked: thunked, NoOptimize: *noopt, InputBounds: map[string]analysis.ArrayBounds{}}
	for name, a := range inputs {
		opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	p, err := core.Compile(src, params, opts)
	die(err)
	return p
}

// deadSourcePlan compiles the one-definition bigupd src as the second
// sweep of workloads.TwoSweeps and returns that sweep's plan, named def:
// its source (the first sweep's result, named after the caller's array
// with a "1" suffix) is dead afterwards, so the plan updates it in place.
func deadSourcePlan(src string, params map[string]int64, inputs map[string]*runtime.Strict, def string) *codegen.Plan {
	cd := compileW(workloads.TwoSweeps(src), params, inputs, false).Defs[def]
	if cd.Mode() != "in-place" {
		die(fmt.Errorf("%s: second sweep compiled %s, want in-place", def, cd.Mode()))
	}
	return cd.Plan
}

func runP(p *core.Program, inputs map[string]*runtime.Strict) {
	_, err := p.Run(inputs)
	die(err)
}

func size(big, small int64) int64 {
	if *quick {
		return small
	}
	return big
}

func ratio(a, b float64) string { return fmt.Sprintf("%.1fx", a/b) }

var experiments = []experiment{
	{
		id: "e1", title: "section 5 example 1 dependence graph",
		expect: "edges 1→2 (<) and 1→3 (=); no collisions; no empties",
		run: func() {
			prog, err := parser.ParseProgram(workloads.Example1Src)
			die(err)
			env := map[string]int64{"n": 100}
			bounds, err := analysis.EvalBounds(prog.Defs[0], env)
			die(err)
			res, err := analysis.Analyze(prog.Defs[0], env, bounds, nil, analysis.Options{})
			die(err)
			printGraph(res)
			fmt.Printf("  collision=%s empties-excluded=%v\n", res.Collision, res.NoEmpties)
			sched, err := schedule.Build(res, nil)
			die(err)
			fmt.Printf("  schedule:\n%s", indent(sched.Dump(), "    "))
		},
	},
	{
		id: "e2", title: "section 5 example 2 dependence graph",
		expect: "edges 2→1 (=,>), 1→2 (<,>), 2→3 (<); i forward, j backward",
		run: func() {
			prog, err := parser.ParseProgram(workloads.Example2Src)
			die(err)
			env := map[string]int64{"n": 10, "m": 20}
			bounds, err := analysis.EvalBounds(prog.Defs[0], env)
			die(err)
			res, err := analysis.Analyze(prog.Defs[0], env, bounds, nil, analysis.Options{})
			die(err)
			printGraph(res)
			sched, err := schedule.Build(res, nil)
			die(err)
			fmt.Printf("  schedule:\n%s", indent(sched.Dump(), "    "))
		},
	},
	{
		id: "e3", title: "wavefront recurrence",
		expect: "thunkless ≪ thunked; close to hand-written loops",
		run: func() {
			n := size(256, 64)
			params := map[string]int64{"n": n}
			pc := compileW(workloads.WavefrontSrc, params, nil, false)
			pt := compileW(workloads.WavefrontSrc, params, nil, true)
			c := bench(fmt.Sprintf("compiled n=%d", n), func() { runP(pc, nil) })
			t := bench(fmt.Sprintf("thunked  n=%d", n), func() { runP(pt, nil) })
			h := bench(fmt.Sprintf("handwritten n=%d", n), func() { workloads.HandWavefront(n) })
			fmt.Printf("  thunked/compiled = %s, compiled/hand = %s\n", ratio(t, c), ratio(c, h))
		},
	},
	{
		id: "e4", title: "mixed (<)/(>) acyclic graph: pass splitting",
		expect: "schedulable in 2 passes (3 clauses collapse into 2 loops)",
		run: func() {
			n := size(20000, 2000)
			params := map[string]int64{"n": n}
			p := compileW(workloads.MixedPassSrc, params, nil, false)
			fmt.Printf("  mode=%s loop-passes=%d\n", p.Defs["a"].Mode(), p.Defs["a"].Schedule.LoopPasses)
			bench("compiled 2-pass", func() { runP(p, nil) })
			pt := compileW(workloads.MixedPassSrc, params, nil, true)
			bench("thunked", func() { runP(pt, nil) })
		},
	},
	{
		id: "e5", title: "cycle with both (<) and (>): thunk fallback",
		expect: "no static schedule exists; compiled with thunks",
		run: func() {
			n := size(20000, 2000)
			params := map[string]int64{"n": n}
			p := compileW(workloads.CyclicSrc, params, nil, false)
			fmt.Printf("  mode=%s\n", p.Defs["a"].Mode())
			bench("thunked fallback", func() { runP(p, nil) })
		},
	},
	{
		id: "e6", title: "write-collision detection",
		expect: "provable interleave: zero checks; guarded interleave: checks compiled",
		run: func() {
			n := size(100000, 10000)
			params := map[string]int64{"n": n}
			elided := `a = array (1,n) ([ i := 1.0 | i <- [1,3..n-1] ] ++ [ i := 2.0 | i <- [2,4..n] ])`
			checked := `a = array (1,n)
			  ([ i := 1.0 | i <- [1..n], i mod 2 == 1 ] ++
			   [ i := 2.0 | i <- [1..n], i mod 2 == 0 ])`
			pe := compileW(elided, params, nil, false)
			pcheck := compileW(checked, params, nil, false)
			fmt.Printf("  elided checks:  %+v\n", pe.Defs["a"].Plan.Checks)
			fmt.Printf("  runtime checks: %+v\n", pcheck.Defs["a"].Plan.Checks)
			e := bench("checks elided", func() { runP(pe, nil) })
			c := bench("checks compiled", func() { runP(pcheck, nil) })
			fmt.Printf("  checked/elided = %s\n", ratio(c, e))
		},
	},
	{
		id: "e7", title: "empties detection (permutation argument)",
		expect: "count==size + in-bounds + no collisions ⇒ no definedness tests",
		run: func() {
			params := map[string]int64{"n": 1000}
			p := compileW(workloads.SquaresSrc, params, nil, false)
			res := p.Defs["sq"].Analysis
			fmt.Printf("  squares: empties-excluded=%v checks=%+v\n", res.NoEmpties, p.Defs["sq"].Plan.Checks)
			partial := `a = array (1,n) [ i := 1.0 | i <- [1..n-1] ]`
			pp := compileW(partial, params, nil, false)
			fmt.Printf("  partial: empties-excluded=%v (%s)\n",
				pp.Defs["a"].Analysis.NoEmpties, pp.Defs["a"].Analysis.EmptiesDetail)
		},
	},
	{
		id: "e8", title: "LINPACK row swap (anti cycle, node splitting)",
		expect: "scalar-temp in-place ≪ thunked snapshot ≪ naive per-update copying",
		run: func() {
			n := size(512, 64)
			params := workloads.ParamsFor("rowswap", n)
			in := workloads.Mesh(n, 7)
			inputs := map[string]*runtime.Strict{"a": in}
			plan := deadSourcePlan(workloads.RowSwapSrc, params, inputs, "a2")
			scratch := map[string]*runtime.Strict{"a1": in.Clone()}
			ip := bench("in-place node-split", func() { _, err := plan.Run(scratch); die(err) })
			pt := compileW(workloads.RowSwapSrc, params, inputs, true)
			th := bench("thunked snapshot", func() { runP(pt, inputs) })
			nv := bench("naive per-update copying", func() { workloads.NaiveRowSwapCopying(in, params["i0"], params["k0"]) })
			hw := in.Clone()
			h := bench("hand-written", func() { workloads.HandRowSwap(hw, params["i0"], params["k0"]) })
			fmt.Printf("  naive/in-place = %s, thunked/in-place = %s, in-place/hand = %s\n",
				ratio(nv, ip), ratio(th, ip), ratio(ip, h))
		},
	},
	{
		id: "e9", title: "Jacobi step (carried anti deps, node splitting)",
		expect: "row snapshot temps; factor-n fewer copies than naive",
		run: func() {
			n := size(128, 32)
			params := map[string]int64{"n": n}
			in := workloads.Mesh(n, 8)
			inputs := map[string]*runtime.Strict{"a": in}
			plan := deadSourcePlan(workloads.JacobiSrc, params, inputs, "a2")
			for _, note := range plan.Notes {
				fmt.Printf("  note: %s\n", note)
			}
			scratch := map[string]*runtime.Strict{"a1": in.Clone()}
			ns := bench("node-split in-place", func() { _, err := plan.Run(scratch); die(err) })
			p := compileW(workloads.JacobiSrc, params, inputs, false)
			cu := bench("caller-owned copy-update", func() { runP(p, inputs) })
			pt := compileW(workloads.JacobiSrc, params, inputs, true)
			th := bench("thunked snapshot", func() { runP(pt, inputs) })
			nv := bench("naive per-update copying", func() { workloads.NaiveJacobiCopying(in) })
			tr := bench("trailer array", func() { workloads.TrailerJacobi(in) })
			hw := in.Clone()
			h := bench("hand-written (buffers)", func() { workloads.HandJacobi(hw) })
			fmt.Printf("  naive/split = %s, trailer/split = %s, thunked/split = %s, split/hand = %s, copy-update/hand = %s\n",
				ratio(nv, ns), ratio(tr, ns), ratio(th, ns), ratio(ns, h), ratio(cu, h))
		},
	},
	{
		id: "e10", title: "SOR / Livermore 23 wavefront (pure in-place)",
		expect: "all dependences agree with forward loops: no temps, no thunks",
		run: func() {
			n := size(256, 48)
			params := map[string]int64{"n": n}
			in := workloads.Mesh(n, 9)
			inputs := map[string]*runtime.Strict{"a": in}
			plan := deadSourcePlan(workloads.SORSrc, params, inputs, "a2")
			scratch := map[string]*runtime.Strict{"a1": in.Clone()}
			ip := bench("SOR in-place", func() { _, err := plan.Run(scratch); die(err) })
			p := compileW(workloads.SORSrc, params, inputs, false)
			cu := bench("SOR caller-owned copy-update", func() { runP(p, inputs) })
			hw := in.Clone()
			h := bench("SOR hand-written", func() { workloads.HandSOR(hw) })
			fmt.Printf("  in-place/hand = %s, copy-update/hand = %s\n", ratio(ip, h), ratio(cu, h))

			ln := size(128, 32)
			lp := map[string]int64{"n": ln}
			linputs := workloads.Livermore23Inputs(ln)
			lplan := deadSourcePlan(workloads.Livermore23Src, lp, linputs, "za2")
			lscratch := map[string]*runtime.Strict{}
			for k, v := range linputs {
				lscratch[k] = v
			}
			lscratch["za1"] = linputs["za"].Clone()
			lip := bench("Livermore23 in-place", func() { _, err := lplan.Run(lscratch); die(err) })
			pl := compileW(workloads.Livermore23Src, lp, linputs, false)
			lcu := bench("Livermore23 caller-owned copy-update", func() { runP(pl, linputs) })
			za := linputs["za"].Clone()
			lh := bench("Livermore23 hand-written", func() {
				workloads.HandLivermore23(za, linputs["zr"], linputs["zb"], linputs["zu"], linputs["zv"])
			})
			fmt.Printf("  in-place/hand = %s, copy-update/hand = %s\n", ratio(lip, lh), ratio(lcu, lh))
		},
	},
	{
		id: "e11", title: "headline: thunkless vs thunked vs hand-written",
		expect: "thunkless removes the dominant thunk costs (paper: comparable to Fortran)",
		run: func() {
			n := size(100000, 10000)
			params := map[string]int64{"n": n}
			for _, w := range []struct {
				name, src string
				hand      func()
			}{
				{"squares", workloads.SquaresSrc, func() { workloads.HandSquares(n) }},
				{"recurrence", workloads.RecurrenceSrc, func() { workloads.HandRecurrence(n) }},
			} {
				pc := compileW(w.src, params, nil, false)
				pt := compileW(w.src, params, nil, true)
				c := bench(w.name+" thunkless", func() { runP(pc, nil) })
				t := bench(w.name+" thunked", func() { runP(pt, nil) })
				h := bench(w.name+" hand-written", func() { w.hand() })
				fmt.Printf("  thunked/thunkless = %s, thunkless/hand = %s\n", ratio(t, c), ratio(c, h))
			}
		},
	},
	{
		id: "e12", title: "dependence test cost vs nesting depth",
		expect: "GCD and Banerjee linear in depth; exact test exponential",
		run: func() {
			for _, d := range []int{1, 2, 4, 8} {
				p := mkDepthProblem(d)
				v := deptest.AnyVector(d)
				bench(fmt.Sprintf("gcd depth=%d", d), func() { _, _ = deptest.GCDTest(p, v) })
				bench(fmt.Sprintf("banerjee depth=%d", d), func() { _, _ = deptest.BanerjeeTest(p, v, true) })
				if d <= 2 {
					bench(fmt.Sprintf("exact depth=%d", d), func() { _, _ = deptest.ExactTest(p, v, deptest.DefaultExactBudget) })
				}
			}
		},
	},
	{
		id: "e13", title: "deforestation: intermediate lists vs fused loops",
		expect: "fused ≪ slice list ≪ cons list",
		run: func() {
			n := size(100000, 10000)
			x, y := workloads.Vector(n, 1), workloads.Vector(n, 2)
			var sink float64
			c := bench("cons list", func() { sink = workloads.SumProductsConsList(x, y) })
			s := bench("slice list", func() { sink = workloads.SumProductsListComp(x, y) })
			f := bench("fused loop", func() { sink = workloads.SumProductsFused(x, y) })
			_ = sink
			fmt.Printf("  cons/fused = %s, slice/fused = %s\n", ratio(c, f), ratio(s, f))
		},
	}, {
		id: "e14", title: "section 10 extension: parallel dependence-free loops",
		expect: "loops with no carried dependences shard across CPUs (parity on 1 CPU)",
		run: func() {
			n := size(768, 128)
			params := map[string]int64{"n": n}
			in := workloads.Mesh(n, 14)
			inputs := map[string]*runtime.Strict{"b": in}
			mk := func(parallel bool) *core.Program {
				opts := core.Options{
					Parallel:    parallel,
					NoOptimize:  *noopt,
					InputBounds: map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}},
				}
				p, err := core.Compile(workloads.JacobiMonolithicSrc, params, opts)
				die(err)
				return p
			}
			ps := mk(false)
			pp := mk(true)
			s := bench("sequential", func() { runP(ps, inputs) })
			p := bench("parallel", func() { runP(pp, inputs) })
			fmt.Printf("  sequential/parallel = %s (GOMAXPROCS-bound)\n", ratio(s, p))
		},
	}, {
		id: "e16", title: "parallel engine v2: doacross/wavefront/tiling schedules",
		expect: "wavefront nests scale with workers on multi-CPU hosts; parity at 1 worker",
		run: func() {
			type kernel struct {
				name, src, def string
				n              int64
				inputs         map[string]*runtime.Strict
				scratch        func() map[string]*runtime.Strict
			}
			sorN := size(256, 48)
			sorIn := workloads.Mesh(sorN, 9)
			l23N := size(128, 32)
			l23In := workloads.Livermore23Inputs(l23N)
			l23Scratch := func() map[string]*runtime.Strict {
				s := map[string]*runtime.Strict{}
				for k, v := range l23In {
					s[k] = v
				}
				s["za1"] = l23In["za"].Clone()
				return s
			}
			// SOR and Livermore 23 time the in-place plan of a second
			// sweep, whose source (a1, za1) is dead afterwards.
			kernels := []kernel{
				{"SOR", workloads.TwoSweeps(workloads.SORSrc), "a2", sorN,
					map[string]*runtime.Strict{"a": sorIn},
					func() map[string]*runtime.Strict { return map[string]*runtime.Strict{"a1": sorIn.Clone()} }},
				{"Livermore23", workloads.TwoSweeps(workloads.Livermore23Src), "za2", l23N, l23In, l23Scratch},
				{"wavefront", workloads.WavefrontSrc, "a", size(256, 64), nil,
					func() map[string]*runtime.Strict { return nil }},
				{"recurrence", workloads.RecurrenceSrc, "a", size(100000, 10000), nil,
					func() map[string]*runtime.Strict { return nil }},
			}
			for _, k := range kernels {
				params := map[string]int64{"n": k.n}
				mkOpts := func(parallel bool, workers int) core.Options {
					opts := core.Options{
						Parallel: parallel, Workers: workers, NoOptimize: *noopt,
						InputBounds: map[string]analysis.ArrayBounds{},
					}
					for name, a := range k.inputs {
						opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
					}
					return opts
				}
				ps, err := core.Compile(k.src, params, mkOpts(false, 0))
				die(err)
				seqPlan := ps.Defs[k.def].Plan
				scratch := k.scratch()
				s := bench(k.name+" seq", func() { _, err := seqPlan.Run(scratch); die(err) })
				for _, w := range workerCounts() {
					pp, err := core.Compile(k.src, params, mkOpts(true, w))
					die(err)
					plan := pp.Defs[k.def].Plan
					pscratch := k.scratch()
					p := benchW(fmt.Sprintf("%s par w=%d", k.name, w), w,
						func() { _, err := plan.Run(pscratch); die(err) })
					fmt.Printf("    seq/par(w=%d) = %s\n", w, ratio(s, p))
				}
			}
		},
	}, {
		id: "e17", title: "plan cache: cached vs cold compile-and-run",
		expect: "warm requests skip parse/analyze/lower; cached ≈ run-only, ≪ cold",
		run: func() {
			n := size(96, 32)
			params := map[string]int64{"n": n}
			src := workloads.WavefrontSrc
			cold := bench(fmt.Sprintf("cold compile+run n=%d", n), func() {
				p, err := core.Compile(src, params, core.Options{NoOptimize: *noopt})
				die(err)
				_, err = p.Run(nil)
				die(err)
			})
			compileOnly := bench(fmt.Sprintf("compile only n=%d", n), func() {
				_, err := core.Compile(src, params, core.Options{NoOptimize: *noopt})
				die(err)
			})
			c := cache.New(64, 0)
			warm := bench(fmt.Sprintf("cached compile+run n=%d", n), func() {
				e, _, err := c.GetOrCompile(src, params, core.Options{NoOptimize: *noopt})
				die(err)
				_, err = e.Program.Run(nil)
				die(err)
			})
			pre, err := core.Compile(src, params, core.Options{NoOptimize: *noopt})
			die(err)
			runOnly := bench(fmt.Sprintf("run only n=%d", n), func() { runP(pre, nil) })
			fmt.Printf("  cold/cached = %s, cached/run-only = %s, compile share of cold = %.0f%%\n",
				ratio(cold, warm), ratio(warm, runOnly), 100*compileOnly/cold)
			fmt.Printf("  cache stats: %s\n", c.Stats())
		},
	}, {
		id: "e19", title: "tiered native execution: interpreted vs promoted native vs hand",
		expect: "promoted native within 1.5x of hand-written loops under the same calling contract " +
			"(fresh defensive copy of mutated inputs per evaluation)",
		run: func() {
			type kernel struct {
				name, src string
				n         int64
				inputs    map[string]*runtime.Strict
				hand      func() // same contract: clones what it mutates, every call
			}
			sorN := size(256, 48)
			sorIn := workloads.Mesh(sorN, 9)
			l23N := size(128, 32)
			l23In := workloads.Livermore23Inputs(l23N)
			wfN := size(256, 64)
			kernels := []kernel{
				{"wavefront", workloads.WavefrontSrc, wfN, nil,
					func() { workloads.HandWavefront(wfN) }},
				{"SOR", workloads.SORSrc, sorN,
					map[string]*runtime.Strict{"a": sorIn},
					func() { workloads.HandSOR(sorIn.Clone()) }},
				{"Livermore23", workloads.Livermore23Src, l23N, l23In,
					func() {
						workloads.HandLivermore23(l23In["za"].Clone(),
							l23In["zr"], l23In["zb"], l23In["zu"], l23In["zv"])
					}},
			}
			for _, k := range kernels {
				params := map[string]int64{"n": k.n}
				mkOpts := func(tier core.TierMode) core.Options {
					opts := core.Options{NoOptimize: *noopt, Tier: tier, TierSync: true,
						InputBounds: map[string]analysis.ArrayBounds{}}
					for name, a := range k.inputs {
						opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
					}
					return opts
				}
				pi := compileProg(k.src, params, mkOpts(core.TierOff))
				pn := compileProg(k.src, params, mkOpts(core.TierForced))
				if got := pn.CurrentTier(); got != core.TierNative {
					// Without a working toolchain the tier degrades; the
					// numbers below would silently measure the interpreter.
					die(fmt.Errorf("%s did not reach the native tier: %s", k.name, pn.TierReport()))
				}
				i := bench(k.name+" interpreted", func() { runP(pi, k.inputs) })
				nv := bench(k.name+" native", func() { runP(pn, k.inputs) })
				h := bench(k.name+" hand-written", k.hand)
				fmt.Printf("  interp/native = %s, native/hand = %s  (build %v)\n",
					ratio(i, nv), ratio(nv, h), pn.TierBuildTime().Round(time.Millisecond))
			}
		},
	}, {
		id: "e20", title: "stencil specialization: BCE interiors, native tier, multicore scaling",
		expect: "interior/boundary splitting + slice-based interior loops keep native SOR and " +
			"wavefront at or under hand-written; sharded stencil interiors scale with workers at GOMAXPROCS>1",
		run: func() {
			// Part 1: the two stencil kernels the speedup wall gates,
			// native (gogen BCE interior) against hand-written loops
			// under the same calling contract.
			type kernel struct {
				name, src string
				n         int64
				inputs    map[string]*runtime.Strict
				hand      func()
			}
			sorN := size(256, 48)
			sorIn := workloads.Mesh(sorN, 9)
			wfN := size(256, 64)
			kernels := []kernel{
				{"wavefront stencil", workloads.WavefrontSrc, wfN, nil,
					func() { workloads.HandWavefront(wfN) }},
				{"SOR stencil", workloads.SORSrc, sorN,
					map[string]*runtime.Strict{"a": sorIn},
					func() { workloads.HandSOR(sorIn.Clone()) }},
			}
			for _, k := range kernels {
				params := map[string]int64{"n": k.n}
				mkOpts := func(tier core.TierMode) core.Options {
					opts := core.Options{NoOptimize: *noopt, Tier: tier, TierSync: true,
						InputBounds: map[string]analysis.ArrayBounds{}}
					for name, a := range k.inputs {
						opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
					}
					return opts
				}
				pi := compileProg(k.src, params, mkOpts(core.TierOff))
				pn := compileProg(k.src, params, mkOpts(core.TierForced))
				if got := pn.CurrentTier(); got != core.TierNative {
					die(fmt.Errorf("%s did not reach the native tier: %s", k.name, pn.TierReport()))
				}
				i := bench(k.name+" interp", func() { runP(pi, k.inputs) })
				nv := bench(k.name+" native", func() { runP(pn, k.inputs) })
				h := bench(k.name+" hand", k.hand)
				fmt.Printf("  interp/native = %s, native/hand = %s\n", ratio(i, nv), ratio(nv, h))
			}
			// Part 2: multicore scaling of a sharded elementwise stencil.
			// workers=1 is always measured so a -workers N run still
			// produces the w=1 reference the speedup wall divides by.
			n := size(768, 128)
			in := workloads.Mesh(n, 14)
			inputs := map[string]*runtime.Strict{"b": in}
			params := map[string]int64{"n": n}
			counts := []int{1}
			for _, w := range workerCounts() {
				if w != 1 {
					counts = append(counts, w)
				}
			}
			var w1 float64
			for _, w := range counts {
				opts := core.Options{
					Parallel: true, Workers: w, NoOptimize: *noopt,
					InputBounds: map[string]analysis.ArrayBounds{"b": {Lo: in.B.Lo, Hi: in.B.Hi}},
				}
				p, err := core.Compile(workloads.JacobiMonolithicSrc, params, opts)
				die(err)
				ns := benchW(fmt.Sprintf("jacobi stencil par w=%d", w), w,
					func() { runP(p, inputs) })
				if w == 1 {
					w1 = ns
				} else if w1 > 0 {
					fmt.Printf("    w=1/w=%d = %s (GOMAXPROCS-bound)\n", w, ratio(w1, ns))
				}
			}
		},
	}, {
		id: "e21", title: "fleet serving: batched /eval vs sequential round trips; disk-tier restart",
		expect: "one /evalbatch round trip amortizes HTTP + decode + cache-lookup overhead: >=3x over " +
			"64 sequential /eval calls on a cold cache; a disk-restored plan loads much faster than a cold compile",
		run: func() {
			// Part 1: the batch argument, measured through the real HTTP
			// stack. Each iteration uses a fresh program (unique cache
			// key) so both arms pay one cold compile; the difference is
			// 64 round trips + 64 request decodes vs 1.
			const batchN = 64
			srv, err := serve.New(serve.Config{
				CacheEntries: 8, CacheBytes: 64 << 20, MaxBody: 16 << 20,
				Concurrency: 64, Timeout: 60 * time.Second,
			})
			die(err)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := &http.Client{Timeout: 60 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			n := size(64, 16)
			var iter int
			freshSrc := func() string {
				iter++
				return fmt.Sprintf("a = array (1,n) [ j := j*%d.0 + j | j <- [1..n] ]", iter)
			}
			post := func(path string, body any) {
				data, err := json.Marshal(body)
				die(err)
				resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(string(data)))
				die(err)
				if resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(resp.Body)
					die(fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, msg))
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			type evalReq struct {
				Source string           `json:"source"`
				Params map[string]int64 `json:"params"`
				Seed   int64            `json:"seed,omitempty"`
			}
			type batchReq struct {
				Source string             `json:"source"`
				Params map[string]int64   `json:"params"`
				Evals  []map[string]int64 `json:"evals"`
			}
			params := map[string]int64{"n": n}
			seq := bench(fmt.Sprintf("eval x%d sequential cold", batchN), func() {
				src := freshSrc()
				for i := 0; i < batchN; i++ {
					post("/eval", evalReq{Source: src, Params: params, Seed: int64(i)})
				}
			})
			evals := make([]map[string]int64, batchN)
			for i := range evals {
				evals[i] = map[string]int64{"seed": int64(i)}
			}
			batch := bench(fmt.Sprintf("evalbatch x%d cold", batchN), func() {
				post("/evalbatch", batchReq{Source: freshSrc(), Params: params, Evals: evals})
			})
			fmt.Printf("  sequential/batch = %s (gate: >= 3.0x)\n", ratio(seq, batch))

			// Part 2: the restart-warmth argument. A certified plan
			// persisted to the disk tier restores (snapshot decode + loop-IR
			// recompile) without parse/analyze/plan/lower/optimize/
			// certify; cold pays all of them.
			dir, err := os.MkdirTemp("", "hacbench-disk-")
			die(err)
			defer os.RemoveAll(dir)
			wfN := size(96, 32)
			wfParams := map[string]int64{"n": wfN}
			certOpts := core.Options{NoOptimize: *noopt, Certify: true}
			seedCache := cache.New(4, 0)
			die(seedCache.EnableDisk(dir))
			_, _, err = seedCache.GetOrCompile(workloads.WavefrontSrc, wfParams, certOpts)
			die(err)
			if st := seedCache.Stats(); st.DiskWrites != 1 {
				die(fmt.Errorf("plan was not persisted (disk writes = %d)", st.DiskWrites))
			}
			cold := bench(fmt.Sprintf("plan cold compile+certify n=%d", wfN), func() {
				_, err := core.Compile(workloads.WavefrontSrc, wfParams, certOpts)
				die(err)
			})
			restore := bench(fmt.Sprintf("plan disk restore n=%d", wfN), func() {
				c := cache.New(4, 0)
				die(c.EnableDisk(dir))
				_, origin, err := c.GetOrCompile(workloads.WavefrontSrc, wfParams, certOpts)
				die(err)
				if origin != cache.OriginDisk {
					die(fmt.Errorf("restore served from %s, not disk", origin))
				}
			})
			fmt.Printf("  cold/restore = %s\n", ratio(cold, restore))
		},
	}, {
		id: "e22", title: "irregular workloads: subscripted-subscript parallelization (SpMV, histogram, gather)",
		expect: "runtime-verified index-array claims admit parallel irregular loops: SpMV at 4 workers " +
			">= 1.5x over the claims-off (checked sequential) path; the verifier itself is one O(nnz) pass",
		run: func() {
			// Part 1: CSR SpMV. Without the index-property layer the
			// accumulation scatter through row cannot parallelize (or
			// drop its collision tracking); with verified monotone+range
			// claims it shards across the pool on aligned chunks. Both
			// arms pay the same per-run work otherwise, so the ratio is
			// the price of not knowing the index array's properties.
			spmvN := size(20000, 2000)
			spmv := workloads.CSRInputs(spmvN, 8, 22)
			nnz := spmv.Params["nnz"]
			mkOpts := func(c workloads.SparseCase, extra core.Options) core.Options {
				opts := extra
				opts.NoOptimize = *noopt
				opts.InputBounds = map[string]analysis.ArrayBounds{}
				for name, a := range c.Inputs {
					opts.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
				}
				return opts
			}
			compileCase := func(src string, c workloads.SparseCase, extra core.Options) *core.Program {
				p, err := core.Compile(src, c.Params, mkOpts(c, extra))
				die(err)
				return p
			}
			pOff := compileCase(workloads.SpMVSrc, spmv, core.Options{NoIdxProp: true, Parallel: true, Workers: 4})
			off := benchW(fmt.Sprintf("spmv claims-off nnz=%d", nnz), 4, func() { runP(pOff, spmv.Inputs) })
			// One worker, whatever -workers says: the claims-off path is
			// sequential too, so this ratio is the verified branch's row
			// kernel and verifier against the checked closure tree on
			// one thread, and holds on any host.
			p1 := compileCase(workloads.SpMVSrc, spmv, core.Options{Parallel: true, Workers: 1})
			one := benchW(fmt.Sprintf("spmv par w=1 nnz=%d", nnz), 1, func() { runP(p1, spmv.Inputs) })
			fmt.Printf("    claims-off/par(w=1) = %s\n", ratio(off, one))
			for _, w := range workerCounts() {
				pw := compileCase(workloads.SpMVSrc, spmv, core.Options{Parallel: true, Workers: w})
				p := benchW(fmt.Sprintf("spmv par w=%d", w), w, func() { runP(pw, spmv.Inputs) })
				fmt.Printf("    claims-off/par(w=%d) = %s\n", w, ratio(off, p))
			}
			// The verifier's own cost: one pass over the row array —
			// the overhead every claim-conditional run pays before the
			// parallel region.
			rowData := spmv.Inputs["row"].Data
			rowClaims := idxprop.Claims{
				{Array: "row", Kind: idxprop.KMonoNonDec},
				{Array: "row", Kind: idxprop.KRange, Lo: 1, Hi: spmvN},
			}
			vf := bench(fmt.Sprintf("verify pass nnz=%d", nnz), func() {
				if v := idxprop.Verify(rowData, rowClaims); !v.OK {
					die(fmt.Errorf("CSR rows failed verification: %s", v.Reason))
				}
			})
			fmt.Printf("    verify share of claims-off run = %.1f%%\n", 100*vf/off)

			// Part 2: data-dependent histogram, pre-bucketed (monotone)
			// samples: same aligned-shard story on an accumArray.
			histN := size(200000, 20000)
			hist := workloads.HistogramIdxInputs(histN, 512, 23, true)
			hOff := compileCase(workloads.HistogramIdxSrc, hist, core.Options{NoIdxProp: true, Parallel: true, Workers: 4})
			ho := benchW(fmt.Sprintf("histogram claims-off n=%d", histN), 4, func() { runP(hOff, hist.Inputs) })
			for _, w := range workerCounts() {
				hw := compileCase(workloads.HistogramIdxSrc, hist, core.Options{Parallel: true, Workers: w})
				p := benchW(fmt.Sprintf("histogram par w=%d", w), w, func() { runP(hw, hist.Inputs) })
				fmt.Printf("    claims-off/par(w=%d) = %s\n", w, ratio(ho, p))
			}

			// Part 3: adjacency gather. The write side is affine, so the
			// loop parallelizes either way; the range claim's value is
			// eliding the per-element bounds/integrality checks on the
			// indirect read.
			adjN := size(50000, 5000)
			adj := workloads.AdjInputs(adjN, 4*adjN, 24)
			gOff := compileCase(workloads.AdjGatherSrc, adj, core.Options{NoIdxProp: true, Parallel: true, Workers: 4})
			go4 := benchW(fmt.Sprintf("adjgather claims-off m=%d", 4*adjN), 4, func() { runP(gOff, adj.Inputs) })
			gOn := compileCase(workloads.AdjGatherSrc, adj, core.Options{Parallel: true, Workers: 4})
			gn := benchW(fmt.Sprintf("adjgather par w=%d", 4), 4, func() { runP(gOn, adj.Inputs) })
			fmt.Printf("    checked/unchecked = %s\n", ratio(go4, gn))

			// Part 4: the fallback tax. A shuffled (non-CSR) entry order
			// fails verification every run and takes the checked
			// sequential path — the cost of a violating index array is
			// one wasted verify pass, never a wrong answer.
			bad := workloads.ShuffleRows(spmv, 25)
			pBad := compileCase(workloads.SpMVSrc, bad, core.Options{Parallel: true, Workers: 4})
			fb := benchW(fmt.Sprintf("spmv violating fallback nnz=%d", nnz), 4, func() { runP(pBad, bad.Inputs) })
			fmt.Printf("    fallback/claims-off = %s (gate: ~1.0x)\n", ratio(fb, off))
		},
	}, {
		id: "e23", title: "streaming execution: bounded-memory chunked pipelines",
		expect: "a long bounded-distance chain streams through O(stages*chunk) sliding windows: emit-mode " +
			"peak resident <= 25% of the materialized store at n >= 1e6, results bitwise-identical",
		run: func() {
			n := size(1<<20, 1<<17)
			src := workloads.StreamChainSrc()
			params := map[string]int64{"n": n}
			in := workloads.Vector(n, 31)
			inputs := map[string]*runtime.Strict{"x": in}
			bounds := map[string]analysis.ArrayBounds{"x": {Lo: in.B.Lo, Hi: in.B.Hi}}
			pm := compileProg(src, params, core.Options{NoOptimize: *noopt, InputBounds: bounds})
			ps := compileProg(src, params, core.Options{NoOptimize: *noopt, Stream: true, InputBounds: bounds})
			if !ps.StreamActive() {
				die(fmt.Errorf("pipeline did not stream: %s", ps.StreamFallback()))
			}
			// Bitwise identity first — the mode's contract. One run each.
			want, err := pm.Run(inputs)
			die(err)
			got, tier, err := ps.RunTiered(inputs)
			die(err)
			if tier != core.TierStream {
				die(fmt.Errorf("streamed run reported tier %s, want stream", tier))
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					die(fmt.Errorf("streamed result diverges at element %d", i))
				}
			}
			m := bench(fmt.Sprintf("stream pipeline materialized n=%d", n), func() { runP(pm, inputs) })
			c := bench(fmt.Sprintf("stream pipeline collect n=%d", n), func() {
				_, _, err := ps.RunTiered(inputs)
				die(err)
			})
			discard := func(int64, []float64) error { return nil }
			e := bench(fmt.Sprintf("stream pipeline emit n=%d", n), func() {
				_, err := ps.RunStream(inputs, discard)
				die(err)
			})
			// Emit mode is the true streaming shape (/evalstream ships
			// chunks without materializing the result); its peak
			// accounting is what the 25% wall gates.
			rep, err := ps.RunStream(inputs, discard)
			die(err)
			record(fmt.Sprintf("stream peak-bytes n=%d", n), float64(rep.PeakBytes))
			record(fmt.Sprintf("stream materialized-bytes n=%d", n), float64(rep.MaterializedBytes))
			fmt.Printf("  stages=%d chunk=%d window_d=%d chunks=%d\n", rep.Stages, rep.ChunkSize, rep.MaxDist, rep.Chunks)
			fmt.Printf("  peak/materialized = %.1f%% (gate: <= 25%%), collect/materialized = %s, emit/materialized = %s\n",
				100*float64(rep.PeakBytes)/float64(rep.MaterializedBytes), ratio(c, m), ratio(e, m))
		},
	},
}

func compileProg(src string, params map[string]int64, opts core.Options) *core.Program {
	p, err := core.Compile(src, params, opts)
	die(err)
	return p
}

func mkDepthProblem(d int) deptest.Problem {
	a := make([]int64, d)
	b := make([]int64, d)
	m := make([]int64, d)
	for k := 0; k < d; k++ {
		a[k] = int64(k + 1)
		b[k] = int64(k + 2)
		m[k] = 10
	}
	return deptest.NewProblem(0, a, 1, b, m)
}

func printGraph(res *analysis.Result) {
	edges := append([]depgraph.Edge(nil), res.Graph.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].String() < edges[j].String() })
	for _, e := range edges {
		fmt.Printf("  edge: clause%d -> clause%d %s %s\n", e.Src, e.Dst, e.Kind, e.Dir)
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
