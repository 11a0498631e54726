package loopir_test

import (
	"fmt"
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
// schedules engage, compiled for 1, 2 and 4 workers, with stencil guard
// splitting off, and with every loop forced to the generic row form.
// Every executor runs the same row kernels in the same per-element
// order, and every form evaluates in the generic form's operation
// order, so each result must equal the thunked reference (ForceThunked)
// bit for bit; a lowering fault every tier shares fails it there. Every innermost loop of
// the dense kernels takes the strip form; the in-place Jacobi sweep's
// are its row snapshot copies and one store per row. Recurrences that read
// their own array d elements back, on both sides of the carried band's
// edges and at trips around the strip length, and an in-place update
// that reads its own array at distances 0 and +1, run streamed too.
func TestExecutorsBitwiseEquivalent(t *testing.T) {
	mesh := func(n, seed int64) *runtime.Strict { return workloads.Mesh(n, seed) }
	csr := workloads.CSRInputs(20000, 8, 5)
	hist := workloads.HistogramIdxInputs(40000, 256, 6, true)
	adj := workloads.AdjInputs(5000, 40000, 7)
	type bitwiseCase struct {
		name     string
		src      string
		params   map[string]int64
		inputs   map[string]*runtime.Strict
		schedule string // the kind the 2- and 4-worker plans must carry; "" for none
		stream   bool   // also run it streamed
		// strip: every innermost loop of the one-worker plan takes the
		// strip form.
		strip bool
	}
	cases := []bitwiseCase{
		{"sor", workloads.SORSrc, map[string]int64{"n": 384},
			map[string]*runtime.Strict{"a": mesh(384, 1)}, "wavefront", false, true},
		{"jacobi", workloads.JacobiSrc, map[string]int64{"n": 384},
			map[string]*runtime.Strict{"a": mesh(384, 2)}, "", false, true},
		{"l23", workloads.Livermore23Src, map[string]int64{"n": 256},
			workloads.Livermore23Inputs(256), "wavefront", false, true},
		{"wavefront", workloads.WavefrontSrc, map[string]int64{"n": 384}, nil, "wavefront", false, true},
		{"jacobi_oop", workloads.JacobiMonolithicSrc, map[string]int64{"n": 384},
			map[string]*runtime.Strict{"b": mesh(384, 3)}, "shard", false, true},
		{"spmv", workloads.SpMVSrc, csr.Params, csr.Inputs, "shard", false, false},
		{"histogram", workloads.HistogramIdxSrc, hist.Params, hist.Inputs, "shard", false, false},
		{"adjgather", workloads.AdjGatherSrc, adj.Params, adj.Inputs, "", false, false},
		{"in place ahead", aheadSrc, map[string]int64{"n": 3*strip + 7},
			map[string]*runtime.Strict{"x": mesh1(3*strip + 7)}, "", false, true},
		{"jacobi in place", workloads.TwoSweeps(workloads.JacobiSrc), map[string]int64{"n": 384},
			map[string]*runtime.Strict{"a": mesh(384, 4)}, "", false, true},
	}
	for _, d := range []int64{strip + 1, strip, strip - 1, 3, 1} {
		for _, trip := range []int64{1, strip - 1, strip + 1, 3*strip + 7} {
			n := d + trip
			cases = append(cases, bitwiseCase{fmt.Sprintf("recurrence d=%d trip=%d", d, trip), recurrenceSrc,
				map[string]int64{"n": n, "d": d}, map[string]*runtime.Strict{"x": mesh1(n)}, "", true, true})
		}
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
			if c.stream {
				configs = append(configs, struct {
					label   string
					opts    core.Options
					generic bool
				}{"stream w=2", core.Options{Parallel: true, Workers: 2, InputBounds: bounds, Stream: true}, false})
			}
			thunked, err := core.Compile(c.src, c.params, core.Options{ForceThunked: true, InputBounds: bounds})
			if err != nil {
				t.Fatalf("thunked: %v", err)
			}
			want, err := thunked.Run(c.inputs)
			if err != nil {
				t.Fatalf("thunked: %v", err)
			}
			ref := want.Data
			for _, cfg := range configs {
				old := loopir.SetGenericRows(cfg.generic)
				p, err := core.Compile(c.src, c.params, cfg.opts)
				loopir.SetGenericRows(old)
				if err != nil {
					t.Fatalf("%s: %v", cfg.label, err)
				}
				if cfg.opts.Stream && !p.StreamActive() {
					t.Fatalf("%s: did not stream: %s", cfg.label, p.StreamFallback())
				}
				if kinds := p.Stats.Counters.SchedulesByKind; c.schedule != "" &&
					(cfg.label == "w=2" || cfg.label == "w=4") && kinds[c.schedule] == 0 {
					t.Fatalf("%s: schedules %v, want a %s schedule", cfg.label, kinds, c.schedule)
				}
				if cfg.label == "w=1" && c.strip {
					requireInnerStrips(t, p.Defs[p.Result].Plan.Program)
				}
				out, err := p.Run(c.inputs)
				if err != nil {
					t.Fatalf("%s: %v", cfg.label, err)
				}
				if v := p.IdxVerify.Snapshot(); v.Failed != 0 {
					t.Fatalf("%s: %d claim verifications failed; the verified branch never ran", cfg.label, v.Failed)
				}
				if len(out.Data) != len(ref) {
					t.Fatalf("%s: %d elements, the thunked reference gave %d", cfg.label, len(out.Data), len(ref))
				}
				for i, v := range out.Data {
					if math.Float64bits(v) != math.Float64bits(ref[i]) {
						t.Fatalf("%s: element %d is %v, the thunked reference gave %v", cfg.label, i, v, ref[i])
					}
				}
			}
		})
	}
}

// requireInnerStrips fails unless every loop of prog with no loop in
// its body takes the strip form.
func requireInnerStrips(t *testing.T, prog *loopir.Program) {
	t.Helper()
	forms := loopir.RowForms(prog, false)
	k := 0
	loopir.Inspect(prog.Stmts, func(n any) bool {
		x, ok := n.(*loopir.Loop)
		if !ok {
			return true
		}
		inner := true
		loopir.Inspect(x.Body, func(n any) bool {
			_, nested := n.(*loopir.Loop)
			inner = inner && !nested
			return inner
		})
		if inner && forms[k] != "strip" {
			t.Fatalf("loop %s takes the %s form, want strip:\n%s", x.Var, forms[k], prog.Dump())
		}
		k++
		return true
	})
}

// recurrenceSrc copies x into its first d elements, then reads itself
// d and one elements back, the second under negation.
const recurrenceSrc = `param n, d;
a = array (1,n) ([ i := x!i | i <- [1..d] ] ++
  [ i := 0.5 * a!(i-d) - (- a!(i-1)) * 0.25 + x!i | i <- [d+1..n] ])`

// aheadSrc updates b in place from its own old values at distances 0
// and +1.
const aheadSrc = `param n;
letrec* b = array (1,n) [ i := x!i | i <- [1..n] ];
  c = bigupd b [ i := 0.5 * x!i + (b!(i+1) - b!i) * 0.25 | i <- [1..n-1] ]
in c`

// strip is the row kernels' strip length.
const strip = 256

// mesh1 is a rank-1 input over 1..n.
func mesh1(n int64) *runtime.Strict {
	a := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := range a.Data {
		a.Data[i] = math.Sin(float64(i)*0.7) * 4
	}
	return a
}
