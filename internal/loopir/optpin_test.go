package loopir_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// optCase is one program the optimizer pins and benchmarks cover.
type optCase struct {
	name   string
	src    string
	params map[string]int64
	inputs map[string]*runtime.Strict
}

// optWorkloads are the executor workloads at sizes where the planner
// attaches schedules.
func optWorkloads() []optCase {
	mesh := func(name string, n, seed int64) map[string]*runtime.Strict {
		return map[string]*runtime.Strict{name: workloads.Mesh(n, seed)}
	}
	csr := workloads.CSRInputs(20000, 8, 5)
	hist := workloads.HistogramIdxInputs(40000, 256, 6, true)
	adj := workloads.AdjInputs(5000, 40000, 7)
	cases := []optCase{
		{"sor", workloads.SORSrc, map[string]int64{"n": 384}, mesh("a", 384, 1)},
		{"wavefront", workloads.WavefrontSrc, map[string]int64{"n": 384}, nil},
		{"l23", workloads.Livermore23Src, map[string]int64{"n": 256}, workloads.Livermore23Inputs(256)},
		{"spmv", workloads.SpMVSrc, csr.Params, csr.Inputs},
		{"histogram", workloads.HistogramIdxSrc, hist.Params, hist.Inputs},
		{"adjgather", workloads.AdjGatherSrc, adj.Params, adj.Inputs},
	}
	for _, n := range []int64{192, 384} {
		cases = append(cases,
			optCase{fmt.Sprintf("jacobi-%d", n), workloads.JacobiSrc, map[string]int64{"n": n}, mesh("a", n, 2)},
			optCase{fmt.Sprintf("jacobi_oop-%d", n), workloads.JacobiMonolithicSrc, map[string]int64{"n": n}, mesh("b", n, 3)})
	}
	return cases
}

func boundsOf(inputs map[string]*runtime.Strict) map[string]analysis.ArrayBounds {
	out := map[string]analysis.ArrayBounds{}
	for name, a := range inputs {
		out[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	return out
}

// pinSum adds every definition's optimizer counters into sum and
// writes each optimized definition's dump, its row-kernel forms and,
// when certs is set, its plan certificates into h.
func pinSum(h hash.Hash, sum *loopir.OptStats, p *core.Program, certs bool) {
	for _, name := range p.Order {
		d := p.Defs[name]
		if d.Plan == nil || d.Plan.Opt == nil {
			continue
		}
		st := d.Plan.Opt
		sum.DeadLoops += st.DeadLoops
		sum.FusedLoops += st.FusedLoops
		sum.Unswitched += st.Unswitched
		sum.HoistedScalars += st.HoistedScalars
		sum.HoistedExprs += st.HoistedExprs
		sum.ReducedAccesses += st.ReducedAccesses
		sum.IndRegisters += st.IndRegisters
		sum.ParSchedules += st.ParSchedules
		sum.StencilSplits += st.StencilSplits
		sum.StencilGuards += st.StencilGuards
		prog := d.Plan.Program
		fmt.Fprintf(h, "%s\n%s%s\n", name, prog.Dump(), strings.Join(loopir.RowForms(prog, false), " "))
		if certs {
			rep := loopir.CertifyPlans(prog)
			fmt.Fprintf(h, "%s%v\n", rep, rep.Layers)
		}
	}
}

// TestOptimizerOutputPinned pins what the optimizer produces: the
// summed OptStats and one SHA-256 over every optimized definition's
// dump and row-kernel forms, for the gencomp corpus under the bench,
// the default and the hacc fuzz configurations, and for the executor
// workloads at 1, 2 and 4 workers (with their plan certificates). A
// change to any analysis the passes share moves one of them; a
// refactor must not.
func TestOptimizerOutputPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  gencomp.Config
		want loopir.OptStats
		hash string
	}{
		{"bench", gencomp.Config{ErrorWeight: -1, IdxWeight: 400},
			loopir.OptStats{FusedLoops: 114, HoistedScalars: 5, HoistedExprs: 34, ReducedAccesses: 711, IndRegisters: 508,
				StencilSplits: 5, StencilGuards: 17},
			"b46542af23a8d2ac8478ce957d91e2f8ed4a80eb09879cd4a404cc5845e686d1"},
		{"default", gencomp.Config{},
			loopir.OptStats{FusedLoops: 37, HoistedScalars: 9, HoistedExprs: 64, ReducedAccesses: 584, IndRegisters: 402,
				StencilSplits: 8, StencilGuards: 25},
			"67e89a1ab7ccfa6605e72241cedcee79a6a7b13b20269f6252f6ab8411023bbe"},
		{"fuzz", gencomp.Config{AccumWeight: 250},
			loopir.OptStats{FusedLoops: 41, HoistedScalars: 9, HoistedExprs: 66, ReducedAccesses: 874, IndRegisters: 534,
				StencilSplits: 5, StencilGuards: 19},
			"3abe6d945569b3b55459d6c1df351719f10b00f5ec625e09f031d1a3d952e49f"},
	} {
		h := sha256.New()
		var sum loopir.OptStats
		for seed := uint64(1); seed <= 400; seed++ {
			g := gencomp.Generate(seed, c.cfg)
			p, err := core.CompileProgram(g.Prog, g.Params, core.Options{InputBounds: g.Inputs, Parallel: true})
			if err != nil {
				fmt.Fprintf(h, "seed %d: %v\n", seed, err)
				continue
			}
			pinSum(h, &sum, p, false)
		}
		if got := hex.EncodeToString(h.Sum(nil)); sum != c.want || got != c.hash {
			t.Errorf("%s corpus: stats %+v hash %s\nwant stats %+v hash %s", c.name, sum, got, c.want, c.hash)
		}
	}

	h := sha256.New()
	var sum loopir.OptStats
	for _, c := range optWorkloads() {
		for _, w := range []int{1, 2, 4} {
			p, err := core.Compile(c.src, c.params, core.Options{Parallel: true, Workers: w, InputBounds: boundsOf(c.inputs)})
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.name, w, err)
			}
			fmt.Fprintf(h, "%s w=%d\n", c.name, w)
			pinSum(h, &sum, p, true)
		}
	}
	if sum.ParSchedules == 0 {
		t.Fatal("the workloads planned no parallel schedule")
	}
	want := loopir.OptStats{FusedLoops: 21, ReducedAccesses: 195, IndRegisters: 51, ParSchedules: 16}
	const wantHash = "2642680eaf6599272487cf6883741e26cb49cae87c7a540190f9edc9391a4832"
	if got := hex.EncodeToString(h.Sum(nil)); sum != want || got != wantHash {
		t.Errorf("workloads: stats %+v hash %s\nwant stats %+v hash %s", sum, got, want, wantHash)
	}
}

// BenchmarkOptimize runs the loop-IR optimizer over the bench-config
// gencomp corpus (seeds 1–400) and the executor workloads at 1, 2 and
// 4 workers: one op optimizes every lowered definition once. Each op
// decodes fresh copies of the lowered programs with the timer stopped,
// since the optimizer rewrites in place.
func BenchmarkOptimize(b *testing.B) {
	type lowered struct {
		enc     []byte
		workers int
	}
	var progs []lowered
	add := func(p *core.Program, workers int) {
		for _, name := range p.Order {
			if d := p.Defs[name]; d.Plan != nil {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(d.Plan.Program); err != nil {
					b.Fatal(err)
				}
				progs = append(progs, lowered{buf.Bytes(), workers})
			}
		}
	}
	for seed := uint64(1); seed <= 400; seed++ {
		g := gencomp.Generate(seed, gencomp.Config{ErrorWeight: -1, IdxWeight: 400})
		if p, err := core.CompileProgram(g.Prog, g.Params, core.Options{InputBounds: g.Inputs, Parallel: true, NoOptimize: true}); err == nil {
			add(p, 0)
		}
	}
	for _, c := range optWorkloads() {
		for _, w := range []int{1, 2, 4} {
			p, err := core.Compile(c.src, c.params, core.Options{Parallel: true, Workers: w, NoOptimize: true, InputBounds: boundsOf(c.inputs)})
			if err != nil {
				b.Fatal(err)
			}
			add(p, w)
		}
	}
	fresh := make([]*loopir.Program, len(progs))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		for i, lp := range progs {
			fresh[i] = &loopir.Program{}
			if err := gob.NewDecoder(bytes.NewReader(lp.enc)).Decode(fresh[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for i, p := range fresh {
			loopir.OptimizeWith(p, loopir.OptOptions{Workers: progs[i].workers})
		}
	}
}

// TestStreamPlansPinned pins the stream planner's verdict on every
// definition of the gencomp corpus under the default, hacc fuzz, bench
// and wide configurations (seeds 1–400), each optimized and not, and
// of E23's chain at three sizes: one SHA-256 over the plan string and
// loop count of each accepted definition and the reason of each
// rejected one. Write offsets are left out; the stage tests run every
// plan bitwise against the materialized executor.
func TestStreamPlansPinned(t *testing.T) {
	h := sha256.New()
	accepted, rejected := 0, 0
	pin := func(p *core.Program) {
		for _, name := range p.Order {
			d := p.Defs[name]
			if d.Plan == nil {
				continue
			}
			if sp, err := loopir.BuildStreamPlan(d.Plan.Program); err != nil {
				rejected++
				fmt.Fprintf(h, "%s: %v\n", name, err)
			} else {
				accepted++
				fmt.Fprintf(h, "%s: %s loops %d\n", name, sp, sp.Loops)
			}
		}
	}
	for _, cfg := range []gencomp.Config{
		{},
		{AccumWeight: 250},
		{ErrorWeight: -1, IdxWeight: 400},
		{MaxDefs: 5, MaxExtent: 40},
	} {
		for seed := uint64(1); seed <= 400; seed++ {
			g := gencomp.Generate(seed, cfg)
			for _, noOpt := range []bool{false, true} {
				p, err := core.CompileProgram(g.Prog, g.Params, core.Options{InputBounds: g.Inputs, NoOptimize: noOpt})
				if err != nil {
					fmt.Fprintf(h, "seed %d: %v\n", seed, err)
					continue
				}
				pin(p)
			}
		}
	}
	for _, n := range []int64{5, 64, 5000} {
		for _, noOpt := range []bool{false, true} {
			x := map[string]analysis.ArrayBounds{"x": {Lo: []int64{1}, Hi: []int64{n}}}
			p, err := core.Compile(workloads.StreamChainSrc(), map[string]int64{"n": n}, core.Options{InputBounds: x, NoOptimize: noOpt})
			if err != nil {
				t.Fatalf("chain n=%d: %v", n, err)
			}
			pin(p)
		}
	}
	const wantAccepted, wantRejected = 724, 3074
	const wantHash = "3934da307c6a255786d75ae866d0086401918c0a22f66df7ef1d2883d074c9a2"
	if got := hex.EncodeToString(h.Sum(nil)); accepted != wantAccepted || rejected != wantRejected || got != wantHash {
		t.Errorf("%d accepted, %d rejected, hash %s\nwant %d, %d, %s", accepted, rejected, got, wantAccepted, wantRejected, wantHash)
	}
}
