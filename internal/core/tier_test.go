package core_test

// The cross-tier differential harness: every corpus workload plus a
// sweep of gencomp-seeded programs runs through all three execution
// tiers — thunked reference, loop-IR interpreter, native compiled Go
// — and the outputs must be BITWISE identical. Bitwise, not within a
// tolerance: all three backends perform the same IEEE operations in
// the same order (the optimizer rewrites index arithmetic, never the
// float expression trees), inputs are dyadic rationals, and Go does
// not contract float expressions on amd64, so any difference at all
// is a code-generation bug. The suite also covers mid-run promotion
// (interpreted calls, then a hot-swap, then native calls over the
// same program value) and the promotion-race regression (64
// concurrent evaluations during a background build must coalesce
// onto one toolchain invocation and never observe a partial swap).

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/metrics"
	"arraycomp/internal/native"
	"arraycomp/internal/oracle"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// tierCase is one corpus workload of the differential table.
type tierCase struct {
	name   string
	src    string
	params map[string]int64
	inputs map[string]*runtime.Strict
	// wantThunked marks programs whose only schedule is the thunked
	// fallback; they are native-ineligible by construction and the
	// suite asserts exactly that.
	wantThunked bool
}

// tierCorpus is every runnable corpus workload.
func tierCorpus() []tierCase {
	n := int64(24)
	return []tierCase{
		{name: "squares", src: workloads.SquaresSrc, params: workloads.ParamsFor("squares", n)},
		{name: "recurrence", src: workloads.RecurrenceSrc, params: workloads.ParamsFor("recurrence", n)},
		{name: "wavefront", src: workloads.WavefrontSrc, params: workloads.ParamsFor("wavefront", n)},
		{name: "example1", src: workloads.Example1Src, params: workloads.ParamsFor("example1", n)},
		{name: "mixedpass", src: workloads.MixedPassSrc, params: workloads.ParamsFor("mixedpass", n)},
		{name: "cyclic", src: workloads.CyclicSrc, params: workloads.ParamsFor("cyclic", n), wantThunked: true},
		{name: "histogram", src: workloads.HistogramSrc, params: workloads.ParamsFor("histogram", n)},
		{name: "rowswap", src: workloads.RowSwapSrc, params: workloads.ParamsFor("rowswap", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 1)}},
		{name: "scalerow", src: workloads.ScaleRowSrc, params: workloads.ParamsFor("scalerow", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 2)}},
		{name: "saxpy", src: workloads.SaxpyRowSrc, params: workloads.ParamsFor("saxpy", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 3)}},
		{name: "jacobi", src: workloads.JacobiSrc, params: workloads.ParamsFor("jacobi", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 4)}},
		{name: "sor", src: workloads.SORSrc, params: workloads.ParamsFor("sor", n),
			inputs: map[string]*runtime.Strict{"a": workloads.Mesh(n, 5)}},
		{name: "livermore23", src: workloads.Livermore23Src, params: workloads.ParamsFor("livermore23", n),
			inputs: workloads.Livermore23Inputs(n)},
		{name: "jacobi-monolithic", src: workloads.JacobiMonolithicSrc, params: workloads.ParamsFor("jacobi-mono", n),
			inputs: map[string]*runtime.Strict{"b": workloads.Mesh(n, 6)}},
	}
}

func boundsOf(inputs map[string]*runtime.Strict) map[string]analysis.ArrayBounds {
	out := map[string]analysis.ArrayBounds{}
	for name, a := range inputs {
		out[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	return out
}

// bitwiseEqual fails the test unless a and b agree bit for bit.
func bitwiseEqual(t *testing.T, label string, a, b *runtime.Strict) {
	t.Helper()
	if !a.B.Equal(b.B) {
		t.Fatalf("%s: bounds differ: %s vs %s", label, a.B, b.B)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x (%v) vs %x (%v)",
				label, i, math.Float64bits(a.Data[i]), a.Data[i],
				math.Float64bits(b.Data[i]), b.Data[i])
		}
	}
}

// TestTierWorkloadsDifferential runs the whole corpus through all
// three tiers. All eligible workloads share ONE native toolchain
// build (batch emission) — the same discipline the oracle uses.
func TestTierWorkloadsDifferential(t *testing.T) {
	cases := tierCorpus()

	type leg struct {
		tc      tierCase
		interp  *core.Program // plain compile: interpreter tier
		thunked *core.Program // ForceThunked: reference tier
	}
	var legs []leg
	var specs []native.ProgramSpec
	for _, tc := range cases {
		opts := core.Options{InputBounds: boundsOf(tc.inputs)}
		interp, err := core.Compile(tc.src, tc.params, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		thOpts := opts
		thOpts.ForceThunked = true
		thunked, err := core.Compile(tc.src, tc.params, thOpts)
		if err != nil {
			t.Fatalf("%s: thunked compile: %v", tc.name, err)
		}
		spec, err := interp.NativeSpec(tc.name)
		if tc.wantThunked {
			if err == nil {
				t.Fatalf("%s: expected native-ineligible (thunked schedule), got a spec", tc.name)
			}
		} else if err != nil {
			t.Fatalf("%s: NativeSpec: %v", tc.name, err)
		} else {
			specs = append(specs, spec)
		}
		legs = append(legs, leg{tc: tc, interp: interp, thunked: thunked})
	}

	mod, err := native.Build(specs)
	if err != nil {
		t.Fatalf("native batch build: %v", err)
	}

	for _, l := range legs {
		l := l
		t.Run(l.tc.name, func(t *testing.T) {
			ref, err := l.thunked.Run(l.tc.inputs)
			if err != nil {
				t.Fatalf("thunked: %v", err)
			}
			got, tier, err := l.interp.RunTiered(l.tc.inputs)
			if err != nil {
				t.Fatalf("interpreted: %v", err)
			}
			wantTier := core.TierInterpreted
			if l.tc.wantThunked {
				wantTier = core.TierThunked
			}
			if tier != wantTier {
				t.Fatalf("interp leg served by %q, want %q", tier, wantTier)
			}
			bitwiseEqual(t, "thunked vs interpreted", ref, got)
			if l.tc.wantThunked {
				return
			}
			// Hot-swap the SAME program to native mid-run and re-run: the
			// swap must be invisible in the outputs.
			l.interp.AdoptNative(mod.Plan(l.tc.name))
			nat, tier, err := l.interp.RunTiered(l.tc.inputs)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			if tier != core.TierNative {
				t.Fatalf("post-adoption run served by %q, want native", tier)
			}
			bitwiseEqual(t, "interpreted vs native", got, nat)
			// Native must be as repeatable as the interpreter (the plan
			// must not retain state between calls).
			nat2, _, err := l.interp.RunTiered(l.tc.inputs)
			if err != nil {
				t.Fatalf("native rerun: %v", err)
			}
			bitwiseEqual(t, "native rerun", nat, nat2)
		})
	}
}

// TestTierGencompDifferential sweeps generated programs through all
// three tiers: 200 seeds (40 in -short), one shared native build.
func TestTierGencompDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	cfg := gencomp.Config{}

	type genCase struct {
		g       *gencomp.Program
		interp  *core.Program
		thunked *core.Program
		key     string
	}
	var cases []genCase
	var specs []native.ProgramSpec
	for seed := uint64(1); int(seed) <= seeds; seed++ {
		g := gencomp.Generate(seed, cfg)
		opts := core.Options{InputBounds: g.Inputs}
		interp, err := core.CompileProgram(g.Prog, g.Params, opts)
		if err != nil {
			continue // compile-rejected programs have no runnable tiers
		}
		thOpts := opts
		thOpts.ForceThunked = true
		thunked, err := core.CompileProgram(g.Prog, g.Params, thOpts)
		if err != nil {
			t.Fatalf("seed %d: thunked compile diverged: %v", seed, err)
		}
		c := genCase{g: g, interp: interp, thunked: thunked, key: fmt.Sprintf("seed%d", seed)}
		if spec, err := interp.NativeSpec(c.key); err == nil {
			specs = append(specs, spec)
		} else {
			c.key = "" // native-ineligible: two-tier comparison only
		}
		cases = append(cases, c)
	}
	if len(cases) == 0 || len(specs) == 0 {
		t.Fatal("generator produced no runnable/eligible programs — sweep is vacuous")
	}
	t.Logf("gencomp sweep: %d compiled, %d native-eligible", len(cases), len(specs))

	mod, err := native.Build(specs)
	if err != nil {
		t.Fatalf("native batch build: %v", err)
	}

	for _, c := range cases {
		inputs := oracle.FillInputs(c.g)
		ref, refErr := c.thunked.Run(inputs)
		got, gotErr := c.interp.Run(inputs)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: thunked err=%v, interpreted err=%v", c.g.Seed, refErr, gotErr)
		}
		if refErr == nil {
			bitwiseEqual(t, fmt.Sprintf("seed %d thunked vs interpreted", c.g.Seed), ref, got)
		}
		if c.key == "" {
			continue
		}
		c.interp.AdoptNative(mod.Plan(c.key))
		nat, natErr := c.interp.Run(inputs)
		if (gotErr == nil) != (natErr == nil) {
			t.Fatalf("seed %d: interpreted err=%v, native err=%v", c.g.Seed, gotErr, natErr)
		}
		if natErr == nil {
			bitwiseEqual(t, fmt.Sprintf("seed %d interpreted vs native", c.g.Seed), got, nat)
		}
	}
}

// TestTierMidRunPromotion drives the real tiering policy end to end:
// interpret below the threshold, promote synchronously at it, serve
// native after — with every output bitwise identical across the swap.
func TestTierMidRunPromotion(t *testing.T) {
	n := int64(16)
	in := map[string]*runtime.Strict{"a": workloads.Mesh(n, 7)}
	p, err := core.Compile(workloads.SORSrc, workloads.ParamsFor("sor", n), core.Options{
		InputBounds: boundsOf(in),
		Tier:        core.TierAuto,
		TierSync:    true, // deterministic: promote inline at the threshold call
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTiers := []core.Tier{
		core.TierInterpreted, core.TierInterpreted, // calls 1, 2
		core.TierNative, core.TierNative, core.TierNative, // threshold (3) onward
	}
	var first *runtime.Strict
	for i, want := range wantTiers {
		out, tier, err := p.RunTiered(in)
		if err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		if tier != want {
			t.Fatalf("call %d served by %q, want %q", i+1, tier, want)
		}
		if first == nil {
			first = out
		} else {
			bitwiseEqual(t, fmt.Sprintf("call %d vs call 1", i+1), first, out)
		}
	}
	if got, want := p.TierReport(), "tier: interpreted → native (promoted after 2 calls)"; got != want {
		t.Fatalf("TierReport = %q, want %q", got, want)
	}
	if p.CurrentTier() != core.TierNative {
		t.Fatalf("CurrentTier = %q, want native", p.CurrentTier())
	}
}

// TestTierParallelNativeForcedWorkers compares forced-workers parallel
// compiles across tiers at Workers 1, 2 and 4. The native tier runs its
// emitted kernels on the interpreter's executors at the plan's worker
// budget, so both tiers split the same loops the same way, and every
// result must match the sequential interpreter bitwise. Out-of-place
// Jacobi shards its outer loop, SpMV over sorted CSR rows is an aligned
// shard, and SOR is a wavefront.
func TestTierParallelNativeForcedWorkers(t *testing.T) {
	csr := workloads.CSRInputs(4000, 8, 5)
	cases := []struct {
		name, src string
		params    map[string]int64
		inputs    map[string]*runtime.Strict
		schedule  string // a substring of the plan at Workers ≥ 2
	}{
		{"jmono-par", workloads.JacobiMonolithicSrc, workloads.ParamsFor("jacobi-mono", 192),
			map[string]*runtime.Strict{"b": workloads.Mesh(192, 8)}, "[shard]"},
		{"spmv-par", workloads.SpMVSrc, csr.Params, csr.Inputs, "[shard aligned on"},
		{"sor-par", workloads.SORSrc, workloads.ParamsFor("sor", 384),
			map[string]*runtime.Strict{"a": workloads.Mesh(384, 9)}, "[wavefront"},
	}
	workers := []int{1, 2, 4}
	type run struct {
		key      string
		seq, par *core.Program
		inputs   map[string]*runtime.Strict
	}
	var runs []run
	var specs []native.ProgramSpec
	for _, c := range cases {
		seq, err := core.Compile(c.src, c.params, core.Options{InputBounds: boundsOf(c.inputs)})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			key := fmt.Sprintf("%s-w%d", c.name, w)
			par, err := core.Compile(c.src, c.params, core.Options{
				InputBounds: boundsOf(c.inputs),
				Parallel:    true,
				Workers:     w,
			})
			if err != nil {
				t.Fatal(err)
			}
			if w >= 2 {
				found := false
				for _, name := range par.Order {
					if cd := par.Defs[name]; cd.Plan != nil && strings.Contains(cd.Plan.Program.Dump(), c.schedule) {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: no plan carries a %q schedule", key, c.schedule)
				}
			}
			spec, err := par.NativeSpec(key)
			if err != nil {
				t.Fatalf("%s: parallel plan is native-ineligible: %v", key, err)
			}
			specs = append(specs, spec)
			runs = append(runs, run{key, seq, par, c.inputs})
		}
	}
	mod, err := native.Build(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		ref, err := r.seq.Run(r.inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.par.Run(r.inputs)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, r.key+": sequential vs parallel interpreter", ref, got)
		r.par.AdoptNative(mod.Plan(r.key))
		nat, tier, err := r.par.RunTiered(r.inputs)
		if err != nil {
			t.Fatal(err)
		}
		if tier != core.TierNative {
			t.Fatalf("%s: served by %q, want native", r.key, tier)
		}
		bitwiseEqual(t, r.key+": parallel interpreter vs parallel native", got, nat)
	}
}

// TestTierNativeProgramNames: an input array named lo, the name of the
// emitted shard closure's chunk bound, must not keep a sharded program
// off the native tier, and native must match the interpreter bitwise.
func TestTierNativeProgramNames(t *testing.T) {
	const n = 200000
	src := `param n;
a = array (1,n) [ i := lo!(i) * 2.0 | i <- [1..n] ]`
	lo := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := range lo.Data {
		lo.Data[i] = float64(i%97) / 8
	}
	inputs := map[string]*runtime.Strict{"lo": lo}
	p, err := core.Compile(src, map[string]int64{"n": n}, core.Options{
		InputBounds: boundsOf(inputs), Parallel: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Defs["a"].Plan.Program.Dump(); !strings.Contains(d, "[shard]") {
		t.Fatalf("no shard planned:\n%s", d)
	}
	spec, err := p.NativeSpec("lo")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := native.Build([]native.ProgramSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	p.AdoptNative(mod.Plan("lo"))
	got, tier, err := p.RunTiered(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tier != core.TierNative {
		t.Fatalf("served by %q, want native", tier)
	}
	bitwiseEqual(t, "interpreter vs native", ref, got)
}

// TestTierPromotionRace is the singleflight regression: 64 concurrent
// evaluations arriving while the background build runs must (a) never
// observe a partial swap — every call returns a complete, correct
// result from whichever tier serves it — and (b) coalesce onto ONE
// toolchain invocation. Run under -race this also proves the
// hot-swap itself is data-race free.
func TestTierPromotionRace(t *testing.T) {
	n := int64(16)
	in := map[string]*runtime.Strict{"a": workloads.Mesh(n, 9)}
	p, err := core.Compile(workloads.SORSrc, workloads.ParamsFor("sor", n), core.Options{
		InputBounds:   boundsOf(in),
		Tier:          core.TierAuto,
		TierThreshold: 1, // promote on the very first call
	})
	if err != nil {
		t.Fatal(err)
	}
	refProg, err := core.Compile(workloads.SORSrc, workloads.ParamsFor("sor", n),
		core.Options{InputBounds: boundsOf(in)})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refProg.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	before := native.Builds()
	const evals = 64
	outs := make([]*runtime.Strict, evals)
	errs := make([]error, evals)
	var wg sync.WaitGroup
	for i := 0; i < evals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = p.RunTiered(in)
		}(i)
	}
	wg.Wait()
	// Wait out the background build (PromoteNative joins the flight).
	if err := p.PromoteNative(); err != nil {
		t.Fatalf("promotion failed: %v", err)
	}
	if got := native.Builds() - before; got != 1 {
		t.Fatalf("native built %d times during the race, want exactly 1 (singleflight)", got)
	}
	for i := 0; i < evals; i++ {
		if errs[i] != nil {
			t.Fatalf("eval %d: %v", i, errs[i])
		}
		bitwiseEqual(t, fmt.Sprintf("eval %d", i), ref, outs[i])
	}
	out, tier, err := p.RunTiered(in)
	if err != nil {
		t.Fatal(err)
	}
	if tier != core.TierNative {
		t.Fatalf("post-promotion call served by %q, want native", tier)
	}
	bitwiseEqual(t, "post-promotion", ref, out)
}

// TestTierCertifiedPromotion proves the happy path of the certify
// gate: any tier mode forces -certify on, and a certified program
// promotes cleanly. (The refusal path needs an uncertified program
// with tiering state — constructible only white-box; see
// TestTierCertifyGateRefusal in tier_internal_test.go.)
func TestTierCertifiedPromotion(t *testing.T) {
	c, err := core.Compile(workloads.SquaresSrc, workloads.ParamsFor("squares", 8),
		core.Options{Tier: core.TierAuto})
	if err != nil {
		t.Fatal(err)
	}
	if c.Certs == nil {
		t.Fatal("Tier mode did not force -certify")
	}
	if err := c.PromoteNative(); err != nil {
		t.Fatalf("certified promotion failed: %v", err)
	}
	if c.CurrentTier() != core.TierNative {
		t.Fatalf("tier = %q after promotion, want native", c.CurrentTier())
	}
}

// TestTierFallbackWithoutPlugins drills a host where no plugin can be
// built: CC names a compiler that does not exist, so the cgo link of
// -buildmode=plugin fails the way it does on a cgo-less host. The
// promotion must fail exactly once, every call must keep serving the
// interpreted tier bitwise equal to a TierOff compile, and later calls
// must not start another build.
func TestTierFallbackWithoutPlugins(t *testing.T) {
	t.Setenv("CC", "/nonexistent/hac-cc")
	n := int64(16)
	in := map[string]*runtime.Strict{"a": workloads.Mesh(n, 7)}
	params := workloads.ParamsFor("sor", n)
	refProg, err := core.Compile(workloads.SORSrc, params, core.Options{InputBounds: boundsOf(in)})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refProg.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	// serveInterpreted runs p several times and checks every call.
	serveInterpreted := func(t *testing.T, p *core.Program, stats *metrics.TierStats) {
		t.Helper()
		before := native.Builds()
		for i := 0; i < 4; i++ {
			out, tier, err := p.RunTiered(in)
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if tier != core.TierInterpreted {
				t.Fatalf("call %d served by %q, want interpreted", i, tier)
			}
			bitwiseEqual(t, fmt.Sprintf("call %d", i), ref, out)
		}
		if got := native.Builds(); got != before {
			t.Fatalf("native.Builds() moved %d → %d without a plugin toolchain", before, got)
		}
		if rep := p.TierReport(); !strings.Contains(rep, "native build failed") {
			t.Fatalf("TierReport = %q, want the build failure", rep)
		}
		if got := stats.PromoteFailures.Load(); got != 1 {
			t.Fatalf("PromoteFailures = %d, want 1 (one build attempt)", got)
		}
		if got := stats.Promotions.Load(); got != 0 {
			t.Fatalf("Promotions = %d, want 0", got)
		}
	}

	t.Run("auto", func(t *testing.T) {
		var stats metrics.TierStats
		p, err := core.Compile(workloads.SORSrc, params, core.Options{
			InputBounds: boundsOf(in), Tier: core.TierAuto, TierSync: true,
			TierThreshold: 1, TierStats: &stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		serveInterpreted(t, p, &stats)
	})

	t.Run("forced", func(t *testing.T) {
		var stats metrics.TierStats
		p, err := core.Compile(workloads.SORSrc, params, core.Options{
			InputBounds: boundsOf(in), Tier: core.TierForced, TierStats: &stats,
		})
		if err != nil {
			t.Fatalf("forced tier without plugins failed the compile: %v", err)
		}
		if !strings.Contains(strings.Join(p.Notes, "\n"), "serving interpreted") {
			t.Fatalf("compile notes do not record the fallback: %q", p.Notes)
		}
		serveInterpreted(t, p, &stats)
	})
}

// TestTierNativeVerifyParity: the native tier's fast/checked dual
// lowering must report runtime-verifier verdicts identically to the
// interpreter — one verified tally per passing run, one failed tally
// per failing run, in both the program's own counters and the
// process-wide sink. (Regression: the emitted verifier used to run
// the check and silently drop the verdict, so the server's
// haccd_idxprop_verify_failures_total undercounted whenever a program
// ran native.)
func TestTierNativeVerifyParity(t *testing.T) {
	src := `s = array (1,n) [ p!(i) := x!(i) | i <- [1..n] ]`
	bounds := map[string]analysis.ArrayBounds{
		"x": {Lo: []int64{1}, Hi: []int64{4}},
		"p": {Lo: []int64{1}, Hi: []int64{4}},
	}
	strict4 := func(data ...float64) *runtime.Strict {
		return &runtime.Strict{B: runtime.Bounds{Lo: []int64{1}, Hi: []int64{4}}, Data: data}
	}
	x := strict4(10, 20, 30, 40)
	good := map[string]*runtime.Strict{"x": x, "p": strict4(4, 3, 2, 1)}
	bad := map[string]*runtime.Strict{"x": x, "p": strict4(1, 1, 2, 2)}

	run := func(p *core.Program, in map[string]*runtime.Strict, wantErr bool) *runtime.Strict {
		t.Helper()
		out, _, err := p.RunTiered(in)
		if wantErr != (err != nil) {
			t.Fatalf("run: err = %v, wantErr %v", err, wantErr)
		}
		return out
	}

	// Interpreter leg: one pass, one fail.
	var interpSink metrics.VerifyStats
	interp, err := core.Compile(src, map[string]int64{"n": 4}, core.Options{
		Parallel: true, Workers: 2, InputBounds: bounds, VerifyStats: &interpSink,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ref := run(interp, good, false)
	run(interp, bad, true)
	want := interp.IdxVerify.Snapshot()
	if want.Verified != 1 || want.Failed != 1 {
		t.Fatalf("interpreter tallies = %+v, want {1 1}", want)
	}

	// Native leg: identical traffic, identical tallies.
	var natSink metrics.VerifyStats
	nat, err := core.Compile(src, map[string]int64{"n": 4}, core.Options{
		Parallel: true, Workers: 2, InputBounds: bounds, VerifyStats: &natSink,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	spec, err := nat.NativeSpec("vparity")
	if err != nil {
		t.Fatalf("NativeSpec: %v", err)
	}
	plan, err := native.BuildOne(spec)
	if err != nil {
		t.Fatalf("native build: %v", err)
	}
	nat.AdoptNative(plan)
	if nat.CurrentTier() != core.TierNative {
		t.Fatalf("tier = %q, want native", nat.CurrentTier())
	}
	got := run(nat, good, false)
	bitwiseEqual(t, "native vs interpreted", ref, got)
	run(nat, bad, true)

	if snap := nat.IdxVerify.Snapshot(); snap != want {
		t.Fatalf("native tallies = %+v, interpreter recorded %+v (tier-inconsistent counters)", snap, want)
	}
	if snap := natSink.Snapshot(); snap != interpSink.Snapshot() {
		t.Fatalf("native sink = %+v, interpreter sink %+v", snap, interpSink.Snapshot())
	}
}
