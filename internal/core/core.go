// Package core is the compiler pipeline of the reproduction: parse →
// flatten/normalize → subscript analysis → dependence graph → static
// scheduling → code generation, per array definition, with definitions
// ordered by their array-level dependences and mutually recursive
// groups falling back to thunked evaluation.
//
// A Program is compiled against one binding of its scalar parameters
// (the paper's statically-known loop bounds) and can then be run any
// number of times over different input arrays.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/certify"
	"arraycomp/internal/codegen"
	"arraycomp/internal/depgraph"
	"arraycomp/internal/idxprop"
	"arraycomp/internal/lang"
	"arraycomp/internal/loopir"
	"arraycomp/internal/metrics"
	"arraycomp/internal/parser"
	"arraycomp/internal/runtime"
	"arraycomp/internal/schedule"
)

// Options tunes compilation.
type Options struct {
	// ExactBudget bounds each exact dependence test (0 = default).
	ExactBudget int
	// ForceThunked skips scheduling and compiles every definition with
	// the general thunked representation (the naive baseline; used for
	// ablation benchmarks).
	ForceThunked bool
	// Parallel emits dependence-free loops as parallel loops sharded
	// across CPUs (the paper's section 10 extension), and lets the
	// optimizer attach doacross schedules (wavefront bands) to loops
	// with regular carried dependences.
	Parallel bool
	// Workers fixes the parallel worker budget of compiled plans and
	// the worker target their tiles are sized for. 0 reads GOMAXPROCS
	// at each run and plans for a default cohort, so the plan does not
	// depend on the compiling host; 1 forces sequential execution.
	// Plans ignore it unless Parallel is set. It is also the cohort
	// width budget of a streaming pipeline (Stream), resolved the same
	// way and capped by the stage count and GOMAXPROCS: how many
	// workers share the stages.
	Workers int
	// NoLinearize disables the §6 linearization refinement for
	// multi-dimensional subscripts (ablation).
	NoLinearize bool
	// ForceChecks keeps every runtime check (collision, definedness,
	// bounds, final empties sweep) in compiled plans even when the
	// analysis proved them redundant. Used by the differential-testing
	// oracle: for a correct compiler the forced checks must never fire
	// on programs the reference semantics accepts.
	ForceChecks bool
	// NoOptimize skips the loop-IR optimizer (fusion, invariant
	// hoisting, strength-reduced subscripts, interpreter fast paths
	// keyed on the optimized shapes). Compiled plans then execute the
	// lowered nest exactly as the scheduler built it — the oracle's
	// ablation arm for cross-checking optimized vs unoptimized runs.
	NoOptimize bool
	// NoStencil keeps the optimizer but disables stencil guard
	// splitting: no interior/boundary clones. The `stencil` oracle
	// ablation arm cross-checks this against the split plans bitwise.
	NoStencil bool
	// NoIdxProp disables the subscripted-subscript conditional layer
	// (index-array property claims, dual lowering, runtime verifier):
	// indirect subscripts then compile on the fully checked sequential
	// path only. The `idxprop` oracle ablation arm cross-checks this
	// against the claim-conditional plans bitwise.
	NoIdxProp bool
	// InputBounds declares the bounds of free input arrays (arrays read
	// but not defined by the program), required to compile reads of
	// them.
	InputBounds map[string]analysis.ArrayBounds
	// Certify audits every dependence verdict the compiler acted on:
	// dependent claims must produce a re-checked witness, independent
	// claims are cross-validated by exhaustive enumeration over a
	// bounded shadow domain, emitted schedules are simulated against
	// raw accesses, and parallel plans are checked against brute-force
	// conflict sets. Any falsified claim aborts the compile with an
	// error naming the lying layer.
	Certify bool
	// Tier selects the tiered-execution policy (see TierMode). Any
	// mode other than TierOff implies Certify: uncertified programs
	// never tier up, so compilation runs the audit up front.
	Tier TierMode
	// TierThreshold is the number of interpreted calls before TierAuto
	// promotes (0 = DefaultTierThreshold).
	TierThreshold int
	// TierSync makes TierAuto promote synchronously at the threshold
	// call instead of in the background — deterministic tier traces
	// for CLI goldens and tests.
	TierSync bool
	// TierStats, when non-nil, receives this program's per-tier run
	// and promotion counters (shared process-wide by haccd). Not part
	// of the compilation key: it is a sink, not an input.
	TierStats *metrics.TierStats
	// VerifyStats, when non-nil, receives runtime index-property
	// verifier verdicts (shared process-wide by haccd). Like
	// TierStats, a sink — not part of the compilation key.
	VerifyStats *metrics.VerifyStats
	// Stream requests bounded-memory streaming execution: when every
	// definition passes the window-legality analysis
	// (loopir.BuildStreamPlan), Run executes the pipeline as chunked
	// producer/consumer stages over O(d)-sized windows instead of
	// materialized arrays, bit-identical to the materialized path.
	// Programs the analysis rejects fall back to materialized
	// execution with a note. Part of the compilation key.
	Stream bool
}

// CompiledDef is the compilation artifact of one definition.
type CompiledDef struct {
	Def      *lang.ArrayDef
	Analysis *analysis.Result
	Schedule *schedule.Result
	// Plan is the thunkless compiled plan, nil when Thunked is used.
	Plan *codegen.Plan
	// Thunked is the fallback evaluator, nil when Plan is used.
	Thunked *codegen.ThunkedPlan
	// GroupIdx ≥ 0 marks membership in a mutually recursive group
	// evaluated together (Plan and Thunked are both nil then).
	GroupIdx int
	// CloneSource is always false: a bigupd whose source outlives it
	// compiles to a copy-update plan that owns its copy, so no plan
	// needs a clone before it runs. Kept for existing readers.
	CloneSource bool
}

// Mode describes how the definition was compiled.
func (d *CompiledDef) Mode() string {
	switch {
	case d.GroupIdx >= 0:
		return "thunked-group"
	case d.Plan != nil && d.Plan.InPlace:
		return "in-place"
	case d.Plan != nil && d.Plan.CopyUpdate:
		return "copy-update"
	case d.Plan != nil:
		return "thunkless"
	default:
		return "thunked"
	}
}

// Program is a compiled program.
type Program struct {
	Source *lang.Program
	Env    map[string]int64
	// Steps is the evaluation order: single definitions and recursive
	// groups interleaved.
	Defs map[string]*CompiledDef
	// Order lists definition names in evaluation order.
	Order []string
	// Groups holds the mutually recursive groups (by analysis results).
	Groups [][]*analysis.Result
	Result string
	Notes  []string
	// Stats is the instrumentation record of this compilation: where
	// the time went (per phase) and which optimizations fired. It is
	// written single-threaded during Compile and read-only afterwards,
	// so cached programs may share it across concurrent readers.
	Stats *metrics.CompileReport
	// Certs aggregates the soundness certificates when Options.Certify
	// was set (nil otherwise). A compile that returns succeeds only
	// with zero falsifications.
	Certs *certify.Report
	// IdxVerify accumulates runtime index-property verifier verdicts
	// across this program's runs (atomic: cached programs are shared).
	IdxVerify metrics.VerifyStats
	// verifySink is the optional process-wide verdict sink
	// (Options.VerifyStats), kept so the native tier can report its
	// batched verdict deltas to the same place the interpreter hook
	// feeds.
	verifySink *metrics.VerifyStats
	// tier is the tiered-execution state (nil when Options.Tier was
	// TierOff and no native plan was adopted).
	tier *tierState
	// streamSt is the streaming-mode state (nil when Options.Stream
	// was off).
	streamSt *streamState
	// allThunked records that every live definition compiled to the
	// thunked reference representation, making the interpreter tier
	// the semantics baseline rather than the scheduler's loop nests.
	allThunked bool
	// workers is Options.Workers, the native tier's worker budget.
	workers int
}

// Compile parses and compiles source under the given parameter binding.
func Compile(src string, params map[string]int64, opts Options) (*Program, error) {
	rep := metrics.NewCompileReport()
	t0 := time.Now()
	prog, err := parser.ParseProgram(src)
	rep.AddPhase(metrics.PhaseParse, time.Since(t0))
	if err != nil {
		return nil, err
	}
	return compileProgram(prog, params, opts, rep)
}

// CompileProgram compiles an already parsed program.
func CompileProgram(source *lang.Program, params map[string]int64, opts Options) (*Program, error) {
	return compileProgram(source, params, opts, metrics.NewCompileReport())
}

func compileProgram(source *lang.Program, params map[string]int64, opts Options, rep *metrics.CompileReport) (*Program, error) {
	certifyForcedByTier := false
	if opts.Tier != TierOff && !opts.Certify {
		// Uncertified programs never tier up; run the audit now so a
		// later promotion has a certificate to check.
		opts.Certify = true
		certifyForcedByTier = true
	}
	env := map[string]int64{}
	for k, v := range params {
		env[k] = v
	}
	for _, q := range source.Params {
		if _, ok := env[q.Name]; !ok {
			return nil, fmt.Errorf("core: parameter %q not bound", q.Name)
		}
	}
	p := &Program{
		Source: source,
		Env:    env,
		Defs:   map[string]*CompiledDef{},
		Result: source.Result,
		Stats:  rep,
	}
	if source.Def(source.Result) == nil {
		return nil, fmt.Errorf("core: result array %q is not defined", source.Result)
	}
	if opts.Certify {
		p.Certs = certify.NewReport()
	}
	// certifyMerge folds one certifier's certificates into the program
	// report, charges its time to the certifier's layer there, and
	// aborts the compile on any falsification. certified sums the time
	// it charges to the certify phase.
	var certified time.Duration
	certifyMerge := func(name, layer string, crep *certify.Report, t0 time.Time) error {
		d := time.Since(t0)
		certified += d
		rep.AddPhase(metrics.PhaseCertify, d)
		p.Certs.Merge(crep)
		p.Certs.AddTime(layer, d)
		rep.Counters.ClaimsCertified += crep.CertifiedCount
		rep.Counters.ClaimsFalsified += crep.FalsifiedCount
		rep.Counters.ClaimsSkipped += crep.SkippedCount
		if err := crep.Err(); err != nil {
			return fmt.Errorf("core: %s: %w", name, err)
		}
		return nil
	}

	// Resolve bounds for every definition (bigupd inherits its
	// source's bounds), then order definitions.
	bounds := map[string]analysis.ArrayBounds{}
	for name, b := range opts.InputBounds {
		bounds[name] = b
	}
	// Non-bigupd bounds first; bigupd may chain through other bigupds.
	for _, def := range source.Defs {
		if def.Kind != lang.BigUpd {
			b, err := analysis.EvalBounds(def, env)
			if err != nil {
				return nil, err
			}
			bounds[def.Name] = b
		}
	}
	for changed := true; changed; {
		changed = false
		for _, def := range source.Defs {
			if def.Kind != lang.BigUpd {
				continue
			}
			if _, done := bounds[def.Name]; done {
				continue
			}
			if b, ok := bounds[def.Source]; ok {
				bounds[def.Name] = b
				changed = true
			}
		}
	}
	for _, def := range source.Defs {
		if _, ok := bounds[def.Name]; !ok {
			return nil, fmt.Errorf("core: cannot resolve bounds of %s (bigupd source %q unknown — declare it via InputBounds)", def.Name, def.Source)
		}
	}

	// Analyze every definition. The certifiers that run inside this
	// loop charge the certify phase, not analyze.
	tAnalyze := time.Now()
	results := map[string]*analysis.Result{}
	aOpts := analysis.Options{ExactBudget: opts.ExactBudget, NoLinearize: opts.NoLinearize}
	for _, def := range source.Defs {
		external := map[string]analysis.ArrayBounds{}
		for name, b := range bounds {
			if name != def.Name {
				external[name] = b
			}
		}
		res, err := analysis.Analyze(def, env, bounds[def.Name], external, aOpts)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", def.Name, err)
		}
		results[def.Name] = res
		if res.Cond != nil && !opts.NoIdxProp {
			// Static discharge: a claim about an index array whose own
			// defining comprehension is visible in-program is proven by
			// inference over that definition; the rest stay runtime
			// claims and compile to a verifier guard.
			nStatic := 0
			for i := range res.Cond.Claims {
				c := &res.Cond.Claims[i]
				if d := source.Def(c.Array); d != nil {
					if props, ok := idxprop.Infer(d, env); ok && props.Satisfies(*c) {
						c.Static = true
					}
				}
				if c.Static {
					nStatic++
				}
			}
			rep.Counters.IdxClaims += len(res.Cond.Claims)
			rep.Counters.IdxClaimsStatic += nStatic
			p.note("%s: idxprop claims %s (%d/%d static)",
				def.Name, res.Cond.Claims, nStatic, len(res.Cond.Claims))
			if opts.Certify {
				t0 := time.Now()
				if err := certifyMerge(def.Name, "idxprop", certifyStaticClaims(res.Cond.Claims, source, env), t0); err != nil {
					return nil, err
				}
			}
		}
		if opts.Certify {
			t0 := time.Now()
			if err := certifyMerge(def.Name, "analysis", analysis.Certify(res), t0); err != nil {
				return nil, err
			}
		}
	}
	rep.AddPhase(metrics.PhaseAnalyze, time.Since(tAnalyze)-certified)

	// Definition-level dependence graph and evaluation order.
	order, groups, err := orderDefs(source, results)
	if err != nil {
		return nil, err
	}
	// Dead-definition elimination: a binding the result does not
	// (transitively) need is never evaluated — the natural operational
	// reading of a non-strict letrec.
	live := liveDefs(source, results)
	var pruned []string
	for _, name := range order {
		if live[name] {
			pruned = append(pruned, name)
		} else {
			p.note("%s: not needed by %s; dropped (dead binding)", name, source.Result)
		}
	}
	order = pruned
	var liveGroups [][]*analysis.Result
	for _, g := range groups {
		if live[g[0].Def.Name] {
			liveGroups = append(liveGroups, g)
		}
	}
	groups = liveGroups
	p.Order = order
	p.Groups = groups

	grouped := map[string]int{}
	for gi, g := range groups {
		for _, res := range g {
			grouped[res.Def.Name] = gi
		}
	}

	// Liveness: does any later definition read this array?
	lastReader := map[string]int{}
	for pos, name := range order {
		res := results[name]
		for ext := range res.ExternalReads {
			lastReader[ext] = pos
		}
		if res.Def.Kind == lang.BigUpd {
			lastReader[res.Def.Source] = pos
		}
	}

	for pos, name := range order {
		def := source.Def(name)
		res := results[name]
		cd := &CompiledDef{Def: def, Analysis: res, GroupIdx: -1}
		p.Defs[name] = cd
		if gi, ok := grouped[name]; ok {
			cd.GroupIdx = gi
			rep.Counters.ThunkedDefs++
			p.note("%s: mutually recursive with its group; thunked group evaluation", name)
			continue
		}
		external := map[string]analysis.ArrayBounds{}
		for n, b := range bounds {
			if n != name {
				external[n] = b
			}
		}
		if opts.ForceThunked {
			cd.Thunked = newThunked(res, rep)
			p.note("%s: thunked (forced)", name)
			continue
		}
		if !def.Strict {
			// A plain letrec gives no strict-context guarantee: the
			// caller may tie a hidden recursive knot through this array
			// (the paper's `letrec a = g (f a)` example), so thunkless
			// compilation is unsafe. This is exactly why the paper
			// introduces letrec*.
			cd.Thunked = newThunked(res, rep)
			p.note("%s: non-strict binding (plain letrec): thunked; use letrec* for thunkless compilation", name)
			continue
		}
		if def.Kind == lang.Accumulated && readsItself(res) {
			// The reference rejects each instance that reads the array
			// it accumulates; the thunked plan applies that rule.
			cd.Thunked = newThunked(res, rep)
			p.note("%s: accumArray reads itself: thunked, which rejects every instance that does", name)
			continue
		}
		// A bigupd whose source outlives the update (a caller's input,
		// or read by a later definition) copies the source into a fresh
		// result and reads old values from the source, so its anti edges
		// vanish; only a dead source is updated in place.
		copyUpdate := false
		if def.Kind == lang.BigUpd {
			lr, read := lastReader[def.Source]
			copyUpdate = source.Def(def.Source) == nil || read && lr > pos
		}
		tPlan := time.Now()
		var keep func(depgraph.Edge) bool
		anti := schedule.AntiOrdered
		if copyUpdate {
			keep, anti = schedule.KeepFlowOutput, schedule.AntiCopied
		}
		sched, err := schedule.Build(res, keep)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		if sched.Thunked && def.Kind == lang.BigUpd && !copyUpdate {
			// Relax the anti edges; node splitting repairs the
			// violated ones during lowering.
			relaxed, err := schedule.Build(res, schedule.KeepFlowOutput)
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", name, err)
			}
			if !relaxed.Thunked {
				p.note("%s: anti-dependence cycle broken by node splitting (%s)", name, sched.Reason)
				sched = relaxed
				anti = schedule.AntiSplit
			}
		}
		rep.AddPhase(metrics.PhasePlan, time.Since(tPlan))
		cd.Schedule = sched
		if sched.Thunked {
			cd.Thunked = newThunked(res, rep)
			p.note("%s: thunked fallback: %s", name, sched.Reason)
			continue
		}
		if opts.Certify {
			t0 := time.Now()
			if err := certifyMerge(name, "schedule", schedule.Certify(res, sched, anti), t0); err != nil {
				return nil, err
			}
		}
		tLower := time.Now()
		plan, err := codegen.Lower(res, sched, external, codegen.LowerOptions{Parallel: opts.Parallel, ForceChecks: opts.ForceChecks, NoOptimize: opts.NoOptimize, Workers: opts.Workers, NoStencil: opts.NoStencil, NoIdxProp: opts.NoIdxProp, CopyUpdate: copyUpdate})
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		// Lower times the optimizer internally; split it out so the
		// report's "lower" phase is pure codegen.
		rep.AddPhase(metrics.PhaseLower, time.Since(tLower)-plan.OptTime)
		rep.AddPhase(metrics.PhaseOptimize, plan.OptTime)
		recordPlanStats(rep, res, plan)
		cd.Plan = plan
		p.installVerifyHook(plan.Exec, opts.VerifyStats)
		if opts.Certify {
			t0 := time.Now()
			if err := certifyMerge(name, "plan", loopir.CertifyPlans(plan.Program), t0); err != nil {
				return nil, err
			}
			t0 = time.Now()
			if err := certifyMerge(name, "stencil", loopir.CertifySplits(plan.Program), t0); err != nil {
				return nil, err
			}
			t0 = time.Now()
			var static idxprop.Claims
			if res.Cond != nil && !opts.NoIdxProp {
				for _, c := range res.Cond.Claims {
					if c.Static {
						static = append(static, c)
					}
				}
			}
			if err := certifyMerge(name, "claims", loopir.CertifyClaims(plan.Program, static), t0); err != nil {
				return nil, err
			}
		}
		for _, n := range plan.Notes {
			p.note("%s: %s", name, n)
		}
	}
	if certifyForcedByTier {
		p.note("tier: -certify enabled automatically (uncertified programs never tier up)")
	}
	if err := p.initTier(opts, rep); err != nil {
		return nil, err
	}
	if opts.Stream {
		if err := p.initStream(rep, opts.Workers); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *Program) note(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// readsItself reports whether a clause of the definition reads the
// array it defines.
func readsItself(res *analysis.Result) bool {
	for _, cl := range res.Clauses {
		for _, rd := range cl.Reads {
			if rd.Ix.Array == res.Def.Name {
				return true
			}
		}
	}
	return false
}

// installVerifyHook routes runtime index-property verifier verdicts
// into the program's own counters and, when set, the process-wide sink.
func (p *Program) installVerifyHook(ex *loopir.Exec, sink *metrics.VerifyStats) {
	p.verifySink = sink
	if ex == nil {
		return
	}
	ex.SetVerifyHook(func(_ idxprop.Claims, res idxprop.VerifyResult, took time.Duration) {
		p.IdxVerify.Record(res.OK, took)
		if sink != nil {
			sink.Record(res.OK, took)
		}
	})
}

// certifyStaticClaims replays every statically discharged index-array
// claim: the index array's defining comprehension is materialized
// (independently of the inference that proved the claim) and the same
// runtime verifier that guards runtime claims is run over the concrete
// values — static discharge is never trusted on the inference's
// say-so alone. A claim marked static without an in-program definition
// is a forgery and falsifies outright.
func certifyStaticClaims(claims idxprop.Claims, source *lang.Program, env map[string]int64) *certify.Report {
	crep := certify.NewReport()
	for _, c := range claims {
		if !c.Static {
			continue
		}
		cert := certify.Certificate{Layer: "idxprop", Claim: c.String(), Exhaustive: true}
		d := source.Def(c.Array)
		if d == nil {
			cert.Status = certify.Falsified
			cert.Detail = "claim marked static but the index array has no in-program definition"
			crep.Record(cert)
			continue
		}
		data, ok := idxprop.Materialize(d, env)
		if !ok {
			cert.Status = certify.Skipped
			cert.Detail = "definition shape not replayable"
			crep.Record(cert)
			continue
		}
		if v := idxprop.Verify(data, idxprop.Claims{c}); !v.OK {
			cert.Status = certify.Falsified
			cert.Detail = v.Reason
		} else {
			cert.Status = certify.Certified
			cert.Witness = []int64{int64(len(data))}
		}
		crep.Record(cert)
	}
	return crep
}

// newThunked builds a thunked fallback plan, charging its construction
// to the lower phase and counting the thunked definition.
func newThunked(res *analysis.Result, rep *metrics.CompileReport) *codegen.ThunkedPlan {
	t0 := time.Now()
	tp := codegen.NewThunkedPlan(res)
	rep.AddPhase(metrics.PhaseLower, time.Since(t0))
	rep.Counters.ThunkedDefs++
	return tp
}

// recordPlanStats accumulates one thunkless/in-place plan's
// optimization counters into the compile report: the checks the
// analysis discharged, the loops the optimizer fused, and the
// execution shape of every compiled loop.
func recordPlanStats(rep *metrics.CompileReport, res *analysis.Result, plan *codegen.Plan) {
	rep.Counters.ThunksAvoided++
	if res.Def.Kind == lang.Monolithic {
		// One collision check per clause write would be required
		// without the §7 proofs; the plan emitted plan.Checks many.
		if elided := len(res.Clauses) - plan.Checks.CollisionChecks; elided > 0 {
			rep.Counters.CollisionChecksElided += elided
		}
		if plan.Checks.EmptiesSweeps == 0 {
			rep.Counters.EmptiesChecksElided++
		}
	}
	if plan.Opt != nil {
		rep.Counters.LoopsFused += plan.Opt.FusedLoops
	}
	loopir.Inspect(plan.Program.Stmts, func(n any) bool {
		if l, ok := n.(*loopir.Loop); ok {
			rep.Counters.AddSchedule(loopir.ScheduleKind(l))
		}
		return true
	})
}

// orderDefs topologically orders definitions by array-level reads;
// strongly connected groups are returned separately and positioned at
// their first member.
func orderDefs(source *lang.Program, results map[string]*analysis.Result) ([]string, [][]*analysis.Result, error) {
	idx := map[string]int{}
	for i, def := range source.Defs {
		idx[def.Name] = i
	}
	g := depgraph.New(len(source.Defs))
	for i, def := range source.Defs {
		res := results[def.Name]
		deps := map[string]bool{}
		for ext := range res.ExternalReads {
			deps[ext] = true
		}
		if def.Kind == lang.BigUpd {
			deps[def.Source] = true
			// Reads of the defined name inside a bigupd are internal.
			delete(deps, def.Name)
		}
		for _, dep := range slices.Sorted(maps.Keys(deps)) {
			if j, ok := idx[dep]; ok {
				g.AddEdge(j, i, depgraph.Flow, nil)
			}
		}
	}
	comps, _ := g.SCCs()
	var groups [][]*analysis.Result
	quotient, qComps := g.Quotient()
	qOrder, err := quotient.TopoSort(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("core: internal: definition quotient cyclic: %w", err)
	}
	_ = comps
	var order []string
	for _, q := range qOrder {
		members := qComps[q]
		sort.Ints(members)
		if len(members) == 1 && !selfLoop(g, members[0]) {
			order = append(order, source.Defs[members[0]].Name)
			continue
		}
		var group []*analysis.Result
		for _, m := range members {
			name := source.Defs[m].Name
			group = append(group, results[name])
			order = append(order, name)
		}
		groups = append(groups, group)
	}
	return order, groups, nil
}

// liveDefs returns the definitions transitively needed by the result.
func liveDefs(source *lang.Program, results map[string]*analysis.Result) map[string]bool {
	live := map[string]bool{}
	var mark func(name string)
	mark = func(name string) {
		if live[name] || source.Def(name) == nil {
			return
		}
		live[name] = true
		res := results[name]
		for ext := range res.ExternalReads {
			mark(ext)
		}
		if res.Def.Kind == lang.BigUpd {
			mark(res.Def.Source)
		}
	}
	mark(source.Result)
	return live
}

func selfLoop(g *depgraph.Graph, v int) bool {
	for _, e := range g.Edges {
		if e.Src == v && e.Dst == v {
			return true
		}
	}
	return false
}

// Run executes the program over the given input arrays and returns the
// result array. Inputs are never mutated (a bigupd of a caller's input
// or of a still-live array compiles to a copy-update plan; only dead
// sources are updated in place), whichever tier serves the call. Under
// a tiering policy (Options.Tier) this call counts toward promotion and
// may be served natively; RunTiered additionally reports which tier
// ran.
func (p *Program) Run(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	out, _, err := p.RunTiered(inputs)
	return out, err
}

// runInterp is the interpreted evaluation pipeline: walk the
// evaluation order dispatching each definition to its compiled plan,
// thunked fallback, or recursive group.
func (p *Program) runInterp(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	store := map[string]*runtime.Strict{}
	for k, v := range inputs {
		store[k] = v
	}
	ranGroup := map[int]bool{}
	for _, name := range p.Order {
		cd := p.Defs[name]
		switch {
		case cd.GroupIdx >= 0:
			if ranGroup[cd.GroupIdx] {
				continue
			}
			ranGroup[cd.GroupIdx] = true
			outs, err := codegen.RunThunkedGroup(p.Groups[cd.GroupIdx], store)
			if err != nil {
				return nil, err
			}
			for n, a := range outs {
				store[n] = a
			}
		case cd.Thunked != nil:
			out, err := cd.Thunked.Run(store)
			if err != nil {
				return nil, err
			}
			store[name] = out
		default:
			out, err := cd.Plan.Run(store)
			if err != nil {
				return nil, err
			}
			store[name] = out
		}
	}
	res, ok := store[p.Result]
	if !ok {
		return nil, fmt.Errorf("core: result array %q was not produced", p.Result)
	}
	return res, nil
}

// Report renders a human-readable compilation report: per definition
// the dependence graph, verdicts, schedule, and emitted checks.
func (p *Program) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: result %s, parameters %v\n", p.Result, p.Env)
	for _, name := range p.Order {
		cd := p.Defs[name]
		res := cd.Analysis
		fmt.Fprintf(&b, "\n== %s (%s, %s) ==\n", name, cd.Def.Kind, cd.Mode())
		b.WriteString(res.Graph.String())
		fmt.Fprintf(&b, "collision: %s", res.Collision)
		if res.CollisionDetail != "" {
			fmt.Fprintf(&b, " (%s)", res.CollisionDetail)
		}
		b.WriteByte('\n')
		if res.Def.Kind == lang.Monolithic {
			if res.NoEmpties {
				b.WriteString("empties: excluded\n")
			} else {
				fmt.Fprintf(&b, "empties: possible (%s)\n", res.EmptiesDetail)
			}
		}
		if cd.Schedule != nil {
			b.WriteString("schedule:\n")
			for _, line := range strings.Split(strings.TrimRight(cd.Schedule.Dump(), "\n"), "\n") {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
		if cd.Plan != nil {
			fmt.Fprintf(&b, "checks: %+v\n", cd.Plan.Checks)
			for _, n := range cd.Plan.Notes {
				fmt.Fprintf(&b, "note: %s\n", n)
			}
		}
	}
	if len(p.Notes) > 0 {
		b.WriteString("\nnotes:\n")
		for _, n := range p.Notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return b.String()
}
