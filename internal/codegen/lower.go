package codegen

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/idxprop"
	"arraycomp/internal/lang"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/schedule"
)

// CheckCounts tallies the runtime checks a lowering emitted — the
// quantities the paper's optimizations exist to drive to zero.
type CheckCounts struct {
	CollisionChecks int
	BoundsChecks    int
	DefinedChecks   int
	EmptiesSweeps   int
}

// Plan is a fully lowered, compiled, runnable array program.
type Plan struct {
	Program *loopir.Program
	Exec    *loopir.Exec
	// Checks counts emitted runtime checks.
	Checks CheckCounts
	// Notes records lowering decisions (tier choices, check elisions).
	Notes []string
	// InPlace reports that the plan updates its input array in place
	// (bigupd of a source nothing reads afterwards).
	InPlace bool
	// CopyUpdate reports that the plan copies its bigupd source into a
	// fresh result array and updates that (LowerOptions.CopyUpdate).
	CopyUpdate bool
	// Opt reports what the loop-IR optimizer did (nil under NoOptimize).
	Opt *loopir.OptStats
	// OptTime is the time spent in the loop-IR optimizer, so callers
	// can split "lower" from "optimize" in per-phase compile reports.
	OptTime time.Duration
}

// Run executes the plan.
func (p *Plan) Run(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	return p.Exec.RunResult(inputs)
}

// LowerOptions tunes lowering.
type LowerOptions struct {
	// Parallel emits dependence-free loop passes as parallel loops
	// (the section 10 extension). Only the outermost eligible loop of
	// a nest is sharded, and only when the plan uses no shared scalar
	// state or definedness bitmaps.
	Parallel bool
	// ForceChecks keeps collision, definedness, bounds, and empties
	// checks in the plan even when the analysis proved them redundant
	// (differential-testing ablation: on programs the reference
	// semantics accepts, the forced checks must never fire).
	ForceChecks bool
	// NoOptimize skips the loop-IR optimizer (fusion, invariant
	// hoisting, strength reduction): the lowered nest compiles and
	// emits exactly as built. Used as an oracle ablation arm and to
	// show the unoptimized IR (`hacc ir` without -O).
	NoOptimize bool
	// Workers fixes the parallel worker budget of the compiled
	// executable and is the worker target the planner sizes tiles for.
	// 0 means decide per run (GOMAXPROCS) and plan for the optimizer's
	// default cohort; 1 forces sequential execution even of
	// parallel-scheduled loops.
	Workers int
	// NoStencil disables stencil guard splitting while keeping the
	// rest of the optimizer — the `stencil` oracle ablation arm.
	NoStencil bool
	// NoIdxProp disables the subscripted-subscript conditional layer:
	// no claim-assuming plan, no runtime verifier, every indirect
	// subscript stays on the fully checked sequential path (the
	// `idxprop` oracle ablation arm).
	NoIdxProp bool
	// CopyUpdate lowers a bigupd whose source outlives the update: the
	// source is a read-only input, the plan copies it into a fresh
	// result array and updates that, old-value reads go to the source
	// and new-value reads to the result. No anti dependence remains, so
	// no node splitting is planned; the schedule must keep only flow
	// and output edges (schedule.KeepFlowOutput).
	CopyUpdate bool
}

// lowerer carries lowering state.
type lowerer struct {
	res      *analysis.Result
	sched    *schedule.Result
	external map[string]analysis.ArrayBounds
	opts     LowerOptions
	// inParallel suppresses nested parallel marks.
	inParallel bool
	prog       *loopir.Program
	plan       *Plan
	// selfIR is the IR name of the array being built/updated.
	selfIR string
	// trackDefs / checkCollision / checkEmpties per the analysis.
	trackDefs      bool
	checkCollision bool
	accum          bool
	// cond is the claim-assumed re-analysis driving dual lowering
	// (nil when absent or disabled); condActive marks the pass
	// currently lowering the claim-assuming variant.
	cond       *analysis.CondResult
	condActive bool
	// declTrack records whether the output declaration carries a
	// definedness bitmap (either variant may need it; the one that
	// does not marks its assigns NoTrack).
	declTrack bool
	// monoAlign is captured by the accumulation clause during the
	// claim-assuming pass and attached to its enclosing loop as an
	// aligned shard schedule.
	monoAlign *loopir.IIdx
	// hooks from node splitting.
	hooks *splitHooks
	// scalarSeq generates unique scalar names.
	scalarSeq int
}

// splitHooks carries node-splitting insertions keyed by schedule
// positions and clause IDs.
type splitHooks struct {
	// beforeLoop stmts run once before the keyed loop pass.
	beforeLoop map[*schedule.Node][]loopir.Stmt
	// instanceStart stmts run at the start of every instance of the
	// keyed loop pass.
	instanceStart map[*schedule.Node][]loopir.Stmt
	// readRepl / readTarget redirections for the expression translator.
	readRepl   map[*lang.Index]loopir.VExpr
	readTarget map[*lang.Index]string
}

func newSplitHooks() *splitHooks {
	return &splitHooks{
		beforeLoop:    map[*schedule.Node][]loopir.Stmt{},
		instanceStart: map[*schedule.Node][]loopir.Stmt{},
		readRepl:      map[*lang.Index]loopir.VExpr{},
		readTarget:    map[*lang.Index]string{},
	}
}

func boundsToRuntime(b analysis.ArrayBounds) runtime.Bounds {
	return runtime.Bounds{Lo: append([]int64(nil), b.Lo...), Hi: append([]int64(nil), b.Hi...)}
}

// Lower turns a scheduled analysis result into an executable plan.
// external gives the bounds of arrays the definition reads. The
// schedule must not be thunked (use NewThunkedPlan for that path).
func Lower(res *analysis.Result, sched *schedule.Result, external map[string]analysis.ArrayBounds, opts ...LowerOptions) (*Plan, error) {
	if sched.Thunked {
		return nil, fmt.Errorf("codegen: schedule is thunked (%s); use the thunked evaluator", sched.Reason)
	}
	if res.Collision == analysis.Yes && res.Def.Kind == lang.Monolithic {
		return nil, fmt.Errorf("codegen: %s", res.CollisionDetail)
	}
	var o LowerOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	lw := &lowerer{
		res:      res,
		sched:    sched,
		external: external,
		opts:     o,
		plan:     &Plan{},
		hooks:    newSplitHooks(),
	}
	lw.prog = &loopir.Program{Name: res.Def.Name}
	lw.plan.Program = lw.prog

	// Declare arrays.
	switch res.Def.Kind {
	case lang.BigUpd:
		b := boundsToRuntime(res.Bounds)
		if o.CopyUpdate {
			lw.selfIR = res.Def.Name
			lw.prog.Arrays = append(lw.prog.Arrays,
				loopir.ArrayDecl{Name: lw.selfIR, B: b, Role: loopir.RoleOut},
				loopir.ArrayDecl{Name: res.Def.Source, B: b, Role: loopir.RoleIn})
			lw.prog.Stmts = append(lw.prog.Stmts, &loopir.CopyArray{Dst: lw.selfIR, Src: res.Def.Source})
			lw.plan.CopyUpdate = true
			lw.note("source %s live after the update: copy-update, old values read from %s", res.Def.Source, res.Def.Source)
			break
		}
		lw.selfIR = res.Def.Source
		lw.prog.Arrays = append(lw.prog.Arrays, loopir.ArrayDecl{Name: lw.selfIR, B: b, Role: loopir.RoleInOut})
		lw.plan.InPlace = true
	default:
		lw.selfIR = res.Def.Name
		lw.cond = res.Cond
		if o.ForceChecks || o.NoIdxProp {
			lw.cond = nil
		}
		lw.trackDefs = lw.slowTrack()
		lw.declTrack = lw.trackDefs
		if lw.cond != nil {
			if lw.cond.AllStatic() {
				lw.declTrack = lw.fastTrack()
			} else {
				lw.declTrack = lw.trackDefs || lw.fastTrack()
			}
		}
		lw.checkCollision = res.Def.Kind == lang.Monolithic && (res.Collision == analysis.Maybe || o.ForceChecks)
		lw.prog.Arrays = append(lw.prog.Arrays, loopir.ArrayDecl{
			Name: lw.selfIR, B: boundsToRuntime(res.Bounds), Role: loopir.RoleOut, TrackDefs: lw.declTrack,
		})
	}
	// Inputs are declared in name order: a map's order would make the
	// program layout, and so the plan and its dump, vary between runs.
	for _, name := range slices.Sorted(maps.Keys(res.ExternalReads)) {
		b, ok := external[name]
		if !ok {
			return nil, fmt.Errorf("codegen: no bounds known for external array %q", name)
		}
		lw.prog.Arrays = append(lw.prog.Arrays, loopir.ArrayDecl{
			Name: name, B: boundsToRuntime(b), Role: loopir.RoleIn,
		})
	}

	if res.Def.Kind == lang.Accumulated {
		if _, ok := runtime.Combiner(res.Def.Accum.Combine); !ok {
			return nil, fmt.Errorf("codegen: unknown combining function %q", res.Def.Accum.Combine)
		}
		lw.accum = true
		lw.prog.AccumOp = res.Def.Accum.Combine
		init, err := lw.baseXlate().valueExpr(res.Def.Accum.Init)
		if err != nil {
			return nil, err
		}
		c, isConst := init.(*loopir.VConst)
		if !isConst {
			return nil, fmt.Errorf("codegen: accumArray default must be a constant")
		}
		if c.Value != 0 {
			lw.prog.Stmts = append(lw.prog.Stmts, &loopir.Fill{Array: lw.selfIR, Value: c.Value})
		}
	}

	// Node splitting for in-place bigupd (may add temps, hooks,
	// redirections).
	if lw.plan.InPlace {
		if err := lw.planSplits(); err != nil {
			return nil, err
		}
	}

	if lw.cond == nil {
		stmts, err := lw.lowerVariant(false)
		if err != nil {
			return nil, err
		}
		lw.prog.Stmts = append(lw.prog.Stmts, stmts...)

		if lw.trackDefs && (!lw.res.NoEmpties || o.ForceChecks) {
			if lw.res.NoEmpties {
				lw.note("empties excluded statically but checks forced: bitmap + sweep compiled")
			} else {
				lw.note("empties not excluded statically: definedness bitmap + final sweep compiled")
			}
		}
		if lw.res.NoEmpties && !o.ForceChecks {
			lw.note("empties excluded statically: no definedness checks")
		}
		if lw.res.Collision == analysis.No && res.Def.Kind == lang.Monolithic && !o.ForceChecks {
			lw.note("write collisions excluded statically: no collision checks")
		}
	} else if err := lw.lowerDual(); err != nil {
		return nil, err
	}

	if !o.NoOptimize {
		t0 := time.Now()
		st := loopir.OptimizeWith(lw.prog, loopir.OptOptions{NoStencil: o.NoStencil, Workers: o.Workers})
		lw.plan.OptTime = time.Since(t0)
		lw.plan.Opt = st
		if st.Changed() {
			lw.note("optimizer: %s", st)
		}
	}

	ex, err := loopir.Compile(lw.prog)
	if err != nil {
		return nil, err
	}
	ex.SetWorkers(o.Workers)
	lw.plan.Exec = ex
	return lw.plan, nil
}

// slowTrack / fastTrack decide whether a variant needs the
// definedness bitmap: the unconditional verdicts for the checked
// variant, the claim-assumed verdicts for the claim-assuming one.
func (lw *lowerer) slowTrack() bool {
	return lw.res.Def.Kind == lang.Monolithic &&
		(!lw.res.NoEmpties || lw.res.Collision == analysis.Maybe || lw.opts.ForceChecks)
}

func (lw *lowerer) fastTrack() bool {
	return lw.res.Def.Kind == lang.Monolithic &&
		(!lw.cond.NoEmpties || lw.cond.Collision == analysis.Maybe)
}

// effCollision / effWriteInBounds / effReadInBounds answer for the
// variant being lowered: the claim-assuming pass consults the
// conditional re-analysis first.
func (lw *lowerer) effCollision() analysis.Verdict {
	if lw.condActive {
		return lw.cond.Collision
	}
	return lw.res.Collision
}

func (lw *lowerer) effWriteInBounds(cl int) bool {
	if lw.condActive && lw.cond.WriteInBounds[cl] {
		return true
	}
	return lw.res.WriteInBounds[cl]
}

func (lw *lowerer) effReadInBounds(rd *analysis.ReadRef) bool {
	if lw.condActive && lw.cond.ReadInBounds[rd] {
		return true
	}
	return lw.res.ReadInBounds[rd]
}

// lowerVariant lowers the scheduled nodes once, under either the
// unconditional verdicts (condActive false: every indirect subscript
// checked) or the claim-assumed ones (condActive true: trusted index
// arrays load unchecked, collision/empties elided per the conditional
// re-analysis), appending the variant's own empties sweep when its
// verdicts require one.
func (lw *lowerer) lowerVariant(condActive bool) ([]loopir.Stmt, error) {
	lw.condActive = condActive
	lw.monoAlign = nil
	if condActive {
		lw.trackDefs = lw.fastTrack()
		lw.checkCollision = lw.res.Def.Kind == lang.Monolithic && lw.cond.Collision == analysis.Maybe
	} else {
		lw.trackDefs = lw.slowTrack()
		lw.checkCollision = lw.res.Def.Kind == lang.Monolithic && (lw.res.Collision == analysis.Maybe || lw.opts.ForceChecks)
	}
	stmts, err := lw.lowerNodes(lw.sched.Nodes, lw.baseXlate())
	if err != nil {
		return nil, err
	}
	noEmpties := lw.res.NoEmpties
	if condActive {
		noEmpties = lw.cond.NoEmpties
	}
	if lw.trackDefs && (!noEmpties || lw.opts.ForceChecks) {
		stmts = append(stmts, &loopir.CheckFull{Array: lw.selfIR})
		lw.plan.Checks.EmptiesSweeps++
	}
	lw.condActive = false
	return stmts, nil
}

// lowerDual lowers the claim-assuming and the fully checked variants
// and merges them under the runtime verifier guard: `if verify(idx)
// then fast else slow`. When every claim was discharged statically the
// checked variant is not built at all. The plan's check counters
// report the claim-assuming variant — those are the checks the
// conditional analysis elides.
func (lw *lowerer) lowerDual() error {
	checks0 := lw.plan.Checks
	fast, err := lw.lowerVariant(true)
	if err != nil {
		return err
	}
	fastChecks := lw.plan.Checks
	if lw.cond.AllStatic() {
		lw.prog.Stmts = append(lw.prog.Stmts, fast...)
		lw.note("idxprop: claims %s proven statically; claim-assuming plan compiled unconditionally", lw.cond.Claims)
		return nil
	}
	slow, err := lw.lowerVariant(false)
	if err != nil {
		return err
	}
	runtimeClaims := lw.cond.Claims.Runtime()
	lw.prog.Stmts = append(lw.prog.Stmts, &loopir.If{
		Cond: verifyGuard(runtimeClaims),
		Then: fast,
		Else: slow,
	})
	lw.note("idxprop: %s; runtime verifier guards the claim-assuming plan, fallback fully checked", lw.cond.Detail)
	// Report the claim-assuming variant's checks: the slow variant
	// exists only as the verifier-failure fallback.
	slowChecks := diffChecks(lw.plan.Checks, fastChecks)
	lw.plan.Checks = diffChecks(fastChecks, checks0)
	lw.note("idxprop: fallback path keeps %d collision, %d bounds, %d definedness checks and %d empties sweeps",
		slowChecks.CollisionChecks, slowChecks.BoundsChecks, slowChecks.DefinedChecks, slowChecks.EmptiesSweeps)
	return nil
}

func diffChecks(a, b CheckCounts) CheckCounts {
	return CheckCounts{
		CollisionChecks: a.CollisionChecks - b.CollisionChecks,
		BoundsChecks:    a.BoundsChecks - b.BoundsChecks,
		DefinedChecks:   a.DefinedChecks - b.DefinedChecks,
		EmptiesSweeps:   a.EmptiesSweeps - b.EmptiesSweeps,
	}
}

// verifyGuard builds the conjunction of per-array runtime verifier
// guards over the given (runtime) claims.
func verifyGuard(claims idxprop.Claims) loopir.BExpr {
	var cond loopir.BExpr
	for _, arr := range claims.Arrays() {
		b := &loopir.BVerify{Array: arr, Claims: claims.ForArray(arr)}
		if cond == nil {
			cond = loopir.BExpr(b)
		} else {
			cond = &loopir.BAnd{L: cond, R: b}
		}
	}
	return cond
}

// cloneInt deep-copies the IntExpr shapes the lowerer produces (an
// aligned shard's alignment expression must not share nodes with the
// loop body the optimizer rewrites).
func cloneInt(e loopir.IntExpr) loopir.IntExpr {
	switch x := e.(type) {
	case *loopir.IConst:
		return &loopir.IConst{Value: x.Value}
	case *loopir.IVar:
		return &loopir.IVar{Name: x.Name}
	case *loopir.ILin:
		cp := &loopir.ILin{Const: x.Const, Terms: append([]loopir.ITerm(nil), x.Terms...)}
		return cp
	case *loopir.IBin:
		return &loopir.IBin{Op: x.Op, L: cloneInt(x.L), R: cloneInt(x.R)}
	case *loopir.IIdx:
		cp := &loopir.IIdx{Array: x.Array, CheckBounds: x.CheckBounds}
		for _, s := range x.Subs {
			cp.Subs = append(cp.Subs, cloneInt(s))
		}
		return cp
	}
	return nil
}

func (lw *lowerer) note(format string, args ...any) {
	lw.plan.Notes = append(lw.plan.Notes, fmt.Sprintf(format, args...))
}

func (lw *lowerer) freshScalar(prefix string) string {
	lw.scalarSeq++
	name := fmt.Sprintf("%s$%d", prefix, lw.scalarSeq)
	lw.prog.Scalars = append(lw.prog.Scalars, name)
	return name
}

func (lw *lowerer) baseXlate() *xlate {
	var trusted map[string]bool
	if lw.condActive {
		trusted = lw.cond.Trusted
	}
	return &xlate{
		env:        lw.res.Env,
		idxTrusted: trusted,
		indexVars:  map[string]bool{},
		arrayName: func(surface string) (string, error) {
			if surface == lw.res.Def.Name || surface == lw.res.Def.Source {
				if lw.plan.CopyUpdate {
					return surface, nil // old values from the source, new from the result
				}
				return lw.selfIR, nil
			}
			if _, ok := lw.res.ExternalReads[surface]; ok {
				return surface, nil
			}
			return "", fmt.Errorf("codegen: unknown array %q", surface)
		},
		refFlags: func(ix *lang.Index) (bool, bool) {
			var rd *analysis.ReadRef
			for _, cl := range lw.res.Clauses {
				for _, r := range cl.Reads {
					if r.Ix == ix {
						rd = r
					}
				}
			}
			cb, cd := true, false
			if rd != nil {
				cb = !lw.effReadInBounds(rd) || lw.opts.ForceChecks
			}
			if lw.trackDefs && (ix.Array == lw.res.Def.Name && lw.res.Def.Kind != lang.BigUpd) {
				cd = true
			}
			if cb {
				lw.plan.Checks.BoundsChecks++
			}
			if cd {
				lw.plan.Checks.DefinedChecks++
			}
			return cb, cd
		},
		readRepl:   lw.hooks.readRepl,
		readTarget: lw.hooks.readTarget,
	}
}

func (x *xlate) withIndexVar(v string) *xlate {
	out := *x
	out.indexVars = make(map[string]bool, len(x.indexVars)+1)
	for k := range x.indexVars {
		out.indexVars[k] = true
	}
	out.indexVars[v] = true
	return &out
}

// lowerNodes lowers an ordered node sequence in the given scope.
func (lw *lowerer) lowerNodes(nodes []*schedule.Node, x *xlate) ([]loopir.Stmt, error) {
	var out []loopir.Stmt
	for _, n := range nodes {
		stmts, err := lw.lowerNode(n, x)
		if err != nil {
			return nil, err
		}
		out = append(out, stmts...)
	}
	return out, nil
}

func (lw *lowerer) lowerNode(n *schedule.Node, x *xlate) ([]loopir.Stmt, error) {
	if n.IsLoop() {
		return lw.lowerLoop(n, x)
	}
	return lw.lowerClause(n.Clause, x)
}

func (lw *lowerer) lowerLoop(n *schedule.Node, x *xlate) ([]loopir.Stmt, error) {
	l := n.Loop.Loop
	parallel := lw.parallelEligible(n)
	doacross := !parallel && lw.doacrossEligible(n)
	wasInParallel := lw.inParallel
	if parallel || doacross {
		lw.inParallel = true
	}
	inner := x.withIndexVar(l.Var).withLets(n.Loop.Lets)
	body, err := lw.lowerNodes(n.Body, inner)
	lw.inParallel = wasInParallel
	if err != nil {
		return nil, err
	}
	if pre := lw.hooks.instanceStart[n]; len(pre) > 0 {
		body = append(append([]loopir.Stmt(nil), pre...), body...)
	}
	var from, to, step int64
	last := l.ValueAt(l.Trip())
	if n.Dir == schedule.Backward {
		from, to, step = last, l.First, -l.Stride
	} else {
		from, to, step = l.First, last, l.Stride
	}
	if parallel {
		lw.note("loop %s parallelized (no carried dependences)", l.Var)
	} else if doacross {
		lw.note("loop %s is doacross-eligible (carried dependences follow the pass direction)", l.Var)
	}
	loopStmt := &loopir.Loop{Var: l.Var, From: from, To: to, Step: step, Parallel: parallel, Doacross: doacross, Body: body}
	if lw.monoAlign != nil && !lw.inParallel {
		// The accumulation clause below this loop captured its indirect
		// write subscript: shard on chunks aligned to equal-value runs
		// (sound under the mono + range claims guarding this variant).
		loopStmt.Par = &loopir.ParSchedule{Kind: loopir.ParShard, AlignOn: lw.monoAlign}
		lw.monoAlign = nil
		lw.note("loop %s shard scheduled (chunks aligned on %s runs)", l.Var, lw.cond.MonoArray)
	}
	stmt := loopir.Stmt(loopStmt)
	// Guards on the loop node condition the whole loop.
	stmt, err = lw.wrapGuards(n.Loop.Guards, x.withLets(n.Loop.Lets), stmt)
	if err != nil {
		return nil, err
	}
	out := append([]loopir.Stmt(nil), lw.hooks.beforeLoop[n]...)
	return append(out, stmt), nil
}

// parallelEligible decides whether a schedule-parallel loop pass may
// actually be emitted parallel: the plan must have no shared mutable
// state beyond disjoint array elements — no definedness bitmaps (their
// flag writes would race under possible collisions), no accumulation
// into possibly-shared elements, no node-splitting hooks (their
// scalars and row temporaries are sequential state) — and only the
// outermost eligible loop of a nest is sharded.
func (lw *lowerer) parallelEligible(n *schedule.Node) bool {
	if !lw.opts.Parallel || !n.Parallel || lw.inParallel {
		return false
	}
	return lw.parSafeState()
}

// doacrossEligible mirrors parallelEligible for loops the scheduler
// marked Doacross: the carried dependences all follow the pass
// direction, so the optimizer's planning pass may still find a legal
// pipelined schedule (a wavefront) after checking the concrete
// distances. The same shared-state restrictions apply.
func (lw *lowerer) doacrossEligible(n *schedule.Node) bool {
	if !lw.opts.Parallel || !n.Doacross || lw.inParallel {
		return false
	}
	return lw.parSafeState()
}

// parSafeState reports that the plan has no shared mutable state beyond
// disjoint array elements.
func (lw *lowerer) parSafeState() bool {
	if lw.trackDefs {
		return false
	}
	if lw.accum && lw.effCollision() != analysis.No {
		return false
	}
	if len(lw.hooks.instanceStart) > 0 || len(lw.hooks.beforeLoop) > 0 {
		return false
	}
	return true
}

func (lw *lowerer) wrapGuards(guards []lang.Expr, x *xlate, stmt loopir.Stmt) (loopir.Stmt, error) {
	for i := len(guards) - 1; i >= 0; i-- {
		cond, err := x.boolExpr(guards[i])
		if err != nil {
			return nil, err
		}
		stmt = &loopir.If{Cond: cond, Then: []loopir.Stmt{stmt}}
	}
	return stmt, nil
}

func (lw *lowerer) lowerClause(cl *analysis.FlatClause, x *xlate) ([]loopir.Stmt, error) {
	cx := x.withLets(cl.Node.Lets)
	subs, err := lw.writeSubs(cl, cx)
	if err != nil {
		return nil, err
	}
	rhs, err := cx.valueExpr(cl.Clause.Value)
	if err != nil {
		return nil, err
	}
	checkBounds := !lw.effWriteInBounds(cl.ID) || lw.opts.ForceChecks
	if checkBounds {
		lw.plan.Checks.BoundsChecks++
	}
	assign := &loopir.Assign{
		Array:       lw.selfIR,
		Subs:        subs,
		Rhs:         rhs,
		CheckBounds: checkBounds,
		NoTrack:     lw.declTrack && !lw.trackDefs,
	}
	if lw.condActive && lw.cond.MonoAccum && lw.accum && lw.opts.Parallel {
		if iidx, ok := subs[0].(*loopir.IIdx); ok && iidx.Array == lw.cond.MonoArray {
			lw.monoAlign = cloneInt(iidx).(*loopir.IIdx)
		}
	}
	if lw.accum {
		assign.HasAccum = true
	} else if lw.checkCollision {
		assign.CheckCollision = true
		lw.plan.Checks.CollisionChecks++
	}
	stmts := []loopir.Stmt{assign}
	// Clause-level guards.
	if len(cl.Node.Guards) > 0 {
		var conds []loopir.BExpr
		for _, g := range cl.Node.Guards {
			c, err := cx.boolExpr(g)
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
		}
		cond := conds[0]
		for _, c := range conds[1:] {
			cond = &loopir.BAnd{L: cond, R: c}
		}
		return []loopir.Stmt{&loopir.If{Cond: cond, Then: stmts}}, nil
	}
	return stmts, nil
}

// writeSubs translates a clause's write subscripts, using the affine
// fast path when available.
func (lw *lowerer) writeSubs(cl *analysis.FlatClause, x *xlate) ([]loopir.IntExpr, error) {
	if cl.WriteAffine {
		subs := make([]loopir.IntExpr, len(cl.WriteForms))
		for d, form := range cl.WriteForms {
			lin := &loopir.ILin{Const: form.Const}
			for _, v := range form.Vars() {
				lin.Terms = append(lin.Terms, loopir.ITerm{Var: v, Coeff: form.CoeffOf(v)})
			}
			subs[d] = lin
		}
		return subs, nil
	}
	subs := make([]loopir.IntExpr, len(cl.Clause.Subs))
	for d, s := range cl.Clause.Subs {
		se, err := x.subExpr(s)
		if err != nil {
			return nil, err
		}
		subs[d] = se
	}
	return subs, nil
}
