package loopir

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// The loop-IR optimizer: rewrites a lowered Program in place, between
// codegen lowering and compilation/emission. Four passes, applied
// bottom-up per nesting level:
//
//  1. dead-loop elimination — zero-trip and empty loops are deleted;
//  2. loop fusion — adjacent loops with identical headers merge into
//     one pass when a conservative per-dimension dependence test over
//     the (fully concrete) iteration spaces proves the interleaved
//     order preserves every cross-body dependence;
//  3. invariant hoisting — whole-loop unswitching of invariant guards
//     (including splitting invariant conjuncts off a BAnd), hoisting of
//     invariant scalar bindings, and extraction of maximal invariant
//     float subexpressions into fresh scalars computed once before the
//     loop;
//  4. strength reduction — every unchecked affine access has its
//     row-major offset polynomial flattened to Const + Σ Coeff·var and
//     replaced by an induction register (Loop.Inds) initialized at
//     loop entry (the precomputed "row base" for inner loops of 2-D
//     nests) and advanced by a constant stride per iteration; accesses
//     whose offsets differ only by a constant share one register.
//
// Everything here is licensed by properties the earlier phases already
// established: loop bounds, strides and subscript coefficients are
// concrete integers (compilation is per parameter binding), so legality
// reduces to integer interval/divisibility arithmetic — no symbolic
// dependence machinery is needed at this level. The optimizer never
// touches bounds-checked accesses (those keep the subscript path so
// error messages still report source-level subscripts).

// OptStats reports what the optimizer did, for plan notes and tests.
type OptStats struct {
	DeadLoops       int // zero-trip or emptied loops removed
	FusedLoops      int // adjacent loop pairs merged
	Unswitched      int // loops whose invariant guard moved outside
	HoistedScalars  int // invariant scalar bindings moved before a loop
	HoistedExprs    int // invariant subexpressions extracted to scalars
	ReducedAccesses int // accesses rewritten to offset form
	IndRegisters    int // induction registers introduced
	ParSchedules    int // loops given parallel schedules
	StencilSplits   int // guard splits performed (interior + strips)
	StencilGuards   int // guards resolved to a constant arm
}

// Changed reports whether any rewrite fired.
func (s *OptStats) Changed() bool {
	return s.DeadLoops+s.FusedLoops+s.Unswitched+s.HoistedScalars+
		s.HoistedExprs+s.ReducedAccesses+s.IndRegisters+s.ParSchedules+
		s.StencilSplits+s.StencilGuards > 0
}

// String summarizes the non-zero counters.
func (s *OptStats) String() string {
	var parts []string
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(s.DeadLoops, "dead loops removed")
	add(s.FusedLoops, "loops fused")
	add(s.Unswitched, "loops unswitched")
	add(s.HoistedScalars, "scalar bindings hoisted")
	add(s.HoistedExprs, "invariant exprs hoisted")
	add(s.ReducedAccesses, "accesses strength-reduced")
	add(s.IndRegisters, "induction registers")
	add(s.ParSchedules, "parallel schedules")
	add(s.StencilSplits, "stencil splits")
	add(s.StencilGuards, "guards resolved")
	if len(parts) == 0 {
		return "no rewrites applied"
	}
	return strings.Join(parts, ", ")
}

// OptOptions selects optional passes. The zero value runs everything.
type OptOptions struct {
	// NoStencil disables stencil guard splitting (the `stencil` oracle
	// ablation arm); the generic rewrite passes and parallel planning
	// still run.
	NoStencil bool
	// Workers is the worker count the plans target (tile extents are
	// sized for a cohort of this many). 0 means parCohortEst. It must
	// be part of any key a plan is cached under, so that a plan is a
	// pure function of its key.
	Workers int
}

// Optimize rewrites the program in place and reports what it did.
func Optimize(p *Program) *OptStats {
	return OptimizeWith(p, OptOptions{})
}

// OptimizeWith is Optimize with pass selection.
func OptimizeWith(p *Program, opts OptOptions) *OptStats {
	o := &optimizer{prog: p, stats: &OptStats{}, names: map[string]bool{}, workers: int64(opts.Workers)}
	if o.workers < 1 {
		o.workers = parCohortEst
	}
	for _, s := range p.Scalars {
		o.names[s] = true
	}
	p.Stmts = o.optStmts(p.Stmts, map[string]loopRange{})
	if !opts.NoStencil {
		// Guard splitting before planning, so the interior can gain a
		// schedule the guarded original couldn't.
		p.Stmts = o.splitStencilGuards(p.Stmts, false)
	}
	o.planParallel(p.Stmts)
	return o.stats
}

type optimizer struct {
	prog     *Program
	stats    *OptStats
	workers  int64           // worker target of the parallel plans
	names    map[string]bool // taken scalar/register names
	indSeq   int
	hSeq     int
	splitSeq int
}

// loopRange is a concrete iteration range: the loop variable visits
// from, from+step, … and stays within [min(from,last), max(from,last)].
type loopRange struct{ from, to, step int64 }

func (r loopRange) trip() int64 { return tripCount(r.from, r.to, r.step) }

// valueBounds returns the smallest/largest value the variable takes.
func (r loopRange) valueBounds() (lo, hi int64) {
	last := r.from + (r.trip()-1)*r.step
	if r.step > 0 {
		return r.from, last
	}
	return last, r.from
}

func copyEnv(env map[string]loopRange) map[string]loopRange {
	out := make(map[string]loopRange, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// optStmts optimizes one nesting level: children first (so inner loops
// are fully optimized before their parents are examined), then hoisting
// and unswitching per loop, then fusion of adjacent loops, and finally
// strength reduction of each loop's direct body.
func (o *optimizer) optStmts(list []Stmt, env map[string]loopRange) []Stmt {
	var out []Stmt
	for _, s := range list {
		switch x := s.(type) {
		case *Loop:
			if tripCount(x.From, x.To, x.Step) == 0 {
				o.stats.DeadLoops++
				continue
			}
			inner := copyEnv(env)
			inner[x.Var] = loopRange{x.From, x.To, x.Step}
			x.Body = o.optStmts(x.Body, inner)
			if len(x.Body) == 0 {
				o.stats.DeadLoops++
				continue
			}
			pre, repl := o.hoistFromLoop(x, env)
			out = append(out, pre...)
			out = append(out, repl...)
		case *If:
			x.Then = o.optStmts(x.Then, env)
			x.Else = o.optStmts(x.Else, env)
			out = append(out, x)
		default:
			out = append(out, s)
		}
	}
	out = o.fuseAdjacent(out, env)
	for _, s := range out {
		o.reduceIn(s, env)
	}
	return out
}

// reduceIn strength-reduces loops at this level, including loops that
// unswitching just wrapped in an If. It does not descend into loop
// bodies — nested loops were reduced while their own level was
// processed (Off-bearing accesses are skipped anyway, so a second visit
// is a no-op).
func (o *optimizer) reduceIn(s Stmt, env map[string]loopRange) {
	switch x := s.(type) {
	case *Loop:
		o.strengthReduce(x, env)
	case *If:
		for _, t := range x.Then {
			o.reduceIn(t, env)
		}
		for _, t := range x.Else {
			o.reduceIn(t, env)
		}
	}
}

// fresh returns an unused name with the given prefix and registers it.
func (o *optimizer) fresh(prefix string, seq *int) string {
	for {
		*seq++
		name := fmt.Sprintf("%s$%d", prefix, *seq)
		if !o.names[name] {
			o.names[name] = true
			return name
		}
	}
}

// ---------------------------------------------------------------------------
// Linear forms and expression walks
// ---------------------------------------------------------------------------

// linForm is an affine integer form: c + Σ t[var]·var.
type linForm struct {
	c int64
	t map[string]int64
}

func (f *linForm) clone() *linForm {
	out := &linForm{c: f.c, t: make(map[string]int64, len(f.t))}
	for k, v := range f.t {
		out.t[k] = v
	}
	return out
}

func (f *linForm) addTerm(name string, coeff int64) {
	if coeff == 0 {
		return
	}
	f.t[name] += coeff
	if f.t[name] == 0 {
		delete(f.t, name)
	}
}

// scale multiplies the form by a constant.
func (f *linForm) scale(k int64) {
	f.c *= k
	for name := range f.t {
		f.t[name] *= k
		if f.t[name] == 0 {
			delete(f.t, name)
		}
	}
}

// vars returns the form's variables in sorted order.
func (f *linForm) vars() []string {
	out := make([]string, 0, len(f.t))
	for name := range f.t {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// intLin converts an integer expression to a linear form, or nil when
// the expression is not affine (division, modulus, variable products).
func intLin(e IntExpr) *linForm {
	switch x := e.(type) {
	case *IConst:
		return &linForm{c: x.Value, t: map[string]int64{}}
	case *IVar:
		return &linForm{t: map[string]int64{x.Name: 1}}
	case *ILin:
		f := &linForm{c: x.Const, t: map[string]int64{}}
		for _, t := range x.Terms {
			f.addTerm(t.Var, t.Coeff)
		}
		return f
	case *IBin:
		l := intLin(x.L)
		r := intLin(x.R)
		if l == nil || r == nil {
			return nil
		}
		switch x.Op {
		case '+':
			l.c += r.c
			for name, c := range r.t {
				l.addTerm(name, c)
			}
			return l
		case '-':
			l.c -= r.c
			for name, c := range r.t {
				l.addTerm(name, -c)
			}
			return l
		case '*':
			if len(r.t) == 0 {
				l.scale(r.c)
				return l
			}
			if len(l.t) == 0 {
				r.scale(l.c)
				return r
			}
		}
		return nil
	}
	return nil
}

// AffineForm returns e as Const + Σ Coeff·Var, its terms sorted by
// variable with no zero coefficient, or nil when e is not affine
// (division, modulus, variable products, subscripted subscripts).
func AffineForm(e IntExpr) *ILin {
	if f := intLin(e); f != nil {
		return f.toILin()
	}
	return nil
}

// toILin renders a linear form back to an ILin with sorted terms.
func (f *linForm) toILin() *ILin {
	lin := &ILin{Const: f.c}
	for _, name := range f.vars() {
		lin.Terms = append(lin.Terms, ITerm{Var: name, Coeff: f.t[name]})
	}
	return lin
}

// stmtEffects summarizes what a loop's body writes and binds.
type stmtEffects struct {
	arraysWritten  map[string]bool
	scalarsWritten map[string]bool
	boundVars      map[string]bool
}

// collect adds the writes and bindings of the statements.
func (eff *stmtEffects) collect(stmts []Stmt) {
	inspectList(stmts, func(n any) bool {
		switch x := n.(type) {
		case *Loop:
			eff.boundVars[x.Var] = true
			for _, ind := range x.Inds {
				eff.boundVars[ind.Name] = true
			}
		case *Assign:
			eff.arraysWritten[x.Array] = true
		case *SetScalar:
			eff.scalarsWritten[x.Name] = true
		case *CopyArray:
			eff.arraysWritten[x.Dst] = true
		case *Fill:
			eff.arraysWritten[x.Array] = true
		}
		return isStmt(n)
	})
}

// variant reports whether the node reads state that changes across the
// loop's iterations: a variable the loop binds, or a scalar or array it
// writes. A BVerify guard counts as variant, so that unswitching never
// moves the claim verifier.
func (eff *stmtEffects) variant(n any) bool {
	switch x := n.(type) {
	case *IVar:
		return eff.boundVars[x.Name]
	case *ILin:
		for _, t := range x.Terms {
			if eff.boundVars[t.Var] {
				return true
			}
		}
	case *VScalar:
		return eff.scalarsWritten[x.Name]
	case *ARef:
		return eff.arraysWritten[x.Array]
	case *IIdx:
		return eff.arraysWritten[x.Array]
	case *BVerify:
		return true
	}
	return false
}

// invariant reports whether the expression is loop-invariant: none of
// its nodes is variant.
func (eff *stmtEffects) invariant(e any) bool {
	return !anyNode(e, eff.variant)
}

// mentionsScalar reports whether the statement list reads or writes the
// scalar anywhere.
func mentionsScalar(stmts []Stmt, name string) bool {
	return anyStmt(stmts, func(n any) bool {
		switch x := n.(type) {
		case *VScalar:
			return x.Name == name
		case *SetScalar:
			return x.Name == name
		}
		return false
	})
}

// CanFail reports whether running or evaluating n (a Stmt, an
// expression or a []Stmt) can raise a runtime error: a bounds,
// definedness or collision check, a CheckFull or Fail, or an integer
// division or modulus, whose divisor may be zero. Float division is
// total (IEEE).
func CanFail(n any) bool {
	return anyNode(n, func(n any) bool {
		switch x := n.(type) {
		case *Assign:
			return x.CheckBounds || x.CheckCollision
		case *ARef:
			return x.CheckBounds || x.CheckDefined
		case *IIdx:
			return x.CheckBounds
		case *IBin:
			return x.Op == '/' || x.Op == '%'
		case *CheckFull, *Fail:
			return true
		}
		return false
	})
}

// ---------------------------------------------------------------------------
// Pass: invariant hoisting and unswitching
// ---------------------------------------------------------------------------

// hoistFromLoop lifts loop-invariant work out of L. It returns the
// statements to run once before the loop plus the replacement for the
// loop itself (an If wrapping it after unswitching, or the loop
// unchanged). The loop's trip count is known ≥ 1 here (zero-trip loops
// were deleted), which is what makes moving iteration-1 work before the
// loop header sound.
func (o *optimizer) hoistFromLoop(L *Loop, env map[string]loopRange) (pre []Stmt, out []Stmt) {
	eff := &stmtEffects{
		arraysWritten:  map[string]bool{},
		scalarsWritten: map[string]bool{},
		boundVars:      map[string]bool{L.Var: true},
	}
	eff.collect(L.Body)

	// Invariant scalar bindings: a SetScalar whose right-hand side only
	// reads state the loop never writes computes the same value every
	// iteration; move it before the loop when no earlier statement in
	// the body could observe the scalar's pre-loop value.
	var kept []Stmt
	prefixMentions := func(name string) bool {
		return mentionsScalar(kept, name)
	}
	writesOf := func(name string) int {
		n := 0
		inspectList(L.Body, func(x any) bool {
			if ss, ok := x.(*SetScalar); ok && ss.Name == name {
				n++
			}
			return isStmt(x)
		})
		return n
	}
	for _, s := range L.Body {
		ss, isSet := s.(*SetScalar)
		if !isSet || !eff.invariant(ss.Rhs) || writesOf(ss.Name) != 1 || prefixMentions(ss.Name) {
			kept = append(kept, s)
			continue
		}
		pre = append(pre, ss)
		o.stats.HoistedScalars++
	}
	L.Body = kept

	// Maximal invariant subexpressions of unconditionally executed
	// right-hand sides become fresh scalars bound once before the loop.
	for _, s := range L.Body {
		switch x := s.(type) {
		case *Assign:
			x.Rhs = o.hoistSubexprs(x.Rhs, eff, &pre)
		case *SetScalar:
			x.Rhs = o.hoistSubexprs(x.Rhs, eff, &pre)
		}
	}

	out = []Stmt{L}
	if repl := o.unswitch(L, eff); repl != nil {
		out = []Stmt{repl}
	}
	return pre, out
}

// hoistSubexprs replaces maximal invariant non-trivial subexpressions
// of e with fresh scalars, appending their bindings to *pre. Only
// unconditionally evaluated positions are rewritten (VCond branches are
// left alone — hoisting them could evaluate an expression the original
// program never ran).
func (o *optimizer) hoistSubexprs(e VExpr, eff *stmtEffects, pre *[]Stmt) VExpr {
	switch e.(type) {
	case *VBin, *VNeg, *VCall:
		if eff.invariant(e) {
			name := o.fresh("h", &o.hSeq)
			o.prog.Scalars = append(o.prog.Scalars, name)
			*pre = append(*pre, &SetScalar{Name: name, Rhs: e})
			o.stats.HoistedExprs++
			return &VScalar{Name: name}
		}
	}
	switch x := e.(type) {
	case *VBin:
		x.L = o.hoistSubexprs(x.L, eff, pre)
		x.R = o.hoistSubexprs(x.R, eff, pre)
	case *VNeg:
		x.X = o.hoistSubexprs(x.X, eff, pre)
	case *VCall:
		for i, a := range x.Args {
			x.Args[i] = o.hoistSubexprs(a, eff, pre)
		}
	}
	return e
}

// unswitch moves an invariant guard out of a loop whose body is a
// single If. Three shapes:
//
//	do v { if inv then T else E }   ⇒  if inv then do v {T} else do v {E}
//	do v { if inv then T }          ⇒  if inv then do v {T}
//	do v { if inv && var then T }   ⇒  if inv then do v { if var then T }
//
// The whole-condition forms are sound even when the condition can fail
// (divide by zero): the If is the body's only statement, so iteration 1
// would have evaluated the condition first anyway, and trip ≥ 1. The
// conjunct-splitting form additionally requires the hoisted conjuncts
// to be total, because && short-circuits: the original loop might never
// have evaluated them.
func (o *optimizer) unswitch(L *Loop, eff *stmtEffects) Stmt {
	if len(L.Body) != 1 {
		return nil
	}
	fi, ok := L.Body[0].(*If)
	if !ok {
		return nil
	}
	if eff.invariant(fi.Cond) {
		o.stats.Unswitched++
		if len(fi.Else) == 0 {
			L.Body = fi.Then
			return &If{Cond: fi.Cond, Then: []Stmt{L}}
		}
		elseLoop := &Loop{Var: L.Var, From: L.From, To: L.To, Step: L.Step, Parallel: L.Parallel, Body: fi.Else}
		L.Body = fi.Then
		return &If{Cond: fi.Cond, Then: []Stmt{L}, Else: []Stmt{elseLoop}}
	}
	if len(fi.Else) != 0 {
		return nil
	}
	// Split invariant conjuncts off a conjunction guard.
	conj := flattenAnd(fi.Cond)
	var inv, variant []BExpr
	for _, c := range conj {
		if eff.invariant(c) && !CanFail(c) {
			inv = append(inv, c)
		} else {
			variant = append(variant, c)
		}
	}
	if len(inv) == 0 || len(variant) == 0 {
		return nil
	}
	o.stats.Unswitched++
	fi.Cond = andAll(variant)
	return &If{Cond: andAll(inv), Then: []Stmt{L}}
}

func flattenAnd(e BExpr) []BExpr {
	if x, ok := e.(*BAnd); ok {
		return append(flattenAnd(x.L), flattenAnd(x.R)...)
	}
	return []BExpr{e}
}

func andAll(cs []BExpr) BExpr {
	e := cs[0]
	for _, c := range cs[1:] {
		e = &BAnd{L: e, R: c}
	}
	return e
}

// ---------------------------------------------------------------------------
// Pass: loop fusion
// ---------------------------------------------------------------------------

// fuseAdjacent merges runs of adjacent loops with identical headers
// when the dependence test permits.
func (o *optimizer) fuseAdjacent(list []Stmt, env map[string]loopRange) []Stmt {
	var out []Stmt
	for _, s := range list {
		cur, isLoop := s.(*Loop)
		if isLoop && len(out) > 0 {
			if prev, ok := out[len(out)-1].(*Loop); ok {
				if fused := o.fuse(prev, cur, env); fused != nil {
					out[len(out)-1] = fused
					o.stats.FusedLoops++
					continue
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// fuse merges l2 into l1 when both run the same iteration space in the
// same direction and interleaving the bodies preserves every cross-body
// dependence. Returns nil when fusion is not provably legal.
//
// Legality: the original order runs all of l1 before any of l2, so a
// dependence from l2's instance at v₂ to l1's instance at v₁ is
// preserved by fusion only when v₁ does not come after v₂ in iteration
// order. For each conflicting access pair the test below either proves
// the instances never touch the same element (interval disjointness or
// non-divisible distance over the concrete ranges) or pins the distance
// v₁−v₂ to a constant d and requires d·sign(step) ≤ 0 — i.e. the l1
// instance writing/reading the shared element runs no later than the l2
// instance, exactly as in the unfused order.
func (o *optimizer) fuse(l1, l2 *Loop, env map[string]loopRange) *Loop {
	if l1.From != l2.From || l1.To != l2.To || l1.Step != l2.Step {
		return nil // different ranges or directions
	}
	if len(l1.Inds) > 0 || len(l2.Inds) > 0 {
		return nil // already strength-reduced (not at this level; be safe)
	}
	body2 := l2.Body
	if l2.Var != l1.Var {
		if mentionsVar(body2, l1.Var) {
			return nil // renaming would capture
		}
		body2, _ = rewriteAll(body2, renaming{l2.Var: l1.Var}.node)
	}
	r := loopRange{l1.From, l1.To, l1.Step}
	a1, a2 := collectAccesses(l1.Body, true), collectAccesses(body2, true)
	defer a1.release()
	defer a2.release()
	if a1.barrier || a2.barrier {
		return nil
	}
	// Scalar temporaries are loop-local pipelines; sharing any between
	// the bodies (in any read/write combination) is a dependence we do
	// not analyze — reject.
	for s := range a1.scalarW {
		if a2.scalarR[s] || a2.scalarW[s] {
			return nil
		}
	}
	for s := range a1.scalarR {
		if a2.scalarW[s] {
			return nil
		}
	}
	sameIterOnly := true
	for i := range a1.acc {
		for j := range a2.acc {
			safe, carried := pairSafe(&a1.acc[i], &a2.acc[j], l1.Var, r, env)
			if !safe {
				return nil
			}
			if carried {
				sameIterOnly = false
			}
		}
	}
	parallel := l1.Parallel && l2.Parallel && sameIterOnly
	return &Loop{
		Var:  l1.Var,
		From: l1.From, To: l1.To, Step: l1.Step,
		Parallel: parallel,
		// Both halves individually tolerate concurrency (parallel or
		// doacross) and fusion proved the interleaving legal: keep the
		// fused loop a doacross candidate — the planning pass re-derives
		// the concrete distances before scheduling anything.
		Doacross: !parallel && (l1.Parallel || l1.Doacross) && (l2.Parallel || l2.Doacross),
		Body:     append(l1.Body, body2...),
	}
}

// pairSafe decides whether the cross-body access pair is compatible
// with fusion over loop variable v with range r. carried reports a
// proven dependence at distance ≠ 0 (which forbids keeping the fused
// loop parallel).
func pairSafe(x1, x2 *access, v string, r loopRange, env map[string]loopRange) (safe, carried bool) {
	if !x1.write && !x2.write {
		return true, false
	}
	if x1.array != x2.array {
		return true, false
	}
	s1, s2 := x1.forms(), x2.forms()
	if x1.whole || x2.whole || len(s1) != len(s2) {
		return false, false
	}
	// Per dimension: either prove the subscripts never coincide, or pin
	// the iteration distance v1−v2 to a constant.
	var dist int64
	haveDist := false
	for d := range s1 {
		f1, f2 := s1[d], s2[d]
		if f1 == nil || f2 == nil {
			continue // non-affine: no information from this dimension
		}
		res := dimAnalyze(f1, f2, x1.loops, x2.loops, v, r, env)
		switch res.kind {
		case dimDisjoint:
			return true, false
		case dimExact:
			if haveDist && dist != res.d {
				return true, false // inconsistent constraints: no common element
			}
			haveDist, dist = true, res.d
		}
	}
	if !haveDist {
		return false, false // nothing proven: assume the worst
	}
	// dist = v1 − v2 in value space; feasible only at step multiples
	// within the range span.
	lo, hi := r.valueBounds()
	span := hi - lo
	if dist%r.step != 0 || dist > span || dist < -span {
		return true, false
	}
	iterDist := dist / r.step // t1 − t2 in iteration order
	if iterDist > 0 {
		return false, false // l1's instance would now run after l2's
	}
	return true, iterDist != 0
}

type dimResult struct {
	kind int // dimUnknown, dimDisjoint, dimExact
	d    int64
}

const (
	dimUnknown = iota
	dimDisjoint
	dimExact
)

// dimAnalyze compares the affine subscripts of the two accesses in one
// dimension. Variables bound inside either body range independently;
// the fused loop variable v ranges independently on each side (v1, v2);
// every other variable is an enclosing loop variable holding the same
// value for both. Returns dimDisjoint when f1 = f2 has no solution over
// the concrete ranges, dimExact when any solution forces v1 − v2 = d.
func dimAnalyze(f1, f2 *linForm, in1, in2 *loopScope, v string, r loopRange, env map[string]loopRange) dimResult {
	// Interval of f1 − f2 and the structural facts needed for an exact
	// distance: coefficient of v on each side, presence of independent
	// (inner) terms, non-cancelling shared terms.
	a1, a2 := f1.t[v], f2.t[v]
	lo := float64(f1.c - f2.c)
	hi := lo
	addRange := func(coeff int64, rng loopRange, known bool) {
		if coeff == 0 {
			return
		}
		if !known {
			lo, hi = math.Inf(-1), math.Inf(1)
			return
		}
		vlo, vhi := rng.valueBounds()
		x1 := float64(coeff) * float64(vlo)
		x2 := float64(coeff) * float64(vhi)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		lo += x1
		hi += x2
	}
	exact := true
	shared := map[string]int64{}
	handleSide := func(f *linForm, in *loopScope, sign int64) {
		for name, coeff := range f.t {
			if name == v {
				continue
			}
			if rng, isInner := in.lookup(name); isInner {
				addRange(sign*coeff, rng, true)
				exact = false // independent term: distance not pinned
				continue
			}
			shared[name] += sign * coeff
		}
	}
	handleSide(f1, in1, 1)
	handleSide(f2, in2, -1)
	for name, net := range shared {
		rng, known := env[name]
		addRange(net, rng, known)
		if net != 0 {
			exact = false
		}
	}
	// v contributions: a1·v1 − a2·v2 with v1, v2 independent over r.
	addRange(a1, r, true)
	addRange(-a2, r, true)
	if lo > 0 || hi < 0 {
		return dimResult{kind: dimDisjoint}
	}
	if exact && a1 == a2 && a1 != 0 {
		// a·v1 + c1 = a·v2 + c2  ⇒  v1 − v2 = (c2 − c1)/a.
		num := f2.c - f1.c
		if num%a1 != 0 {
			return dimResult{kind: dimDisjoint}
		}
		return dimResult{kind: dimExact, d: num / a1}
	}
	return dimResult{kind: dimUnknown}
}

// mentionsVar reports whether the integer variable occurs anywhere in
// the statements, as a binder or in an expression.
func mentionsVar(stmts []Stmt, name string) bool {
	return anyStmt(stmts, func(n any) bool {
		switch x := n.(type) {
		case *Loop:
			return x.Var == name || slices.ContainsFunc(x.Inds, func(ind Ind) bool { return ind.Name == name })
		case *IVar:
			return x.Name == name
		case *ILin:
			return slices.ContainsFunc(x.Terms, func(t ITerm) bool { return t.Var == name })
		}
		return false
	})
}

// renaming maps integer variables to new names. Its node method is a
// Rewrite callback that renames them at every use and at the binders of
// induction registers. Loop variables are renamed at their uses only:
// callers rename a loop's free variable, or registers, which are
// program-unique.
type renaming map[string]string

func (m renaming) has(name string) bool {
	_, ok := m[name]
	return ok
}

func (m renaming) node(n any) any {
	switch x := n.(type) {
	case *IVar:
		if m.has(x.Name) {
			return &IVar{Name: m[x.Name]}
		}
	case *ILin:
		if slices.ContainsFunc(x.Terms, func(t ITerm) bool { return m.has(t.Var) }) {
			c := &ILin{Const: x.Const, Terms: slices.Clone(x.Terms)}
			for i, t := range c.Terms {
				if m.has(t.Var) {
					c.Terms[i].Var = m[t.Var]
				}
			}
			return c
		}
	case *Loop:
		if slices.ContainsFunc(x.Inds, func(ind Ind) bool { return m.has(ind.Name) }) {
			c := *x
			c.Inds = slices.Clone(x.Inds)
			for i, ind := range c.Inds {
				if m.has(ind.Name) {
					c.Inds[i].Name = m[ind.Name]
				}
			}
			return &c
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Pass: strength reduction
// ---------------------------------------------------------------------------

// strengthReduce rewrites the affine unchecked accesses of L's direct
// body (statements not nested in an inner loop) to incrementally
// maintained offsets. For each distinct variable-coefficient signature
// it allocates one induction register; accesses differing only in the
// constant share it through a constant delta. The register's Init is an
// affine form over enclosing loop variables — for the inner loop of a
// row-major 2-D nest this is precisely the precomputed row base.
//
// If branches (and VCond arms) are included — the offset arithmetic is
// pure, so maintaining it for an access that does not execute is
// harmless — but nested loops are not (their accesses are reduced
// against their own header).
func (o *optimizer) strengthReduce(L *Loop, env map[string]loopRange) {
	type group struct {
		base *linForm
		name string
	}
	groups := map[string]*group{}
	var order []string
	t := collectAccesses(L.Body, false)
	defer t.release()
	for i := range t.acc {
		a := &t.acc[i]
		var off *IntExpr
		switch x := a.node.(type) {
		case *Assign:
			if !x.CheckBounds {
				off = &x.Off
			}
		case *ARef:
			if !x.CheckBounds {
				off = &x.Off
			}
		}
		if off == nil || *off != nil {
			continue
		}
		form := o.offsetForm(a.array, a.forms())
		if form == nil {
			continue
		}
		vs := form.vars()
		sigParts := make([]string, len(vs))
		for k, name := range vs {
			sigParts[k] = fmt.Sprintf("%s*%d", name, form.t[name])
		}
		sig := strings.Join(sigParts, "|")
		if len(vs) == 0 {
			// Fully constant offset: no register needed.
			*off = &ILin{Const: form.c}
			o.stats.ReducedAccesses++
			continue
		}
		g := groups[sig]
		if g == nil {
			g = &group{base: form}
			groups[sig] = g
			order = append(order, sig)
		}
		delta := form.c - g.base.c
		if g.name == "" {
			g.name = o.fresh("o", &o.indSeq)
		}
		*off = &ILin{Const: delta, Terms: []ITerm{{Var: g.name, Coeff: 1}}}
		o.stats.ReducedAccesses++
	}
	for _, sig := range order {
		g := groups[sig]
		a := g.base.t[L.Var]
		init := g.base.clone()
		delete(init.t, L.Var)
		init.c += a * L.From
		L.Inds = append(L.Inds, Ind{Name: g.name, Init: init.toILin(), Step: a * L.Step})
		o.stats.IndRegisters++
	}
}

// offsetForm flattens an access's subscript forms to the row-major
// linear offset form, or nil when any subscript is non-affine or the
// access does not match its declaration.
func (o *optimizer) offsetForm(arr string, subs []*linForm) *linForm {
	d := o.prog.Decl(arr)
	if d == nil || len(subs) != d.B.Rank() {
		return nil
	}
	total := &linForm{t: map[string]int64{}}
	for dim, f := range subs {
		if f == nil {
			return nil
		}
		// total = total·extent + (f − lo)
		total.scale(d.B.Extent(dim))
		total.c += f.c - d.B.Lo[dim]
		for name, coeff := range f.t {
			total.addTerm(name, coeff)
		}
	}
	return total
}
