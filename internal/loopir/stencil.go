package loopir

import "slices"

// Stencil guard splitting, run between the rewrite passes and parallel
// planning.
//
// The paper's flagship workloads (SOR, Jacobi smoothing, Livermore 23,
// the §3 wavefront) are all stencils, and their boundary rows are
// guarded special cases of one interior formula. A loop whose body is a
// single guarded statement — an Assign whose right-hand side is a
// top-level VCond, or a single If — with the condition affine in the
// loop variable alone is partitioned into the maximal subranges on
// which the condition is constant (splitStencilGuards). Each subrange
// becomes a clone of the loop with the guard resolved away: the
// interior clone runs the general arm branch-free, the thin boundary
// strips keep the special-case arm. Clones rename their induction
// registers (register names are program-unique) and shift register
// inits to their new entry points; the arithmetic per element is
// untouched, so results are bitwise identical. Every clone carries
// replay records (split ID, original range, resolved guard — one per
// split it descends from, since clones can be re-split) that
// CertifySplits re-checks from scratch.
//
// No pass here decides what a stencil row is: gogen's slice emitter
// (gogen/stencil.go) recognizes the rows it can emit as constant-width
// slices where it emits them, and the interpreter's strip form
// (fast.go) needs no shape at all.
//
// Splitting runs before planning on purpose: the interior clone of a
// guarded recurrence frequently becomes schedulable (its distance
// vectors are no longer clouded by the special-case arm), while the
// boundary strips fall under the cost model's thresholds and stay
// sequential — the schedules operate on the interior, the boundaries
// run sequentially, with no executor changes needed.

// splitBoundLimit bounds the loop range magnitudes the splitter will
// reason about: beyond it the breakpoint arithmetic (coefficient ×
// bound) could overflow int64, so the loop keeps its guard.
const splitBoundLimit = int64(1) << 31

// maxSplitSegments caps the clones one guard split may produce; a
// condition that partitions the range more finely is left alone
// (the body would be duplicated past any plausible payoff).
const maxSplitSegments = 4

// splitStencilGuards walks one nesting level and applies guard
// splitting. innerLocked suppresses splitting of the inner loop of a
// schedulable 2-D nest (peeling it would break the nest shape the
// planner and the tiled executors require).
func (o *optimizer) splitStencilGuards(stmts []Stmt, innerLocked bool) []Stmt {
	var out []Stmt
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			out = append(out, o.splitLoop(x, innerLocked)...)
		case *If:
			x.Then = o.splitStencilGuards(x.Then, innerLocked)
			x.Else = o.splitStencilGuards(x.Else, innerLocked)
			out = append(out, x)
		default:
			out = append(out, s)
		}
	}
	return out
}

// splitLoop attempts a guard split at l and recurses into whatever the
// attempt produced.
func (o *optimizer) splitLoop(l *Loop, innerLocked bool) []Stmt {
	lock := (l.Parallel || l.Doacross) && nest2D(l) != nil
	if !innerLocked {
		if clones := o.trySplit(l); clones != nil {
			var out []Stmt
			for _, c := range clones {
				// A clone may expose further guards (nested conditions
				// resolve one level per pass application).
				out = append(out, o.splitLoop(c, lock)...)
			}
			return out
		}
	}
	l.Body = o.splitStencilGuards(l.Body, lock)
	return []Stmt{l}
}

// guardSite locates the single guarded statement a split would
// resolve: an Assign with a top-level VCond or an If, alone among its
// host loop's direct statements in carrying a condition. Sibling
// statements are cloned unchanged by the split.
type guardSite struct {
	cond   BExpr
	isIf   bool
	assign *Assign // VCond site
	ifStmt *If
	host   *Loop // loop whose body holds the guarded statement
	idx    int   // its position in host.Body
}

// findGuard returns the guard site reachable from l, descending into a
// sole nested loop when the current level has no candidate. Two
// candidates (or two nested loops) make the split ambiguous — nil.
func findGuard(l *Loop) *guardSite {
	var site *guardSite
	var child *Loop
	for i, s := range l.Body {
		switch x := s.(type) {
		case *Assign:
			if vc, ok := x.Rhs.(*VCond); ok {
				if site != nil {
					return nil
				}
				site = &guardSite{cond: vc.C, assign: x, host: l, idx: i}
			}
		case *If:
			if site != nil {
				return nil
			}
			site = &guardSite{cond: x.Cond, isIf: true, ifStmt: x, host: l, idx: i}
		case *Loop:
			if child != nil {
				return nil
			}
			child = x
		}
	}
	if site != nil {
		return site
	}
	if child != nil {
		return findGuard(child)
	}
	return nil
}

// trySplit performs the guard split of l, returning the replacement
// clones, or nil when the loop does not qualify. When the guard is
// constant over the whole range it is resolved in place (a
// zero-clone split) and the single original loop is returned.
func (o *optimizer) trySplit(l *Loop) []*Loop {
	if l.Step != 1 {
		return nil
	}
	trip := tripCount(l.From, l.To, l.Step)
	if trip < 1 || trip >= tripSaturated {
		return nil
	}
	if l.From < -splitBoundLimit || l.To > splitBoundLimit {
		return nil
	}
	site := findGuard(l)
	if site == nil {
		return nil
	}
	if !guardAffineIn(site.cond, l.Var) {
		return nil
	}
	bounds := guardBreakpoints(site.cond, l.Var, l.From, l.To)
	if bounds == nil {
		return nil
	}
	if len(bounds) == 0 {
		// Constant over the whole range: resolve the guard in place.
		// The loop still records the resolution (a one-clone split) so
		// certification replays it; a clone of an earlier split keeps
		// its inherited records alongside.
		val := evalGuard(site.cond, l.Var, l.From)
		resolveGuard(site, val)
		pruneInds(l)
		if l.Sten == nil {
			l.Sten = &StencilInfo{}
		}
		l.Sten.Splits = append(l.Sten.Splits, SplitRecord{
			ID: o.nextSplitID(), OrigFrom: l.From, OrigTo: l.To,
			Guard: site.cond, GuardVal: val,
		})
		o.stats.StencilGuards++
		return []*Loop{l}
	}
	if len(bounds)+1 > maxSplitSegments {
		return nil
	}
	id := o.nextSplitID()
	starts := append([]int64{l.From}, bounds...)
	clones := make([]*Loop, len(starts))
	// Records inherited from splits this loop itself descends from.
	var inherited []SplitRecord
	if l.Sten != nil {
		inherited = l.Sten.Splits
	}
	// Identify the interior: the widest segment (ties go to the first).
	interior, widest := 0, int64(-1)
	for i, from := range starts {
		to := l.To
		if i+1 < len(starts) {
			to = starts[i+1] - 1
		}
		if w := to - from + 1; w > widest {
			widest, interior = w, i
		}
	}
	for i, from := range starts {
		to := l.To
		if i+1 < len(starts) {
			to = starts[i+1] - 1
		}
		c := o.cloneLoopRange(l, from, to)
		cs := findGuard(c)
		val := evalGuard(site.cond, l.Var, from)
		resolveGuard(cs, val)
		pruneInds(c)
		recs := make([]SplitRecord, 0, len(inherited)+1)
		recs = append(recs, inherited...)
		recs = append(recs, SplitRecord{
			ID: id, OrigFrom: l.From, OrigTo: l.To,
			Guard: site.cond, GuardVal: val,
		})
		c.Sten = &StencilInfo{Boundary: i != interior, Splits: recs}
		clones[i] = c
	}
	o.stats.StencilSplits++
	o.stats.StencilGuards += len(clones)
	return clones
}

// pruneInds drops induction registers that guard resolution orphaned:
// a register whose only uses sat in the discarded arm would otherwise
// surface as a declared-but-unused variable in emitted Go code.
func pruneInds(l *Loop) {
	Inspect(l, func(n any) bool {
		if x, ok := n.(*Loop); ok {
			x.Inds = slices.DeleteFunc(x.Inds, func(ind Ind) bool { return !mentionsVar(x.Body, ind.Name) })
		}
		return isStmt(n)
	})
}

// resolveGuard substitutes the proven-constant arm at the guard site:
// VCond assignments keep the taken branch, If statements have the
// taken arm spliced into their position (an empty arm just removes
// the statement).
func resolveGuard(site *guardSite, val bool) {
	if site.isIf {
		arm := site.ifStmt.Then
		if !val {
			arm = site.ifStmt.Else
		}
		old := site.host.Body
		body := make([]Stmt, 0, len(old)-1+len(arm))
		body = append(body, old[:site.idx]...)
		body = append(body, arm...)
		body = append(body, old[site.idx+1:]...)
		site.host.Body = body
		return
	}
	vc := site.assign.Rhs.(*VCond)
	if val {
		site.assign.Rhs = vc.T
	} else {
		site.assign.Rhs = vc.E
	}
}

func (o *optimizer) nextSplitID() int {
	o.splitSeq++
	return o.splitSeq
}

// cloneLoopRange copies l restricted to [from, to] in one Rewrite: it
// copies every statement, so that the clone's later in-place edits
// (guard resolution, register pruning, planning) never reach
// l, and it renames every induction register bound inside the clone to
// a fresh name (register names are program-unique; see
// collectLoopVars). The clone's own register inits are shifted to the
// new entry point.
func (o *optimizer) cloneLoopRange(l *Loop, from, to int64) *Loop {
	fresh := renaming{}
	Inspect(l, func(n any) bool {
		if x, ok := n.(*Loop); ok {
			for _, ind := range x.Inds {
				fresh[ind.Name] = o.fresh("o", &o.indSeq)
			}
		}
		return isStmt(n)
	})
	c := Rewrite(l, func(n any) any { return copyStmt(fresh.node(n)) })
	c.From, c.To = from, to
	for i := range c.Inds {
		// Init was computed for entry at l.From; entering at `from`
		// advances the register by Step·(from − l.From).
		c.Inds[i].Init = shiftInit(c.Inds[i].Init, c.Inds[i].Step*(from-l.From))
	}
	return c
}

// shiftInit adds a constant to a register init expression.
func shiftInit(e IntExpr, d int64) IntExpr {
	if d == 0 {
		return e
	}
	switch x := e.(type) {
	case *IConst:
		return &IConst{Value: x.Value + d}
	case *ILin:
		cp := &ILin{Const: x.Const + d, Terms: append([]ITerm(nil), x.Terms...)}
		return cp
	default:
		return &IBin{Op: '+', L: e, R: &IConst{Value: d}}
	}
}

// copyStmt returns a shallow copy of a statement node with its own
// register list, schedule, stencil record and subscript list; any
// other node is returned as it is. Immutable leaves (CopyArray,
// CheckFull, Fail, Fill) are shared.
func copyStmt(n any) any {
	switch x := n.(type) {
	case *Loop:
		c := *x
		c.Inds = slices.Clone(x.Inds)
		if x.Par != nil {
			par := *x.Par
			c.Par = &par
		}
		if x.Sten != nil {
			st := *x.Sten
			st.Splits = slices.Clone(x.Sten.Splits)
			c.Sten = &st
		}
		return &c
	case *If:
		c := *x
		return &c
	case *Assign:
		c := *x
		c.Subs = slices.Clone(x.Subs)
		return &c
	case *SetScalar:
		c := *x
		return &c
	}
	return n
}

// --- guard arithmetic ---

// guardAffineIn reports whether every atom of the condition is an
// integer comparison affine in v alone (no other variables, no
// division, no float comparisons).
func guardAffineIn(e BExpr, v string) bool {
	switch x := e.(type) {
	case *BConst:
		return true
	case *BCmpInt:
		l, r := intLin(x.L), intLin(x.R)
		if l == nil || r == nil {
			return false
		}
		for name := range l.t {
			if name != v {
				return false
			}
		}
		for name := range r.t {
			if name != v {
				return false
			}
		}
		if abs64(l.t[v]) > splitBoundLimit || abs64(r.t[v]) > splitBoundLimit ||
			abs64(l.c) > splitBoundLimit<<16 || abs64(r.c) > splitBoundLimit<<16 {
			return false
		}
		return true
	case *BAnd:
		return guardAffineIn(x.L, v) && guardAffineIn(x.R, v)
	case *BOr:
		return guardAffineIn(x.L, v) && guardAffineIn(x.R, v)
	case *BNot:
		return guardAffineIn(x.X, v)
	}
	return false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// evalGuard evaluates the condition at v = val. Only the forms
// guardAffineIn admits reach here.
func evalGuard(e BExpr, v string, val int64) bool {
	switch x := e.(type) {
	case *BConst:
		return x.Value
	case *BCmpInt:
		l := intLin(x.L)
		r := intLin(x.R)
		lv := l.c + l.t[v]*val
		rv := r.c + r.t[v]*val
		switch x.Op {
		case "==":
			return lv == rv
		case "/=":
			return lv != rv
		case "<":
			return lv < rv
		case "<=":
			return lv <= rv
		case ">":
			return lv > rv
		case ">=":
			return lv >= rv
		}
		return false
	case *BAnd:
		return evalGuard(x.L, v, val) && evalGuard(x.R, v, val)
	case *BOr:
		return evalGuard(x.L, v, val) || evalGuard(x.R, v, val)
	case *BNot:
		return !evalGuard(x.X, v, val)
	}
	return false
}

// guardBreakpoints returns the ascending values b in (from, to] at
// which the condition's truth differs from b−1 — the split points of
// the range. An empty (non-nil) slice means the condition is constant
// over [from, to]. Nil means the condition is not analyzable.
//
// Every truth change of the formula is a truth change of some atom,
// and an affine atom a·v + c ⟨op⟩ 0 changes truth only adjacent to
// its root: candidates ⌊−c/a⌋ and ⌊−c/a⌋+1 cover every comparison
// operator, including the re-entrant ==//=. Candidates are verified
// by direct evaluation, so the result is exact.
func guardBreakpoints(e BExpr, v string, from, to int64) []int64 {
	cands := map[int64]bool{}
	ok := collectBreakCandidates(e, v, cands)
	if !ok {
		return nil
	}
	bounds := []int64{}
	for c := range cands {
		for _, b := range []int64{c, c + 1} {
			if b > from && b <= to && !containsI64(bounds, b) &&
				evalGuard(e, v, b) != evalGuard(e, v, b-1) {
				bounds = append(bounds, b)
			}
		}
	}
	sortI64(bounds)
	return bounds
}

func collectBreakCandidates(e BExpr, v string, out map[int64]bool) bool {
	switch x := e.(type) {
	case *BConst:
		return true
	case *BCmpInt:
		l, r := intLin(x.L), intLin(x.R)
		a := l.t[v] - r.t[v]
		c := l.c - r.c
		if a == 0 {
			return true // constant atom: no breakpoints
		}
		out[floorDiv(-c, a)] = true
		return true
	case *BAnd:
		return collectBreakCandidates(x.L, v, out) && collectBreakCandidates(x.R, v, out)
	case *BOr:
		return collectBreakCandidates(x.L, v, out) && collectBreakCandidates(x.R, v, out)
	case *BNot:
		return collectBreakCandidates(x.X, v, out)
	}
	return false
}

// floorDiv is floor(a/b) for b ≠ 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func containsI64(xs []int64, x int64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func sortI64(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
