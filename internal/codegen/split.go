package codegen

import (
	"fmt"

	"arraycomp/internal/affine"
	"arraycomp/internal/analysis"
	"arraycomp/internal/deptest"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/schedule"
)

// Node splitting (paper section 9): after scheduling a bigupd with its
// anti edges relaxed, every anti dependence the schedule violates —
// a read of the old contents whose element is overwritten before the
// read executes — is repaired by materializing the old value:
//
//   - tier "scalar": the kill happens in the same loop instance, after
//     the reading clause was scheduled past the killer; one scalar per
//     instance saved at instance start (the LINPACK row-swap shape).
//   - tier "pipeline": the kill happened exactly one iteration earlier
//     in the innermost loop; a scalar carried across iterations (the
//     inner half of the Jacobi shape).
//   - tier "rowbuf": the kill happened exactly one iteration earlier
//     in the outer loop of a two-level nest, same inner position; a
//     vector temporary holding the previous outer instance's old
//     values (the outer half of the Jacobi shape).
//   - tier "copy": everything else; the whole source array is copied
//     at entry (the paper's naive compilation the better tiers beat by
//     a factor of the loop extent).

// schedPath is a clause's position in the schedule tree.
type schedPath struct {
	nodes []*schedule.Node // from a root node down to the clause leaf
	pos   []int            // sibling index of nodes[i] within its parent body
}

// buildPaths indexes every clause's schedule path.
func buildPaths(sched *schedule.Result) map[int]schedPath {
	out := map[int]schedPath{}
	var walk func(nodes []*schedule.Node, prefixN []*schedule.Node, prefixP []int)
	walk = func(nodes []*schedule.Node, prefixN []*schedule.Node, prefixP []int) {
		for i, n := range nodes {
			pn := append(append([]*schedule.Node(nil), prefixN...), n)
			pp := append(append([]int(nil), prefixP...), i)
			if n.IsLoop() {
				walk(n.Body, pn, pp)
				continue
			}
			out[n.Clause.ID] = schedPath{nodes: pn, pos: pp}
		}
	}
	walk(sched.Nodes, nil, nil)
	return out
}

// loopNodesOf returns the loop pass nodes on a clause's path,
// outermost first.
func (p schedPath) loopNodes() []*schedule.Node {
	var out []*schedule.Node
	for _, n := range p.nodes {
		if n.IsLoop() {
			out = append(out, n)
		}
	}
	return out
}

// EdgeSatisfied reports whether the schedule executes every source
// instance before its sink instance for a dependence from clause srcID
// to clause dstID under the given direction vector. This is the
// correctness condition of thunkless compilation (flow edges), order
// preservation (output edges) and copy-free updates (anti edges).
func EdgeSatisfied(paths map[int]schedPath, srcID, dstID int, dir deptest.Vector) bool {
	rp, ok1 := paths[srcID]
	wp, ok2 := paths[dstID]
	if !ok1 || !ok2 {
		return false
	}
	loopIdx := 0
	for d := 0; ; d++ {
		if d >= len(rp.nodes) || d >= len(wp.nodes) {
			// Same clause, paths exhausted together: same instance,
			// and a clause evaluates its reads before its write.
			return true
		}
		if rp.nodes[d] != wp.nodes[d] {
			// Siblings (possibly split passes of the same source
			// loop): the earlier subtree runs to completion first.
			return rp.pos[d] < wp.pos[d]
		}
		n := rp.nodes[d]
		if !n.IsLoop() {
			// Identical clause leaf: same instance.
			return true
		}
		if loopIdx >= len(dir) {
			return false // defensive: unknown relation
		}
		switch dir[loopIdx] {
		case deptest.DirEqual:
			loopIdx++
			continue
		case deptest.DirLess:
			// Source instance earlier: executed first iff forward.
			return n.Dir == schedule.Forward
		case deptest.DirGreater:
			return n.Dir == schedule.Backward
		default:
			return false
		}
	}
}

// BuildSchedPaths exposes the schedule position index for validation.
func BuildSchedPaths(sched *schedule.Result) map[int]schedPath {
	return buildPaths(sched)
}

// antiSatisfied reports whether the schedule executes the reading
// instance before the killing write for every instance pair admitted
// by the direction vector.
func antiSatisfied(paths map[int]schedPath, dep analysis.AntiDep) bool {
	return EdgeSatisfied(paths, dep.Read.Clause.ID, dep.Writer, dep.Dep.Dir)
}

// planSplits inspects every anti dependence under the chosen schedule
// and installs the repairs.
func (lw *lowerer) planSplits() error {
	paths := buildPaths(lw.sched)
	// Repairs are installed in the reads' first-violation order, so the
	// temporaries and hooks they add land in the same place every run.
	violated := map[*analysis.ReadRef][]analysis.AntiDep{}
	var reads []*analysis.ReadRef
	for _, dep := range lw.res.AntiDeps {
		if !antiSatisfied(paths, dep) {
			if violated[dep.Read] == nil {
				reads = append(reads, dep.Read)
			}
			violated[dep.Read] = append(violated[dep.Read], dep)
		}
	}
	if len(violated) == 0 {
		lw.note("all anti dependences satisfied by the schedule: in-place update with no copying")
		return nil
	}
	var copyReads []*analysis.ReadRef
	for _, rd := range reads {
		deps := violated[rd]
		tier := lw.classifySplit(paths, rd, deps)
		switch tier {
		case "scalar":
			if err := lw.splitScalar(paths, rd, deps); err != nil {
				return err
			}
		case "pipeline":
			if err := lw.splitPipeline(paths, rd); err != nil {
				return err
			}
		case "rowbuf":
			if err := lw.splitRowBuf(paths, rd); err != nil {
				return err
			}
		default:
			copyReads = append(copyReads, rd)
		}
	}
	if len(copyReads) > 0 {
		lw.splitFullCopy(copyReads)
	}
	return nil
}

// classifySplit picks the cheapest applicable tier for a read.
func (lw *lowerer) classifySplit(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) string {
	if !rd.Affine {
		return "copy"
	}
	if tier, ok := lw.classifyInstanceKill(paths, rd, deps); ok {
		return tier
	}
	if tier, ok := lw.classifyCarriedKill(paths, rd, deps); ok {
		return tier
	}
	return "copy"
}

// classifyInstanceKill recognizes the same-instance tier: every
// violated kill happens within the same instance of every shared loop,
// the read's subscripts use only those shared loops, and reader and
// writers traverse the same pass nodes.
func (lw *lowerer) classifyInstanceKill(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) (string, bool) {
	reader := rd.Clause
	rp := paths[reader.ID]
	for _, dep := range deps {
		if !dep.Dep.Dir.SelfEqual() {
			return "", false
		}
		wp := paths[dep.Writer]
		// Reader and writer must share pass nodes for every shared
		// source loop: the divergence level must have consumed all of
		// the vector.
		common := 0
		loops := 0
		for common < len(rp.nodes) && common < len(wp.nodes) && rp.nodes[common] == wp.nodes[common] {
			if rp.nodes[common].IsLoop() {
				loops++
			}
			common++
		}
		if loops < len(dep.Dep.Dir) {
			return "", false
		}
	}
	// The read's element must be fixed within a shared instance: its
	// subscripts may use only the shared-prefix loops common with every
	// violated writer.
	sharedVars := map[string]bool{}
	first := true
	for _, dep := range deps {
		writer := lw.res.Clauses[dep.Writer]
		n := analysis.SharedLen(reader, writer)
		vars := map[string]bool{}
		for k := 0; k < n; k++ {
			vars[reader.Nest[k].Var] = true
		}
		if first {
			sharedVars = vars
			first = false
		} else {
			for v := range sharedVars {
				if !vars[v] {
					delete(sharedVars, v)
				}
			}
		}
	}
	for _, form := range rd.Forms {
		for _, v := range form.Vars() {
			if !sharedVars[v] {
				return "", false
			}
		}
	}
	return "scalar", true
}

// killDelta computes the uniform per-loop source-space distance δ such
// that the instance y = x + δ of the (self) writer kills the element
// read at instance x, requiring translation-shaped subscripts.
func killDelta(rd *analysis.ReadRef, writer *analysis.FlatClause) (map[string]int64, bool) {
	if !writer.WriteAffine || len(rd.Forms) != len(writer.WriteForms) {
		return nil, false
	}
	delta := map[string]int64{}
	covered := map[string]bool{}
	for d := range rd.Forms {
		rf, wf := rd.Forms[d], writer.WriteForms[d]
		rv, wv := rf.Vars(), wf.Vars()
		if len(rv) != 1 || len(wv) != 1 || rv[0] != wv[0] {
			return nil, false
		}
		v := rv[0]
		k := wf.CoeffOf(v)
		if k == 0 || k != rf.CoeffOf(v) {
			return nil, false
		}
		diff := rf.Const - wf.Const
		if diff%k != 0 {
			return nil, false // no integral kill instance: cannot be uniform
		}
		d := diff / k
		if prev, ok := delta[v]; ok && prev != d {
			return nil, false
		}
		delta[v] = d
		covered[v] = true
	}
	// Every loop of the clause must be pinned by some dimension,
	// otherwise the kill instance is not unique.
	for _, l := range writer.Nest {
		if !covered[l.Var] {
			return nil, false
		}
	}
	return delta, true
}

// execOffset converts a source-space delta on one loop into "killer
// executed m iterations earlier" (m > 0) under the scheduled
// direction, or fails.
func execOffset(l affine.Loop, dir schedule.Direction, delta int64) (int64, bool) {
	if delta%l.Stride != 0 {
		return 0, false
	}
	q := delta / l.Stride // iteration-space delta of the killer
	if dir == schedule.Backward {
		q = -q
	}
	// Killer executed earlier ⇔ q < 0; m = −q.
	return -q, true
}

// classifyCarriedKill recognizes the pipeline and rowbuf tiers: a
// single self kill exactly one iteration earlier on one loop level.
func (lw *lowerer) classifyCarriedKill(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) (string, bool) {
	reader := rd.Clause
	for _, dep := range deps {
		if dep.Writer != reader.ID {
			return "", false
		}
	}
	delta, ok := killDelta(rd, reader)
	if !ok {
		return "", false
	}
	loops := paths[reader.ID].loopNodes()
	if len(loops) != len(reader.Nest) {
		return "", false
	}
	var offsets []int64
	for i, l := range reader.Nest {
		m, ok := execOffset(l, loops[i].Dir, delta[l.Var])
		if !ok {
			return "", false
		}
		offsets = append(offsets, m)
	}
	n := len(offsets)
	if n >= 1 && offsets[n-1] == 1 {
		inner := true
		for _, m := range offsets[:n-1] {
			if m != 0 {
				inner = false
			}
		}
		if inner {
			return "pipeline", true
		}
	}
	if n == 2 && offsets[0] == 1 && offsets[1] == 0 {
		return "rowbuf", true
	}
	return "", false
}

// formToILin converts an affine subscript form to the IR fast path.
func formToILin(f affine.Form) *loopir.ILin {
	lin := &loopir.ILin{Const: f.Const}
	for _, v := range f.Vars() {
		lin.Terms = append(lin.Terms, loopir.ITerm{Var: v, Coeff: f.CoeffOf(v)})
	}
	return lin
}

func formsToSubs(forms []affine.Form) []loopir.IntExpr {
	subs := make([]loopir.IntExpr, len(forms))
	for i, f := range forms {
		subs[i] = formToILin(f)
	}
	return subs
}

// substFormVar folds a loop variable to a constant inside a form.
func substFormVar(f affine.Form, v string, val int64) affine.Form {
	k := f.CoeffOf(v)
	if k == 0 {
		return f
	}
	out := affine.Form{Const: f.Const + k*val, Coeff: map[string]int64{}}
	for _, w := range f.Vars() {
		if w != v {
			out.Coeff[w] = f.CoeffOf(w)
		}
	}
	return out
}

// formsInBounds reports whether subscript forms provably stay within
// the self array over the given loops (loops absent from the list are
// assumed absent from the forms).
func (lw *lowerer) formsInBounds(forms []affine.Form, nest affine.Nest) bool {
	if len(forms) != lw.res.Bounds.Rank() {
		return false
	}
	for d, f := range forms {
		lo, hi := f.Const, f.Const
		for _, v := range f.Vars() {
			idx := nest.Index(v)
			if idx < 0 {
				return false
			}
			l := nest[idx]
			a := l.First
			b := l.ValueAt(l.Trip())
			if a > b {
				a, b = b, a
			}
			k := f.CoeffOf(v)
			if k >= 0 {
				lo += k * a
				hi += k * b
			} else {
				lo += k * b
				hi += k * a
			}
		}
		if lo < lw.res.Bounds.Lo[d] || hi > lw.res.Bounds.Hi[d] {
			return false
		}
	}
	return true
}

// splitScalar installs the same-instance tier: one scalar per violated
// read, saved at the start of the deepest shared instance.
func (lw *lowerer) splitScalar(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) error {
	reader := rd.Clause
	rp := paths[reader.ID]
	// Deepest common loop pass node with all violated writers.
	depth := len(rp.nodes)
	for _, dep := range deps {
		wp := paths[dep.Writer]
		common := 0
		for common < len(rp.nodes) && common < len(wp.nodes) && rp.nodes[common] == wp.nodes[common] {
			common++
		}
		if common < depth {
			depth = common
		}
	}
	var anchor *schedule.Node
	for d := 0; d < depth; d++ {
		if rp.nodes[d].IsLoop() {
			anchor = rp.nodes[d]
		}
	}
	s := lw.freshScalar("save")
	save := &loopir.SetScalar{Name: s, Rhs: &loopir.ARef{
		Array: lw.selfIR, Subs: formsToSubs(rd.Forms),
	}}
	if anchor != nil {
		lw.hooks.instanceStart[anchor] = append(lw.hooks.instanceStart[anchor], save)
	} else {
		lw.prog.Stmts = append(lw.prog.Stmts, save)
	}
	lw.hooks.readRepl[rd.Ix] = &loopir.VScalar{Name: s}
	lw.note("node splitting: %s!%s saved to a per-instance scalar (same-instance kill)", rd.Ix.Array, loopir.IntExprString(formsToSubs(rd.Forms)[0]))
	return nil
}

// splitPipeline installs the innermost distance-1 tier.
func (lw *lowerer) splitPipeline(paths map[int]schedPath, rd *analysis.ReadRef) error {
	reader := rd.Clause
	loops := paths[reader.ID].loopNodes()
	innerNode := loops[len(loops)-1]
	innerLoop := reader.Nest[len(reader.Nest)-1]
	prev := lw.freshScalar("prev")
	cur := lw.freshScalar("cur")
	// Initialize prev with the read's value at the first executed inner
	// iteration, when provably in bounds.
	firstVal := innerLoop.First
	if innerNode.Dir == schedule.Backward {
		firstVal = innerLoop.ValueAt(innerLoop.Trip())
	}
	initForms := make([]affine.Form, len(rd.Forms))
	for d, f := range rd.Forms {
		initForms[d] = substFormVar(f, innerLoop.Var, firstVal)
	}
	if lw.formsInBounds(initForms, reader.Nest[:len(reader.Nest)-1]) {
		lw.hooks.beforeLoop[innerNode] = append(lw.hooks.beforeLoop[innerNode],
			&loopir.SetScalar{Name: prev, Rhs: &loopir.ARef{Array: lw.selfIR, Subs: formsToSubs(initForms)}})
	}
	lw.hooks.clauseSaves[reader.ID] = append(lw.hooks.clauseSaves[reader.ID],
		saveStmt{scalar: cur, rhs: &loopir.ARef{Array: lw.selfIR, Subs: formsToSubs(reader.WriteForms)}})
	lw.hooks.clauseAfter[reader.ID] = append(lw.hooks.clauseAfter[reader.ID],
		&loopir.SetScalar{Name: prev, Rhs: &loopir.VScalar{Name: cur}})
	lw.hooks.readRepl[rd.Ix] = &loopir.VScalar{Name: prev}
	lw.note("node splitting: %s read pipelined through a carried scalar (inner distance 1)", rd.Ix.Array)
	return nil
}

// splitRowBuf installs the outer distance-1 tier for two-level nests.
func (lw *lowerer) splitRowBuf(paths map[int]schedPath, rd *analysis.ReadRef) error {
	reader := rd.Clause
	loops := paths[reader.ID].loopNodes()
	outerNode, innerNode := loops[0], loops[1]
	outerLoop, innerLoop := reader.Nest[0], reader.Nest[1]
	_ = innerNode
	// Buffer over the inner loop's source value range.
	lo, hi := innerLoop.First, innerLoop.ValueAt(innerLoop.Trip())
	if lo > hi {
		lo, hi = hi, lo
	}
	buf := fmt.Sprintf("rowbuf$%d", len(lw.prog.Arrays))
	lw.prog.Arrays = append(lw.prog.Arrays, loopir.ArrayDecl{
		Name: buf, B: runtime.NewBounds1(lo, hi), Role: loopir.RoleTemp,
	})
	innerKey := []loopir.IntExpr{&loopir.ILin{Terms: []loopir.ITerm{{Var: innerLoop.Var, Coeff: 1}}}}
	// Initialize with the read's values at the first executed outer
	// iteration.
	firstOuter := outerLoop.First
	if outerNode.Dir == schedule.Backward {
		firstOuter = outerLoop.ValueAt(outerLoop.Trip())
	}
	initForms := make([]affine.Form, len(rd.Forms))
	for d, f := range rd.Forms {
		initForms[d] = substFormVar(f, outerLoop.Var, firstOuter)
	}
	if lw.formsInBounds(initForms, affine.Nest{innerLoop}) {
		initLoop := &loopir.Loop{
			Var: innerLoop.Var, From: innerLoop.First, To: innerLoop.ValueAt(innerLoop.Trip()), Step: innerLoop.Stride,
			Body: []loopir.Stmt{&loopir.Assign{
				Array: buf, Subs: innerKey,
				Rhs: &loopir.ARef{Array: lw.selfIR, Subs: formsToSubs(initForms)},
			}},
		}
		lw.hooks.beforeLoop[outerNode] = append(lw.hooks.beforeLoop[outerNode], initLoop)
	}
	lw.hooks.clauseSaves[reader.ID] = append(lw.hooks.clauseSaves[reader.ID],
		saveStmt{array: buf, subs: innerKey, rhs: &loopir.ARef{Array: lw.selfIR, Subs: formsToSubs(reader.WriteForms)}})
	lw.hooks.readRepl[rd.Ix] = &loopir.ARef{Array: buf, Subs: innerKey}
	lw.note("node splitting: %s read buffered through a row temporary (outer distance 1)", rd.Ix.Array)
	return nil
}

// splitFullCopy installs the naive tier: copy the source at entry and
// redirect the reads.
func (lw *lowerer) splitFullCopy(reads []*analysis.ReadRef) {
	old := "old$" + lw.selfIR
	lw.prog.Arrays = append(lw.prog.Arrays, loopir.ArrayDecl{
		Name: old, B: boundsToRuntime(lw.res.Bounds), Role: loopir.RoleTemp,
	})
	lw.prog.Stmts = append(lw.prog.Stmts, &loopir.CopyArray{Dst: old, Src: lw.selfIR})
	for _, rd := range reads {
		lw.hooks.readTarget[rd.Ix] = old
	}
	lw.note("node splitting: %d read(s) fall back to a whole-array entry copy", len(reads))
}
