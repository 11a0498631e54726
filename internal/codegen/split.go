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
//   - tier "row": the kill happened exactly one iteration earlier, in
//     the innermost loop or in the outer loop of a two-level nest at
//     the same inner position (the Jacobi shape). Before each pass of
//     the innermost loop the old values the pass reads are copied into
//     a row temporary, and the read loads that instead. An inner-
//     distance read copies its own positions, which the pass has not
//     yet overwritten. An outer-distance read's positions were
//     overwritten by the previous pass, so its row rotates in the row
//     saved before that pass, then saves the row this pass is about to
//     overwrite; the first pass's row is saved before the outer loop.
//   - tier "copy": everything else; the whole source array is copied
//     at entry (the paper's naive compilation the better tiers beat by
//     a factor of the loop extent).
//
// The scalar and row tiers load positions the program itself might
// never read, and unchecked, so they are taken only when every position
// they load provably lies within the array over the reader's nest. A
// read that may fall outside it takes the copy tier, whose redirected
// read keeps its bounds check.

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
		switch lw.classifySplit(paths, rd, deps) {
		case "scalar":
			lw.splitScalar(paths, rd, deps)
		case "row":
			lw.splitRow(paths, rd, false)
		case "outer row":
			lw.splitRow(paths, rd, true)
		default:
			copyReads = append(copyReads, rd)
		}
	}
	if len(copyReads) > 0 {
		lw.splitFullCopy(copyReads)
	}
	return nil
}

// classifySplit picks the cheapest applicable tier for a read: "scalar",
// "row" for an inner-distance read, "outer row" for an outer-distance
// one, or "copy".
func (lw *lowerer) classifySplit(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) string {
	nest := rd.Clause.Nest
	if !rd.Affine || !lw.formsInBounds(rd.Forms, nest) {
		return "copy"
	}
	if lw.classifyInstanceKill(paths, rd, deps) {
		return "scalar"
	}
	switch level := lw.carriedKillLevel(paths, rd, deps); {
	case level < 0:
	case level == len(nest)-1:
		return "row"
	case lw.formsInBounds(rd.Clause.WriteForms, nest):
		// The rows an outer-distance read saves hold the write's positions.
		return "outer row"
	}
	return "copy"
}

// classifyInstanceKill recognizes the same-instance tier: every
// violated kill happens within the same instance of every shared loop,
// the read's subscripts use only those shared loops, and reader and
// writers traverse the same pass nodes.
func (lw *lowerer) classifyInstanceKill(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) bool {
	reader := rd.Clause
	rp := paths[reader.ID]
	for _, dep := range deps {
		if !dep.Dep.Dir.SelfEqual() {
			return false
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
			return false
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
				return false
			}
		}
	}
	return true
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

// carriedKillLevel recognizes the row tier: a single self kill exactly
// one iteration earlier on one loop level, the innermost, or the outer
// of a two-level nest. It returns that level, or -1.
func (lw *lowerer) carriedKillLevel(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) int {
	reader := rd.Clause
	for _, dep := range deps {
		if dep.Writer != reader.ID {
			return -1
		}
	}
	delta, ok := killDelta(rd, reader)
	if !ok {
		return -1
	}
	loops := paths[reader.ID].loopNodes()
	if len(loops) != len(reader.Nest) {
		return -1
	}
	level := -1
	for i, l := range reader.Nest {
		m, ok := execOffset(l, loops[i].Dir, delta[l.Var])
		switch {
		case !ok || m != 0 && m != 1 || m == 1 && level >= 0:
			return -1
		case m == 1:
			level = i
		}
	}
	if level == len(loops)-1 || level == 0 && len(loops) == 2 {
		return level
	}
	return -1
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
func (lw *lowerer) splitScalar(paths map[int]schedPath, rd *analysis.ReadRef, deps []analysis.AntiDep) {
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
}

// splitRow installs the row tier for a read killed one iteration
// earlier on the innermost loop (outer false) or on the outer loop of a
// two-level nest (outer true).
func (lw *lowerer) splitRow(paths map[int]schedPath, rd *analysis.ReadRef, outer bool) {
	reader := rd.Clause
	loops := paths[reader.ID].loopNodes()
	inner := reader.Nest[len(reader.Nest)-1]
	innerKey := []loopir.IntExpr{&loopir.ILin{Terms: []loopir.ITerm{{Var: inner.Var, Coeff: 1}}}}
	last := inner.ValueAt(inner.Trip())
	// row declares a temporary over the inner loop's source value range.
	row := func(prefix string) string {
		name := fmt.Sprintf("%s$%d", prefix, len(lw.prog.Arrays))
		lw.prog.Arrays = append(lw.prog.Arrays, loopir.ArrayDecl{
			Name: name, B: runtime.NewBounds1(min(inner.First, last), max(inner.First, last)), Role: loopir.RoleTemp,
		})
		return name
	}
	// copyRow copies the positions forms take over the inner loop into dst.
	copyRow := func(dst string, forms []affine.Form) loopir.Stmt {
		return &loopir.Loop{Var: inner.Var, From: inner.First, To: last, Step: inner.Stride,
			Body: []loopir.Stmt{&loopir.Assign{Array: dst, Subs: innerKey,
				Rhs: &loopir.ARef{Array: lw.selfIR, Subs: formsToSubs(forms)}}}}
	}
	buf := row("row")
	innerNode := loops[len(loops)-1]
	if outer {
		saved := row("rowsave")
		outerNode, outerLoop := loops[0], reader.Nest[0]
		first := outerLoop.First
		if outerNode.Dir == schedule.Backward {
			first = outerLoop.ValueAt(outerLoop.Trip())
		}
		seed := make([]affine.Form, len(rd.Forms))
		for d, f := range rd.Forms {
			seed[d] = substFormVar(f, outerLoop.Var, first)
		}
		lw.hooks.beforeLoop[outerNode] = append(lw.hooks.beforeLoop[outerNode], copyRow(saved, seed))
		lw.hooks.beforeLoop[innerNode] = append(lw.hooks.beforeLoop[innerNode],
			&loopir.CopyArray{Dst: buf, Src: saved}, copyRow(saved, reader.WriteForms))
		lw.note("node splitting: %s read from a row snapshot saved before the previous pass (outer distance 1)", rd.Ix.Array)
	} else {
		lw.hooks.beforeLoop[innerNode] = append(lw.hooks.beforeLoop[innerNode], copyRow(buf, rd.Forms))
		lw.note("node splitting: %s read from a row snapshot taken before the pass (inner distance 1)", rd.Ix.Array)
	}
	lw.hooks.readRepl[rd.Ix] = &loopir.ARef{Array: buf, Subs: innerKey}
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
