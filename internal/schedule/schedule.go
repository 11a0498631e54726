package schedule

import (
	"fmt"
	"sort"

	"arraycomp/internal/analysis"
	"arraycomp/internal/depgraph"
	"arraycomp/internal/deptest"
)

// Direction is a scheduled loop direction in normalized index space.
type Direction int8

const (
	// Forward runs the loop from its first source value onward.
	Forward Direction = 1
	// Backward runs the loop from its last source value back.
	Backward Direction = -1
)

// String renders the direction.
func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Node is one element of a schedule: either a clause leaf or one pass
// of a loop (a loop may be split into several consecutive Nodes).
type Node struct {
	// Clause is non-nil for leaves.
	Clause *analysis.FlatClause
	// Loop is non-nil for loop passes; it is the tree node carrying
	// the generator, guards and lets.
	Loop *analysis.TreeNode
	// Dir is the scheduled direction of a loop pass.
	Dir Direction
	// Parallel reports that no dependence is carried at this loop
	// level among the pass's contents, so its instances may execute
	// concurrently — the section 10 extension (the paper: "such
	// transformations need to focus on finding innermost loops with no
	// loop-carried dependences"; the same information identifies
	// parallel outer loops).
	Parallel bool
	// Doacross reports that dependences ARE carried at this loop level,
	// but every one of them points in the scheduled direction: the pass
	// admits pipelined (doacross) execution if concrete dependence
	// distances permit — wavefront bands over 2-D nests. Mutually
	// exclusive with Parallel.
	Doacross bool
	// Body is the ordered contents of a loop pass.
	Body []*Node
}

// IsLoop reports whether the node is a loop pass.
func (n *Node) IsLoop() bool { return n.Loop != nil }

// Result is a complete schedule (or a thunk fallback).
type Result struct {
	// Nodes is the ordered top-level sequence.
	Nodes []*Node
	// Thunked reports that no safe static schedule exists; Reason says
	// why. Nodes is nil in that case.
	Thunked bool
	Reason  string
	// LoopPasses counts emitted loop passes (diagnostics: loop
	// splitting shows up as extra passes).
	LoopPasses int
	Diags      []string
}

// clauseEdge is a dependence edge with resolved clause endpoints.
type clauseEdge struct {
	src, dst *analysis.FlatClause
	kind     depgraph.Kind
	dir      deptest.Vector
}

// fallback aborts scheduling with a reason.
type fallback struct{ reason string }

func (f *fallback) Error() string { return f.reason }

// KeepAll keeps every dependence edge.
func KeepAll(depgraph.Edge) bool { return true }

// KeepFlowOutput keeps flow and output edges (the monolithic-array
// schedule, where anti edges do not exist).
func KeepFlowOutput(e depgraph.Edge) bool { return e.Kind != depgraph.Anti }

// Build schedules the analyzed definition using the edges selected by
// keep (nil keeps all). On an unschedulable cycle it returns a Result
// with Thunked set rather than an error; errors are reserved for
// malformed inputs.
func Build(res *analysis.Result, keep func(depgraph.Edge) bool) (*Result, error) {
	if keep == nil {
		keep = KeepAll
	}
	var edges []clauseEdge
	for _, e := range res.Graph.Edges {
		if !keep(e) {
			continue
		}
		edges = append(edges, clauseEdge{
			src:  res.Clauses[e.Src],
			dst:  res.Clauses[e.Dst],
			kind: e.Kind,
			dir:  e.Dir,
		})
	}
	s := &scheduler{out: &Result{}}
	nodes, err := s.level(res.Roots, edges, -1)
	if err != nil {
		if fb, ok := err.(*fallback); ok {
			return &Result{Thunked: true, Reason: fb.reason, Diags: s.out.Diags}, nil
		}
		return nil, err
	}
	s.out.Nodes = nodes
	return s.out, nil
}

type scheduler struct {
	out *Result
}

func (s *scheduler) diag(format string, args ...any) {
	s.out.Diags = append(s.out.Diags, fmt.Sprintf(format, args...))
}

// level schedules the children of the loop at nest position p (p = -1
// for the virtual root). edges are the dependence edges whose
// endpoints both lie under these entities.
func (s *scheduler) level(entities []*analysis.TreeNode, edges []clauseEdge, p int) ([]*Node, error) {
	if len(entities) == 0 {
		return nil, nil
	}
	entIdx := map[*analysis.TreeNode]int{}
	for i, e := range entities {
		entIdx[e] = i
	}
	entityOf := func(c *analysis.FlatClause) (int, error) {
		var node *analysis.TreeNode
		if len(c.NestNodes) > p+1 {
			node = c.NestNodes[p+1]
		} else {
			node = c.Node
		}
		i, ok := entIdx[node]
		if !ok {
			return 0, fmt.Errorf("schedule: clause %s is not under the current level", c.Label())
		}
		return i, nil
	}

	// Classify edges at this level.
	type levelEdge struct {
		src, dst int
		carried  deptest.Direction // DirLess/DirGreater for carried, DirEqual for ordering
		kind     depgraph.Kind
	}
	var lvl []levelEdge
	passDown := map[int][]clauseEdge{}

	var classify func(e clauseEdge, comp deptest.Direction) error
	classify = func(e clauseEdge, comp deptest.Direction) error {
		se, err := entityOf(e.src)
		if err != nil {
			return err
		}
		de, err := entityOf(e.dst)
		if err != nil {
			return err
		}
		switch comp {
		case deptest.DirLess, deptest.DirGreater:
			lvl = append(lvl, levelEdge{src: se, dst: de, carried: comp, kind: e.kind})
		case deptest.DirEqual:
			if se != de {
				lvl = append(lvl, levelEdge{src: se, dst: de, carried: deptest.DirEqual, kind: e.kind})
				return nil
			}
			ent := entities[se]
			if ent.IsLoop() {
				passDown[se] = append(passDown[se], e)
				return nil
			}
			// Terminal: both references in the same clause instance.
			switch e.kind {
			case depgraph.Flow:
				return &fallback{reason: fmt.Sprintf("%s: element may depend on itself within a single instance", e.src.Label())}
			case depgraph.Anti, depgraph.Output:
				// A clause instance reads its operands before writing;
				// same-instance anti/output self edges are satisfied by
				// construction.
			}
		case deptest.DirAny:
			// Pessimistic expansion: the dependence may be carried
			// either way or be loop-independent.
			if err := classify(e, deptest.DirLess); err != nil {
				return err
			}
			if err := classify(e, deptest.DirGreater); err != nil {
				return err
			}
			return classify(e, deptest.DirEqual)
		}
		return nil
	}

	for _, e := range edges {
		var comp deptest.Direction
		if p < 0 {
			// Root level has no surrounding loop: edges between
			// distinct entities are pure ordering constraints, edges
			// within one entity pass down whole.
			se, err := entityOf(e.src)
			if err != nil {
				return nil, err
			}
			de, err := entityOf(e.dst)
			if err != nil {
				return nil, err
			}
			if se == de {
				ent := entities[se]
				if ent.IsLoop() {
					passDown[se] = append(passDown[se], e)
					continue
				}
				if e.kind == depgraph.Flow {
					return nil, &fallback{reason: fmt.Sprintf("%s: element may depend on itself within a single instance", e.src.Label())}
				}
				continue
			}
			lvl = append(lvl, levelEdge{src: se, dst: de, carried: deptest.DirEqual, kind: e.kind})
			continue
		}
		if p >= len(e.dir) {
			return nil, fmt.Errorf("schedule: edge %s->%s vector %v too short for level %d", e.src.Label(), e.dst.Label(), e.dir, p)
		}
		comp = e.dir[p]
		if err := classify(e, comp); err != nil {
			return nil, err
		}
	}

	// Build the level graph and classify SCCs.
	g := depgraph.New(len(entities))
	for _, e := range lvl {
		g.AddEdge(e.src, e.dst, e.kind, deptest.Vector{e.carried})
	}
	comps, compOf := g.SCCs()
	forced := make([]Direction, len(comps)) // 0 = either
	for _, e := range lvl {
		if compOf[e.src] != compOf[e.dst] && e.src != e.dst {
			continue
		}
		if compOf[e.src] != compOf[e.dst] {
			continue
		}
		c := compOf[e.src]
		switch e.carried {
		case deptest.DirLess:
			if forced[c] == Backward {
				return nil, &fallback{reason: "a dependence cycle contains both (<) and (>) edges"}
			}
			forced[c] = Forward
		case deptest.DirGreater:
			if forced[c] == Forward {
				return nil, &fallback{reason: "a dependence cycle contains both (<) and (>) edges"}
			}
			forced[c] = Backward
		}
	}
	// A cycle of loop-independent edges alone defeats any schedule.
	orderingOnly := g.Filter(func(e depgraph.Edge) bool {
		return len(e.Dir) == 1 && e.Dir[0] == deptest.DirEqual
	})
	if orderingOnly.IsCyclic() {
		return nil, &fallback{reason: "a cycle of loop-independent (=) dependences defeats every clause order"}
	}

	quotient, qComps := g.Quotient()

	// Multi-pass static scheduling over the quotient DAG.
	remaining := map[int]bool{}
	for i := range qComps {
		remaining[i] = true
	}
	forcedOf := func(q int) Direction {
		// qComps[q] lists original vertices; forced was computed per
		// SCC index from SCCs() which Quotient() reuses, so indexes
		// match.
		return forced[q]
	}
	var out []*Node
	passesEmitted := 0
	for len(remaining) > 0 {
		// Candidate direction order: majority of carried edges among
		// remaining vertices.
		less, greater := 0, 0
		for _, e := range lvl {
			if remaining[compOf[e.src]] && remaining[compOf[e.dst]] {
				switch e.carried {
				case deptest.DirLess:
					less++
				case deptest.DirGreater:
					greater++
				}
			}
		}
		tryOrder := []Direction{Forward, Backward}
		if greater > less {
			tryOrder = []Direction{Backward, Forward}
		}
		var bestReady []int
		var bestDir Direction
		for _, dir := range tryOrder {
			ready := s.readySet(quotient, remaining, forcedOf, dir)
			if len(ready) > len(bestReady) {
				bestReady = ready
				bestDir = dir
			}
		}
		if len(bestReady) == 0 {
			return nil, fmt.Errorf("schedule: internal error: no ready vertices (remaining %d)", len(remaining))
		}
		// Order the pass: topological over all quotient edges among the
		// ready set.
		readySet := map[int]bool{}
		for _, q := range bestReady {
			readySet[q] = true
		}
		ordered, err := topoWithin(quotient, bestReady)
		if err != nil {
			return nil, err
		}
		// Expand: quotient vertices → SCC members (ordered by
		// loop-independent edges) → entities → nodes.
		var passEntities []int
		for _, q := range ordered {
			members, err := topoWithin(orderingOnly, qComps[q])
			if err != nil {
				return nil, err
			}
			passEntities = append(passEntities, members...)
		}
		// A pass with no dependence carried among its own entities may
		// run its instances in parallel (section 10). Carried edges
		// into earlier or later passes do not block: earlier passes
		// completed in full, later ones have not started.
		inPass := map[int]bool{}
		for _, e := range passEntities {
			inPass[e] = true
		}
		parallel := true
		doacross := true
		consistent := deptest.DirLess
		if bestDir == Backward {
			consistent = deptest.DirGreater
		}
		for _, e := range lvl {
			if e.carried != deptest.DirEqual && inPass[e.src] && inPass[e.dst] {
				parallel = false
				if e.carried != consistent {
					doacross = false
				}
			}
		}
		doacross = doacross && !parallel
		passNodes, err := s.expand(entities, passEntities, passDown, p, bestDir, parallel, doacross)
		if err != nil {
			return nil, err
		}
		if p >= 0 {
			passesEmitted++
		}
		out = append(out, passNodes...)
		for _, q := range bestReady {
			delete(remaining, q)
		}
	}
	if p >= 0 && passesEmitted > 1 {
		if loopNode := surroundingLoop(entities[0], p); loopNode != nil && loopNode.Loop != nil {
			s.diag("loop %s split into %d passes", loopNode.Loop.Var, passesEmitted)
		}
	}
	return out, nil
}

// readySet computes the quotient vertices schedulable in a pass of the
// given direction: remaining vertices not direction-incompatible and
// not reachable from a blocking seed (paper section 8.1.3).
func (s *scheduler) readySet(quotient *depgraph.Graph, remaining map[int]bool, forcedOf func(int) Direction, dir Direction) []int {
	keep := func(e depgraph.Edge) bool { return remaining[e.Src] && remaining[e.Dst] }
	var seeds []int
	for q := range remaining {
		if f := forcedOf(q); f != 0 && f != dir {
			seeds = append(seeds, q)
		}
	}
	blockLabel := deptest.DirGreater
	if dir == Backward {
		blockLabel = deptest.DirLess
	}
	for _, e := range quotient.Edges {
		if keep(e) && len(e.Dir) == 1 && e.Dir[0] == blockLabel {
			seeds = append(seeds, e.Dst)
		}
	}
	notReady := quotient.Reachable(seeds, keep)
	var ready []int
	for q := range remaining {
		if !notReady[q] {
			ready = append(ready, q)
		}
	}
	sort.Ints(ready)
	return ready
}

// topoWithin topologically orders the given vertices of g considering
// only edges between them, breaking ties by vertex number.
func topoWithin(g *depgraph.Graph, vertices []int) ([]int, error) {
	sub, orig := g.Subgraph(vertices)
	order, err := sub.TopoSort(nil)
	if err != nil {
		return nil, &fallback{reason: "a cycle of loop-independent (=) dependences defeats every clause order"}
	}
	out := make([]int, len(order))
	for i, v := range order {
		out[i] = orig[v]
	}
	return out, nil
}

// expand turns an ordered entity list into schedule nodes: clause
// leaves directly, loop entities via recursive scheduling of their
// children (which may split them into several consecutive nodes), all
// wrapped into a single pass of the surrounding loop when p ≥ 0.
func (s *scheduler) expand(entities []*analysis.TreeNode, ordered []int, passDown map[int][]clauseEdge, p int, dir Direction, parallel, doacross bool) ([]*Node, error) {
	var body []*Node
	for _, ei := range ordered {
		ent := entities[ei]
		if ent.IsLoop() {
			inner, err := s.level(ent.Children, passDown[ei], nestPosOf(ent))
			if err != nil {
				return nil, err
			}
			body = append(body, inner...)
			continue
		}
		body = append(body, &Node{Clause: ent.Clause})
	}
	if p < 0 {
		return body, nil
	}
	// One pass of the surrounding loop. The loop tree node is the
	// parent; every clause under these entities shares it at position
	// p — recover it from any entity.
	loopNode := surroundingLoop(entities[0], p)
	if loopNode == nil {
		return nil, fmt.Errorf("schedule: cannot recover surrounding loop at position %d", p)
	}
	s.out.LoopPasses++
	return []*Node{{Loop: loopNode, Dir: dir, Parallel: parallel, Doacross: doacross, Body: body}}, nil
}

// nestPosOf returns the nest position of a loop entity (how many loops
// enclose its children minus one).
func nestPosOf(loopEnt *analysis.TreeNode) int {
	// The loop's children clauses have the loop at position
	// len(nest)-1 of their prefix up to it; recover via any clause.
	cl := firstClause(loopEnt)
	for i, n := range cl.NestNodes {
		if n == loopEnt {
			return i
		}
	}
	return -1
}

// surroundingLoop returns the loop tree node at nest position p above
// the given entity.
func surroundingLoop(ent *analysis.TreeNode, p int) *analysis.TreeNode {
	cl := firstClause(ent)
	if cl == nil || p >= len(cl.NestNodes) {
		return nil
	}
	return cl.NestNodes[p]
}

// firstClause finds a clause leaf under the entity.
func firstClause(ent *analysis.TreeNode) *analysis.FlatClause {
	if ent.Clause != nil {
		return ent.Clause
	}
	for _, c := range ent.Children {
		if cl := firstClause(c); cl != nil {
			return cl
		}
	}
	return nil
}
