package loopir

import "sync"

// The access table: one walk over a statement list records every array
// touch with its per-dimension affine subscript forms, the way the
// analysis builds each clause's affine subscript form once
// (internal/affine). Every loop-IR analysis that reasons about array
// accesses is a filter over this table, each keeping its own decision
// rule:
//
//   - loop fusion (fuse: pairSafe, dimAnalyze) compares every pair of
//     accesses across the two bodies;
//   - the parallel planner (planAccesses: pairDistances, dist2D,
//     dist1D) and the plan certifier (checkPlan, which enumerates
//     concrete points instead of trusting the planner's distances)
//     read the element accesses of a candidate nest;
//   - strength reduction (strengthReduce) rewrites the loop's direct
//     accesses through their node pointers;
//   - the row-kernel compiler (selfReads) measures each read of the
//     stored array's distance from the store;
//   - the stream planner (BuildStreamPlan) takes a loop body's write
//     offset and each read's window distance from their forms.
//
// A table is built on demand for the statements a pass examines and
// never kept across rewrites: guard splitting clones loops, and a
// record points into the statements it was built from.

// access is one array touch.
type access struct {
	array string
	write bool
	// whole marks a touch of every element: CopyArray, Fill, a BVerify
	// guard, and an index load (IIdx), whose element is data-dependent.
	whole bool
	// subs are an element access's per-dimension affine subscript
	// forms, derived from node on first use (forms).
	subs []*linForm
	// loops are the loops bound between the table's root and the
	// access, innermost first. Accesses under one loop share its scope.
	loops *loopScope
	// checked: the access checks bounds (or, for a read, definedness).
	// accum and collide mark an accumulating or collision-checked store.
	checked, accum, collide bool
	// node is the *Assign or *ARef of an element access.
	node any
}

// forms returns the per-dimension affine forms of an element access's
// subscripts, nil in a dimension that is not affine. They are derived
// on first use: most consumers read the forms of only some records.
func (a *access) forms() []*linForm {
	if a.subs != nil {
		return a.subs
	}
	var exprs []IntExpr
	switch x := a.node.(type) {
	case *Assign:
		exprs = x.Subs
	case *ARef:
		exprs = x.Subs
	}
	if len(exprs) > 0 {
		a.subs = make([]*linForm, len(exprs))
		for i, s := range exprs {
			a.subs[i] = intLin(s)
		}
	}
	return a.subs
}

// loopScope is one loop bound between a table's root and an access.
type loopScope struct {
	v  string
	r  loopRange
	up *loopScope
}

// lookup returns the range of the innermost enclosing loop binding v.
func (s *loopScope) lookup(v string) (loopRange, bool) {
	for ; s != nil; s = s.up {
		if s.v == v {
			return s.r, true
		}
	}
	return loopRange{}, false
}

// accessTable is the access record of a statement list, in evaluation
// order, plus what the statements do besides touching arrays.
type accessTable struct {
	acc []access
	// scalarR and scalarW are the scalars read and written (nil when
	// none).
	scalarR, scalarW map[string]bool
	// barrier: a CheckFull or Fail appears. other: a statement other
	// than Assign and If appears. cond: a conditional value (VCond)
	// appears.
	barrier, other, cond bool
	// nested: the table descends into nested loops.
	nested bool
}

// collectAccesses builds the access table of stmts. With nested set it
// records the accesses of nested loops too, as fusion needs; without,
// a nested loop only counts as an other statement, which is all the
// consumers that examine one level need, and cheaper.
//
// A caller that keeps no record past its last look at the table
// releases it, so that the next table reuses its records' storage:
// passes build a table per loop and most hold a handful of records, so
// growing a fresh slice for each cost more than the records themselves.
func collectAccesses(stmts []Stmt, nested bool) *accessTable {
	t := accessTables.Get().(*accessTable)
	t.nested = nested
	t.stmts(stmts, nil)
	return t
}

// release returns t to the pool. Neither t nor any of its records may
// be used afterwards.
func (t *accessTable) release() {
	clear(t.acc)
	*t = accessTable{acc: t.acc[:0]}
	accessTables.Put(t)
}

var accessTables = sync.Pool{New: func() any { return new(accessTable) }}

func mark(m *map[string]bool, name string) {
	if *m == nil {
		*m = map[string]bool{}
	}
	(*m)[name] = true
}

// stmts records the accesses of a statement list under scope sc, in
// Inspect's order: a store before the index loads of its subscripts and
// offset, and those before its right-hand side's reads.
func (t *accessTable) stmts(list []Stmt, sc *loopScope) {
	inspectList(list, func(n any) bool {
		switch x := n.(type) {
		case *Assign:
			t.acc = append(t.acc, access{array: x.Array, write: true, checked: x.CheckBounds, loops: sc, node: x,
				accum: x.HasAccum, collide: x.CheckCollision})
		case *Loop:
			if t.nested {
				t.stmts(x.Body, &loopScope{v: x.Var, r: loopRange{x.From, x.To, x.Step}, up: sc})
			}
			t.other = true
			return false
		case *SetScalar:
			mark(&t.scalarW, x.Name)
			t.other = true
		case *CopyArray:
			t.acc = append(t.acc,
				access{array: x.Dst, write: true, whole: true, loops: sc},
				access{array: x.Src, whole: true, loops: sc})
			t.other = true
		case *Fill:
			t.acc = append(t.acc, access{array: x.Array, write: true, whole: true, loops: sc})
			t.other = true
		case *CheckFull, *Fail:
			t.barrier, t.other = true, true
		case *VScalar:
			mark(&t.scalarR, x.Name)
		case *ARef:
			t.acc = append(t.acc, access{array: x.Array, checked: x.CheckBounds || x.CheckDefined, loops: sc, node: x})
		case *IIdx:
			t.acc = append(t.acc, access{array: x.Array, whole: true, loops: sc})
		case *BVerify:
			t.acc = append(t.acc, access{array: x.Array, whole: true, loops: sc})
		case *VCond:
			t.cond = true
		}
		return true
	})
}
