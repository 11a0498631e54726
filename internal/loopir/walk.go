package loopir

import "slices"

// The one traversal of the loop IR. Which children each node kind has,
// and in which order they are evaluated, is decided here and nowhere
// else: the optimizer's analyses and rewrites, the compiler's slot
// census, the stream planner and gogen's error-path test are clients of
// Inspect and Rewrite. Walkers that give each node its meaning stay
// hand-written: the closure compiler, gogen's emitters, the printer,
// the wire codec, the cost model and every certifier.
//
// Children come in evaluation order. A Loop's are its aligned-shard
// subscript (Par.AlignOn, evaluated to place the chunk boundaries),
// its induction-register inits (evaluated at entry), the guards of its
// split records (audit data, never evaluated) and then its body. An
// Assign evaluates its subscripts, then its offset, then its right-hand
// side; an ARef its subscripts, then its offset. Every other node's
// children come in field order.

// Inspect calls fn for n and, when fn returns true, for each of n's
// children in turn, pre-order. n is a Stmt, IntExpr, VExpr, BExpr or
// a []Stmt, whose statements are inspected in order. Nil children are
// skipped.
func Inspect(n any, fn func(any) bool) {
	switch x := n.(type) {
	case nil:
		return
	case []Stmt:
		inspectList(x, fn)
		return
	}
	if !fn(n) {
		return
	}
	switch x := n.(type) {
	case *Loop:
		if x.Par != nil {
			Inspect(x.Par.AlignOn, fn)
		}
		for i := range x.Inds {
			Inspect(x.Inds[i].Init, fn)
		}
		if x.Sten != nil {
			for i := range x.Sten.Splits {
				Inspect(x.Sten.Splits[i].Guard, fn)
			}
		}
		inspectList(x.Body, fn)
	case *If:
		Inspect(x.Cond, fn)
		inspectList(x.Then, fn)
		inspectList(x.Else, fn)
	case *Assign:
		for _, s := range x.Subs {
			Inspect(s, fn)
		}
		Inspect(x.Off, fn)
		Inspect(x.Rhs, fn)
	case *SetScalar:
		Inspect(x.Rhs, fn)
	case *IBin:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *IIdx:
		for _, s := range x.Subs {
			Inspect(s, fn)
		}
	case *VFromInt:
		Inspect(x.X, fn)
	case *ARef:
		for _, s := range x.Subs {
			Inspect(s, fn)
		}
		Inspect(x.Off, fn)
	case *VBin:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *VNeg:
		Inspect(x.X, fn)
	case *VCall:
		for _, a := range x.Args {
			Inspect(a, fn)
		}
	case *VCond:
		Inspect(x.C, fn)
		Inspect(x.T, fn)
		Inspect(x.E, fn)
	case *BCmpInt:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *BCmpFloat:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *BAnd:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *BOr:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *BNot:
		Inspect(x.X, fn)
	}
}

// inspectList inspects each statement of a list; it spares the
// statement lists inside the tree a conversion to any.
func inspectList(list []Stmt, fn func(any) bool) {
	for _, s := range list {
		Inspect(s, fn)
	}
}

// isStmt reports whether n is a statement node. Clients that look at
// statements only prune the expressions with it.
func isStmt(n any) bool {
	switch n.(type) {
	case *Loop, *If, *Assign, *SetScalar, *CopyArray, *CheckFull, *Fail, *Fill:
		return true
	}
	return false
}

// anyNode reports whether pred holds for some node of n. It stops
// calling pred at the first node that satisfies it.
func anyNode(n any, pred func(any) bool) bool {
	found := false
	Inspect(n, func(n any) bool {
		found = found || pred(n)
		return !found
	})
	return found
}

// anyStmt is anyNode over a statement list, which it spares a
// conversion to any.
func anyStmt(list []Stmt, pred func(any) bool) bool {
	found := false
	inspectList(list, func(n any) bool {
		found = found || pred(n)
		return !found
	})
	return found
}

// Rewrite rebuilds n bottom-up. Each child is rewritten first, in
// Inspect's order; a node some child of which changed is shallow-copied
// with the new children; then fn maps the node, copied or not, to its
// replacement. n itself is never mutated, and a subtree in which fn
// replaces nothing is returned as it is, so only the paths to replaced
// nodes are copied: IR shared with another plan stays intact. n is a
// Stmt, IntExpr, VExpr, BExpr or []Stmt; fn is called with nodes only,
// never with a list.
func Rewrite[T any](n T, fn func(any) any) T {
	out, _ := rewrite(n, fn).(T)
	return out
}

// rewriteAll rewrites each element of a list, copying the list only
// when an element changed.
func rewriteAll[T comparable](xs []T, fn func(any) any) ([]T, bool) {
	var out []T
	for i, x := range xs {
		y := Rewrite(x, fn)
		if y != x && out == nil {
			out = slices.Clone(xs)
		}
		if out != nil {
			out[i] = y
		}
	}
	if out == nil {
		return xs, false
	}
	return out, true
}

// rewrite2 rewrites a node's two children.
func rewrite2[T comparable](l, r T, fn func(any) any) (T, T, bool) {
	nl, nr := Rewrite(l, fn), Rewrite(r, fn)
	return nl, nr, nl != l || nr != r
}

func rewrite(n any, fn func(any) any) any {
	switch x := n.(type) {
	case nil:
		return nil
	case []Stmt:
		out, _ := rewriteAll(x, fn)
		return out
	case *Loop:
		n = rewriteLoop(x, fn)
	case *If:
		cond := Rewrite(x.Cond, fn)
		then, tc := rewriteAll(x.Then, fn)
		els, ec := rewriteAll(x.Else, fn)
		if cond != x.Cond || tc || ec {
			c := *x
			c.Cond, c.Then, c.Else = cond, then, els
			n = &c
		}
	case *Assign:
		subs, sc := rewriteAll(x.Subs, fn)
		off, rhs := Rewrite(x.Off, fn), Rewrite(x.Rhs, fn)
		if sc || off != x.Off || rhs != x.Rhs {
			c := *x
			c.Subs, c.Off, c.Rhs = subs, off, rhs
			n = &c
		}
	case *SetScalar:
		if rhs := Rewrite(x.Rhs, fn); rhs != x.Rhs {
			n = &SetScalar{Name: x.Name, Rhs: rhs}
		}
	case *IBin:
		if l, r, ch := rewrite2(x.L, x.R, fn); ch {
			n = &IBin{Op: x.Op, L: l, R: r}
		}
	case *IIdx:
		if subs, ch := rewriteAll(x.Subs, fn); ch {
			n = &IIdx{Array: x.Array, Subs: subs, CheckBounds: x.CheckBounds}
		}
	case *VFromInt:
		if v := Rewrite(x.X, fn); v != x.X {
			n = &VFromInt{X: v}
		}
	case *ARef:
		subs, sc := rewriteAll(x.Subs, fn)
		if off := Rewrite(x.Off, fn); sc || off != x.Off {
			c := *x
			c.Subs, c.Off = subs, off
			n = &c
		}
	case *VBin:
		if l, r, ch := rewrite2(x.L, x.R, fn); ch {
			n = &VBin{Op: x.Op, L: l, R: r}
		}
	case *VNeg:
		if v := Rewrite(x.X, fn); v != x.X {
			n = &VNeg{X: v}
		}
	case *VCall:
		if args, ch := rewriteAll(x.Args, fn); ch {
			n = &VCall{Fn: x.Fn, Args: args}
		}
	case *VCond:
		c := Rewrite(x.C, fn)
		if t, e, ch := rewrite2(x.T, x.E, fn); ch || c != x.C {
			n = &VCond{C: c, T: t, E: e}
		}
	case *BCmpInt:
		if l, r, ch := rewrite2(x.L, x.R, fn); ch {
			n = &BCmpInt{Op: x.Op, L: l, R: r}
		}
	case *BCmpFloat:
		if l, r, ch := rewrite2(x.L, x.R, fn); ch {
			n = &BCmpFloat{Op: x.Op, L: l, R: r}
		}
	case *BAnd:
		if l, r, ch := rewrite2(x.L, x.R, fn); ch {
			n = &BAnd{L: l, R: r}
		}
	case *BOr:
		if l, r, ch := rewrite2(x.L, x.R, fn); ch {
			n = &BOr{L: l, R: r}
		}
	case *BNot:
		if v := Rewrite(x.X, fn); v != x.X {
			n = &BNot{X: v}
		}
	}
	return fn(n)
}

// rewriteLoop rebuilds a loop's children, copying the schedule,
// register list and stencil record only where a child changed.
func rewriteLoop(x *Loop, fn func(any) any) *Loop {
	changed := false
	par := x.Par
	if par != nil {
		if a := Rewrite(par.AlignOn, fn); a != par.AlignOn {
			p := *par
			p.AlignOn = a
			par, changed = &p, true
		}
	}
	inds := x.Inds
	for i, ind := range x.Inds {
		if init := Rewrite(ind.Init, fn); init != ind.Init {
			if &inds[0] == &x.Inds[0] {
				inds = slices.Clone(x.Inds)
			}
			inds[i].Init, changed = init, true
		}
	}
	sten := x.Sten
	if sten != nil {
		for i, sp := range x.Sten.Splits {
			if g := Rewrite(sp.Guard, fn); g != sp.Guard {
				if sten == x.Sten {
					s := *x.Sten
					s.Splits = slices.Clone(x.Sten.Splits)
					sten = &s
				}
				sten.Splits[i].Guard, changed = g, true
			}
		}
	}
	body, bc := rewriteAll(x.Body, fn)
	if !changed && !bc {
		return x
	}
	c := *x
	c.Par, c.Inds, c.Sten, c.Body = par, inds, sten, body
	return &c
}
