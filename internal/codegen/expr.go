package codegen

import (
	"fmt"

	"arraycomp/internal/lang"
	"arraycomp/internal/loopir"
)

// xlate translates surface expressions into loop-IR expressions.
// Scalar parameters fold to constants; let bindings are inlined;
// selected array reads can be redirected (node splitting).
type xlate struct {
	// env binds scalar parameters.
	env map[string]int64
	// indexVars are the loop variables in scope.
	indexVars map[string]bool
	// lets are inlined bindings (innermost shadowing applied on entry).
	lets map[string]lang.Expr
	// arrayName maps surface array names to IR array names (e.g. both
	// a bigupd's source and defined name to the in-place array).
	arrayName func(string) (string, error)
	// refFlags decides runtime checks per read.
	refFlags func(ix *lang.Index) (checkBounds, checkDefined bool)
	// readRepl replaces specific reads with a fixed value expression
	// (node-splitting scalar temps).
	readRepl map[*lang.Index]loopir.VExpr
	// readTarget redirects specific reads to a different IR array with
	// the same subscripts (node-splitting shadow/old arrays).
	readTarget map[*lang.Index]string
	// idxTrusted lists index arrays whose range claims are assumed by
	// this lowering (static proof, or a runtime verifier guarding the
	// branch): their indirect subscript loads skip the bounds and
	// integrality checks. nil means every indirect load is checked.
	idxTrusted map[string]bool
}

func (x *xlate) withLets(binds []lang.Binding) *xlate {
	if len(binds) == 0 {
		return x
	}
	out := *x
	out.lets = make(map[string]lang.Expr, len(x.lets)+len(binds))
	for k, v := range x.lets {
		out.lets[k] = v
	}
	for _, b := range binds {
		out.lets[b.Name] = b.Rhs
	}
	return &out
}

// errNotInt marks expressions that cannot be translated to integers.
type errNotInt struct{ e lang.Expr }

func (e *errNotInt) Error() string {
	return fmt.Sprintf("codegen: not an integer expression: %s", lang.ExprString(e.e))
}

// intExpr translates an expression in integer position (subscripts,
// guard operands). It folds parameters, inlines lets, and prefers the
// affine ILin form where the shape allows it.
func (x *xlate) intExpr(e lang.Expr) (loopir.IntExpr, error) {
	raw, err := x.intTree(e)
	if err != nil {
		return nil, err
	}
	return simplifyInt(raw), nil
}

func (x *xlate) intTree(e lang.Expr) (loopir.IntExpr, error) {
	switch n := e.(type) {
	case *lang.IntLit:
		return &loopir.IConst{Value: n.Value}, nil
	case *lang.Var:
		if rhs, ok := x.lets[n.Name]; ok {
			sub := *x
			sub.lets = withoutBinding(x.lets, n.Name)
			return sub.intTree(rhs)
		}
		if x.indexVars[n.Name] {
			return &loopir.IVar{Name: n.Name}, nil
		}
		if v, ok := x.env[n.Name]; ok {
			return &loopir.IConst{Value: v}, nil
		}
		return nil, fmt.Errorf("codegen: unbound variable %q at %s", n.Name, n.Pos())
	case *lang.UnOp:
		if n.Op != lang.OpNeg {
			return nil, &errNotInt{e}
		}
		inner, err := x.intTree(n.X)
		if err != nil {
			return nil, err
		}
		return &loopir.IBin{Op: '-', L: &loopir.IConst{}, R: inner}, nil
	case *lang.BinOp:
		var op byte
		switch n.Op {
		case lang.OpAdd:
			op = '+'
		case lang.OpSub:
			op = '-'
		case lang.OpMul:
			op = '*'
		case lang.OpMod:
			op = '%'
		default:
			// '/' is float division in the surface language and is
			// deliberately not integer-translatable.
			return nil, &errNotInt{e}
		}
		l, err := x.intTree(n.L)
		if err != nil {
			return nil, err
		}
		r, err := x.intTree(n.R)
		if err != nil {
			return nil, err
		}
		return &loopir.IBin{Op: op, L: l, R: r}, nil
	case *lang.Let:
		return x.withLets(n.Binds).intTree(n.Body)
	}
	return nil, &errNotInt{e}
}

// subExpr translates an expression in subscript position: like
// intExpr, except that a bare array read is allowed and becomes an
// indirect subscript load (IIdx) — the subscripted-subscript form
// out!(idx!(g)). Indirection must be the whole subscript; arithmetic
// around an indirect load is not translated.
func (x *xlate) subExpr(e lang.Expr) (loopir.IntExpr, error) {
	if ix, ok := e.(*lang.Index); ok {
		return x.indexSub(ix)
	}
	return x.intExpr(e)
}

// indexSub translates an array read used as a subscript. Checked by
// default: the load verifies its own subscripts are in bounds and the
// value is integral. Arrays in idxTrusted skip both checks — a range
// claim (statically proven or runtime-verified on this branch) already
// guarantees them.
func (x *xlate) indexSub(ix *lang.Index) (loopir.IntExpr, error) {
	name, err := x.arrayName(ix.Array)
	if err != nil {
		return nil, fmt.Errorf("%v at %s", err, ix.Pos())
	}
	subs := make([]loopir.IntExpr, len(ix.Subs))
	for i, s := range ix.Subs {
		se, err := x.intExpr(s) // nested indirection is not supported
		if err != nil {
			return nil, err
		}
		subs[i] = se
	}
	return &loopir.IIdx{Array: name, Subs: subs, CheckBounds: !x.idxTrusted[name]}, nil
}

func withoutBinding(lets map[string]lang.Expr, name string) map[string]lang.Expr {
	out := make(map[string]lang.Expr, len(lets))
	for k, v := range lets {
		if k != name {
			out[k] = v
		}
	}
	return out
}

// simplifyInt folds an IBin tree of +,-,* over constants and variables
// into the affine ILin fast path where possible.
func simplifyInt(e loopir.IntExpr) loopir.IntExpr {
	lin, ok := tryLinear(e)
	if !ok {
		// Recurse into children to linearize subtrees.
		if b, isBin := e.(*loopir.IBin); isBin {
			return &loopir.IBin{Op: b.Op, L: simplifyInt(b.L), R: simplifyInt(b.R)}
		}
		return e
	}
	if len(lin.Terms) == 0 {
		// A term-less linear form is just a constant; keep it as one so
		// constant-position checks (accumArray defaults, trip counts)
		// recognize it.
		return &loopir.IConst{Value: lin.Const}
	}
	return lin
}

// tryLinear converts the expression to Const + Σ coeff·var if it is
// affine.
func tryLinear(e loopir.IntExpr) (*loopir.ILin, bool) {
	lin := loopir.AffineForm(e)
	return lin, lin != nil
}

// valueExpr translates an expression in value (float) position.
func (x *xlate) valueExpr(e lang.Expr) (loopir.VExpr, error) {
	// Integer-only expressions become float conversions of the integer
	// translation (e.g. `i*i` as an element value).
	if ie, err := x.intExpr(e); err == nil {
		if c, isConst := ie.(*loopir.IConst); isConst {
			return &loopir.VConst{Value: float64(c.Value)}, nil
		}
		return &loopir.VFromInt{X: ie}, nil
	}
	switch n := e.(type) {
	case *lang.FloatLit:
		return &loopir.VConst{Value: n.Value}, nil
	case *lang.IntLit:
		return &loopir.VConst{Value: float64(n.Value)}, nil
	case *lang.Var:
		if rhs, ok := x.lets[n.Name]; ok {
			sub := *x
			sub.lets = withoutBinding(x.lets, n.Name)
			return sub.valueExpr(rhs)
		}
		if v, ok := x.env[n.Name]; ok {
			return &loopir.VConst{Value: float64(v)}, nil
		}
		return nil, fmt.Errorf("codegen: unbound variable %q at %s", n.Name, n.Pos())
	case *lang.UnOp:
		if n.Op != lang.OpNeg {
			return nil, fmt.Errorf("codegen: operator %s in value position at %s", n.Op, n.Pos())
		}
		inner, err := x.valueExpr(n.X)
		if err != nil {
			return nil, err
		}
		return &loopir.VNeg{X: inner}, nil
	case *lang.BinOp:
		var op byte
		switch n.Op {
		case lang.OpAdd:
			op = '+'
		case lang.OpSub:
			op = '-'
		case lang.OpMul:
			op = '*'
		case lang.OpDiv:
			op = '/'
		default:
			return nil, fmt.Errorf("codegen: operator %s in value position at %s", n.Op, n.Pos())
		}
		l, err := x.valueExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := x.valueExpr(n.R)
		if err != nil {
			return nil, err
		}
		return &loopir.VBin{Op: op, L: l, R: r}, nil
	case *lang.Index:
		return x.indexRead(n)
	case *lang.Call:
		args := make([]loopir.VExpr, len(n.Args))
		for i, a := range n.Args {
			v, err := x.valueExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return &loopir.VCall{Fn: n.Fn, Args: args}, nil
	case *lang.Cond:
		c, err := x.boolExpr(n.C)
		if err != nil {
			return nil, err
		}
		th, err := x.valueExpr(n.T)
		if err != nil {
			return nil, err
		}
		el, err := x.valueExpr(n.E)
		if err != nil {
			return nil, err
		}
		return &loopir.VCond{C: c, T: th, E: el}, nil
	case *lang.Let:
		return x.withLets(n.Binds).valueExpr(n.Body)
	}
	return nil, fmt.Errorf("codegen: cannot translate %T in value position", e)
}

// indexRead translates an array selection, honoring read redirection
// and per-reference check flags.
func (x *xlate) indexRead(ix *lang.Index) (loopir.VExpr, error) {
	if repl, ok := x.readRepl[ix]; ok && repl != nil {
		return repl, nil
	}
	var irName string
	if target, ok := x.readTarget[ix]; ok {
		irName = target
	} else {
		name, err := x.arrayName(ix.Array)
		if err != nil {
			return nil, fmt.Errorf("%v at %s", err, ix.Pos())
		}
		irName = name
	}
	subs := make([]loopir.IntExpr, len(ix.Subs))
	for i, s := range ix.Subs {
		se, err := x.subExpr(s)
		if err != nil {
			return nil, err
		}
		subs[i] = se
	}
	cb, cd := false, false
	if x.refFlags != nil {
		cb, cd = x.refFlags(ix)
	}
	return &loopir.ARef{Array: irName, Subs: subs, CheckBounds: cb, CheckDefined: cd}, nil
}

// boolExpr translates guards and conditionals. Comparisons between
// integer-translatable operands use integer comparison; otherwise both
// sides are floats.
func (x *xlate) boolExpr(e lang.Expr) (loopir.BExpr, error) {
	switch n := e.(type) {
	case *lang.BinOp:
		if n.Op.IsComparison() {
			li, lerr := x.intExpr(n.L)
			ri, rerr := x.intExpr(n.R)
			if lerr == nil && rerr == nil {
				return &loopir.BCmpInt{Op: n.Op.String(), L: li, R: ri}, nil
			}
			lf, err := x.valueExpr(n.L)
			if err != nil {
				return nil, err
			}
			rf, err := x.valueExpr(n.R)
			if err != nil {
				return nil, err
			}
			return &loopir.BCmpFloat{Op: n.Op.String(), L: lf, R: rf}, nil
		}
		switch n.Op {
		case lang.OpAnd, lang.OpOr:
			l, err := x.boolExpr(n.L)
			if err != nil {
				return nil, err
			}
			r, err := x.boolExpr(n.R)
			if err != nil {
				return nil, err
			}
			if n.Op == lang.OpAnd {
				return &loopir.BAnd{L: l, R: r}, nil
			}
			return &loopir.BOr{L: l, R: r}, nil
		}
		return nil, fmt.Errorf("codegen: operator %s in boolean position at %s", n.Op, n.Pos())
	case *lang.UnOp:
		if n.Op == lang.OpNot {
			inner, err := x.boolExpr(n.X)
			if err != nil {
				return nil, err
			}
			return &loopir.BNot{X: inner}, nil
		}
	case *lang.Let:
		return x.withLets(n.Binds).boolExpr(n.Body)
	}
	return nil, fmt.Errorf("codegen: cannot translate %T in boolean position", e)
}
