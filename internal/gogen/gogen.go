// Package gogen emits a compiled loop-IR program as standalone Go
// source — the "native back end" counterpart of the in-process closure
// interpreter. The paper compiled to machine code and claimed
// performance comparable to Fortran; emitting real Go loops lets the
// reproduction measure that claim without interpreter overhead.
//
// The generated file is self-contained (standard library only): a
// function per program taking a worker budget and the input arrays as
// []float64 slices and returning the result arrays, the RunShard and
// RunWavefront runners its scheduled loops call (see parallel.go), plus
// optionally a main() harness that builds deterministic inputs, times
// the function, and prints a checksum for differential validation
// against the interpreter. Standalone output runs its scheduled loops
// sequentially unless a host assigns parallel runners.
package gogen

import (
	"fmt"
	"sort"
	"strings"

	"arraycomp/internal/idxprop"
	"arraycomp/internal/loopir"
)

// emitter accumulates the generated source.
type emitter struct {
	prog   *loopir.Program
	b      strings.Builder
	depth  int
	tmpSeq int
	// arrays maps IR array names to Go identifiers; bounds to layout.
	ident  map[string]string
	decl   map[string]*loopir.ArrayDecl
	failed error
	// errReturn renders the "return nil, …, err" prefix for error paths.
	errReturn func(msg string) string
	// verifyPass/verifyFail, when non-empty, name package-level uint64
	// counters every emitted BVerify verdict bumps atomically — the
	// native tier's replacement for the interpreter's verify hook.
	verifyPass, verifyFail string
	// row, when set, renders an array read: the stencil emitter points
	// each read of a row at its row slice.
	row func(*loopir.ARef) string
}

func (e *emitter) fail(format string, args ...any) {
	if e.failed == nil {
		e.failed = fmt.Errorf("gogen: "+format, args...)
	}
}

func (e *emitter) line(format string, args ...any) {
	for i := 0; i < e.depth; i++ {
		e.b.WriteByte('\t')
	}
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

func (e *emitter) fresh(prefix string) string {
	e.tmpSeq++
	return fmt.Sprintf("%s%d", prefix, e.tmpSeq)
}

// Identifiers from the program (arrays, loop variables, scalars,
// induction registers) are emitted as v_<name> and an array's
// definedness bitmap as d_<name>, so neither can collide with the
// emitter's own names: parameters, closure arguments, temporaries, the
// runners and the imported packages. sanitize escapes underscores,
// primes and dollars apart, so distinct names stay distinct (a_ and a'
// among them).
var sanitize = strings.NewReplacer("_", "__", "'", "_q", "$", "_d")

// goName renders an IR identifier (which may contain '$') as a Go
// identifier.
func goName(s string) string { return "v_" + sanitize.Replace(s) }

// defsName renders the definedness bitmap of array s.
func defsName(s string) string { return "d_" + sanitize.Replace(s) }

// EmitFunc renders the program as one Go function:
//
//	func <name>(workers int, in1, in2 []float64, …) ([]float64, …, error)
//
// workers is the budget handed to the RunShard and RunWavefront
// runners (see Runners); the function needs them declared in its
// package. Input (RoleIn) arrays arrive as parameters in declaration
// order; RoleInOut arrays arrive as parameters, are updated in place and
// returned; RoleOut arrays are allocated and returned; RoleTemp arrays
// are local. Returns the function source plus the parameter and result
// array names in order.
func EmitFunc(p *loopir.Program, name string) (src string, params, results []string, err error) {
	return emitFunc(p, name, "", "")
}

// EmitFuncCounted is EmitFunc with runtime-verifier accounting: every
// BVerify verdict in the emitted function atomically increments
// passVar (verified) or failVar (failed), two package-level uint64
// counters the caller must declare. It exists so the native tier can
// report the same verify tallies the interpreter's hook records —
// without it the compiled fast/checked dual lowering runs the verifier
// but silently drops the verdict, and the process-wide failure counter
// undercounts whenever a program runs native.
func EmitFuncCounted(p *loopir.Program, name, passVar, failVar string) (src string, params, results []string, err error) {
	if passVar == "" || failVar == "" {
		return "", nil, nil, fmt.Errorf("gogen: EmitFuncCounted needs both counter names")
	}
	return emitFunc(p, name, passVar, failVar)
}

func emitFunc(p *loopir.Program, name, passVar, failVar string) (src string, params, results []string, err error) {
	e := &emitter{
		prog:       p,
		ident:      map[string]string{},
		decl:       map[string]*loopir.ArrayDecl{},
		verifyPass: passVar,
		verifyFail: failVar,
	}
	for i := range p.Arrays {
		d := &p.Arrays[i]
		e.ident[d.Name] = goName(d.Name)
		e.decl[d.Name] = d
	}

	paramDecls := []string{"workers int"}
	for i := range p.Arrays {
		d := &p.Arrays[i]
		switch d.Role {
		case loopir.RoleIn, loopir.RoleInOut:
			paramDecls = append(paramDecls, e.ident[d.Name]+" []float64")
			params = append(params, d.Name)
		}
		if d.Role == loopir.RoleOut || d.Role == loopir.RoleInOut {
			results = append(results, d.Name)
		}
	}
	retTypes := strings.Repeat("[]float64, ", len(results)) + "error"

	e.line("// %s implements the compiled array program %q.", name, p.Name)
	e.line("func %s(%s) (%s) {", name, strings.Join(paramDecls, ", "), retTypes)
	e.depth++

	zeroReturns := func(msg string) string {
		return strings.Repeat("nil, ", len(results)) + msg
	}

	// Validate input lengths.
	for i := range p.Arrays {
		d := &p.Arrays[i]
		if d.Role == loopir.RoleIn || d.Role == loopir.RoleInOut {
			e.line("if len(%s) != %d {", e.ident[d.Name], d.B.Size())
			e.depth++
			e.line(`return %s`, zeroReturns(fmt.Sprintf(`fmt.Errorf("array %s: want %d elements, got %%d", len(%s))`, d.Name, d.B.Size(), e.ident[d.Name])))
			e.depth--
			e.line("}")
		}
	}
	// Allocate outputs, temps and bitmaps.
	for i := range p.Arrays {
		d := &p.Arrays[i]
		if d.Role == loopir.RoleOut || d.Role == loopir.RoleTemp {
			e.line("%s := make([]float64, %d)", e.ident[d.Name], d.B.Size())
			e.line("_ = %s", e.ident[d.Name])
		}
		if d.TrackDefs {
			e.line("%s := make([]bool, %d)", defsName(d.Name), d.B.Size())
			e.line("_ = %s", defsName(d.Name))
		}
	}
	// Scalars.
	for _, s := range p.Scalars {
		e.line("var %s float64", goName(s))
		e.line("_ = %s", goName(s))
	}

	e.errReturn = zeroReturns
	e.emitStmts(p.Stmts)

	rets := make([]string, 0, len(results)+1)
	for _, r := range results {
		rets = append(rets, e.ident[r])
	}
	rets = append(rets, "nil")
	e.line("return %s", strings.Join(rets, ", "))
	e.depth--
	e.line("}")
	if e.failed != nil {
		return "", nil, nil, e.failed
	}
	return e.b.String(), params, results, nil
}

func (e *emitter) emitStmts(stmts []loopir.Stmt) {
	for _, s := range stmts {
		e.emitStmt(s)
	}
}

func (e *emitter) emitStmt(s loopir.Stmt) {
	switch x := s.(type) {
	case *loopir.Loop:
		// Scheduled loops take their planned parallel shape when the body
		// has no error paths (a `return err` inside a kernel closure
		// would not compile; the planner already guarantees the writes
		// are race-free under the schedule).
		if x.Par != nil && !loopir.CanFail(x.Body) &&
			(x.Par.Kind == loopir.ParShard && e.emitShardLoop(x) || x.Par.Kind == loopir.ParWavefront && e.emitWavefront(x)) {
			return
		}
		// Stencil rows become constant-width slice loops the Go
		// compiler can prove in-bounds (see stencil.go).
		if e.emitStencilLoop(x) {
			return
		}
		v := goName(x.Var)
		cmp, next := "<=", fmt.Sprintf("%s += %d", v, x.Step)
		if x.Step < 0 {
			cmp = ">="
		}
		par := ""
		if x.Parallel {
			par = " // parallelizable: no carried dependences"
		}
		if len(x.Inds) > 0 {
			// Strength-reduced offsets: registers start at their row base
			// and advance by a constant stride per iteration.
			e.line("{")
			e.depth++
			for _, ind := range x.Inds {
				e.line("%s := %s", goName(ind.Name), e.intExpr(ind.Init))
			}
		}
		e.line("for %s := int64(%d); %s %s %d; %s {%s", v, x.From, v, cmp, x.To, next, par)
		e.depth++
		e.emitStmts(x.Body)
		for _, ind := range x.Inds {
			if ind.Step != 0 {
				e.line("%s += %d", goName(ind.Name), ind.Step)
			}
		}
		e.depth--
		e.line("}")
		if len(x.Inds) > 0 {
			e.depth--
			e.line("}")
		}
	case *loopir.If:
		cond := e.boolExpr(x.Cond)
		e.line("if %s {", cond)
		e.depth++
		e.emitStmts(x.Then)
		e.depth--
		if len(x.Else) > 0 {
			e.line("} else {")
			e.depth++
			e.emitStmts(x.Else)
			e.depth--
		}
		e.line("}")
	case *loopir.Assign:
		e.emitAssign(x)
	case *loopir.SetScalar:
		rhs := e.valueExpr(x.Rhs)
		e.line("%s = %s", goName(x.Name), rhs)
	case *loopir.CopyArray:
		e.line("copy(%s, %s)", e.ident[x.Dst], e.ident[x.Src])
	case *loopir.CheckFull:
		d := e.decl[x.Array]
		e.line("for off := range %s {", defsName(x.Array))
		e.depth++
		e.line("if !%s[off] {", defsName(x.Array))
		e.depth++
		e.line(`return %s`, e.errReturn(fmt.Sprintf(`fmt.Errorf("array %s has an undefined element at offset %%d (empty)", off)`, d.Name)))
		e.depth--
		e.line("}")
		e.depth--
		e.line("}")
	case *loopir.Fail:
		e.line(`return %s`, e.errReturn(fmt.Sprintf("fmt.Errorf(%q)", x.Msg)))
	case *loopir.Fill:
		e.line("for off := range %s {", e.ident[x.Array])
		e.depth++
		e.line("%s[off] = %s", e.ident[x.Array], floatLit(x.Value))
		e.depth--
		e.line("}")
	default:
		e.fail("unknown statement %T", s)
	}
}

// offsetExpr renders the row-major offset of an array access; when
// checked, bounds guards are emitted first. A strength-reduced offset
// (off non-nil, unchecked) replaces the subscript arithmetic with its
// induction-register form.
func (e *emitter) offsetExpr(arr string, subs []loopir.IntExpr, off loopir.IntExpr, checked bool) string {
	d := e.decl[arr]
	if d == nil {
		e.fail("unknown array %q", arr)
		return "0"
	}
	if off != nil && !checked {
		return e.intExpr(off)
	}
	b := d.B
	subExprs := make([]string, len(subs))
	for i, s := range subs {
		subExprs[i] = e.intExpr(s)
	}
	if checked {
		for dim, se := range subExprs {
			tmp := e.fresh("s")
			e.line("%s := %s", tmp, se)
			e.line("if %s < %d || %s > %d {", tmp, b.Lo[dim], tmp, b.Hi[dim])
			e.depth++
			e.line(`return %s`, e.errReturn(fmt.Sprintf(
				`fmt.Errorf("array %s: subscript %%d out of bounds [%d..%d] in dimension %d", %s)`,
				arr, b.Lo[dim], b.Hi[dim], dim, tmp)))
			e.depth--
			e.line("}")
			subExprs[dim] = tmp
		}
	}
	// off = ((s0-lo0)*e1 + (s1-lo1))*e2 + …
	expr := fmt.Sprintf("(%s - %d)", subExprs[0], b.Lo[0])
	for dim := 1; dim < len(subExprs); dim++ {
		expr = fmt.Sprintf("(%s*%d + (%s - %d))", expr, b.Extent(dim), subExprs[dim], b.Lo[dim])
	}
	return expr
}

func (e *emitter) emitAssign(x *loopir.Assign) {
	rhs := e.valueExpr(x.Rhs)
	off := e.fresh("o")
	e.line("%s := %s", off, e.offsetExpr(x.Array, x.Subs, x.Off, x.CheckBounds))
	id := e.ident[x.Array]
	switch {
	case x.HasAccum:
		// The store folds its value in with the combiner
		// Program.AccumOp names, inlined so the emitted file stays
		// self-contained; an empty or unknown name is an error.
		if e.prog.AccumOp == "" {
			e.fail("accumArray emission requires Program.AccumOp")
			return
		}
		switch e.prog.AccumOp {
		case "+":
			e.line("%s[%s] += %s", id, off, rhs)
		case "*":
			e.line("%s[%s] *= %s", id, off, rhs)
		case "max":
			e.line("%s[%s] = math.Max(%s[%s], %s)", id, off, id, off, rhs)
		case "min":
			e.line("%s[%s] = math.Min(%s[%s], %s)", id, off, id, off, rhs)
		case "right":
			e.line("%s[%s] = %s", id, off, rhs)
		case "left":
			e.line("_, _ = %s, %s // left-combiner keeps the existing value", off, rhs)
		default:
			e.fail("unknown accumArray combiner %q", e.prog.AccumOp)
		}
		if e.decl[x.Array].TrackDefs {
			e.line("%s[%s] = true", defsName(x.Array), off)
		}
	case x.CheckCollision:
		e.line("if %s[%s] {", defsName(x.Array), off)
		e.depth++
		e.line(`return %s`, e.errReturn(fmt.Sprintf(`fmt.Errorf("write collision on %s at offset %%d", %s)`, x.Array, off)))
		e.depth--
		e.line("}")
		e.line("%s[%s] = true", defsName(x.Array), off)
		e.line("%s[%s] = %s", id, off, rhs)
	case e.decl[x.Array].TrackDefs:
		e.line("%s[%s] = true", defsName(x.Array), off)
		e.line("%s[%s] = %s", id, off, rhs)
	default:
		e.line("%s[%s] = %s", id, off, rhs)
	}
}

// --- expressions ---

func (e *emitter) intExpr(x loopir.IntExpr) string {
	switch n := x.(type) {
	case *loopir.IConst:
		return fmt.Sprintf("int64(%d)", n.Value)
	case *loopir.IVar:
		return goName(n.Name)
	case *loopir.ILin:
		if len(n.Terms) == 0 {
			return fmt.Sprintf("int64(%d)", n.Const)
		}
		var parts []string
		if n.Const != 0 {
			parts = append(parts, fmt.Sprint(n.Const))
		}
		for _, t := range n.Terms {
			switch t.Coeff {
			case 1:
				parts = append(parts, goName(t.Var))
			case -1:
				parts = append(parts, "-"+goName(t.Var))
			default:
				parts = append(parts, fmt.Sprintf("%d*%s", t.Coeff, goName(t.Var)))
			}
		}
		return "(" + strings.Join(parts, " + ") + ")"
	case *loopir.IIdx:
		off := e.offsetExpr(n.Array, n.Subs, nil, n.CheckBounds)
		if !n.CheckBounds {
			// A verified range claim already proved every element
			// integral and in bounds.
			return fmt.Sprintf("int64(%s[%s])", e.ident[n.Array], off)
		}
		tmp := e.fresh("ix")
		e.line("%s := %s[%s]", tmp, e.ident[n.Array], off)
		e.line("if float64(int64(%s)) != %s {", tmp, tmp)
		e.depth++
		e.line(`return %s`, e.errReturn(fmt.Sprintf(`fmt.Errorf("array %s holds non-integral subscript value %%v", %s)`, n.Array, tmp)))
		e.depth--
		e.line("}")
		return fmt.Sprintf("int64(%s)", tmp)
	case *loopir.IBin:
		switch n.Op {
		case '+', '-', '*':
			l, r := e.intExpr(n.L), e.intExpr(n.R)
			return fmt.Sprintf("(%s %c %s)", l, n.Op, r)
		case '/', '%':
			// Like the interpreter: the divisor first, a zero divisor
			// fails with the interpreter's error, then the dividend.
			d := e.fresh("dv")
			e.line("%s := %s", d, e.intExpr(n.R))
			e.line("if %s == 0 {", d)
			e.depth++
			what := "mod"
			if n.Op == '/' {
				what = "division"
			}
			e.line("return %s", e.errReturn(fmt.Sprintf("fmt.Errorf(%q)", fmt.Sprintf("loopir: %s: integer %s by zero", e.prog.Name, what))))
			e.depth--
			e.line("}")
			return fmt.Sprintf("(%s %c %s)", e.intExpr(n.L), n.Op, d)
		}
		e.fail("unknown integer operator %q", string(n.Op))
		return "0"
	}
	e.fail("unknown integer expression %T", x)
	return "0"
}

// valueExpr renders a float expression. Conditionals are lowered to
// statements assigning a temporary so the untaken branch is never
// evaluated (it may read out of bounds).
func (e *emitter) valueExpr(x loopir.VExpr) string {
	switch n := x.(type) {
	case *loopir.VConst:
		return floatLit(n.Value)
	case *loopir.VFromInt:
		return fmt.Sprintf("float64(%s)", e.intExpr(n.X))
	case *loopir.VScalar:
		return goName(n.Name)
	case *loopir.ARef:
		if e.row != nil {
			return e.row(n)
		}
		if n.CheckDefined {
			off := e.fresh("o")
			e.line("%s := %s", off, e.offsetExpr(n.Array, n.Subs, n.Off, n.CheckBounds))
			id := e.ident[n.Array]
			e.line("if !%s[%s] {", defsName(n.Array), off)
			e.depth++
			e.line(`return %s`, e.errReturn(fmt.Sprintf(`fmt.Errorf("read of undefined element of %s at offset %%d (empty)", %s)`, n.Array, off)))
			e.depth--
			e.line("}")
			return fmt.Sprintf("%s[%s]", id, off)
		}
		return fmt.Sprintf("%s[%s]", e.ident[n.Array], e.offsetExpr(n.Array, n.Subs, n.Off, n.CheckBounds))
	case *loopir.VBin:
		return fmt.Sprintf("(%s %c %s)", e.valueExpr(n.L), n.Op, e.valueExpr(n.R))
	case *loopir.VNeg:
		return fmt.Sprintf("(-%s)", e.valueExpr(n.X))
	case *loopir.VCall:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = e.valueExpr(a)
		}
		fn, ok := mathFns[n.Fn]
		if !ok {
			e.fail("unknown builtin %q", n.Fn)
			return "0"
		}
		return fmt.Sprintf("%s(%s)", fn, strings.Join(args, ", "))
	case *loopir.VCond:
		tmp := e.fresh("t")
		e.line("var %s float64", tmp)
		cond := e.boolExpr(n.C)
		e.line("if %s {", cond)
		e.depth++
		e.line("%s = %s", tmp, e.valueExpr(n.T))
		e.depth--
		e.line("} else {")
		e.depth++
		e.line("%s = %s", tmp, e.valueExpr(n.E))
		e.depth--
		e.line("}")
		return tmp
	}
	e.fail("unknown value expression %T", x)
	return "0"
}

var mathFns = map[string]string{
	"abs": "math.Abs", "sqrt": "math.Sqrt", "exp": "math.Exp",
	"log": "math.Log", "sin": "math.Sin", "cos": "math.Cos",
	"min": "math.Min", "max": "math.Max", "pow": "math.Pow",
}

var goCmp = map[string]string{
	"==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

func (e *emitter) boolExpr(x loopir.BExpr) string {
	switch n := x.(type) {
	case *loopir.BConst:
		return fmt.Sprint(n.Value)
	case *loopir.BCmpInt:
		return fmt.Sprintf("(%s %s %s)", e.intExpr(n.L), goCmp[n.Op], e.intExpr(n.R))
	case *loopir.BCmpFloat:
		return fmt.Sprintf("(%s %s %s)", e.valueExpr(n.L), goCmp[n.Op], e.valueExpr(n.R))
	case *loopir.BAnd:
		return e.shortCircuit(n.L, n.R, "&&")
	case *loopir.BOr:
		return e.shortCircuit(n.L, n.R, "||")
	case *loopir.BNot:
		return fmt.Sprintf("!(%s)", e.boolExpr(n.X))
	case *loopir.BVerify:
		return e.emitVerify(n)
	}
	e.fail("unknown boolean expression %T", x)
	return "false"
}

// shortCircuit renders l && r or l || r. When r can fail, its checks
// are statements, so r is evaluated under an if: a check must not run
// where the interpreter's short circuit skips r.
func (e *emitter) shortCircuit(l, r loopir.BExpr, op string) string {
	ls := e.boolExpr(l)
	if !loopir.CanFail(r) {
		return fmt.Sprintf("(%s %s %s)", ls, op, e.boolExpr(r))
	}
	c := e.fresh("c")
	e.line("%s := %s", c, ls)
	if op == "&&" {
		e.line("if %s {", c)
	} else {
		e.line("if !%s {", c)
	}
	e.depth++
	e.line("%s = %s", c, e.boolExpr(r))
	e.depth--
	e.line("}")
	return c
}

// emitVerify renders the one-pass runtime index-property verifier for a
// BVerify guard inline (generated files stay self-contained), mirroring
// idxprop.Verify: integrality and magnitude on every element, then the
// claimed range, monotonicity, and injectivity checks. Returns the name
// of the bool temporary holding the verdict.
func (e *emitter) emitVerify(n *loopir.BVerify) string {
	id := e.ident[n.Array]
	ok := e.fresh("vok")
	var needRange, needMono, needInj bool
	var lo, hi int64
	for _, c := range n.Claims {
		switch c.Kind {
		case idxprop.KRange:
			if needRange {
				if c.Lo > lo {
					lo = c.Lo
				}
				if c.Hi < hi {
					hi = c.Hi
				}
			} else {
				needRange, lo, hi = true, c.Lo, c.Hi
			}
		case idxprop.KMonoNonDec:
			needMono = true
		case idxprop.KInjective:
			needInj = true
		}
	}
	e.line("%s := true", ok)
	if !needRange && !needMono && !needInj {
		e.countVerify(ok)
		return ok
	}
	e.line("{ // verify %s", n.Claims)
	e.depth++
	if needMono {
		e.line("prev := int64(0)")
	}
	if needInj {
		e.line("seen := make(map[int64]bool, len(%s))", id)
	}
	rangeVar := "_"
	if needMono {
		rangeVar = "pos"
	}
	e.line("for %s, v := range %s {", rangeVar, id)
	e.depth++
	e.line("if v != math.Trunc(v) || v > %d || v < -%d {", magLimit, magLimit)
	e.depth++
	e.line("%s = false", ok)
	e.line("break")
	e.depth--
	e.line("}")
	e.line("iv := int64(v)")
	if needRange {
		e.line("if iv < %d || iv > %d {", lo, hi)
		e.depth++
		e.line("%s = false", ok)
		e.line("break")
		e.depth--
		e.line("}")
	}
	if needMono {
		e.line("if pos > 0 && iv < prev {")
		e.depth++
		e.line("%s = false", ok)
		e.line("break")
		e.depth--
		e.line("}")
		e.line("prev = iv")
	}
	if needInj {
		e.line("if seen[iv] {")
		e.depth++
		e.line("%s = false", ok)
		e.line("break")
		e.depth--
		e.line("}")
		e.line("seen[iv] = true")
	}
	e.depth--
	e.line("}")
	e.depth--
	e.line("}")
	e.countVerify(ok)
	return ok
}

// countVerify bumps the caller-declared verdict counters when counted
// emission is on; one verdict per BVerify evaluation, matching the
// interpreter hook's cadence exactly.
func (e *emitter) countVerify(ok string) {
	if e.verifyPass == "" {
		return
	}
	e.line("if %s { atomic.AddUint64(&%s, 1) } else { atomic.AddUint64(&%s, 1) }", ok, e.verifyPass, e.verifyFail)
}

// magLimit mirrors idxprop's magnitude bound on integral subscript
// values (1<<40): the generated verifier must accept and reject exactly
// the same inputs as the interpreter's.
const magLimit = int64(1) << 40

func floatLit(v float64) string {
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// EmitFile wraps EmitFunc into a complete source file: package,
// imports, the function and the sequential Runners.
func EmitFile(p *loopir.Program, pkg, funcName string) (string, error) {
	fn, _, _, err := EmitFunc(p, funcName)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by arraycomp (gogen) from program %q. DO NOT EDIT.\n", p.Name)
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	b.WriteString(importsFor(fn))
	b.WriteString(fn)
	b.WriteString("\n" + Runners)
	return b.String(), nil
}

func importsFor(src string) string {
	var imports []string
	if strings.Contains(src, "fmt.") {
		imports = append(imports, `"fmt"`)
	}
	if strings.Contains(src, "math.") {
		imports = append(imports, `"math"`)
	}
	if len(imports) == 0 {
		return ""
	}
	sort.Strings(imports)
	return "import (\n\t" + strings.Join(imports, "\n\t") + "\n)\n\n"
}

// EmitBenchHarness wraps EmitFunc into a self-timing main package: it
// fills the inputs deterministically, runs the function `iters` times,
// and prints "<ns/op> <checksum-per-result…>" on one line. Used to
// measure the native back end against hand-written loops (EXPERIMENTS
// E11: the paper's "comparable to Fortran" claim without interpreter
// overhead). Scheduled loops run on the sequential Runners.
func EmitBenchHarness(p *loopir.Program, iters int) (string, error) {
	fn, params, results, err := EmitFunc(p, "Compiled")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("// Code generated by arraycomp (gogen). DO NOT EDIT.\npackage main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\t\"time\"\n")
	if strings.Contains(fn, "math.") {
		b.WriteString("\t\"math\"\n")
	}
	b.WriteString(")\n\n")
	b.WriteString(fn)
	b.WriteString("\n" + Runners)
	b.WriteString(`
func lcgFill(data []float64, seed uint64) {
	x := seed
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float64((x>>33)&0xFFFF) / 65536.0
	}
}

func checksum(data []float64) float64 {
	var acc float64
	for i, v := range data {
		acc += v * float64(i+1)
	}
	return acc
}

func main() {
`)
	decl := map[string]*loopir.ArrayDecl{}
	for i := range p.Arrays {
		decl[p.Arrays[i].Name] = &p.Arrays[i]
	}
	for i, name := range params {
		fmt.Fprintf(&b, "\tin%d := make([]float64, %d)\n", i, decl[name].B.Size())
		fmt.Fprintf(&b, "\tlcgFill(in%d, %d)\n", i, 1000+i)
	}
	args := []string{"1"}
	for i := range params {
		args = append(args, fmt.Sprintf("in%d", i))
	}
	var outs []string
	for i := range results {
		outs = append(outs, fmt.Sprintf("out%d", i))
	}
	outs = append(outs, "err")
	fmt.Fprintf(&b, "\titers := %d\n", iters)
	if len(results) > 0 {
		fmt.Fprintf(&b, "\tvar %s []float64\n", strings.Join(outs[:len(outs)-1], ", []float64\n\tvar "))
	}
	for i := range results {
		fmt.Fprintf(&b, "\t_ = out%d\n", i)
	}
	b.WriteString("\tvar err error\n\tstart := time.Now()\n\tfor k := 0; k < iters; k++ {\n")
	fmt.Fprintf(&b, "\t\t%s = Compiled(%s)\n", strings.Join(outs, ", "), strings.Join(args, ", "))
	b.WriteString("\t\tif err != nil {\n\t\t\tfmt.Fprintln(os.Stderr, err)\n\t\t\tos.Exit(1)\n\t\t}\n\t}\n")
	b.WriteString("\tnsPerOp := time.Since(start).Nanoseconds() / int64(iters)\n")
	b.WriteString("\tfmt.Printf(\"%d\", nsPerOp)\n")
	for i := range results {
		fmt.Fprintf(&b, "\tfmt.Printf(\" %%.17g\", checksum(out%d))\n", i)
	}
	b.WriteString("\tfmt.Println()\n}\n")
	return b.String(), nil
}
