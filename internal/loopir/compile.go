package loopir

import (
	"fmt"
	"math"

	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
)

// ExecError is a runtime failure of a compiled program (collision,
// empty read, bounds violation, explicit Fail).
type ExecError struct {
	Program string
	Msg     string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("loopir: %s: %s", e.Program, e.Msg)
}

// frame is the runtime activation record of a compiled program.
type frame struct {
	ints   []int64
	floats []float64
	arrays []*runtime.Strict
	defs   [][]bool
	// base holds, per array slot, the position of Data[0] in a stream
	// stage (see Stage); nil in materialized runs.
	base []int64
	// workers is the parallel worker budget for this run, resolved at
	// Run time from Exec.SetWorkers (0 means GOMAXPROCS then).
	workers int
}

type (
	intFn   func(*frame) int64
	floatFn func(*frame) float64
	boolFn  func(*frame) bool
	stmtFn  func(*frame)
)

// compiler assigns slots and translates the IR to closures.
type compiler struct {
	prog       *Program
	intSlots   map[string]int
	floatSlots map[string]int
	arraySlots map[string]int
	// fp recycles per-worker frames across this program's parallel loop
	// executions; its New is bound once slot counts are final.
	fp *framePool
	// hook is shared between the compiled BVerify closures and the Exec
	// so SetVerifyHook (called after Compile) still reaches them.
	hook *verifyHookBox
	// stage compiles for a stream stage: rank-1 accesses subtract the
	// frame's per-slot base instead of the declared lower bound.
	stage bool
}

// verifyHookBox lets an observer record runtime verification verdicts.
// It is a box (not a plain field) because closures capture it at
// compile time while the hook itself is installed afterwards.
type verifyHookBox struct {
	fn func(claims idxprop.Claims, res idxprop.VerifyResult)
}

func (c *compiler) fail(format string, args ...any) {
	panic(&ExecError{Program: c.prog.Name, Msg: fmt.Sprintf(format, args...)})
}

// execFail raises a runtime error from compiled code.
func execFail(prog string, format string, args ...any) {
	panic(&ExecError{Program: prog, Msg: fmt.Sprintf(format, args...)})
}

// catchExec, deferred, turns an *ExecError panic into *err; any other
// panic propagates.
func catchExec(err *error) {
	if r := recover(); r != nil {
		if ee, ok := r.(*ExecError); ok {
			*err = ee
			return
		}
		panic(r)
	}
}

// Exec is a compiled program ready to run.
type Exec struct {
	prog       *Program
	run        []stmtFn
	intSlots   map[string]int
	floatSlots map[string]int
	arraySlots map[string]int
	workers    int
	hook       *verifyHookBox
}

// SetVerifyHook installs an observer called once per runtime
// index-property verification with the claims checked and the verdict.
// Pass nil to remove it. Not safe to change concurrently with Run.
func (ex *Exec) SetVerifyHook(fn func(claims idxprop.Claims, res idxprop.VerifyResult)) {
	ex.hook.fn = fn
}

// Compile translates the program to closures. It validates names and
// arities; invalid IR is reported as an error.
func Compile(p *Program) (ex *Exec, err error) {
	defer catchExec(&err)
	c := newCompiler(p)
	nInts, nFloats := len(c.intSlots), len(c.floatSlots)
	c.fp.p.New = func() any {
		return &frame{ints: make([]int64, nInts), floats: make([]float64, nFloats)}
	}
	fns := c.compileStmts(p.Stmts)
	return &Exec{
		prog:       p,
		run:        fns,
		intSlots:   c.intSlots,
		floatSlots: c.floatSlots,
		arraySlots: c.arraySlots,
		hook:       c.hook,
	}, nil
}

// newCompiler assigns the program's slots: arrays and scalars by
// declaration index, loop variables and induction registers in walk
// order.
func newCompiler(p *Program) *compiler {
	c := &compiler{
		prog:       p,
		intSlots:   map[string]int{},
		floatSlots: map[string]int{},
		arraySlots: map[string]int{},
		fp:         &framePool{},
		hook:       &verifyHookBox{},
	}
	for i, d := range p.Arrays {
		if _, dup := c.arraySlots[d.Name]; dup {
			c.fail("duplicate array %q", d.Name)
		}
		c.arraySlots[d.Name] = i
	}
	for i, s := range p.Scalars {
		if _, dup := c.floatSlots[s]; dup {
			c.fail("duplicate scalar %q", s)
		}
		c.floatSlots[s] = i
	}
	c.collectLoopVars(p.Stmts)
	return c
}

func (c *compiler) collectLoopVars(stmts []Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			if _, ok := c.intSlots[x.Var]; !ok {
				c.intSlots[x.Var] = len(c.intSlots)
			}
			for _, ind := range x.Inds {
				if _, dup := c.intSlots[ind.Name]; dup {
					c.fail("duplicate induction register %q", ind.Name)
				}
				c.intSlots[ind.Name] = len(c.intSlots)
			}
			c.collectLoopVars(x.Body)
		case *If:
			c.collectLoopVars(x.Then)
			c.collectLoopVars(x.Else)
		}
	}
}

func (c *compiler) compileStmts(stmts []Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, c.compileStmt(s))
	}
	return out
}

func runAll(fns []stmtFn, f *frame) {
	for _, fn := range fns {
		fn(f)
	}
}

func (c *compiler) compileStmt(s Stmt) stmtFn {
	switch x := s.(type) {
	case *Loop:
		if c.stage {
			c.fail("nested loop over %q in a stream stage", x.Var)
		}
		slot := c.intSlots[x.Var]
		if x.Step == 0 {
			c.fail("loop over %q has zero step", x.Var)
		}
		trip := tripCount(x.From, x.To, x.Step)
		inds := make([]cInd, len(x.Inds))
		for i, ind := range x.Inds {
			inds[i] = cInd{slot: c.intSlots[ind.Name], init: c.compileInt(ind.Init), step: ind.Step}
		}
		if x.Par != nil {
			seq := c.compileSeqLoop(x, slot, inds)
			var par stmtFn
			switch x.Par.Kind {
			case ParShard:
				par = c.compileShardLoop(x, slot, x.From, x.Step, trip, inds, seq)
			case ParMonoShard:
				par = c.compileMonoShardLoop(x, slot, x.From, x.Step, trip, inds, seq)
			case ParTile, ParWavefront:
				par = c.compileTiledNest(x, slot, x.From, trip, inds, seq)
			case ParChains:
				if x.Par.Chains >= 2 {
					par = c.compileChainsLoop(x, slot, x.From, x.Step, trip, inds, seq)
				}
			}
			if par != nil {
				return par
			}
			return seq
		}
		// Legacy gate: a dependence-free loop the planner did not
		// schedule (NoOptimize, or a nest shape it does not model)
		// still shards when the work warrants it.
		if x.Parallel && parWorthwhile(trip, estimateWork(x.Body)) {
			seq := c.compileSeqLoop(x, slot, inds)
			return c.compileShardLoop(x, slot, x.From, x.Step, trip, inds, seq)
		}
		return c.compileSeqLoop(x, slot, inds)
	case *If:
		cond := c.compileBool(x.Cond)
		then := c.compileStmts(x.Then)
		els := c.compileStmts(x.Else)
		return func(f *frame) {
			if cond(f) {
				runAll(then, f)
			} else {
				runAll(els, f)
			}
		}
	case *Assign:
		return c.compileAssign(x)
	case *SetScalar:
		slot, ok := c.floatSlots[x.Name]
		if !ok {
			c.fail("assignment to undeclared scalar %q", x.Name)
		}
		rhs := c.compileFloat(x.Rhs)
		return func(f *frame) { f.floats[slot] = rhs(f) }
	case *CopyArray:
		dst := c.arraySlot(x.Dst)
		src := c.arraySlot(x.Src)
		if !c.prog.Arrays[dst].B.Equal(c.prog.Arrays[src].B) {
			c.fail("CopyArray %s <- %s: bounds differ", x.Dst, x.Src)
		}
		return func(f *frame) { copy(f.arrays[dst].Data, f.arrays[src].Data) }
	case *CheckFull:
		slot := c.arraySlot(x.Array)
		if !c.prog.Arrays[slot].TrackDefs {
			c.fail("CheckFull on %q requires TrackDefs", x.Array)
		}
		name, prog := x.Array, c.prog.Name
		b := c.prog.Arrays[slot].B
		return func(f *frame) {
			for off, ok := range f.defs[slot] {
				if !ok {
					execFail(prog, "array %s has an undefined element at %v (empty)", name, b.Unlinear(int64(off)))
				}
			}
		}
	case *Fail:
		msg, prog := x.Msg, c.prog.Name
		return func(*frame) { execFail(prog, "%s", msg) }
	case *Fill:
		slot := c.arraySlot(x.Array)
		if c.prog.Arrays[slot].Role == RoleIn {
			c.fail("fill of input array %q", x.Array)
		}
		v := x.Value
		return func(f *frame) {
			data := f.arrays[slot].Data
			for i := range data {
				data[i] = v
			}
		}
	}
	c.fail("unknown statement %T", s)
	return nil
}

// compileSeqLoop compiles a loop's plain sequential execution — the
// specialized fast path when the body shape allows it, otherwise the
// generic direction-aware loop. Parallel executors also use this as
// their single-worker fallback.
func (c *compiler) compileSeqLoop(x *Loop, slot int, inds []cInd) stmtFn {
	from, to, step := x.From, x.To, x.Step
	trip := tripCount(from, to, step)
	if fn := c.compileFastLoop(x, slot, inds); fn != nil {
		return fn
	}
	if fn := c.compileStencilLoop(x, slot, inds); fn != nil {
		return fn
	}
	body := c.compileStmts(x.Body)
	if len(inds) > 0 {
		return func(f *frame) {
			for i := range inds {
				f.ints[inds[i].slot] = inds[i].init(f)
			}
			for v, n := from, trip; n > 0; n-- {
				f.ints[slot] = v
				runAll(body, f)
				v += step
				for i := range inds {
					f.ints[inds[i].slot] += inds[i].step
				}
			}
		}
	}
	if step > 0 {
		return func(f *frame) {
			for v := from; v <= to; v += step {
				f.ints[slot] = v
				runAll(body, f)
			}
		}
	}
	return func(f *frame) {
		for v := from; v >= to; v += step {
			f.ints[slot] = v
			runAll(body, f)
		}
	}
}

func (c *compiler) arraySlot(name string) int {
	slot, ok := c.arraySlots[name]
	if !ok {
		c.fail("reference to undeclared array %q", name)
	}
	return slot
}

// compileOffset builds the linear-offset computation for an array
// access: checked (range test), strength-reduced (the optimizer's
// precomputed linear offset over induction registers), or raw
// row-major arithmetic.
func (c *compiler) compileOffset(arrName string, subs []IntExpr, off IntExpr, checked bool) (int, intFn) {
	slot := c.arraySlot(arrName)
	b := c.prog.Arrays[slot].B
	if len(subs) != b.Rank() {
		c.fail("array %q: %d subscripts for rank %d", arrName, len(subs), b.Rank())
	}
	if c.stage {
		if checked || len(subs) != 1 {
			c.fail("array %q: stream stages take unchecked rank-1 accesses", arrName)
		}
		// Nearly every stage subscript is v+k; fold it into one closure.
		v, k := "", int64(0)
		switch x := subs[0].(type) {
		case *IVar:
			v = x.Name
		case *ILin:
			if len(x.Terms) == 1 && x.Terms[0].Coeff == 1 {
				v, k = x.Terms[0].Var, x.Const
			}
		}
		if v != "" {
			s := c.intSlotOf(v)
			return slot, func(f *frame) int64 { return f.ints[s] + k - f.base[slot] }
		}
		fn := c.compileInt(subs[0])
		return slot, func(f *frame) int64 { return fn(f) - f.base[slot] }
	}
	if off != nil && !checked {
		return slot, c.compileInt(off)
	}
	subFns := make([]intFn, len(subs))
	for i, s := range subs {
		subFns[i] = c.compileInt(s)
	}
	lo := append([]int64(nil), b.Lo...)
	hi := append([]int64(nil), b.Hi...)
	ext := make([]int64, b.Rank())
	for d := range ext {
		ext[d] = b.Extent(d)
	}
	prog := c.prog.Name
	if checked {
		return slot, func(f *frame) int64 {
			var off int64
			for d, fn := range subFns {
				s := fn(f)
				if s < lo[d] || s > hi[d] {
					execFail(prog, "array %s: subscript %d out of bounds [%d..%d] in dimension %d", arrName, s, lo[d], hi[d], d)
				}
				off = off*ext[d] + (s - lo[d])
			}
			return off
		}
	}
	if len(subFns) == 1 {
		fn := subFns[0]
		l := lo[0]
		return slot, func(f *frame) int64 { return fn(f) - l }
	}
	return slot, func(f *frame) int64 {
		var off int64
		for d, fn := range subFns {
			off = off*ext[d] + (fn(f) - lo[d])
		}
		return off
	}
}

func (c *compiler) compileAssign(x *Assign) stmtFn {
	slot, offFn := c.compileOffset(x.Array, x.Subs, x.Off, x.CheckBounds)
	decl := c.prog.Arrays[slot]
	if decl.Role == RoleIn {
		c.fail("assignment to input array %q", x.Array)
	}
	if x.CheckCollision && !decl.TrackDefs {
		c.fail("CheckCollision on %q requires TrackDefs", x.Array)
	}
	rhs := c.compileFloat(x.Rhs)
	prog := c.prog.Name
	name := x.Array
	b := decl.B
	track := decl.TrackDefs && !x.NoTrack
	switch {
	case x.Accumulate != nil:
		comb := x.Accumulate
		return func(f *frame) {
			off := offFn(f)
			data := f.arrays[slot].Data
			data[off] = comb(data[off], rhs(f))
			if track {
				f.defs[slot][off] = true
			}
		}
	case x.CheckCollision:
		return func(f *frame) {
			off := offFn(f)
			if f.defs[slot][off] {
				execFail(prog, "write collision on %s at %v", name, b.Unlinear(off))
			}
			f.defs[slot][off] = true
			f.arrays[slot].Data[off] = rhs(f)
		}
	case track:
		return func(f *frame) {
			off := offFn(f)
			f.defs[slot][off] = true
			f.arrays[slot].Data[off] = rhs(f)
		}
	default:
		return func(f *frame) {
			f.arrays[slot].Data[offFn(f)] = rhs(f)
		}
	}
}

// --- expressions ---

func (c *compiler) compileInt(e IntExpr) intFn {
	switch x := e.(type) {
	case *IConst:
		v := x.Value
		return func(*frame) int64 { return v }
	case *IVar:
		slot, ok := c.intSlots[x.Name]
		if !ok {
			c.fail("unknown integer variable %q", x.Name)
		}
		return func(f *frame) int64 { return f.ints[slot] }
	case *ILin:
		switch len(x.Terms) {
		case 0:
			v := x.Const
			return func(*frame) int64 { return v }
		case 1:
			s := c.intSlotOf(x.Terms[0].Var)
			k, c0 := x.Terms[0].Coeff, x.Const
			if k == 1 {
				return func(f *frame) int64 { return c0 + f.ints[s] }
			}
			return func(f *frame) int64 { return c0 + k*f.ints[s] }
		case 2:
			s1 := c.intSlotOf(x.Terms[0].Var)
			s2 := c.intSlotOf(x.Terms[1].Var)
			k1, k2, c0 := x.Terms[0].Coeff, x.Terms[1].Coeff, x.Const
			return func(f *frame) int64 { return c0 + k1*f.ints[s1] + k2*f.ints[s2] }
		default:
			slots := make([]int, len(x.Terms))
			coeffs := make([]int64, len(x.Terms))
			for i, t := range x.Terms {
				slots[i] = c.intSlotOf(t.Var)
				coeffs[i] = t.Coeff
			}
			c0 := x.Const
			return func(f *frame) int64 {
				v := c0
				for i, s := range slots {
					v += coeffs[i] * f.ints[s]
				}
				return v
			}
		}
	case *IIdx:
		slot, offFn := c.compileOffset(x.Array, x.Subs, nil, x.CheckBounds)
		prog, name := c.prog.Name, x.Array
		if x.CheckBounds {
			return func(f *frame) int64 {
				v := f.arrays[slot].Data[offFn(f)]
				iv := int64(v)
				if float64(iv) != v {
					execFail(prog, "array %s holds non-integral subscript value %v", name, v)
				}
				return iv
			}
		}
		// Unchecked: a verified range claim already proved every element
		// integral and in range.
		return func(f *frame) int64 {
			return int64(f.arrays[slot].Data[offFn(f)])
		}
	case *IBin:
		l := c.compileInt(x.L)
		r := c.compileInt(x.R)
		prog := c.prog.Name
		switch x.Op {
		case '+':
			return func(f *frame) int64 { return l(f) + r(f) }
		case '-':
			return func(f *frame) int64 { return l(f) - r(f) }
		case '*':
			return func(f *frame) int64 { return l(f) * r(f) }
		case '/':
			return func(f *frame) int64 {
				d := r(f)
				if d == 0 {
					execFail(prog, "integer division by zero")
				}
				return l(f) / d
			}
		case '%':
			return func(f *frame) int64 {
				d := r(f)
				if d == 0 {
					execFail(prog, "integer mod by zero")
				}
				return l(f) % d
			}
		}
		c.fail("unknown integer operator %q", string(x.Op))
	}
	c.fail("unknown integer expression %T", e)
	return nil
}

func (c *compiler) intSlotOf(name string) int {
	slot, ok := c.intSlots[name]
	if !ok {
		c.fail("unknown integer variable %q", name)
	}
	return slot
}

func (c *compiler) compileFloat(e VExpr) floatFn {
	switch x := e.(type) {
	case *VConst:
		v := x.Value
		return func(*frame) float64 { return v }
	case *VFromInt:
		fn := c.compileInt(x.X)
		return func(f *frame) float64 { return float64(fn(f)) }
	case *VScalar:
		slot, ok := c.floatSlots[x.Name]
		if !ok {
			c.fail("unknown scalar %q", x.Name)
		}
		return func(f *frame) float64 { return f.floats[slot] }
	case *ARef:
		slot, offFn := c.compileOffset(x.Array, x.Subs, x.Off, x.CheckBounds)
		if x.CheckDefined {
			if !c.prog.Arrays[slot].TrackDefs {
				c.fail("CheckDefined read of %q requires TrackDefs", x.Array)
			}
			prog, name := c.prog.Name, x.Array
			b := c.prog.Arrays[slot].B
			return func(f *frame) float64 {
				off := offFn(f)
				if !f.defs[slot][off] {
					execFail(prog, "read of undefined element %s%v (empty)", name, b.Unlinear(off))
				}
				return f.arrays[slot].Data[off]
			}
		}
		return func(f *frame) float64 { return f.arrays[slot].Data[offFn(f)] }
	case *VBin:
		l := c.compileFloat(x.L)
		r := c.compileFloat(x.R)
		switch x.Op {
		case '+':
			return func(f *frame) float64 { return l(f) + r(f) }
		case '-':
			return func(f *frame) float64 { return l(f) - r(f) }
		case '*':
			return func(f *frame) float64 { return l(f) * r(f) }
		case '/':
			return func(f *frame) float64 { return l(f) / r(f) }
		}
		c.fail("unknown float operator %q", string(x.Op))
	case *VNeg:
		fn := c.compileFloat(x.X)
		return func(f *frame) float64 { return -fn(f) }
	case *VCall:
		return c.compileCall(x)
	case *VCond:
		cond := c.compileBool(x.C)
		th := c.compileFloat(x.T)
		el := c.compileFloat(x.E)
		return func(f *frame) float64 {
			if cond(f) {
				return th(f)
			}
			return el(f)
		}
	}
	c.fail("unknown value expression %T", e)
	return nil
}

func (c *compiler) compileCall(x *VCall) floatFn {
	args := make([]floatFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compileFloat(a)
	}
	need := func(n int) {
		if len(args) != n {
			c.fail("builtin %s expects %d arguments, got %d", x.Fn, n, len(args))
		}
	}
	switch x.Fn {
	case "abs":
		need(1)
		a := args[0]
		return func(f *frame) float64 { return math.Abs(a(f)) }
	case "sqrt":
		need(1)
		a := args[0]
		return func(f *frame) float64 { return math.Sqrt(a(f)) }
	case "exp":
		need(1)
		a := args[0]
		return func(f *frame) float64 { return math.Exp(a(f)) }
	case "log":
		need(1)
		a := args[0]
		return func(f *frame) float64 { return math.Log(a(f)) }
	case "sin":
		need(1)
		a := args[0]
		return func(f *frame) float64 { return math.Sin(a(f)) }
	case "cos":
		need(1)
		a := args[0]
		return func(f *frame) float64 { return math.Cos(a(f)) }
	case "min":
		need(2)
		a, b := args[0], args[1]
		return func(f *frame) float64 { return math.Min(a(f), b(f)) }
	case "max":
		need(2)
		a, b := args[0], args[1]
		return func(f *frame) float64 { return math.Max(a(f), b(f)) }
	case "pow":
		need(2)
		a, b := args[0], args[1]
		return func(f *frame) float64 { return math.Pow(a(f), b(f)) }
	}
	c.fail("unknown builtin %q", x.Fn)
	return nil
}

func (c *compiler) compileBool(e BExpr) boolFn {
	switch x := e.(type) {
	case *BConst:
		v := x.Value
		return func(*frame) bool { return v }
	case *BCmpInt:
		l := c.compileInt(x.L)
		r := c.compileInt(x.R)
		switch x.Op {
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }
		case "/=":
			return func(f *frame) bool { return l(f) != r(f) }
		case "<":
			return func(f *frame) bool { return l(f) < r(f) }
		case "<=":
			return func(f *frame) bool { return l(f) <= r(f) }
		case ">":
			return func(f *frame) bool { return l(f) > r(f) }
		case ">=":
			return func(f *frame) bool { return l(f) >= r(f) }
		}
		c.fail("unknown comparison %q", x.Op)
	case *BCmpFloat:
		l := c.compileFloat(x.L)
		r := c.compileFloat(x.R)
		switch x.Op {
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }
		case "/=":
			return func(f *frame) bool { return l(f) != r(f) }
		case "<":
			return func(f *frame) bool { return l(f) < r(f) }
		case "<=":
			return func(f *frame) bool { return l(f) <= r(f) }
		case ">":
			return func(f *frame) bool { return l(f) > r(f) }
		case ">=":
			return func(f *frame) bool { return l(f) >= r(f) }
		}
		c.fail("unknown comparison %q", x.Op)
	case *BAnd:
		l := c.compileBool(x.L)
		r := c.compileBool(x.R)
		return func(f *frame) bool { return l(f) && r(f) }
	case *BOr:
		l := c.compileBool(x.L)
		r := c.compileBool(x.R)
		return func(f *frame) bool { return l(f) || r(f) }
	case *BNot:
		fn := c.compileBool(x.X)
		return func(f *frame) bool { return !fn(f) }
	case *BVerify:
		slot := c.arraySlot(x.Array)
		claims := x.Claims
		box := c.hook
		return func(f *frame) bool {
			r := idxprop.Verify(f.arrays[slot].Data, claims)
			if box.fn != nil {
				box.fn(claims, r)
			}
			return r.OK
		}
	}
	c.fail("unknown boolean expression %T", e)
	return nil
}
