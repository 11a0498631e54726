// Stream legality analysis: decides whether a compiled loop-IR
// program can execute as one stage of a bounded-memory streaming
// pipeline, and if so derives the window geometry (how much history
// and lookahead each read needs) from the same constant subscript
// offsets the dependence planner already reasons about.
//
// The materialized executor holds every array whole: O(n) per
// definition. But when every subscript in a program is the loop
// variable plus a constant, each element's inputs live within a fixed
// distance d of the write position — the carried dependence distances
// of plan.go, seen from the memory side. Such a program can run over a
// sliding O(d) window per array instead: the streaming engine
// (internal/stream) feeds chunks through producer/consumer stages and
// only ever keeps `back` history plus `fwd` lookahead live.
//
// The legality rule is deliberately a whitelist. A program streams
// only when the analysis can *prove* that executing it chunk by chunk,
// interleaved with its producers and consumers, stores bit-identical
// values in bit-identical order:
//
//   - rank-1 arrays only, one RoleOut output, no temps/in-place/bitmaps;
//   - top level is SetScalar and forward unit-step Loops, nothing else;
//   - loop bodies are Assign/If/SetScalar over check-free expressions
//     (no IBin, no IIdx, no BVerify — anything that can fail or roam);
//   - every write subscript is i+c with coefficient 1, one write
//     offset per loop;
//   - reads of the output itself are strictly backward (read position
//     < write position) and never land in a later loop's write range —
//     the materialized order runs loop k's whole range before loop
//     k+1, so a forward read across loops would observe a zero the
//     chunked interleaving has already overwritten;
//   - reads of other arrays are either at constant offset from the
//     write position (windowable: the engine gives them an O(d)
//     window) or arbitrary affine forms (the engine must then hold
//     that array fully resident — fine for caller inputs, fatal for
//     upstream stage outputs, which internal/stream rejects);
//   - scalars read inside a loop body are either set only at top level
//     (chunk-invariant: their defining statement re-runs per chunk with
//     the same operands) or set unconditionally earlier in the same
//     body (per-iteration temporaries from node splitting).
//
// Everything else — accumArray, bigupd, guards over div/mod, tracked
// definedness, subscripted subscripts — falls back to the materialized
// path; BuildStreamPlan's error says why.
//
// The optimizer's strength-reduction artifacts (Assign.Off / ARef.Off,
// Loop.Inds) are ignored: Subs are retained precisely so dependence
// reasoning can ignore offsets, and CompileStage (stage.go) compiles
// Subs directly. Parallel schedules (Loop.Par) are likewise ignored —
// a stream stage runs sequentially; the pipeline's parallelism is
// between stages.
package loopir

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"arraycomp/internal/certify"
)

// StreamMaxDistance caps the window distance d a plan may demand.
// Distances beyond this bound would make "O(d) window" a lie in
// practice (the window would rival the array), so such programs fall
// back to the materialized path.
const StreamMaxDistance = 4096

// StreamWindow is the window requirement of one read array.
type StreamWindow struct {
	// Array is the read array's name.
	Array string
	// Back and Fwd bound the constant read offsets relative to the
	// write position: a read at write+δ contributes -δ to Back (δ<0)
	// or δ to Fwd (δ>0). Only meaningful when Windowable.
	Back, Fwd int64
	// Windowable reports that every read of this array sits at a
	// constant offset from the write position, so an O(Back+Fwd)
	// window suffices. Non-windowable arrays (constant positions,
	// non-unit coefficients) must stay fully resident.
	Windowable bool
}

// StreamPlan is the window geometry of one streamable program: the
// output identity and bounds, how much of its own output history the
// stage retains, and the per-array read windows. internal/stream
// composes the per-definition plans of a pipeline into chunked
// producer/consumer stages.
type StreamPlan struct {
	// Out is the RoleOut array.
	Out string
	// Lo, Hi are the output bounds (rank 1).
	Lo, Hi int64
	// SelfBack is the history of the stage's own output that reads
	// reach back into (0 = no self reads).
	SelfBack int64
	// Reads lists the window requirement per distinct read array,
	// sorted by name.
	Reads []StreamWindow
	// MaxDist is the largest window distance anywhere in the plan —
	// the constant d of the bounded-distance argument.
	MaxDist int64
	// Loops counts the top-level loops (one comprehension arm each).
	Loops int
	// WriteOffsets holds, per top-level statement in program order, the
	// write offset cw of a loop (write position = loop variable + cw).
	// Scalar sets and constant-subscript point assigns record 0.
	WriteOffsets []int64
}

// Read returns the window of the named array, or nil.
func (sp *StreamPlan) Read(name string) *StreamWindow {
	for i := range sp.Reads {
		if sp.Reads[i].Array == name {
			return &sp.Reads[i]
		}
	}
	return nil
}

// String renders the plan for compile notes.
func (sp *StreamPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "out %s[%d..%d] d=%d", sp.Out, sp.Lo, sp.Hi, sp.MaxDist)
	if sp.SelfBack > 0 {
		fmt.Fprintf(&b, " self-back=%d", sp.SelfBack)
	}
	for _, w := range sp.Reads {
		if w.Windowable {
			fmt.Fprintf(&b, " %s[-%d..+%d]", w.Array, w.Back, w.Fwd)
		} else {
			fmt.Fprintf(&b, " %s[resident]", w.Array)
		}
	}
	return b.String()
}

// streamChecker carries the walk state of one legality analysis.
type streamChecker struct {
	prog *Program
	out  string
	// windows accumulates per-array requirements.
	windows map[string]*StreamWindow
	// topScalars are scalars assigned at top level (chunk-invariant).
	topScalars map[string]bool
	// bodySet are scalars assigned inside any loop body.
	bodySet map[string]bool
	// selfBack is the deepest backward self read.
	selfBack int64
	// selfReads records own-output read ranges per loop index for the
	// cross-loop forward-read check.
	selfReads []selfRead
	// loops records each top-level loop's write range.
	loops []streamLoopRange
}

type selfRead struct {
	loopIdx  int
	from, to int64 // read positions over the loop's range
}

type streamLoopRange struct {
	from, to int64 // write positions (From+cw .. To+cw)
}

// BuildStreamPlan decides stream legality for one compiled program and
// derives its window geometry. A nil error means the program may
// execute as a streaming stage with bit-identical results; otherwise
// the error names the first disqualifying construct (the compile note
// for the materialized fallback).
func BuildStreamPlan(p *Program) (*StreamPlan, error) {
	c := &streamChecker{
		prog:       p,
		windows:    map[string]*StreamWindow{},
		topScalars: map[string]bool{},
		bodySet:    map[string]bool{},
	}
	// Array census: one rank-1 output, read-only rank-1 inputs, no
	// temps, no in-place aliasing, no definedness bitmaps.
	for i := range p.Arrays {
		d := &p.Arrays[i]
		if d.TrackDefs {
			return nil, fmt.Errorf("array %s carries a definedness bitmap", d.Name)
		}
		if d.B.Rank() != 1 {
			return nil, fmt.Errorf("array %s has rank %d; streaming handles rank 1", d.Name, d.B.Rank())
		}
		switch d.Role {
		case RoleOut:
			if c.out != "" {
				return nil, fmt.Errorf("two output arrays (%s, %s)", c.out, d.Name)
			}
			c.out = d.Name
		case RoleIn:
			// fine
		default:
			return nil, fmt.Errorf("array %s has role %s; streaming handles in/out only", d.Name, d.Role)
		}
	}
	if c.out == "" {
		return nil, fmt.Errorf("no output array")
	}
	// Pre-scan for body scalar writes (the top-level walk needs the
	// full set before judging body reads).
	var scanBody func(stmts []Stmt)
	scanBody = func(stmts []Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *SetScalar:
				c.bodySet[x.Name] = true
			case *If:
				scanBody(x.Then)
				scanBody(x.Else)
			case *Loop:
				scanBody(x.Body)
			}
		}
	}
	for _, s := range p.Stmts {
		if l, ok := s.(*Loop); ok {
			scanBody(l.Body)
		}
	}
	// Top level: SetScalar, Loop, and constant-subscript Assign (the
	// lowered form of a base case like [ 1 := a!1 ]).
	offsets := make([]int64, 0, len(p.Stmts))
	for _, s := range p.Stmts {
		var cw int64
		switch x := s.(type) {
		case *SetScalar:
			if err := c.topValue(x.Rhs); err != nil {
				return nil, fmt.Errorf("top-level scalar %s: %w", x.Name, err)
			}
			c.topScalars[x.Name] = true
		case *Loop:
			var err error
			if cw, err = c.loop(x); err != nil {
				return nil, err
			}
		case *Assign:
			pl, err := pointLoop(x)
			if err != nil {
				return nil, fmt.Errorf("top-level assign to %s: %w", x.Array, err)
			}
			if _, err := c.loop(pl); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("top-level %T is not streamable", s)
		}
		offsets = append(offsets, cw)
	}
	if len(c.loops) == 0 {
		return nil, fmt.Errorf("no loops (nothing to chunk)")
	}
	// Cross-loop hazard: a read of the output in loop j whose read
	// range enters a *later* loop's write range observes zeros in the
	// materialized order (loop j runs to completion first) but values
	// under chunked interleaving (the later loop has already written
	// earlier chunks).
	for _, sr := range c.selfReads {
		for k := sr.loopIdx + 1; k < len(c.loops); k++ {
			lr := c.loops[k]
			if sr.from <= lr.to && lr.from <= sr.to {
				return nil, fmt.Errorf("loop %d reads %s[%d..%d], inside loop %d's write range [%d..%d]: chunked interleaving would reorder the observation", sr.loopIdx+1, c.out, sr.from, sr.to, k+1, lr.from, lr.to)
			}
		}
	}
	outDecl := p.Decl(c.out)
	sp := &StreamPlan{
		Out:          c.out,
		Lo:           outDecl.B.Lo[0],
		Hi:           outDecl.B.Hi[0],
		SelfBack:     c.selfBack,
		MaxDist:      c.selfBack,
		Loops:        len(c.loops),
		WriteOffsets: offsets,
	}
	names := make([]string, 0, len(c.windows))
	for n := range c.windows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := c.windows[n]
		sp.Reads = append(sp.Reads, *w)
		if w.Windowable {
			if w.Back > sp.MaxDist {
				sp.MaxDist = w.Back
			}
			if w.Fwd > sp.MaxDist {
				sp.MaxDist = w.Fwd
			}
		}
	}
	if sp.MaxDist > StreamMaxDistance {
		return nil, fmt.Errorf("window distance %d exceeds the streaming cap %d", sp.MaxDist, StreamMaxDistance)
	}
	return sp, nil
}

// loop checks one top-level loop, accumulates its window demands, and
// returns its write offset.
func (c *streamChecker) loop(l *Loop) (int64, error) {
	if l.Step != 1 {
		return 0, fmt.Errorf("loop over %s has step %d; streaming needs forward unit steps", l.Var, l.Step)
	}
	// Find the loop's single write offset first: read legality is
	// judged relative to the write position.
	cw, nWrites, err := c.writeOffset(l.Body, l.Var)
	if err != nil {
		return 0, err
	}
	if nWrites == 0 {
		return 0, fmt.Errorf("loop over %s writes nothing", l.Var)
	}
	loopIdx := len(c.loops)
	c.loops = append(c.loops, streamLoopRange{from: l.From + cw, to: l.To + cw})
	// defined tracks per-iteration scalar temporaries assigned
	// unconditionally before their first read (walk order: If branches
	// do not count as unconditional).
	defined := map[string]bool{}
	var stmts func(body []Stmt, unconditional bool) error
	stmts = func(body []Stmt, unconditional bool) error {
		for _, s := range body {
			switch x := s.(type) {
			case *Assign:
				if err := c.value(x.Rhs, l, cw, loopIdx, defined); err != nil {
					return err
				}
				// Write subscript shape was validated by writeOffset.
			case *SetScalar:
				if err := c.value(x.Rhs, l, cw, loopIdx, defined); err != nil {
					return err
				}
				if unconditional {
					defined[x.Name] = true
				}
			case *If:
				if err := c.boolean(x.Cond, l, cw, loopIdx, defined); err != nil {
					return err
				}
				if err := stmts(x.Then, false); err != nil {
					return err
				}
				if err := stmts(x.Else, false); err != nil {
					return err
				}
			default:
				return fmt.Errorf("loop over %s contains %T; streaming bodies are assign/if/scalar only", l.Var, s)
			}
		}
		return nil
	}
	return cw, stmts(l.Body, true)
}

// writeOffset validates every Assign in the body and returns the
// loop's single write offset cw (write position = var + cw).
func (c *streamChecker) writeOffset(body []Stmt, v string) (cw int64, n int, err error) {
	var walk func(stmts []Stmt) error
	walk = func(stmts []Stmt) error {
		for _, s := range stmts {
			switch x := s.(type) {
			case *Assign:
				if x.Array != c.out {
					return fmt.Errorf("write to %s; streaming writes the output only", x.Array)
				}
				if x.CheckBounds || x.CheckCollision || x.HasAccum || x.Accumulate != nil {
					return fmt.Errorf("write to %s keeps runtime checks or accumulation", x.Array)
				}
				if len(x.Subs) != 1 {
					return fmt.Errorf("write to %s has %d subscripts", x.Array, len(x.Subs))
				}
				off, ok := unitOffset(x.Subs[0], v)
				if !ok {
					return fmt.Errorf("write subscript %s is not %s+c", IntExprString(x.Subs[0]), v)
				}
				if n == 0 {
					cw = off
				} else if off != cw {
					return fmt.Errorf("two write offsets in one loop (%d, %d)", cw, off)
				}
				n++
			case *If:
				if err := walk(x.Then); err != nil {
					return err
				}
				if err := walk(x.Else); err != nil {
					return err
				}
			case *Loop:
				return fmt.Errorf("nested loop over %s; streaming handles rank-1 nests", x.Var)
			}
		}
		return nil
	}
	err = walk(body)
	return cw, n, err
}

// unitOffset matches var+c with coefficient 1, returning c.
func unitOffset(e IntExpr, v string) (int64, bool) {
	switch x := e.(type) {
	case *IVar:
		if x.Name == v {
			return 0, true
		}
	case *ILin:
		if len(x.Terms) == 1 && x.Terms[0].Var == v && x.Terms[0].Coeff == 1 {
			return x.Const, true
		}
	}
	return 0, false
}

// streamConstInt matches a constant integer expression.
func streamConstInt(e IntExpr) (int64, bool) {
	switch x := e.(type) {
	case *IConst:
		return x.Value, true
	case *ILin:
		if len(x.Terms) == 0 {
			return x.Const, true
		}
	}
	return 0, false
}

// pointVar is the synthetic loop variable of rewritten point assigns.
// The middle dot cannot appear in source identifiers.
const pointVar = "·point·"

// pointLoop rewrites a top-level constant-subscript Assign into an
// equivalent single-trip Loop so the window math — read offsets
// relative to the write position — applies uniformly. At iteration
// i = w a constant subscript k equals i + (k-w), so every constant
// ARef subscript becomes an affine form over the synthetic variable.
// Expression trees are copied on the paths that change: the original
// IR is shared with the materialized plan and must not be mutated.
func pointLoop(a *Assign) (*Loop, error) {
	if len(a.Subs) != 1 {
		return nil, fmt.Errorf("write has %d subscripts", len(a.Subs))
	}
	w, ok := streamConstInt(a.Subs[0])
	if !ok {
		return nil, fmt.Errorf("write subscript %s is not constant", IntExprString(a.Subs[0]))
	}
	rhs, err := pointValue(a.Rhs, w)
	if err != nil {
		return nil, err
	}
	na := &Assign{
		Array: a.Array, Subs: []IntExpr{&IVar{Name: pointVar}}, Rhs: rhs,
		CheckBounds: a.CheckBounds, CheckCollision: a.CheckCollision,
		Accumulate: a.Accumulate, HasAccum: a.HasAccum,
	}
	return &Loop{Var: pointVar, From: w, To: w, Step: 1, Body: []Stmt{na}}, nil
}

// pointValue copies a value expression, rewriting every ARef subscript
// from its constant position k to the affine form pointVar+(k-w).
func pointValue(e VExpr, w int64) (VExpr, error) {
	switch x := e.(type) {
	case *VConst, *VScalar, *VFromInt:
		return e, nil
	case *ARef:
		if len(x.Subs) != 1 {
			return nil, fmt.Errorf("read of %s has %d subscripts", x.Array, len(x.Subs))
		}
		k, ok := streamConstInt(x.Subs[0])
		if !ok {
			return nil, fmt.Errorf("read of %s at non-constant position %s", x.Array, IntExprString(x.Subs[0]))
		}
		return &ARef{
			Array:       x.Array,
			Subs:        []IntExpr{&ILin{Const: k - w, Terms: []ITerm{{Var: pointVar, Coeff: 1}}}},
			CheckBounds: x.CheckBounds, CheckDefined: x.CheckDefined,
		}, nil
	case *VBin:
		l, err := pointValue(x.L, w)
		if err != nil {
			return nil, err
		}
		r, err := pointValue(x.R, w)
		if err != nil {
			return nil, err
		}
		return &VBin{Op: x.Op, L: l, R: r}, nil
	case *VNeg:
		in, err := pointValue(x.X, w)
		if err != nil {
			return nil, err
		}
		return &VNeg{X: in}, nil
	case *VCall:
		args := make([]VExpr, len(x.Args))
		for i, a := range x.Args {
			na, err := pointValue(a, w)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &VCall{Fn: x.Fn, Args: args}, nil
	case *VCond:
		cond, err := pointBool(x.C, w)
		if err != nil {
			return nil, err
		}
		t, err := pointValue(x.T, w)
		if err != nil {
			return nil, err
		}
		f, err := pointValue(x.E, w)
		if err != nil {
			return nil, err
		}
		return &VCond{C: cond, T: t, E: f}, nil
	}
	return nil, fmt.Errorf("value expression %T in a point assign", e)
}

// pointBool copies a boolean expression under the same rewrite.
func pointBool(b BExpr, w int64) (BExpr, error) {
	switch x := b.(type) {
	case *BConst, *BCmpInt:
		// Integer comparisons at top level are over constants; the
		// checker's affine walk validates them as-is.
		return b, nil
	case *BCmpFloat:
		l, err := pointValue(x.L, w)
		if err != nil {
			return nil, err
		}
		r, err := pointValue(x.R, w)
		if err != nil {
			return nil, err
		}
		return &BCmpFloat{Op: x.Op, L: l, R: r}, nil
	case *BAnd:
		l, err := pointBool(x.L, w)
		if err != nil {
			return nil, err
		}
		r, err := pointBool(x.R, w)
		if err != nil {
			return nil, err
		}
		return &BAnd{L: l, R: r}, nil
	case *BOr:
		l, err := pointBool(x.L, w)
		if err != nil {
			return nil, err
		}
		r, err := pointBool(x.R, w)
		if err != nil {
			return nil, err
		}
		return &BOr{L: l, R: r}, nil
	case *BNot:
		in, err := pointBool(x.X, w)
		if err != nil {
			return nil, err
		}
		return &BNot{X: in}, nil
	}
	return nil, fmt.Errorf("boolean expression %T in a point assign", b)
}

// integer checks an integer expression inside a loop (guard operands,
// VFromInt bodies): affine over the loop variable only. Division,
// modulo, and subscripted subscripts can fail at runtime and are
// rejected wholesale.
func (c *streamChecker) integer(e IntExpr, l *Loop) error {
	switch x := e.(type) {
	case *IConst:
		return nil
	case *IVar:
		if x.Name != l.Var {
			return fmt.Errorf("integer expression reads %s outside the loop variable %s", x.Name, l.Var)
		}
		return nil
	case *ILin:
		for _, t := range x.Terms {
			if t.Var != l.Var {
				return fmt.Errorf("affine term over %s outside the loop variable %s", t.Var, l.Var)
			}
		}
		return nil
	case *IBin:
		return fmt.Errorf("non-affine integer op %q (can fail at runtime)", string(x.Op))
	case *IIdx:
		return fmt.Errorf("subscripted subscript through %s", x.Array)
	}
	return fmt.Errorf("unknown integer expression %T", e)
}

// value checks a float expression inside a loop body.
func (c *streamChecker) value(e VExpr, l *Loop, cw int64, loopIdx int, defined map[string]bool) error {
	switch x := e.(type) {
	case *VConst:
		return nil
	case *VFromInt:
		return c.integer(x.X, l)
	case *VScalar:
		if c.bodySet[x.Name] && !defined[x.Name] {
			return fmt.Errorf("scalar %s is read before an unconditional set in this loop (cross-chunk carry)", x.Name)
		}
		return nil
	case *ARef:
		return c.read(x, l, cw, loopIdx)
	case *VBin:
		if err := c.value(x.L, l, cw, loopIdx, defined); err != nil {
			return err
		}
		return c.value(x.R, l, cw, loopIdx, defined)
	case *VNeg:
		return c.value(x.X, l, cw, loopIdx, defined)
	case *VCall:
		for _, a := range x.Args {
			if err := c.value(a, l, cw, loopIdx, defined); err != nil {
				return err
			}
		}
		return nil
	case *VCond:
		if err := c.boolean(x.C, l, cw, loopIdx, defined); err != nil {
			return err
		}
		if err := c.value(x.T, l, cw, loopIdx, defined); err != nil {
			return err
		}
		return c.value(x.E, l, cw, loopIdx, defined)
	}
	return fmt.Errorf("unknown value expression %T", e)
}

// read checks one array read and accumulates its window demand.
func (c *streamChecker) read(r *ARef, l *Loop, cw int64, loopIdx int) error {
	if r.CheckBounds || r.CheckDefined {
		return fmt.Errorf("read of %s keeps runtime checks", r.Array)
	}
	if len(r.Subs) != 1 {
		return fmt.Errorf("read of %s has %d subscripts", r.Array, len(r.Subs))
	}
	if r.Array == c.out {
		cr, ok := unitOffset(r.Subs[0], l.Var)
		if !ok {
			return fmt.Errorf("self read %s!%s is not %s+c", r.Array, IntExprString(r.Subs[0]), l.Var)
		}
		if cr >= cw {
			return fmt.Errorf("self read at offset %+d is not strictly backward of the write offset %+d", cr, cw)
		}
		if d := cw - cr; d > c.selfBack {
			c.selfBack = d
		}
		c.selfReads = append(c.selfReads, selfRead{loopIdx: loopIdx, from: l.From + cr, to: l.To + cr})
		return nil
	}
	w := c.windows[r.Array]
	if w == nil {
		w = &StreamWindow{Array: r.Array, Windowable: true}
		c.windows[r.Array] = w
	}
	if cr, ok := unitOffset(r.Subs[0], l.Var); ok {
		d := cr - cw
		if d < 0 && -d > w.Back {
			w.Back = -d
		}
		if d > 0 && d > w.Fwd {
			w.Fwd = d
		}
		return nil
	}
	// Constant positions and non-unit coefficients still have to be
	// valid affine forms; they just force residency.
	if err := c.integer(r.Subs[0], l); err != nil {
		return fmt.Errorf("read of %s: %w", r.Array, err)
	}
	w.Windowable = false
	return nil
}

// boolean checks a guard/conditional expression inside a loop body.
func (c *streamChecker) boolean(b BExpr, l *Loop, cw int64, loopIdx int, defined map[string]bool) error {
	switch x := b.(type) {
	case *BConst:
		return nil
	case *BCmpInt:
		if err := c.integer(x.L, l); err != nil {
			return err
		}
		return c.integer(x.R, l)
	case *BCmpFloat:
		if err := c.value(x.L, l, cw, loopIdx, defined); err != nil {
			return err
		}
		return c.value(x.R, l, cw, loopIdx, defined)
	case *BAnd:
		if err := c.boolean(x.L, l, cw, loopIdx, defined); err != nil {
			return err
		}
		return c.boolean(x.R, l, cw, loopIdx, defined)
	case *BOr:
		if err := c.boolean(x.L, l, cw, loopIdx, defined); err != nil {
			return err
		}
		return c.boolean(x.R, l, cw, loopIdx, defined)
	case *BNot:
		return c.boolean(x.X, l, cw, loopIdx, defined)
	case *BVerify:
		return fmt.Errorf("runtime claim verifier over %s", x.Array)
	}
	return fmt.Errorf("unknown boolean expression %T", b)
}

// topValue checks a top-level SetScalar right-hand side: constants,
// already-set scalars, math over them, and constant-position reads of
// input arrays. No loop variable exists at top level, and reads of the
// output are rejected — a chunked stage re-evaluates these statements
// per chunk, so they must be chunk-invariant.
func (c *streamChecker) topValue(e VExpr) error {
	switch x := e.(type) {
	case *VConst:
		return nil
	case *VScalar:
		if c.bodySet[x.Name] {
			return fmt.Errorf("reads scalar %s set inside a loop body", x.Name)
		}
		return nil
	case *VFromInt:
		if _, ok := x.X.(*IConst); ok {
			return nil
		}
		return fmt.Errorf("non-constant integer at top level")
	case *ARef:
		if x.Array == c.out {
			return fmt.Errorf("reads the output %s", x.Array)
		}
		if x.CheckBounds || x.CheckDefined {
			return fmt.Errorf("read of %s keeps runtime checks", x.Array)
		}
		if len(x.Subs) != 1 {
			return fmt.Errorf("read of %s has %d subscripts", x.Array, len(x.Subs))
		}
		if _, ok := x.Subs[0].(*IConst); !ok {
			return fmt.Errorf("read of %s at a non-constant position", x.Array)
		}
		w := c.windows[x.Array]
		if w == nil {
			w = &StreamWindow{Array: x.Array, Windowable: true}
			c.windows[x.Array] = w
		}
		w.Windowable = false
		return nil
	case *VBin:
		if err := c.topValue(x.L); err != nil {
			return err
		}
		return c.topValue(x.R)
	case *VNeg:
		return c.topValue(x.X)
	case *VCall:
		for _, a := range x.Args {
			if err := c.topValue(a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%T not allowed at top level", e)
}

// CertifyStream replays the window-legality analysis independently of
// the plan being certified and cross-checks the claimed geometry. The
// soundness direction matters: a plan claiming a *smaller* window than
// the replay derives would drop live history at runtime, so any
// under-claim falsifies; claims at or above the derived geometry are
// certified. A plan for a program the replay rejects outright is a
// forgery.
func CertifyStream(p *Program, claimed *StreamPlan) *certify.Report {
	rep := certify.NewReport()
	cert := certify.Certificate{Layer: "stream", Exhaustive: true}
	actual, err := BuildStreamPlan(p)
	if err != nil {
		cert.Claim = fmt.Sprintf("%s streams with %s", p.Name, claimed)
		cert.Status = certify.Falsified
		cert.Detail = fmt.Sprintf("replay rejects the program: %v", err)
		rep.Record(cert)
		return rep
	}
	cert.Claim = fmt.Sprintf("%s streams with window d=%d", p.Name, actual.MaxDist)
	fail := func(detail string) *certify.Report {
		cert.Status = certify.Falsified
		cert.Detail = detail
		rep.Record(cert)
		return rep
	}
	if claimed.Out != actual.Out || claimed.Lo != actual.Lo || claimed.Hi != actual.Hi {
		return fail(fmt.Sprintf("output identity mismatch: claimed %s[%d..%d], replay %s[%d..%d]", claimed.Out, claimed.Lo, claimed.Hi, actual.Out, actual.Lo, actual.Hi))
	}
	if !slices.Equal(claimed.WriteOffsets, actual.WriteOffsets) {
		return fail(fmt.Sprintf("claimed write offsets %v, replay %v", claimed.WriteOffsets, actual.WriteOffsets))
	}
	if claimed.SelfBack < actual.SelfBack {
		return fail(fmt.Sprintf("claimed self history %d < required %d", claimed.SelfBack, actual.SelfBack))
	}
	for _, aw := range actual.Reads {
		cwin := claimed.Read(aw.Array)
		if cwin == nil {
			return fail(fmt.Sprintf("claimed plan omits read array %s", aw.Array))
		}
		if !aw.Windowable && cwin.Windowable {
			return fail(fmt.Sprintf("claimed %s windowable; replay requires residency", aw.Array))
		}
		if aw.Windowable && cwin.Windowable && (cwin.Back < aw.Back || cwin.Fwd < aw.Fwd) {
			return fail(fmt.Sprintf("claimed window %s[-%d..+%d] < required [-%d..+%d]", aw.Array, cwin.Back, cwin.Fwd, aw.Back, aw.Fwd))
		}
	}
	cert.Status = certify.Certified
	cert.Witness = []int64{actual.MaxDist, int64(actual.Loops)}
	rep.Record(cert)
	return rep
}
