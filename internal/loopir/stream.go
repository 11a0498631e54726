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
//   - top level is SetScalar, forward unit-step Loops and point
//     assigns (constant subscript), nothing else;
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
// The analysis is a filter over each loop body's access table
// (access.go). The write position and every read distance come from
// the table's affine forms: a read's distance is its form minus the
// write's. A point assign is a write whose form has no variable, so it
// is a one-trip loop at 0 whose write offset is its position. One
// Inspect callback per body statement whitelists the rest. The forms
// are those of Subs, which the optimizer keeps beside its
// strength-reduced offsets (Assign.Off, ARef.Off, Loop.Inds);
// CompileStage (stage.go) runs each loop's row kernel, which uses
// them. Parallel schedules (Loop.Par) are ignored: a stage runs one
// chunk at a time.
package loopir

import (
	"fmt"
	"maps"
	"slices"
	"strings"
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
	// Loops counts the top-level loops and point assigns (one
	// comprehension arm each).
	Loops int
	// WriteOffsets holds, per top-level statement in program order, the
	// write offset cw of a loop (write position = loop variable + cw)
	// and the position of a point assign, a one-trip loop at 0. Scalar
	// sets record 0.
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

// streamChecker carries the state of one legality analysis.
type streamChecker struct {
	out string
	// windows accumulates per-array requirements.
	windows map[string]*StreamWindow
	// bodySet are scalars assigned inside any loop body.
	bodySet map[string]bool
	// selfBack is the deepest backward self read.
	selfBack int64
	// writes holds the write range of each top-level loop and point
	// assign, and selfReads the ranges its reads of the output cover,
	// for the cross-loop forward-read check.
	writes    []loopRange
	selfReads [][]loopRange
	// err is the first rejection of an Inspect callback.
	err error
}

// BuildStreamPlan decides stream legality for one compiled program and
// derives its window geometry. A nil error means the program may
// execute as a streaming stage with bit-identical results; otherwise
// the error names the first disqualifying construct (the compile note
// for the materialized fallback).
func BuildStreamPlan(p *Program) (*StreamPlan, error) {
	c := &streamChecker{windows: map[string]*StreamWindow{}, bodySet: map[string]bool{}}
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
	for _, s := range p.Stmts {
		if l, ok := s.(*Loop); ok {
			inspectList(l.Body, func(n any) bool {
				if x, ok := n.(*SetScalar); ok {
					c.bodySet[x.Name] = true
				}
				return isStmt(n)
			})
		}
	}
	// Top level: SetScalar, Loop, and constant-subscript Assign (the
	// lowered form of a base case like [ 1 := a!1 ]).
	offsets := make([]int64, 0, len(p.Stmts))
	for _, s := range p.Stmts {
		var cw int64
		var err error
		switch x := s.(type) {
		case *SetScalar:
			if Inspect(x.Rhs, c.top); c.err != nil {
				return nil, fmt.Errorf("top-level scalar %s: %w", x.Name, c.err)
			}
		case *Loop:
			if x.Step != 1 {
				return nil, fmt.Errorf("loop over %s has step %d; streaming needs forward unit steps", x.Var, x.Step)
			}
			cw, err = c.loop(x.Var, x.From, x.To, x.Body)
		case *Assign:
			// A point assign binds no variable: it is a one-trip loop at
			// 0 whose write offset is its position.
			cw, err = c.loop("", 0, 0, []Stmt{x})
		default:
			return nil, fmt.Errorf("top-level %T is not streamable", s)
		}
		if err != nil {
			return nil, err
		}
		offsets = append(offsets, cw)
	}
	if len(c.writes) == 0 {
		return nil, fmt.Errorf("no loops (nothing to chunk)")
	}
	// Cross-loop hazard: a read of the output in loop j whose read
	// range enters a *later* loop's write range observes zeros in the
	// materialized order (loop j runs to completion first) but values
	// under chunked interleaving (the later loop has already written
	// earlier chunks).
	for j, reads := range c.selfReads {
		for _, r := range reads {
			for k := j + 1; k < len(c.writes); k++ {
				if w := c.writes[k]; r.from <= w.to && w.from <= r.to {
					return nil, fmt.Errorf("loop %d reads %s[%d..%d], inside loop %d's write range [%d..%d]: chunked interleaving would reorder the observation", j+1, c.out, r.from, r.to, k+1, w.from, w.to)
				}
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
		Loops:        len(c.writes),
		WriteOffsets: offsets,
	}
	for _, n := range slices.Sorted(maps.Keys(c.windows)) {
		w := c.windows[n]
		sp.Reads = append(sp.Reads, *w)
		if w.Windowable {
			sp.MaxDist = max(sp.MaxDist, w.Back, w.Fwd)
		}
	}
	if sp.MaxDist > StreamMaxDistance {
		return nil, fmt.Errorf("window distance %d exceeds the streaming cap %d", sp.MaxDist, StreamMaxDistance)
	}
	return sp, nil
}

// loop checks the body of one top-level loop over v in [from, to], or
// of a point assign (v empty, from = to = 0), accumulates its window
// demands and returns its write offset cw: the body writes v+cw.
func (c *streamChecker) loop(v string, from, to int64, body []Stmt) (int64, error) {
	form := v + "+c"
	if v == "" {
		form = "constant"
	}
	// The table descends into nested loops so that a write in one is
	// judged before the whitelist below rejects the loop.
	t := collectAccesses(body, true)
	defer t.release()
	// The single write offset comes first: read legality is judged
	// relative to the write position. CopyArray and Fill fall to the
	// whitelist.
	var cw int64
	writes := 0
	for i := range t.acc {
		a := &t.acc[i]
		if !a.write || a.whole {
			continue
		}
		switch {
		case a.array != c.out:
			return 0, fmt.Errorf("write to %s; streaming writes the output only", a.array)
		case a.checked || a.collide || a.accum:
			return 0, fmt.Errorf("write to %s keeps runtime checks or accumulation", a.array)
		case len(a.forms()) != 1:
			return 0, fmt.Errorf("write to %s has %d subscripts", a.array, len(a.forms()))
		}
		off, ok := streamOffset(a.forms()[0], v)
		switch {
		case !ok:
			return 0, fmt.Errorf("write subscript %s is not %s", IntExprString(a.node.(*Assign).Subs[0]), form)
		case writes > 0 && off != cw:
			return 0, fmt.Errorf("two write offsets in one loop (%d, %d)", cw, off)
		}
		cw = off
		writes++
	}
	if writes == 0 {
		return 0, fmt.Errorf("loop over %s writes nothing", v)
	}
	// defined tracks per-iteration scalar temporaries assigned
	// unconditionally before their first read: a set inside an If
	// branch does not count.
	defined := map[string]bool{}
	check := c.body(v, defined)
	for _, s := range body {
		if Inspect(s, check); c.err != nil {
			return 0, c.err
		}
		if x, ok := s.(*SetScalar); ok {
			defined[x.Name] = true
		}
	}
	// Every read's distance is its form minus the write's.
	c.writes = append(c.writes, loopRange{from + cw, to + cw, 1})
	var selfReads []loopRange
	for i := range t.acc {
		a := &t.acc[i]
		r, ok := a.node.(*ARef)
		if !ok {
			continue
		}
		cr, unit := streamOffset(a.forms()[0], v)
		if a.array != c.out {
			w := c.window(a.array)
			switch d := cr - cw; {
			case !unit:
				// Constant positions and non-unit coefficients force
				// residency.
				w.Windowable = false
			case d < 0:
				w.Back = max(w.Back, -d)
			default:
				w.Fwd = max(w.Fwd, d)
			}
			continue
		}
		if !unit {
			return 0, fmt.Errorf("self read %s!%s is not %s", r.Array, IntExprString(r.Subs[0]), form)
		}
		if cr >= cw {
			return 0, fmt.Errorf("self read at offset %+d is not strictly backward of the write offset %+d", cr, cw)
		}
		c.selfBack = max(c.selfBack, cw-cr)
		selfReads = append(selfReads, loopRange{from + cr, to + cr, 1})
	}
	c.selfReads = append(c.selfReads, selfReads)
	return cw, nil
}

// streamOffset returns c when f is v+c, or, when v is empty (a point
// assign), when f is the constant c.
func streamOffset(f *linForm, v string) (int64, bool) {
	if f == nil {
		return 0, false
	}
	if v == "" {
		return f.c, len(f.t) == 0
	}
	return f.c, len(f.t) == 1 && f.t[v] == 1
}

// window returns the read window of the named array, adding a
// windowable one on first use.
func (c *streamChecker) window(name string) *StreamWindow {
	w := c.windows[name]
	if w == nil {
		w = &StreamWindow{Array: name, Windowable: true}
		c.windows[name] = w
	}
	return w
}

// body returns the Inspect callback that whitelists one statement of a
// loop body over v. It rejects, in evaluation order, anything that can
// fail or roam: integer division and modulo (IBin), subscripted
// subscripts (IIdx), runtime claim verifiers, integer expressions over
// another variable, checked reads, nested loops and statements other
// than assign, if and scalar set. A scalar set in some loop body may be
// read only after an unconditional set earlier in this one (defined):
// otherwise its value would carry across chunks.
func (c *streamChecker) body(v string, defined map[string]bool) func(any) bool {
	var fn func(any) bool
	fn = func(n any) bool {
		if c.err != nil {
			return false
		}
		switch x := n.(type) {
		case *Assign:
			// The store was judged by its table record, and Off is over
			// induction registers.
			Inspect(x.Rhs, fn)
		case *If, *SetScalar, *VConst, *VFromInt, *VBin, *VNeg, *VCall, *VCond,
			*BConst, *BCmpInt, *BCmpFloat, *BAnd, *BOr, *BNot, *IConst:
			return true
		case *Loop:
			c.err = fmt.Errorf("nested loop over %s; streaming handles rank-1 nests", x.Var)
		case Stmt:
			c.err = fmt.Errorf("loop over %s contains %T; streaming bodies are assign/if/scalar only", v, n)
		case *VScalar:
			if c.bodySet[x.Name] && !defined[x.Name] {
				c.err = fmt.Errorf("scalar %s is read before an unconditional set in this loop (cross-chunk carry)", x.Name)
			}
		case *ARef:
			switch {
			case x.CheckBounds || x.CheckDefined:
				c.err = fmt.Errorf("read of %s keeps runtime checks", x.Array)
			case len(x.Subs) != 1:
				c.err = fmt.Errorf("read of %s has %d subscripts", x.Array, len(x.Subs))
			default:
				if Inspect(x.Subs[0], fn); c.err != nil {
					c.err = fmt.Errorf("read of %s: %w", x.Array, c.err)
				}
			}
		case *IVar:
			if x.Name != v {
				c.err = fmt.Errorf("integer expression reads %s outside the loop variable %s", x.Name, v)
			}
		case *ILin:
			for _, t := range x.Terms {
				if t.Var != v {
					c.err = fmt.Errorf("integer expression reads %s outside the loop variable %s", t.Var, v)
					break
				}
			}
		case *IBin:
			c.err = fmt.Errorf("non-affine integer op %q (can fail at runtime)", string(x.Op))
		case *IIdx:
			c.err = fmt.Errorf("subscripted subscript through %s", x.Array)
		case *BVerify:
			c.err = fmt.Errorf("runtime claim verifier over %s", x.Array)
		default:
			c.err = fmt.Errorf("unknown expression %T", n)
		}
		return false
	}
	return fn
}

// top is the Inspect callback that checks a top-level SetScalar's
// right-hand side: constants, already-set scalars, math over them, and
// constant-position reads of input arrays. No loop variable exists at
// top level, and reads of the output are rejected: a chunked stage
// re-evaluates these statements per chunk, so they must be
// chunk-invariant.
func (c *streamChecker) top(n any) bool {
	if c.err != nil {
		return false
	}
	switch x := n.(type) {
	case *VConst, *VBin, *VNeg, *VCall:
		return true
	case *VScalar:
		if c.bodySet[x.Name] {
			c.err = fmt.Errorf("reads scalar %s set inside a loop body", x.Name)
		}
	case *VFromInt:
		if _, ok := x.X.(*IConst); !ok {
			c.err = fmt.Errorf("non-constant integer at top level")
		}
	case *ARef:
		switch {
		case x.Array == c.out:
			c.err = fmt.Errorf("reads the output %s", x.Array)
		case x.CheckBounds || x.CheckDefined:
			c.err = fmt.Errorf("read of %s keeps runtime checks", x.Array)
		case len(x.Subs) != 1:
			c.err = fmt.Errorf("read of %s has %d subscripts", x.Array, len(x.Subs))
		default:
			if _, ok := x.Subs[0].(*IConst); !ok {
				c.err = fmt.Errorf("read of %s at a non-constant position", x.Array)
			}
			c.window(x.Array).Windowable = false
		}
	default:
		c.err = fmt.Errorf("%T not allowed at top level", n)
	}
	return false
}
