package loopir

import "arraycomp/internal/runtime"

// Stage is a stream-legal program (see BuildStreamPlan) compiled for
// chunked execution by internal/stream. It is built by the same
// closure compiler as Compile, with one difference: a rank-1 array
// access subtracts a per-frame base position instead of the declared
// lower bound, so each array slot can be bound to its whole storage or
// to a window that slides along it (StageFrame.Bind, Slide). Offset
// forms (Assign.Off, ARef.Off), induction registers and parallel
// schedules are ignored: a stage runs sequentially over Subs.
//
// A Stage is immutable and safe for concurrent use through separate
// frames.
type Stage struct {
	prog   *Program
	tops   []stageStmt
	nInts  int
	nFloat int
}

// stageStmt is one top-level statement. A scalar set (set non-nil)
// runs on every chunk; a loop runs the iterations whose write position
// v+cw falls in the chunk. A point assign is a one-iteration loop with
// no variable (slot -1).
type stageStmt struct {
	set      stmtFn
	body     []stmtFn
	slot     int
	from, to int64
	cw       int64
}

// CompileStage compiles p as a stream stage. sp must be p's stream
// plan; its write offsets clamp each loop to a chunk.
func CompileStage(p *Program, sp *StreamPlan) (st *Stage, err error) {
	defer catchExec(&err)
	c := newCompiler(p)
	c.stage = true
	if len(sp.WriteOffsets) != len(p.Stmts) {
		c.fail("stream plan has %d write offsets for %d top-level statements", len(sp.WriteOffsets), len(p.Stmts))
	}
	st = &Stage{prog: p, nInts: len(c.intSlots), nFloat: len(c.floatSlots)}
	for k, s := range p.Stmts {
		switch x := s.(type) {
		case *SetScalar:
			st.tops = append(st.tops, stageStmt{set: c.compileStmt(x)})
		case *Loop:
			if x.Step != 1 {
				c.fail("stage loop over %q has step %d", x.Var, x.Step)
			}
			st.tops = append(st.tops, stageStmt{
				body: c.compileStmts(x.Body),
				slot: c.intSlots[x.Var],
				from: x.From,
				to:   x.To,
				cw:   sp.WriteOffsets[k],
			})
		case *Assign:
			var w int64
			ok := len(x.Subs) == 1
			if ok {
				w, ok = streamConstInt(x.Subs[0])
			}
			if !ok {
				c.fail("top-level assign to %q has a non-constant subscript", x.Array)
			}
			st.tops = append(st.tops, stageStmt{body: []stmtFn{c.compileAssign(x)}, slot: -1, from: w, to: w})
		default:
			c.fail("top-level %T in a stream stage", s)
		}
	}
	return st, nil
}

// StageFrame is one run's activation record for a Stage: loop and
// scalar registers plus the binding of every array slot. Slots are
// indices into Program.Arrays. A frame is not safe for concurrent use.
type StageFrame struct {
	f frame
}

// NewFrame returns a frame with every array slot unbound.
func (st *Stage) NewFrame() *StageFrame {
	n := len(st.prog.Arrays)
	return &StageFrame{f: frame{
		ints:   make([]int64, st.nInts),
		floats: make([]float64, st.nFloat),
		arrays: make([]*runtime.Strict, n),
		base:   make([]int64, n),
	}}
}

// Bind points array slot at data, whose element 0 holds position base.
func (sf *StageFrame) Bind(slot int, data []float64, base int64) {
	// Stage closures index Data only, so the bounds stay zero.
	sf.f.arrays[slot] = &runtime.Strict{Data: data}
	sf.f.base[slot] = base
}

// Slide moves slot's window so element 0 holds position base; the
// caller has already moved the data.
func (sf *StageFrame) Slide(slot int, base int64) {
	sf.f.base[slot] = base
}

// RunChunk executes the top-level statements in program order for the
// write positions lo..hi: scalar sets unconditionally, loops clamped
// to the iterations that write inside [lo, hi].
func (st *Stage) RunChunk(sf *StageFrame, lo, hi int64) (err error) {
	defer catchExec(&err)
	f := &sf.f
	for i := range st.tops {
		t := &st.tops[i]
		if t.set != nil {
			t.set(f)
			continue
		}
		from, to := max(t.from, lo-t.cw), min(t.to, hi-t.cw)
		for v := from; v <= to; v++ {
			if t.slot >= 0 {
				f.ints[t.slot] = v
			}
			runAll(t.body, f)
		}
	}
	return nil
}
