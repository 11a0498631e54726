package loopir

import "arraycomp/internal/runtime"

// Stage is a stream-legal program (see BuildStreamPlan) compiled for
// chunked execution by internal/stream. It is built by the same
// compiler as Compile, with one difference: every array slot can be
// bound to its whole storage or to a window that slides along it
// (StageFrame.Bind, Slide), and each access subtracts the slot's base
// position. Each top-level loop runs its row kernel (fast.go) over the
// iterations that write inside a chunk, so an optimized stage takes
// the same strip or generic form as its materialized loop. Parallel schedules are ignored: a stage runs one chunk at a
// time, and a pipeline's parallelism is between stages.
//
// A Stage is immutable and safe for concurrent use through separate
// frames.
type Stage struct {
	prog   *Program
	tops   []stageStmt
	nInts  int
	nFloat int
	nStrip int
}

// stageStmt is one top-level statement. A scalar set (set non-nil)
// runs on every chunk; a loop's row kernel runs the iterations whose
// write position v+cw falls in the chunk; a point assign (point
// non-nil) is a one-trip loop at 0 whose write offset cw is its
// position, so it runs when the chunk holds that position.
type stageStmt struct {
	set, point stmtFn
	row        *rowKernel
	from, to   int64
	cw         int64
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
	st = &Stage{prog: p}
	for k, s := range p.Stmts {
		switch x := s.(type) {
		case *SetScalar:
			st.tops = append(st.tops, stageStmt{set: c.compileStmt(x)})
		case *Loop:
			if x.Step != 1 {
				c.fail("stage loop over %q has step %d", x.Var, x.Step)
			}
			st.tops = append(st.tops, stageStmt{row: c.rowFor(x), from: x.From, to: x.To, cw: sp.WriteOffsets[k]})
		case *Assign:
			st.tops = append(st.tops, stageStmt{point: c.compileAssign(x), cw: sp.WriteOffsets[k]})
		default:
			c.fail("top-level %T in a stream stage", s)
		}
	}
	// Strip kernels add row-distance slots as they compile.
	st.nInts, st.nFloat, st.nStrip = len(c.intSlots), len(c.floatSlots), c.strips
	return st, nil
}

// StageFrame is one run's activation record for a Stage: loop and
// scalar registers plus the binding of every array slot. Slots are
// indices into Program.Arrays. A frame is not safe for concurrent use.
type StageFrame struct {
	f frame
}

// FrameFloats is the float64 storage a frame of st needs: its scalars
// and the strip form's scratch strips.
func (st *Stage) FrameFloats() int { return st.nFloat + st.nStrip }

// NewFrame returns a frame with every array slot unbound that keeps
// its scalars and scratch strips in floats, FrameFloats() long, so a
// caller can carve them from an allocation it makes anyway.
func (st *Stage) NewFrame(floats []float64) *StageFrame {
	n := len(st.prog.Arrays)
	return &StageFrame{f: frame{
		ints:   make([]int64, st.nInts),
		floats: floats[:st.nFloat:st.nFloat],
		strip:  floats[st.nFloat:],
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
		switch {
		case from > to:
		case t.row != nil:
			t.row.run(f, from-t.from, to-t.from+1)
		default:
			t.point(f)
		}
	}
	return nil
}
