package loopir

import (
	"fmt"
	"math"
	"testing"

	"arraycomp/internal/runtime"
)

// stageProg reads x through a window at offsets -2..+1 and its own
// output up to two steps back, sets a top-level scalar from a fixed
// position of the resident input c, keeps a per-iteration temporary,
// and writes both ends with constant-subscript point assigns.
func stageProg(lo, hi int64) *Program {
	at := func(arr string, d int64) VExpr {
		return &ARef{Array: arr, Subs: []IntExpr{&ILin{Const: d, Terms: []ITerm{{Var: "i", Coeff: 1}}}}}
	}
	pos := func(arr string, p int64) VExpr { return &ARef{Array: arr, Subs: []IntExpr{&IConst{Value: p}}} }
	return &Program{
		Name:    "st",
		Scalars: []string{"k", "t"},
		Arrays: []ArrayDecl{
			{Name: "c", B: b1(1, 4), Role: RoleIn},
			{Name: "x", B: b1(lo, hi), Role: RoleIn},
			{Name: "st", B: b1(lo, hi), Role: RoleOut},
		},
		Stmts: []Stmt{
			&SetScalar{Name: "k", Rhs: &VBin{Op: '*', L: pos("c", 3), R: &VConst{Value: 0.125}}},
			&Assign{Array: "st", Subs: []IntExpr{&IConst{Value: lo}}, Rhs: pos("x", lo+1)},
			&Assign{Array: "st", Subs: []IntExpr{&IConst{Value: lo + 1}}, Rhs: pos("x", lo)},
			// Write offset +1: the loop writes st[lo+2..hi-2].
			&Loop{Var: "i", From: lo + 1, To: hi - 3, Step: 1, Body: []Stmt{
				&SetScalar{Name: "t", Rhs: &VBin{Op: '-', L: at("x", 2), R: at("x", -1)}},
				&Assign{Array: "st", Subs: []IntExpr{&ILin{Const: 1, Terms: []ITerm{{Var: "i", Coeff: 1}}}}, Rhs: &VBin{Op: '+',
					L: &VBin{Op: '*', L: at("st", 0), R: &VScalar{Name: "k"}},
					R: &VCall{Fn: "max", Args: []VExpr{&VScalar{Name: "t"}, at("x", 0)}}}},
			}},
			// The last point assign reads the loop's final write, two
			// positions back.
			&Assign{Array: "st", Subs: []IntExpr{&IConst{Value: hi - 1}}, Rhs: pos("x", hi)},
			&Assign{Array: "st", Subs: []IntExpr{&IConst{Value: hi}}, Rhs: &VNeg{X: pos("st", hi-2)}},
		},
	}
}

// runStageChunked runs st chunk by chunk and returns its output. The
// output and every windowable input are bound to windows whose bases
// start away from the declared lower bound and slide every chunk;
// other inputs stay resident. Window positions outside an input's
// bounds hold NaN, so a read outside the window poisons the result.
func runStageChunked(t *testing.T, p *Program, sp *StreamPlan, st *Stage, inputs map[string]*runtime.Strict, chunk int64) []float64 {
	t.Helper()
	lo, hi := sp.Lo, sp.Hi
	got := make([]float64, hi-lo+1)
	fr := st.NewFrame(make([]float64, st.FrameFloats()))
	type win struct {
		slot int
		in   *runtime.Strict
		buf  []float64
		back int64
	}
	var wins []win
	var own []float64
	ownSlot := 0
	for slot, d := range p.Arrays {
		switch w := sp.Read(d.Name); {
		case d.Name == sp.Out:
			ownSlot, own = slot, make([]float64, sp.SelfBack+chunk)
		case w.Windowable:
			wins = append(wins, win{slot: slot, in: inputs[d.Name], buf: make([]float64, w.Back+chunk+w.Fwd), back: w.Back})
		default:
			in := inputs[d.Name]
			fr.Bind(slot, in.Data, in.B.Lo[0])
		}
	}
	fr.Bind(ownSlot, own, lo-sp.SelfBack)
	for _, w := range wins {
		fr.Bind(w.slot, w.buf, lo-w.back)
	}
	for clo := lo; clo <= hi; clo += chunk {
		chi := min(clo+chunk-1, hi)
		for _, w := range wins {
			base := clo - w.back
			for k := range w.buf {
				w.buf[k] = math.NaN()
				if pos := base + int64(k); pos >= w.in.B.Lo[0] && pos <= w.in.B.Hi[0] {
					w.buf[k] = w.in.Data[pos-w.in.B.Lo[0]]
				}
			}
			fr.Slide(w.slot, base)
		}
		if clo > lo {
			copy(own[:sp.SelfBack], own[chunk:])
			clear(own[sp.SelfBack:])
		}
		fr.Slide(ownSlot, clo-sp.SelfBack)
		if err := st.RunChunk(fr, clo, chi); err != nil {
			t.Fatal(err)
		}
		copy(got[clo-lo:chi-lo+1], own[sp.SelfBack:])
	}
	return got
}

// requireBitwise compares a chunked stage run with Exec.Run.
func requireBitwise(t *testing.T, got []float64, want *runtime.Strict) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: stage %v, Exec.Run %v", want.B.Lo[0]+int64(i), got[i], want.Data[i])
		}
	}
}

// TestStreamStageSlidingWindows runs a CompileStage program chunk by
// chunk with both arrays bound to windows whose bases start away from
// the declared lower bound and slide every chunk, and requires the
// result to be bitwise equal to Exec.Run.
func TestStreamStageSlidingWindows(t *testing.T) {
	const lo, hi = 11, 140
	p := stageProg(lo, hi)
	x := runtime.NewStrict(b1(lo, hi))
	for i := range x.Data {
		x.Data[i] = float64((i*37)%29-14) / 8
	}
	c := &runtime.Strict{B: b1(1, 4), Data: []float64{0.5, -1, 3.25, 2}}
	inputs := map[string]*runtime.Strict{"c": c, "x": x}
	ex, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunResult(inputs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildStreamPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CompileStage(p, sp)
	if err != nil {
		t.Fatal(err)
	}
	xw := sp.Read("x")
	if !xw.Windowable || xw.Back != 2 || xw.Fwd != 1 || sp.SelfBack != 2 {
		t.Fatalf("unexpected geometry: x %+v, self-back %d", xw, sp.SelfBack)
	}
	for _, chunk := range []int64{1, 3, 16} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			requireBitwise(t, runStageChunked(t, p, sp, st, inputs, chunk), want)
		})
	}
}

// stageShapes returns the three stage shapes of the E23 chain over
// lo..hi, each reading x: an elementwise map, 3-point smoothing with
// copied ends, and a carried d=1 recurrence; plus a plain copy, and
// recurrences that read their own output d = 3, S−1, S and S+1
// positions back (S the strip length; the first d positions copy x),
// through two carried reads, and under negation; and loops with
// per-iteration temporaries: scalars set and read in the same
// iteration, one of them from the loop's own output.
func stageShapes(lo, hi int64) map[string]*Program {
	at := func(arr string, d int64) VExpr { return &ARef{Array: arr, Subs: []IntExpr{lin(d, term("i", 1))}} }
	pos := func(arr string, p int64) VExpr { return &ARef{Array: arr, Subs: []IntExpr{&IConst{Value: p}}} }
	put := func(rhs VExpr) Stmt { return &Assign{Array: "s", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: rhs} }
	point := func(w int64) Stmt { return &Assign{Array: "s", Subs: []IntExpr{&IConst{Value: w}}, Rhs: pos("x", w)} }
	loop := func(from, to int64, rhs VExpr) Stmt {
		return &Loop{Var: "i", From: from, To: to, Step: 1, Body: []Stmt{put(rhs)}}
	}
	set := func(name string, rhs VExpr) Stmt { return &SetScalar{Name: name, Rhs: rhs} }
	sc := func(name string) VExpr { return &VScalar{Name: name} }
	k := func(v float64) VExpr { return &VConst{Value: v} }
	bin := func(op byte, l, r VExpr) VExpr { return &VBin{Op: op, L: l, R: r} }
	prog := func(stmts ...Stmt) *Program {
		return &Program{
			Name:    "s",
			Arrays:  []ArrayDecl{{Name: "s", B: b1(lo, hi), Role: RoleOut}, {Name: "x", B: b1(lo, hi), Role: RoleIn}},
			Scalars: []string{"t", "u"},
			Stmts:   stmts,
		}
	}
	shapes := map[string]*Program{
		"copy": prog(loop(lo, hi, at("x", 0))),
		"map":  prog(loop(lo, hi, bin('+', bin('*', at("x", 0), k(0.5)), k(0.25)))),
		"smooth": prog(point(lo),
			loop(lo+1, hi-1, bin('/', bin('+', bin('+', at("x", -1), at("x", 0)), at("x", 1)), k(3))),
			point(hi)),
		"recurrence": prog(point(lo),
			loop(lo+1, hi, bin('+', bin('*', at("s", -1), k(0.75)), bin('*', at("x", 0), k(0.25))))),
		"two carried": prog(point(lo), point(lo+1),
			loop(lo+2, hi, bin('-', bin('*', bin('+', at("s", -1), at("s", -2)), k(0.5)), at("x", 0)))),
		"negated": prog(point(lo), point(lo+1),
			loop(lo+2, hi, bin('+', bin('*', &VNeg{X: at("s", -2)}, k(0.5)), at("x", -1)))),
		"temporary": prog(point(lo),
			&Loop{Var: "i", From: lo + 1, To: hi, Step: 1, Body: []Stmt{
				set("t", bin('*', at("x", 0), k(0.5))),
				put(bin('+', sc("t"), at("x", -1)))}}),
		"temporary recurrence": prog(point(lo),
			&Loop{Var: "i", From: lo + 1, To: hi, Step: 1, Body: []Stmt{
				set("t", bin('*', at("x", 0), k(0.25))),
				set("u", bin('-', bin('*', at("s", -1), k(0.75)), sc("t"))),
				put(bin('*', sc("u"), bin('+', sc("t"), k(1))))}}),
	}
	for _, d := range []int64{3, stripLen - 1, stripLen, stripLen + 1} {
		shapes[fmt.Sprintf("recurrence d=%d", d)] = prog(loop(lo, lo+d-1, at("x", 0)),
			loop(lo+d, hi, bin('+', bin('*', at("s", -d), k(0.5)), bin('*', at("x", 0), k(0.75)))))
	}
	return shapes
}

// TestStageRowKernelForms: an optimized stage runs its loops' row
// kernels, so every shape takes the strip form, the recurrences with
// their carried reads run per element; an unoptimized stage, which has
// no offset forms, takes the generic form. All are bitwise equal to
// Exec.Run of the generic form at every chunk size, including sizes
// that cut a row mid-strip.
func TestStageRowKernelForms(t *testing.T) {
	const lo, hi = 7, 3*stripLen + 7
	x := runtime.NewStrict(b1(lo, hi))
	for i := range x.Data {
		x.Data[i] = float64((i*53)%31-15) / 4
	}
	inputs := map[string]*runtime.Strict{"x": x}
	for _, optimize := range []bool{true, false} {
		for name, p := range stageShapes(lo, hi) {
			if optimize {
				optimizeFor(p)
			}
			// The reference runs the generic form, so a fault shared by
			// the materialized and stage kernels still shows.
			old := SetGenericRows(true)
			ex := mustCompile(t, p)
			SetGenericRows(old)
			ref, err := ex.RunResult(inputs)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := BuildStreamPlan(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st, err := CompileStage(p, sp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			loops, wantLoops := 0, 0
			for _, s := range p.Stmts {
				if _, ok := s.(*Loop); ok {
					wantLoops++
				}
			}
			for _, top := range st.tops {
				if top.row == nil {
					continue
				}
				loops++
				if top.row.strip != optimize {
					t.Fatalf("%s (optimized %v): stage loop takes the strip form: %v", name, optimize, top.row.strip)
				}
			}
			if loops != wantLoops {
				t.Fatalf("%s: %d stage loops, want %d", name, loops, wantLoops)
			}
			for _, chunk := range []int64{1, 5, 64, stripLen - 1, stripLen + 1, 1000} {
				requireBitwise(t, runStageChunked(t, p, sp, st, inputs, chunk), ref)
			}
		}
	}
}
