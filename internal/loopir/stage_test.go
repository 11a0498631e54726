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
	ex, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunResult(map[string]*runtime.Strict{"c": c, "x": x})
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
	back, fwd := xw.Back, xw.Fwd
	for _, chunk := range []int64{1, 3, 16} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			got := make([]float64, hi-lo+1)
			fr := st.NewFrame()
			xbuf := make([]float64, back+chunk+fwd)
			own := make([]float64, sp.SelfBack+chunk)
			fr.Bind(0, c.Data, 1)
			fr.Bind(1, xbuf, lo-back)
			fr.Bind(2, own, lo-sp.SelfBack)
			for clo := int64(lo); clo <= hi; clo += chunk {
				chi := min(clo+chunk-1, hi)
				xbase, obase := clo-back, clo-sp.SelfBack
				// Refill x's window; positions outside x are NaN so a
				// read outside the window poisons the result.
				for k := range xbuf {
					pos := xbase + int64(k)
					xbuf[k] = math.NaN()
					if pos >= lo && pos <= hi {
						xbuf[k] = x.Data[pos-lo]
					}
				}
				if clo > lo {
					copy(own[:sp.SelfBack], own[chunk:])
					clear(own[sp.SelfBack:])
				}
				fr.Slide(1, xbase)
				fr.Slide(2, obase)
				if err := st.RunChunk(fr, clo, chi); err != nil {
					t.Fatal(err)
				}
				copy(got[clo-lo:chi-lo+1], own[sp.SelfBack:])
			}
			for i := range want.Data {
				if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("element %d: stage %v, Exec.Run %v", lo+int64(i), got[i], want.Data[i])
				}
			}
		})
	}
}
