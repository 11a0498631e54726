package loopir

import (
	"fmt"
	"math"
	"testing"

	"arraycomp/internal/runtime"
)

// stripBodies returns the strip-form body shapes over trip n as
// programs: a loop k = 1..n with register o = k−1, sharded (aligned on
// idx[k] when it scatters) so that worker chunks end mid-strip. Dense
// stores write y(1..n); scatters write y(1..m) through idx, which is
// non-decreasing and repeats, and gathers read x(0..n+1) through col.
// "row snapshot" is node splitting's fused pair of row copies, a second
// plain store beside y's into z(1..n).
func stripBodies(n int64) map[string]*Program {
	const m = 37
	k := func() IntExpr { return &IVar{Name: "k"} }
	at := func(arr string, d int64) VExpr {
		return &ARef{Array: arr, Subs: []IntExpr{lin(d, term("k", 1))}, Off: lin(d+1, term("o", 1))}
	}
	v := &ARef{Array: "v", Subs: []IntExpr{k()}, Off: lin(0, term("o", 1))}
	gat := func(arr, ix string) VExpr {
		return &ARef{Array: arr, Subs: []IntExpr{&IIdx{Array: ix, Subs: []IntExpr{k()}}}}
	}
	c := func(x float64) VExpr { return &VConst{Value: x} }
	bin := func(op byte, l, r VExpr) VExpr { return &VBin{Op: op, L: l, R: r} }
	dense := func(rhs VExpr) *Assign {
		return &Assign{Array: "y", Subs: []IntExpr{k()}, Off: lin(0, term("o", 1)), Rhs: rhs}
	}
	scatter := func(rhs VExpr) *Assign {
		return &Assign{Array: "y", Subs: []IntExpr{&IIdx{Array: "idx", Subs: []IntExpr{k()}}}, Rhs: rhs}
	}
	prog := func(yHi int64, op string, a *Assign) *Program {
		a.HasAccum = op != ""
		par := &ParSchedule{Kind: ParShard}
		if a.Off == nil {
			par.AlignOn = a.Subs[0]
		}
		return &Program{
			Name: "strip",
			Arrays: []ArrayDecl{
				{Name: "y", B: runtime.NewBounds1(1, yHi), Role: RoleOut},
				{Name: "x", B: runtime.NewBounds1(0, n+1), Role: RoleIn},
				{Name: "v", B: runtime.NewBounds1(1, n), Role: RoleIn},
				{Name: "col", B: runtime.NewBounds1(1, n), Role: RoleIn},
				{Name: "idx", B: runtime.NewBounds1(1, n), Role: RoleIn},
			},
			Scalars: []string{"s"},
			AccumOp: op,
			Stmts: []Stmt{
				&Fill{Array: "y", Value: 1.5},
				&SetScalar{Name: "s", Rhs: &ARef{Array: "x", Subs: []IntExpr{&IConst{Value: 0}}}},
				&Loop{Var: "k", From: 1, To: n, Step: 1, Par: par,
					Inds: []Ind{{Name: "o", Init: lin(0), Step: 1}}, Body: []Stmt{a}},
			},
		}
	}
	snapshot := prog(n, "", dense(at("x", 0)))
	snapshot.Arrays = append(snapshot.Arrays, ArrayDecl{Name: "z", B: runtime.NewBounds1(1, n), Role: RoleOut})
	loop := snapshot.Stmts[2].(*Loop)
	loop.Body = append(loop.Body, &Assign{Array: "z", Subs: []IntExpr{k()}, Off: lin(0, term("o", 1)), Rhs: at("x", -1)})
	return map[string]*Program{
		"row snapshot":   snapshot,
		"copy":           prog(n, "", dense(at("x", 1))),
		"map":            prog(n, "", dense(bin('+', &VNeg{X: bin('*', at("x", 0), c(0.5))}, &VScalar{Name: "s"}))),
		"stencil":        prog(n, "", dense(bin('/', bin('+', bin('+', at("x", -1), at("x", 0)), at("x", 1)), c(3)))),
		"two scratch":    prog(n, "", dense(bin('-', bin('*', at("x", 0), c(2)), bin('/', bin('*', at("x", 1), c(3)), bin('+', at("x", -1), c(1)))))),
		"scalar minus":   prog(n, "", dense(bin('-', bin('*', &VScalar{Name: "s"}, c(3)), bin('/', c(1), at("x", 0))))),
		"constant":       prog(n, "", dense(&VNeg{X: bin('*', &VScalar{Name: "s"}, c(3))})),
		"gather":         prog(n, "", dense(bin('*', gat("x", "col"), v))),
		"accumulate +":   prog(n, "+", dense(bin('*', at("x", 0), c(3)))),
		"accumulate *":   prog(n, "*", dense(bin('/', at("x", 1), c(7)))),
		"accumulate max": prog(n, "max", dense(bin('-', at("x", 0), c(0.75)))),
		"spmv":           prog(m, "+", scatter(bin('*', v, gat("x", "col")))),
		"scatter *":      prog(m, "*", scatter(bin('+', bin('/', gat("x", "col"), c(64)), c(1)))),
		"scatter min":    prog(m, "min", scatter(gat("x", "col"))),
		"scatter right":  prog(m, "right", scatter(at("x", 0))),
		"scatter":        prog(m, "", scatter(bin('*', v, c(0.1)))),
		"histogram":      prog(m, "+", scatter(c(1))),
	}
}

// stripInputs fills the inputs of stripBodies(n): values that round
// under every operation, col spread over x, idx non-decreasing.
func stripInputs(n int64) map[string]*runtime.Strict {
	in := map[string]*runtime.Strict{}
	for _, name := range []string{"x", "v", "col", "idx"} {
		lo, hi := int64(1), n
		if name == "x" {
			lo, hi = 0, n+1
		}
		a := runtime.NewStrict(runtime.NewBounds1(lo, hi))
		for i := range a.Data {
			switch name {
			case "col":
				a.Data[i] = float64((int64(i) * 7919) % (n + 2))
			case "idx":
				a.Data[i] = float64(1 + int64(i)*36/max(n-1, 1))
			default:
				a.Data[i] = math.Sin(float64(i)*1.7+float64(len(name))) * 10
			}
		}
		in[name] = a
	}
	return in
}

// selfBodies returns strip-form bodies over trip n that read the array
// they write, y(k) := f(y(k+d), …) for k = 1..n, at distances d on
// both sides of the carried band's edges (−S−1, −S, −S+1 with S the
// strip length, −3, −1, 0, +1), with two carried reads, a carried read
// under negation, a carried copy, and a read through a second register
// o2 = o−1 whose distance the compiler cannot see. y is an input over
// −S..n+1, so every read lands inside it and starts from distinct
// values. "row back" is a 2-D nest over rows i = 1..4 of length n that
// reads one row back and one element back, tiled as a wavefront so
// that each row kernel call covers one tile's 16 columns.
//
// The rest run their spine per element: a five-statement node-split
// chain that carries scalars across iterations (v, the row buffer r,
// cur and prev, an in-place Jacobi row), a fused two-store loop whose second store
// writes what the next iteration's first store overwrites, a gather
// through y, a scatter through idx and an accumulating store that read
// y, and a store that gathers by the array it writes (selfIndexed).
func selfBodies(n int64) map[string]*Program {
	const lo = -stripLen
	y := func(d int64) VExpr {
		return &ARef{Array: "y", Subs: []IntExpr{lin(d, term("k", 1))}, Off: lin(d, term("o", 1))}
	}
	x := func(d int64) VExpr {
		return &ARef{Array: "x", Subs: []IntExpr{lin(d, term("k", 1))}, Off: lin(d, term("o", 1))}
	}
	c := func(v float64) VExpr { return &VConst{Value: v} }
	bin := func(op byte, l, r VExpr) VExpr { return &VBin{Op: op, L: l, R: r} }
	put := func(arr string, d int64, rhs VExpr) *Assign {
		return &Assign{Array: arr, Subs: []IntExpr{lin(d, term("k", 1))}, Off: lin(d, term("o", 1)), Rhs: rhs}
	}
	body := func(op string, stmts ...Stmt) *Program {
		b := runtime.NewBounds1(lo, n+1)
		return &Program{
			Name: "self",
			Arrays: []ArrayDecl{{Name: "y", B: b, Role: RoleInOut}, {Name: "x", B: b, Role: RoleIn},
				{Name: "r", B: b, Role: RoleTemp}, {Name: "idx", B: runtime.NewBounds1(1, n), Role: RoleIn}},
			Scalars: []string{"v", "cur", "prev"},
			AccumOp: op,
			Stmts: []Stmt{&SetScalar{Name: "prev", Rhs: c(0.5)}, &Loop{Var: "k", From: 1, To: n, Step: 1,
				Inds: []Ind{{Name: "o", Init: lin(1 - lo), Step: 1}, {Name: "o2", Init: lin(-lo), Step: 1}},
				Body: stmts}},
		}
	}
	prog := func(rhs VExpr) *Program { return body("", put("y", 0, rhs)) }
	sc := func(name string) VExpr { return &VScalar{Name: name} }
	set := func(name string, rhs VExpr) Stmt { return &SetScalar{Name: name, Rhs: rhs} }
	byIdx := []IntExpr{&IIdx{Array: "idx", Subs: []IntExpr{&IVar{Name: "k"}}}}
	accum := put("y", 0, bin('+', bin('*', y(-1), c(0.5)), x(0)))
	accum.HasAccum = true
	out := map[string]*Program{
		"node-split chain": body("",
			set("v", bin('*', c(0.25), bin('+', bin('+', bin('+', &ARef{Array: "r", Subs: []IntExpr{&IVar{Name: "k"}}, Off: lin(0, term("o", 1))}, y(1)), sc("prev")), x(0)))),
			put("r", 0, y(0)),
			set("cur", y(0)),
			put("y", 0, sc("v")),
			set("prev", sc("cur"))),
		"fused border":            body("", put("y", 0, x(-1)), put("y", 1, bin('*', x(0), c(0.5)))),
		"self gather":             prog(bin('+', bin('*', c(0.5), &ARef{Array: "y", Subs: byIdx}), x(0))),
		"self scatter":            body("", &Assign{Array: "y", Subs: byIdx, Rhs: bin('+', bin('*', y(0), c(0.5)), x(0))}),
		"self scatter accumulate": body("max", &Assign{Array: "y", Subs: byIdx, Rhs: bin('-', y(0), x(1)), HasAccum: true}),
		"self accumulate":         body("+", accum),
		"self indexed":            selfIndexed(n),
		"self two carried":        prog(bin('+', bin('*', bin('+', y(-1), x(0)), c(0.25)), bin('*', y(-3), c(0.5)))),
		"self negated":            prog(bin('-', x(1), bin('*', &VNeg{X: y(-2)}, c(0.5)))),
		"self copy":               prog(y(-1)),
		"self register":           prog(bin('+', bin('*', &ARef{Array: "y", Subs: []IntExpr{lin(-1, term("k", 1))}, Off: lin(0, term("o2", 1))}, c(0.5)), x(0))),
		"self ahead":              prog(bin('/', bin('+', bin('*', x(-1), c(0.5)), y(1)), bin('-', c(3), y(0)))),
	}
	for _, d := range []int64{-stripLen - 1, -stripLen, -stripLen + 1, -3, -1, 0, 1} {
		out[fmt.Sprintf("self d=%d", d)] = prog(bin('+', bin('*', y(d), c(0.5)), bin('*', x(0), c(0.75))))
	}
	// y(i, j) := 0.5·y(i−1, j) + 0.25·y(i, j−1) + x(i, j) for j = 2..n+1:
	// the row back is carry-free at d = −(n+1), the element back carried.
	b := runtime.NewBounds2(0, 1, 4, n+1)
	at := func(arr string, di, dj int64) VExpr {
		return &ARef{Array: arr, Subs: []IntExpr{lin(di, term("i", 1)), lin(dj, term("j", 1))}, Off: lin(di*(n+1)+dj, term("o", 1))}
	}
	out["self row back"] = &Program{
		Name:   "self2d",
		Arrays: []ArrayDecl{{Name: "y", B: b, Role: RoleInOut}, {Name: "x", B: b, Role: RoleIn}},
		Stmts: []Stmt{&Loop{Var: "i", From: 1, To: 4, Step: 1, Par: &ParSchedule{Kind: ParWavefront, TileI: 2, TileJ: 16},
			Body: []Stmt{&Loop{Var: "j", From: 2, To: n + 1, Step: 1,
				Inds: []Ind{{Name: "o", Init: lin(1, term("i", n+1)), Step: 1}},
				Body: []Stmt{&Assign{Array: "y", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}, Off: lin(0, term("o", 1)),
					Rhs: bin('+', bin('+', bin('*', c(0.5), at("y", -1, 0)), bin('*', c(0.25), at("y", 0, -1))), at("x", 0, 0))}}}}}},
	}
	return out
}

// selfIndexed is a store that gathers by the array it writes,
// idx(k+1) := x(idx(k)) for k = 1..n: each element is read one
// iteration after it is stored, so the read is on the spine.
func selfIndexed(n int64) *Program {
	return &Program{
		Name: "selfidx",
		Arrays: []ArrayDecl{
			{Name: "idx", B: runtime.NewBounds1(1, n+1), Role: RoleInOut},
			{Name: "x", B: runtime.NewBounds1(1, n+1), Role: RoleIn},
		},
		Stmts: []Stmt{&Loop{Var: "k", From: 1, To: n, Step: 1,
			Inds: []Ind{{Name: "o", Init: lin(0), Step: 1}},
			Body: []Stmt{&Assign{Array: "idx", Subs: []IntExpr{lin(1, term("k", 1))}, Off: lin(1, term("o", 1)),
				Rhs: &ARef{Array: "x", Subs: []IntExpr{&IIdx{Array: "idx", Subs: []IntExpr{&IVar{Name: "k"}}}}}}}}},
	}
}

// progInputs fills every input array of p, at its declared bounds,
// with values that round under every operation, except index arrays:
// in a selfBodies program idx holds subscripts into y; in selfIndexed
// idx starts at 1 throughout and x(i) = min(i+2, n+1), so every
// element the chain reads is an index inside x.
func progInputs(p *Program) map[string]*runtime.Strict {
	in := map[string]*runtime.Strict{}
	for _, d := range p.Arrays {
		if d.Role == RoleIn || d.Role == RoleInOut {
			a := runtime.NewStrict(d.B)
			for i := range a.Data {
				switch {
				case p.Name == "selfidx" && d.Name == "idx":
					a.Data[i] = 1
				case p.Name == "selfidx":
					a.Data[i] = float64(min(int64(i)+2, d.B.Hi[0]))
				case d.Name == "idx":
					y := p.Decl("y").B
					a.Data[i] = float64(y.Lo[0] + int64(i)*7919%(y.Hi[0]-y.Lo[0]+1))
				default:
					a.Data[i] = math.Sin(float64(i)*1.3+float64(len(d.Name))) * 10
				}
			}
			in[d.Name] = a
		}
	}
	return in
}

// TestStripMatchesGeneric runs every strip-form body shape, including
// those that read the array they write, at trips around the strip
// length — 1, S−1, S, S+1 and 3S+7 — at 1, 2 and 4 workers, and
// requires the generic form's bits: each element goes through the same
// IEEE operations in the same order, a scatter stores its strip in
// element order, and a carried read sees what the previous element
// stored.
func TestStripMatchesGeneric(t *testing.T) {
	for _, n := range []int64{1, stripLen - 1, stripLen, stripLen + 1, 3*stripLen + 7} {
		// A self-reading body updates its input y in place, so every run
		// gets fresh inputs.
		in := stripInputs(n)
		inputs := map[string]func(*Program) map[string]*runtime.Strict{}
		bodies := stripBodies(n)
		for name := range bodies {
			inputs[name] = func(*Program) map[string]*runtime.Strict { return in }
		}
		for name, p := range selfBodies(n) {
			bodies[name], inputs[name] = p, progInputs
		}
		for name, p := range bodies {
			inputs := func() map[string]*runtime.Strict { return inputs[name](p) }
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				var loop *Loop
				Inspect(p.Stmts, func(n any) bool {
					if x, ok := n.(*Loop); ok {
						loop = x
					}
					return true
				})
				if rk := compileRows(t, p).rows[loop]; !rk.strip {
					t.Fatal("generic form, want the strip form")
				}
				old := SetGenericRows(true)
				gen := mustCompile(t, p)
				SetGenericRows(old)
				gen.SetWorkers(1)
				want, err := gen.Run(inputs())
				if err != nil {
					t.Fatal(err)
				}
				ex := mustCompile(t, p)
				for _, w := range []int{1, 2, 4} {
					ex.SetWorkers(w)
					got, err := ex.Run(inputs())
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					for name, a := range want {
						requireBitwise(t, got[name].Data, a)
					}
				}
			})
		}
	}
}
