package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/stream"
)

// Small constructors for the whitelist table.
func vc(v float64) loopir.VExpr                   { return &loopir.VConst{Value: v} }
func vs(name string) loopir.VExpr                 { return &loopir.VScalar{Name: name} }
func bin(op byte, l, r loopir.VExpr) loopir.VExpr { return &loopir.VBin{Op: op, L: l, R: r} }
func call(fn string, args ...loopir.VExpr) loopir.VExpr {
	return &loopir.VCall{Fn: fn, Args: args}
}
func put(rhs loopir.VExpr) loopir.Stmt {
	return &loopir.Assign{Array: "out", Subs: []loopir.IntExpr{iv("i")}, Rhs: rhs}
}
func ifElse(c loopir.BExpr, then, els loopir.VExpr) loopir.Stmt {
	return &loopir.If{Cond: c, Then: []loopir.Stmt{put(then)}, Else: []loopir.Stmt{put(els)}}
}

// whitelistCase is one construct the window-legality whitelist admits.
// Its body writes the interior of out at write offset shift; the
// template around it adds point assigns at both ends and reads every
// declared array.
type whitelistCase struct {
	name    string
	scalars []string
	top     []loopir.Stmt
	body    []loopir.Stmt
	shift   int64
}

func whitelistCases(lo, hi int64) []whitelistCase {
	a := func(d int64) loopir.VExpr { return aref("a", off("i", d)) }
	x := aref("x", iv("i"))
	y := func(d int64) loopir.VExpr { return aref("y", off("i", d)) }
	mid := &loopir.IConst{Value: (lo + hi) / 2}
	cases := []whitelistCase{
		{name: "abs", body: []loopir.Stmt{put(call("abs", a(-1)))}},
		{name: "sqrt", body: []loopir.Stmt{put(call("sqrt", call("abs", a(0))))}},
		{name: "exp", body: []loopir.Stmt{put(call("exp", bin('/', a(1), vc(256))))}},
		{name: "log", body: []loopir.Stmt{put(call("log", bin('+', call("abs", a(1)), vc(1))))}},
		{name: "sin", body: []loopir.Stmt{put(call("sin", a(0)))}},
		{name: "cos", body: []loopir.Stmt{put(call("cos", a(-1)))}},
		{name: "min", body: []loopir.Stmt{put(call("min", a(-1), a(1)))}},
		{name: "max", body: []loopir.Stmt{put(call("max", x, a(0)))}},
		{name: "pow", body: []loopir.Stmt{put(call("pow", bin('/', call("abs", a(0)), vc(64)), vc(1.5)))}},
		{name: "arith", body: []loopir.Stmt{put(&loopir.VNeg{X: bin('/', bin('-', a(-1), a(1)), bin('+', call("abs", x), vc(1)))})}},
		{name: "fromint", body: []loopir.Stmt{put(bin('+', a(0), bin('*',
			&loopir.VFromInt{X: &loopir.ILin{Const: 3, Terms: []loopir.ITerm{{Var: "i", Coeff: 2}}}},
			&loopir.VFromInt{X: iv("i")})))}},
		{name: "cond", body: []loopir.Stmt{put(&loopir.VCond{
			C: &loopir.BCmpFloat{Op: "<", L: y(0), R: vc(2)}, T: a(-1), E: a(1)})}},
		{name: "and", body: []loopir.Stmt{ifElse(&loopir.BAnd{
			L: &loopir.BCmpInt{Op: ">", L: iv("i"), R: mid},
			R: &loopir.BCmpFloat{Op: ">", L: a(0), R: vc(0)}}, a(0), x)}},
		{name: "or", body: []loopir.Stmt{ifElse(&loopir.BOr{
			L: &loopir.BCmpInt{Op: "<", L: iv("i"), R: mid},
			R: &loopir.BCmpFloat{Op: "==", L: y(0), R: y(-1)}}, a(1), x)}},
		{name: "not", body: []loopir.Stmt{ifElse(&loopir.BNot{
			X: &loopir.BCmpFloat{Op: ">=", L: a(0), R: x}}, a(-1), a(1))}},
		{
			name:    "top-scalars",
			scalars: []string{"s", "u"},
			top: []loopir.Stmt{
				&loopir.SetScalar{Name: "s", Rhs: bin('*', aref("x", &loopir.IConst{Value: lo + 2}), vc(0.25))},
				&loopir.SetScalar{Name: "u", Rhs: bin('+', vs("s"), vc(1.5))},
			},
			body: []loopir.Stmt{put(bin('+', bin('*', a(0), vs("s")), vs("u")))},
		},
		{
			name:    "temporaries",
			scalars: []string{"t"},
			body: []loopir.Stmt{
				&loopir.SetScalar{Name: "t", Rhs: bin('-', a(0), a(-1))},
				ifElse(&loopir.BCmpFloat{Op: ">", L: vs("t"), R: vc(0)}, vs("t"), bin('*', vs("t"), vs("t"))),
			},
		},
		{name: "self-recurrence", body: []loopir.Stmt{put(bin('+',
			bin('*', aref("out", off("i", -1)), vc(0.5)), a(0)))}},
		{name: "write-offset", shift: 2, body: []loopir.Stmt{&loopir.Assign{
			Array: "out", Subs: []loopir.IntExpr{off("i", 2)},
			Rhs: bin('+', bin('*', aref("out", off("i", 1)), vc(0.25)), bin('-', a(1), a(3)))}}},
	}
	for _, op := range []string{"==", "/=", "<", "<=", ">", ">="} {
		cases = append(cases,
			whitelistCase{name: "int" + op, body: []loopir.Stmt{ifElse(
				&loopir.BCmpInt{Op: op, L: iv("i"), R: mid}, a(0), bin('-', vc(0), a(1)))}},
			whitelistCase{name: "float" + op, body: []loopir.Stmt{ifElse(
				&loopir.BCmpFloat{Op: op, L: y(0), R: y(-1)}, a(-1), x)}})
	}
	return cases
}

// whitelistProg wraps a case into a stream stage reading the upstream
// stage a through a window and the inputs x and y resident, with
// constant-subscript point assigns at both ends of the range.
func whitelistProg(c whitelistCase, lo, hi int64) *loopir.Program {
	point := func(w int64, rhs loopir.VExpr) loopir.Stmt {
		return &loopir.Assign{Array: "out", Subs: []loopir.IntExpr{&loopir.IConst{Value: w}}, Rhs: rhs}
	}
	at := func(arr string, w int64) loopir.VExpr { return aref(arr, &loopir.IConst{Value: w}) }
	stmts := append([]loopir.Stmt{}, c.top...)
	stmts = append(stmts,
		point(lo, bin('+', at("a", lo), at("x", lo))),
		&loopir.Loop{Var: "i", From: lo + 1 - c.shift, To: hi - 1 - c.shift, Step: 1, Body: c.body},
		point(hi, bin('*', at("a", hi-1), at("y", hi))),
	)
	return &loopir.Program{
		Name:    "out",
		Scalars: c.scalars,
		Arrays: []loopir.ArrayDecl{
			{Name: "a", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "x", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "y", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "out", B: b1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: stmts,
	}
}

// TestStreamWhitelistBitwise runs every construct the window whitelist
// admits through a two-stage pipeline and requires the streamed result
// to be bitwise equal to the materialized one at several chunk sizes.
func TestStreamWhitelistBitwise(t *testing.T) {
	const lo, hi = 3, 203
	x := fill(b1(lo, hi), 17)
	// y holds few distinct values so float equality guards take both
	// branches.
	y := runtime.NewStrict(b1(lo, hi))
	r := rand.New(rand.NewSource(23))
	for i := range y.Data {
		y.Data[i] = float64(r.Intn(4))
	}
	inputs := map[string]*runtime.Strict{"x": x, "y": y}
	for _, c := range whitelistCases(lo, hi) {
		defs := []stream.Def{
			mkDef(t, "a", smoothProg("a", "x", lo, hi)),
			mkDef(t, "out", whitelistProg(c, lo, hi)),
		}
		want := runMaterialized(t, defs, inputs, "out")
		for _, chunk := range []int64{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/chunk%d", c.name, chunk), func(t *testing.T) {
				pl, err := stream.Build(defs, "out", stream.Config{ChunkSize: chunk})
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				got, _, err := pl.Run(inputs)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("element %d differs: streamed %v, materialized %v", lo+int64(i), got.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}
