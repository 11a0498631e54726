package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

// lin builds an affine subscript expression.
func lin(c int64, terms ...ITerm) *ILin { return &ILin{Const: c, Terms: terms} }

func term(v string, k int64) ITerm { return ITerm{Var: v, Coeff: k} }

func mustCompile(t *testing.T, p *Program) *Exec {
	t.Helper()
	ex, err := Compile(p)
	if err != nil {
		t.Fatalf("compile %s: %v", p.Name, err)
	}
	return ex
}

// squaresProgram builds: do i = 1..n: a[i] := i*i
func squaresProgram(n int64) *Program {
	return &Program{
		Name:   "squares",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
				&Assign{
					Array: "a",
					Subs:  []IntExpr{lin(0, term("i", 1))},
					Rhs:   &VFromInt{X: &IBin{Op: '*', L: &IVar{Name: "i"}, R: &IVar{Name: "i"}}},
				},
			}},
		},
	}
}

func TestSquares(t *testing.T) {
	ex := mustCompile(t, squaresProgram(10))
	out, err := ex.RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if got := out.At(i); got != float64(i*i) {
			t.Errorf("a[%d] = %v, want %d", i, got, i*i)
		}
	}
}

func TestBackwardLoop(t *testing.T) {
	// do i = 5..1 step -1: a[i] := if i == 5 then 1 else a[i+1]*2
	n := int64(5)
	p := &Program{
		Name:   "backward",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: n, To: 1, Step: -1, Body: []Stmt{
				&Assign{
					Array: "a",
					Subs:  []IntExpr{lin(0, term("i", 1))},
					Rhs: &VCond{
						C: &BCmpInt{Op: "==", L: &IVar{Name: "i"}, R: &IConst{Value: n}},
						T: &VConst{Value: 1},
						E: &VBin{Op: '*', L: &ARef{Array: "a", Subs: []IntExpr{lin(1, term("i", 1))}}, R: &VConst{Value: 2}},
					},
				},
			}},
		},
	}
	out, err := mustCompile(t, p).RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{16, 8, 4, 2, 1}
	for i := int64(1); i <= n; i++ {
		if out.At(i) != want[i-1] {
			t.Errorf("a[%d] = %v, want %v", i, out.At(i), want[i-1])
		}
	}
}

func TestWavefront2D(t *testing.T) {
	// The paper's wavefront on a 4×4 array, hand-lowered.
	n := int64(4)
	b := runtime.NewBounds2(1, 1, n, n)
	at := func(di, dj int64) *ARef {
		return &ARef{Array: "a", Subs: []IntExpr{lin(di, term("i", 1)), lin(dj, term("j", 1))}}
	}
	p := &Program{
		Name:   "wavefront",
		Arrays: []ArrayDecl{{Name: "a", B: b, Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(1), lin(0, term("j", 1))}, Rhs: &VConst{Value: 1}},
			}},
			&Loop{Var: "i", From: 2, To: n, Step: 1, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(1)}, Rhs: &VConst{Value: 1}},
			}},
			&Loop{Var: "i", From: 2, To: n, Step: 1, Body: []Stmt{
				&Loop{Var: "j", From: 2, To: n, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs: &VBin{Op: '+',
							L: &VBin{Op: '+', L: at(-1, 0), R: at(0, -1)},
							R: at(-1, -1)},
					},
				}},
			}},
		},
	}
	out, err := mustCompile(t, p).RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: Delannoy-like recurrence computed directly.
	ref := map[[2]int64]float64{}
	for j := int64(1); j <= n; j++ {
		ref[[2]int64{1, j}] = 1
	}
	for i := int64(2); i <= n; i++ {
		ref[[2]int64{i, 1}] = 1
	}
	for i := int64(2); i <= n; i++ {
		for j := int64(2); j <= n; j++ {
			ref[[2]int64{i, j}] = ref[[2]int64{i - 1, j}] + ref[[2]int64{i, j - 1}] + ref[[2]int64{i - 1, j - 1}]
		}
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			if got := out.At(i, j); got != ref[[2]int64{i, j}] {
				t.Errorf("a[%d,%d] = %v, want %v", i, j, got, ref[[2]int64{i, j}])
			}
		}
	}
}

func TestCollisionCheckFires(t *testing.T) {
	p := &Program{
		Name:   "collide",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 4), Role: RoleOut, TrackDefs: true}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 4, Step: 1, Body: []Stmt{
				// a[(i mod 2) + 1] := i  — collides for i=1,3 and i=2,4.
				&Assign{
					Array:          "a",
					Subs:           []IntExpr{&IBin{Op: '+', L: &IBin{Op: '%', L: &IVar{Name: "i"}, R: &IConst{Value: 2}}, R: &IConst{Value: 1}}},
					Rhs:            &VFromInt{X: &IVar{Name: "i"}},
					CheckCollision: true,
				},
			}},
		},
	}
	_, err := mustCompile(t, p).RunResult(nil)
	if err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("want collision error, got %v", err)
	}
}

func TestCheckFullDetectsEmpties(t *testing.T) {
	p := &Program{
		Name:   "partial",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 4), Role: RoleOut, TrackDefs: true}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 2, Step: 1, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: &VConst{Value: 1}},
			}},
			&CheckFull{Array: "a"},
		},
	}
	_, err := mustCompile(t, p).RunResult(nil)
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("want empties error, got %v", err)
	}
}

func TestBoundsCheckFires(t *testing.T) {
	p := &Program{
		Name:   "oob",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 3), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 4, Step: 1, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: &VConst{Value: 1}, CheckBounds: true},
			}},
		},
	}
	_, err := mustCompile(t, p).RunResult(nil)
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("want bounds error, got %v", err)
	}
}

func TestGuardsAndIf(t *testing.T) {
	// do i=1..6: if i mod 2 == 0 then a[i] := 1 else a[i] := -1
	p := &Program{
		Name:   "guards",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 6), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 6, Step: 1, Body: []Stmt{
				&If{
					Cond: &BCmpInt{Op: "==", L: &IBin{Op: '%', L: &IVar{Name: "i"}, R: &IConst{Value: 2}}, R: &IConst{Value: 0}},
					Then: []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: &VConst{Value: 1}}},
					Else: []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: &VConst{Value: -1}}},
				},
			}},
		},
	}
	out, err := mustCompile(t, p).RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 6; i++ {
		want := float64(-1)
		if i%2 == 0 {
			want = 1
		}
		if out.At(i) != want {
			t.Errorf("a[%d] = %v, want %v", i, out.At(i), want)
		}
	}
}

func TestInOutUpdatesInPlace(t *testing.T) {
	in := runtime.NewStrict(runtime.NewBounds1(1, 4))
	for i := int64(1); i <= 4; i++ {
		in.Set(float64(i), i)
	}
	p := &Program{
		Name:   "scale",
		Arrays: []ArrayDecl{{Name: "a", B: in.B, Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 4, Step: 1, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))},
					Rhs: &VBin{Op: '*', L: &ARef{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}}, R: &VConst{Value: 10}}},
			}},
		},
	}
	out, err := mustCompile(t, p).RunResult(map[string]*runtime.Strict{"a": in})
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Error("RoleInOut must alias the input array")
	}
	if in.At(3) != 30 {
		t.Errorf("a[3] = %v, want 30", in.At(3))
	}
}

func TestScalarTempsAndCopy(t *testing.T) {
	// Node-splitting shape: t := a[1]; a[1] := a[2]; a[2] := t (swap).
	in := runtime.NewStrict(runtime.NewBounds1(1, 2))
	in.Set(10, 1)
	in.Set(20, 2)
	p := &Program{
		Name:    "swap",
		Arrays:  []ArrayDecl{{Name: "a", B: in.B, Role: RoleInOut}},
		Scalars: []string{"t"},
		Stmts: []Stmt{
			&SetScalar{Name: "t", Rhs: &ARef{Array: "a", Subs: []IntExpr{lin(1)}}},
			&Assign{Array: "a", Subs: []IntExpr{lin(1)}, Rhs: &ARef{Array: "a", Subs: []IntExpr{lin(2)}}},
			&Assign{Array: "a", Subs: []IntExpr{lin(2)}, Rhs: &VScalar{Name: "t"}},
		},
	}
	if _, err := mustCompile(t, p).RunResult(map[string]*runtime.Strict{"a": in}); err != nil {
		t.Fatal(err)
	}
	if in.At(1) != 20 || in.At(2) != 10 {
		t.Errorf("swap wrong: %v %v", in.At(1), in.At(2))
	}
}

func TestCopyArrayStmt(t *testing.T) {
	b := runtime.NewBounds1(1, 3)
	in := runtime.NewStrict(b)
	in.Set(7, 2)
	p := &Program{
		Name: "copy",
		Arrays: []ArrayDecl{
			{Name: "src", B: b, Role: RoleIn},
			{Name: "dst", B: b, Role: RoleOut},
		},
		Stmts: []Stmt{&CopyArray{Dst: "dst", Src: "src"}},
	}
	out, err := mustCompile(t, p).RunResult(map[string]*runtime.Strict{"src": in})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(2) != 7 {
		t.Error("copy failed")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []*Program{
		// Unknown array.
		{Name: "e1", Stmts: []Stmt{&Assign{Array: "zzz", Subs: []IntExpr{lin(1)}, Rhs: &VConst{}}}},
		// Wrong arity.
		{Name: "e2", Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, 2, 2), Role: RoleOut}},
			Stmts: []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(1)}, Rhs: &VConst{}}}},
		// Write to input.
		{Name: "e3", Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleIn}},
			Stmts: []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(1)}, Rhs: &VConst{}}}},
		// Collision check without TrackDefs.
		{Name: "e4", Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleOut}},
			Stmts: []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(1)}, Rhs: &VConst{}, CheckCollision: true}}},
		// Zero-step loop.
		{Name: "e5", Stmts: []Stmt{&Loop{Var: "i", From: 1, To: 2, Step: 0}}},
		// Unknown scalar.
		{Name: "e6", Stmts: []Stmt{&SetScalar{Name: "t", Rhs: &VConst{}}}},
		// Unknown variable in subscript.
		{Name: "e7", Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleOut}},
			Stmts: []Stmt{&Assign{Array: "a", Subs: []IntExpr{&IVar{Name: "q"}}, Rhs: &VConst{}}}},
		// Unknown builtin.
		{Name: "e8", Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleOut}},
			Stmts: []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(1)}, Rhs: &VCall{Fn: "bogus"}}}},
		// Duplicate arrays.
		{Name: "e9", Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleOut},
			{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleIn}}},
	}
	for _, p := range cases {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%s) succeeded, want error", p.Name)
		}
	}
}

func TestRunMissingInput(t *testing.T) {
	p := &Program{
		Name:   "needsin",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 2), Role: RoleIn}},
	}
	if _, err := mustCompile(t, p).Run(nil); err == nil {
		t.Error("missing input must error")
	}
	// Wrong bounds.
	wrong := runtime.NewStrict(runtime.NewBounds1(1, 3))
	if _, err := mustCompile(t, p).Run(map[string]*runtime.Strict{"a": wrong}); err == nil {
		t.Error("bounds mismatch must error")
	}
}

func TestDivModByZero(t *testing.T) {
	for _, op := range []byte{'/', '%'} {
		p := &Program{
			Name:   "divzero",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 1), Role: RoleOut}},
			Stmts: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(1)},
					Rhs: &VFromInt{X: &IBin{Op: op, L: &IConst{Value: 1}, R: &IConst{Value: 0}}}},
			},
		}
		if _, err := mustCompile(t, p).RunResult(nil); err == nil {
			t.Errorf("%c by zero must be a runtime error", op)
		}
	}
}

func TestBuiltins(t *testing.T) {
	mk := func(rhs VExpr) *Program {
		return &Program{
			Name:   "builtin",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, 1), Role: RoleOut}},
			Stmts:  []Stmt{&Assign{Array: "a", Subs: []IntExpr{lin(1)}, Rhs: rhs}},
		}
	}
	cases := []struct {
		rhs  VExpr
		want float64
	}{
		{&VCall{Fn: "abs", Args: []VExpr{&VConst{Value: -3}}}, 3},
		{&VCall{Fn: "sqrt", Args: []VExpr{&VConst{Value: 16}}}, 4},
		{&VCall{Fn: "min", Args: []VExpr{&VConst{Value: 2}, &VConst{Value: 5}}}, 2},
		{&VCall{Fn: "max", Args: []VExpr{&VConst{Value: 2}, &VConst{Value: 5}}}, 5},
		{&VCall{Fn: "pow", Args: []VExpr{&VConst{Value: 2}, &VConst{Value: 10}}}, 1024},
		{&VNeg{X: &VConst{Value: 7}}, -7},
		{&VBin{Op: '/', L: &VConst{Value: 1}, R: &VConst{Value: 4}}, 0.25},
	}
	for i, c := range cases {
		out, err := mustCompile(t, mk(c.rhs)).RunResult(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.At(1) != c.want {
			t.Errorf("case %d = %v, want %v", i, out.At(1), c.want)
		}
	}
}

func TestAccumulateAssign(t *testing.T) {
	p := &Program{
		Name:    "hist",
		Arrays:  []ArrayDecl{{Name: "h", B: runtime.NewBounds1(0, 2), Role: RoleOut}},
		AccumOp: "+",
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: 7, Step: 1, Body: []Stmt{
				&Assign{Array: "h",
					Subs:     []IntExpr{&IBin{Op: '%', L: &IVar{Name: "i"}, R: &IConst{Value: 3}}},
					Rhs:      &VConst{Value: 1},
					HasAccum: true},
			}},
		},
	}
	out, err := mustCompile(t, p).RunResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	// i=1..7: i mod 3 = 1,2,0,1,2,0,1 → h = [2,3,2]
	if out.At(0) != 2 || out.At(1) != 3 || out.At(2) != 2 {
		t.Errorf("hist = %v %v %v", out.At(0), out.At(1), out.At(2))
	}
	// The combiner is Program.AccumOp's: an empty or unknown name is a
	// compile error, not a plain store.
	for _, op := range []string{"", "avg"} {
		p.AccumOp = op
		if _, err := Compile(p); err == nil || !strings.Contains(err.Error(), "AccumOp") {
			t.Errorf("AccumOp %q: compile error %v, want one naming AccumOp", op, err)
		}
	}
}

func TestDump(t *testing.T) {
	p := squaresProgram(5)
	p.Stmts = append(p.Stmts, &Fail{Msg: "unreachable"})
	d := p.Dump()
	for _, want := range []string{"program squares", "do i = 1, 5, 1", "forward", "a[i] := float((i * i))", `fail "unreachable"`} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestIntExprStrings(t *testing.T) {
	cases := []struct {
		e    IntExpr
		want string
	}{
		{lin(0, term("i", 1)), "i"},
		{lin(-1, term("i", 3)), "-1+3*i"},
		{lin(5), "5"},
		{lin(0, term("i", -1)), "-i"},
		{lin(0, term("i", 1), term("j", -2)), "i-2*j"},
		{&IBin{Op: '%', L: &IVar{Name: "i"}, R: &IConst{Value: 2}}, "(i % 2)"},
	}
	for _, c := range cases {
		if got := IntExprString(c.e); got != c.want {
			t.Errorf("IntExprString = %q, want %q", got, c.want)
		}
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleIn.String() != "in" || RoleOut.String() != "out" || RoleTemp.String() != "temp" || RoleInOut.String() != "inout" {
		t.Error("Role strings wrong")
	}
}
