package loopir

import (
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

// compileRows compiles p and returns the compiler, whose rows map
// records the row kernel every loop got.
func compileRows(t *testing.T, p *Program) *compiler {
	t.Helper()
	var c *compiler
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("compile: %v", r)
			}
		}()
		c = newCompiler(p)
		c.compileStmts(p.Stmts)
	}()
	return c
}

// TestExecutorsGetSpecializedRow: an in-place stencil inner loop
// compiles to one strip row kernel, and that kernel is the one the
// sequential loop, the wavefront executor and a 2-D shard's rows run —
// each loop has exactly one kernel, compiled once. A wavefront runs the inner
// kernel itself; a 2-D shard runs the outer loop's generic kernel,
// which calls it once per row.
func TestExecutorsGetSpecializedRow(t *testing.T) {
	n := int64(64)
	for _, kind := range []ParKind{ParShard, ParWavefront} {
		p := stencil2D(n, true, [][2]int64{{-1, 0}, {0, -1}, {1, 0}, {0, 1}})
		optimizeFor(p)
		outer := p.Stmts[0].(*Loop)
		outer.Par = &ParSchedule{Kind: kind, TileI: 16, TileJ: 16}
		c := compileRows(t, p)
		inner := outer.Body[len(outer.Body)-1].(*Loop)
		want := c.rows[inner]
		if kind == ParShard {
			want = c.rows[outer]
		}
		if rk := c.parRows[outer]; rk == nil || rk != want {
			t.Fatalf("%s: executor row kernel %+v, want %+v", kind, rk, want)
		}
		if rk := c.rows[inner]; rk == nil || !rk.strip {
			t.Fatalf("%s: inner loop row kernel %+v, want the strip form", kind, rk)
		}
		if rk := c.rows[outer]; rk == nil || rk.strip {
			t.Fatalf("%s: outer loop row kernel %+v, want the generic form", kind, rk)
		}
		if len(c.rows) != 2 {
			t.Fatalf("%s: %d row kernels compiled for a two-loop nest", kind, len(c.rows))
		}
	}

	// A 1-D shard over a unit-stride body with two registers at a
	// per-row distance: still one kernel, in the strip form.
	p := &Program{
		Name: "axpy",
		Arrays: []ArrayDecl{
			{Name: "y", B: runtime.NewBounds1(1, 4096), Role: RoleOut},
			{Name: "x", B: runtime.NewBounds1(0, 4096), Role: RoleIn},
		},
		Stmts: []Stmt{&Loop{Var: "i", From: 1, To: 4096, Step: 1, Parallel: true,
			Par: &ParSchedule{Kind: ParShard},
			Inds: []Ind{
				{Name: "oy", Init: lin(0), Step: 1},
				{Name: "ox", Init: lin(1), Step: 1},
			},
			Body: []Stmt{&Assign{Array: "y", Subs: []IntExpr{lin(0, term("i", 1))}, Off: lin(0, term("oy", 1)),
				Rhs: &VBin{Op: '+',
					L: &ARef{Array: "x", Subs: []IntExpr{lin(0, term("i", 1))}, Off: lin(0, term("ox", 1))},
					R: &ARef{Array: "x", Subs: []IntExpr{lin(-1, term("i", 1))}, Off: lin(-1, term("ox", 1))},
				}}}}},
	}
	c := compileRows(t, p)
	shard := p.Stmts[0].(*Loop)
	if rk := c.parRows[shard]; rk == nil || rk != c.rows[shard] || !rk.strip {
		t.Fatalf("shard executor row kernel %+v, want the loop's strip kernel", rk)
	}
	in := runtime.NewStrict(runtime.NewBounds1(0, 4096))
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	ex := mustCompile(t, p)
	for _, w := range []int{1, 4} {
		ex.SetWorkers(w)
		out, err := ex.RunResult(map[string]*runtime.Strict{"x": in})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 4096; i++ {
			if got := out.At(i); got != float64(2*i-1) {
				t.Fatalf("workers=%d: y(%d) = %v, want %d", w, i, got, 2*i-1)
			}
		}
	}
}

// TestRowKernelForms: which body shapes take which form. Every body of
// unchecked arithmetic over offset-form accesses takes the strip form.
// Plain stores to distinct arrays that read none of them — one store,
// or node splitting's fused row snapshots — run statement by statement
// as strips ("plain"). Any other body runs a per-element spine
// ("strip"): a single store that reads the stored array at a constant
// distance (only its carried reads run per element), and any other body
// — a scalar chain, a five-statement node-split chain carrying scalars
// across iterations, a fused two-store border loop, a store reading
// what another stored, a self-gather, a scatter or accumulating store
// that reads its own array — with every read of a written array or a
// set scalar on its spine.
func TestRowKernelForms(t *testing.T) {
	b := runtime.NewBounds1(1, 100)
	at := func(reg string, d int64) IntExpr { return lin(d, term(reg, 1)) }
	ref := func(arr, reg string, d int64) *ARef {
		return &ARef{Array: arr, Subs: []IntExpr{lin(d, term("i", 1))}, Off: at(reg, d)}
	}
	store := func(arr, reg string, rhs VExpr) *Assign {
		return &Assign{Array: arr, Subs: []IntExpr{lin(0, term("i", 1))}, Off: at(reg, 0), Rhs: rhs}
	}
	bin := func(op byte, l, r VExpr) VExpr { return &VBin{Op: op, L: l, R: r} }
	k := func(v float64) VExpr { return &VConst{Value: v} }
	sc := func(name string) VExpr { return &VScalar{Name: name} }
	set := func(name string, rhs VExpr) Stmt { return &SetScalar{Name: name, Rhs: rhs} }
	byIdx := func(arr string) []IntExpr { return []IntExpr{&IIdx{Array: arr, Subs: []IntExpr{&IVar{Name: "i"}}}} }
	accum := store("y", "o", bin('*', ref("y", "o", 1), k(0.5)))
	accum.HasAccum = true
	cases := []struct {
		name string
		body []Stmt
		step int64
		form string
	}{
		{"copy", []Stmt{store("y", "o", ref("x", "o", 0))}, 1, "plain"},
		{"map", []Stmt{store("y", "o", bin('+', bin('*', ref("x", "o", 0), k(0.5)), k(0.25)))}, 1, "plain"},
		{"stencil", []Stmt{store("y", "o", bin('/', bin('+', bin('+', ref("x", "o", -1), ref("x", "o", 0)), ref("x", "o", 1)), k(3)))}, 1, "plain"},
		{"constant", []Stmt{store("y", "o", &VNeg{X: sc("s")})}, 1, "plain"},
		{"self copy", []Stmt{store("y", "o", ref("y", "o", -1))}, 1, "strip"},
		{"self stencil", []Stmt{store("y", "o", bin('+', ref("x", "o", 0), bin('*', ref("y", "o", -1), k(0.5))))}, 1, "strip"},
		{"scalar chain", []Stmt{set("s", bin('*', ref("x", "o", 0), k(2))), store("y", "o", sc("s"))}, 1, "strip"},
		{"node-split chain", []Stmt{
			set("v", bin('*', k(0.25), bin('+', bin('+', bin('+', ref("r", "o", 0), ref("y", "o", 1)), sc("prev")), ref("x", "o", 0)))),
			store("r", "o", ref("y", "o", 0)),
			set("cur", ref("y", "o", 0)),
			store("y", "o", sc("v")),
			set("prev", sc("cur")),
		}, 1, "strip"},
		{"row snapshot", []Stmt{store("r", "o", ref("x", "o", 1)), store("y", "o", ref("x", "o", 0))}, 1, "plain"},
		{"store then read", []Stmt{store("r", "o", ref("x", "o", 1)), store("y", "o", ref("r", "o", 0))}, 1, "strip"},
		{"fused border", []Stmt{store("y", "o", ref("x", "o", 0)), &Assign{Array: "y", Subs: []IntExpr{lin(50, term("i", 1))}, Off: at("o", 50), Rhs: ref("x", "o", 50)}}, 1, "strip"},
		{"self gather", []Stmt{store("y", "o", &ARef{Array: "x", Subs: byIdx("y")})}, 1, "strip"},
		{"self scatter", []Stmt{&Assign{Array: "y", Subs: byIdx("x"), Rhs: ref("y", "o", 0)}}, 1, "strip"},
		{"self accumulate", []Stmt{accum}, 1, "strip"},
		{"int conversion", []Stmt{store("y", "o", &VFromInt{X: &IVar{Name: "i"}})}, 1, "generic"},
		{"call", []Stmt{store("y", "o", &VCall{Fn: "abs", Args: []VExpr{ref("x", "o", 0)}})}, 1, "generic"},
		{"checked read", []Stmt{store("y", "o", &ARef{Array: "x", Subs: []IntExpr{lin(0, term("i", 1))}, CheckBounds: true})}, 1, "generic"},
		{"register step 2", []Stmt{store("y", "o", ref("x", "o", 0))}, 2, "generic"},
	}
	for _, tc := range cases {
		p := &Program{
			Name:    "form",
			Arrays:  []ArrayDecl{{Name: "y", B: b, Role: RoleOut}, {Name: "x", B: b, Role: RoleIn}, {Name: "r", B: b, Role: RoleTemp}},
			Scalars: []string{"s", "v", "cur", "prev"},
			AccumOp: "+",
			Stmts: []Stmt{&Loop{Var: "i", From: 1, To: 50, Step: 1,
				Inds: []Ind{{Name: "o", Init: lin(0), Step: tc.step}}, Body: tc.body}},
		}
		c := compileRows(t, p)
		loop := p.Stmts[0].(*Loop)
		form := "generic"
		if c.rows[loop].strip {
			form = "strip"
			if plain, _, _ := c.selfReads(loop); plain {
				form = "plain"
			}
		}
		if form != tc.form {
			t.Errorf("%s: %s form, want %s", tc.name, form, tc.form)
		}
	}
}

// TestTiledNestTwoFailuresLowestRank: a checked wavefront nest fails
// in two tiles run by different workers. Every worker count reports
// the sequential run's message, the failure of lowest rank.
func TestTiledNestTwoFailuresLowestRank(t *testing.T) {
	n := int64(128)
	idx := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			idx.Set(float64(j), i, j)
		}
	}
	// Two failures in one row, in tiles (2,3) and (2,4) of 16×16: both
	// lie in one row band, so one worker meets them in column order
	// and the rank's column part picks the sequentially first failure.
	idx.Set(-40, 40, 50)
	idx.Set(-70, 40, 70)
	in := map[string]*runtime.Strict{"b": seededMatrix(n), "idx": idx}
	p := &Program{
		Name: "twofail",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
			{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
			{Name: "idx", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Par: &ParSchedule{Kind: ParWavefront, TileI: 16, TileJ: 16}, Body: []Stmt{
				&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs: &ARef{Array: "b", CheckBounds: true, Subs: []IntExpr{
							lin(0, term("i", 1)),
							&IIdx{Array: "idx", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}, CheckBounds: true},
						}},
					},
				}},
			}},
		},
	}
	ex := mustCompile(t, p)
	ex.SetWorkers(1)
	_, err := ex.RunResult(in)
	if err == nil || !strings.Contains(err.Error(), "subscript -40 ") {
		t.Fatalf("sequential run: %v, want the failure at (40,50)", err)
	}
	seqErr := err.Error()
	for _, w := range []int{2, 3, 4} {
		ex.SetWorkers(w)
		_, err := ex.RunResult(in)
		if err == nil || err.Error() != seqErr {
			t.Fatalf("workers=%d: error %v, sequential %q", w, err, seqErr)
		}
	}
}
