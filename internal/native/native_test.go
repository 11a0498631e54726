package native_test

import (
	"strings"
	"testing"

	"arraycomp/internal/loopir"
	"arraycomp/internal/native"
	"arraycomp/internal/runtime"
)

// iv is shorthand for a loop-variable subscript.
func iv(name string) []loopir.IntExpr {
	return []loopir.IntExpr{&loopir.IVar{Name: name}}
}

func aref(arr, idx string) *loopir.ARef {
	return &loopir.ARef{Array: arr, Subs: iv(idx)}
}

// squaresProg builds dst[i] = src[i]*src[i] over n elements.
func squaresProg(n int64) *loopir.Program {
	return &loopir.Program{
		Name: "squares",
		Arrays: []loopir.ArrayDecl{
			{Name: "src", B: runtime.NewBounds1(0, n-1), Role: loopir.RoleIn},
			{Name: "dst", B: runtime.NewBounds1(0, n-1), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: "i", From: 0, To: n - 1, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: "dst", Subs: iv("i"),
					Rhs: &loopir.VBin{Op: '*', L: aref("src", "i"), R: aref("src", "i")}},
			}},
		},
	}
}

// plusProg builds out[i] = in[i] + c.
func plusProg(name, in, out string, n int64, c float64) *loopir.Program {
	return &loopir.Program{
		Name: name,
		Arrays: []loopir.ArrayDecl{
			{Name: in, B: runtime.NewBounds1(0, n-1), Role: loopir.RoleIn},
			{Name: out, B: runtime.NewBounds1(0, n-1), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: "i", From: 0, To: n - 1, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: out, Subs: iv("i"),
					Rhs: &loopir.VBin{Op: '+', L: aref(in, "i"), R: &loopir.VConst{Value: c}}},
			}},
		},
	}
}

// copyUpdateProg builds the copy-update of v: v2 starts as a copy of v
// and is bumped by one in place, v is only read.
func copyUpdateProg(n int64) *loopir.Program {
	return &loopir.Program{
		Name: "bump",
		Arrays: []loopir.ArrayDecl{
			{Name: "v2", B: runtime.NewBounds1(0, n-1), Role: loopir.RoleOut},
			{Name: "v", B: runtime.NewBounds1(0, n-1), Role: loopir.RoleIn},
		},
		Stmts: []loopir.Stmt{
			&loopir.CopyArray{Dst: "v2", Src: "v"},
			&loopir.Loop{Var: "i", From: 0, To: n - 1, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: "v2", Subs: iv("i"),
					Rhs: &loopir.VBin{Op: '+', L: aref("v2", "i"), R: &loopir.VConst{Value: 1}}},
			}},
		},
	}
}

// failProg builds a program whose body raises a runtime error.
func failProg(n int64) *loopir.Program {
	return &loopir.Program{
		Name: "boom",
		Arrays: []loopir.ArrayDecl{
			{Name: "out", B: runtime.NewBounds1(0, n-1), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{&loopir.Fail{Msg: "boom: proven collision"}},
	}
}

func testSpecs(n int64) []native.ProgramSpec {
	return []native.ProgramSpec{
		{Key: "squares", Units: []native.Unit{{Name: "dst", Prog: squaresProg(n)}}, Result: "dst"},
		{Key: "chain", Units: []native.Unit{
			{Name: "a", Prog: plusProg("a", "src", "a", n, 1)},
			{Name: "b", Prog: plusProg("b", "a", "b", n, 2)},
		}, Result: "b"},
		{Key: "bump", Units: []native.Unit{{Name: "v2", Prog: copyUpdateProg(n)}}, Result: "v2"},
		{Key: "boom", Units: []native.Unit{{Name: "out", Prog: failProg(n)}}, Result: "out"},
	}
}

func inputsFor(n int64) map[string]*runtime.Strict {
	b := runtime.NewBounds1(0, n-1)
	src := runtime.NewStrict(b)
	v := runtime.NewStrict(b)
	for i := range src.Data {
		src.Data[i] = float64(i) / 4
		v.Data[i] = float64(i) * 2
	}
	return map[string]*runtime.Strict{"src": src, "v": v}
}

// runModule drives every spec through a built module and returns the
// outputs (nil data marks the expected error case).
func runModule(t *testing.T, m *native.Module, n int64) map[string][]float64 {
	t.Helper()
	in := inputsFor(n)
	out := map[string][]float64{}
	for _, key := range []string{"squares", "chain", "bump"} {
		p := m.Plan(key)
		if p == nil {
			t.Fatalf("module has no plan %q", key)
		}
		res, err := p.Run(in)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got := res.B.Size(); got != n {
			t.Fatalf("%s: result size %d, want %d", key, got, n)
		}
		out[key] = res.Data
	}
	// The copy-update unit must never scribble on the caller's input.
	for i, v := range in["v"].Data {
		if v != float64(i)*2 {
			t.Fatalf("bump mutated caller input at %d: %v", i, v)
		}
	}
	if _, err := m.Plan("boom").Run(in); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("boom: want runtime error, got %v", err)
	}
	if _, err := m.Plan("squares").Run(map[string]*runtime.Strict{}); err == nil {
		t.Fatal("squares with no inputs: want missing-input error")
	}
	// The error round-trips must leave the module usable.
	if _, err := m.Plan("squares").Run(in); err != nil {
		t.Fatalf("squares after error: %v", err)
	}
	return out
}

func checkValues(t *testing.T, out map[string][]float64, n int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		x := float64(i) / 4
		if got := out["squares"][i]; got != x*x {
			t.Fatalf("squares[%d] = %v, want %v", i, got, x*x)
		}
		if got := out["chain"][i]; got != x+3 {
			t.Fatalf("chain[%d] = %v, want %v", i, got, x+3)
		}
		if got := out["bump"][i]; got != float64(i)*2+1 {
			t.Fatalf("bump[%d] = %v, want %v", i, got, float64(i)*2+1)
		}
	}
}

// TestPluginMode builds and loads a batched module in-process
// (skipped where the platform genuinely cannot build plugins).
func TestPluginMode(t *testing.T) {
	m, err := native.Build(testSpecs(8))
	if err != nil {
		t.Skipf("plugin mode unavailable here: %v", err)
	}
	checkValues(t, runModule(t, m, 8), 8)
}

// TestRunAllocs pins the host-side allocation budget of Plan.Run: the
// flat input map is pooled, so a steady-state call allocates only the
// result slice and its Strict header (≤2 allocations).
func TestRunAllocs(t *testing.T) {
	// The subtest names the load mode; plugin is the only one.
	t.Run("plugin", func(t *testing.T) {
		m, err := native.Build(testSpecs(64))
		if err != nil {
			t.Skipf("plugin mode unavailable here: %v", err)
		}
		in := inputsFor(64)
		p := m.Plan("squares")
		if _, err := p.Run(in); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.Run(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("Plan.Run allocates %.0f times per call, budget is 2", allocs)
		}
	})
}

// TestBuildErrors covers the spec-validation failures.
func TestBuildErrors(t *testing.T) {
	if _, err := native.Build(nil); err == nil {
		t.Fatal("empty build: want error")
	}
	specs := []native.ProgramSpec{
		{Key: "dup", Units: []native.Unit{{Name: "dst", Prog: squaresProg(4)}}, Result: "dst"},
		{Key: "dup", Units: []native.Unit{{Name: "dst", Prog: squaresProg(4)}}, Result: "dst"},
	}
	if _, err := native.Build(specs); err == nil {
		t.Fatal("duplicate keys: want error")
	}
	bad := []native.ProgramSpec{{Key: "k", Units: []native.Unit{{Name: "dst", Prog: squaresProg(4)}}, Result: "nope"}}
	if _, err := native.Build(bad); err == nil {
		t.Fatal("missing result: want error")
	}
}
