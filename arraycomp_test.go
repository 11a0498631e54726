package arraycomp

import (
	"strings"
	"testing"

	"arraycomp/internal/workloads"
)

func TestQuickStart(t *testing.T) {
	prog, err := Compile(
		`a = array (1,n) ([ 1 := 1.0 ] ++ [ i := a!(i-1) * 2.0 | i <- [2..n] ])`,
		Params{"n": 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := prog.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(10) != 512 {
		t.Errorf("a(10) = %v, want 512", out.At(10))
	}
	mode, err := prog.Mode("a")
	if err != nil || mode != "thunkless" {
		t.Errorf("mode = %q, %v", mode, err)
	}
	if _, err := prog.Mode("zzz"); err == nil {
		t.Error("unknown definition must error")
	}
}

func TestFacadeWithInputs(t *testing.T) {
	prog, err := Compile(
		`param n; a2 = bigupd a [ i := 2.0 * a!i | i <- [1..n] ]`,
		Params{"n": 4},
		&Options{Inputs: map[string]InputBounds{"a": {Lo: []int64{1}, Hi: []int64{4}}}})
	if err != nil {
		t.Fatal(err)
	}
	in := NewArray1(1, 4)
	in.Set(5, 3)
	out, err := prog.Run(map[string]*Array{"a": in})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(3) != 10 {
		t.Errorf("a2(3) = %v", out.At(3))
	}
	if in.At(3) != 5 {
		t.Error("input mutated")
	}
	if len(prog.Definitions()) != 1 || prog.Definitions()[0] != "a2" {
		t.Errorf("definitions = %v", prog.Definitions())
	}
}

func TestFacadeForceThunked(t *testing.T) {
	prog, err := Compile(`a = array (1,n) [ i := i*i | i <- [1..n] ]`,
		Params{"n": 5}, &Options{ForceThunked: true})
	if err != nil {
		t.Fatal(err)
	}
	mode, _ := prog.Mode("a")
	if mode != "thunked" {
		t.Errorf("mode = %q", mode)
	}
	out, err := prog.Run(nil)
	if err != nil || out.At(4) != 16 {
		t.Errorf("thunked run: %v %v", out, err)
	}
}

func TestFacadeReportAndNotes(t *testing.T) {
	prog, err := Compile(`a = array (1,n) [ i := 1.0 | i <- [1..n], i mod 2 == 0 ]`,
		Params{"n": 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Report(), "empties: possible") {
		t.Errorf("report:\n%s", prog.Report())
	}
}

func TestFacadeCompileError(t *testing.T) {
	if _, err := Compile(`a = array (1,n) [`, Params{"n": 3}, nil); err == nil {
		t.Error("syntax error must surface")
	}
	if _, err := Compile(`a = array (1,n) [ i := 1.0 | i <- [1..n] ]`, nil, nil); err == nil {
		t.Error("unbound parameter must surface")
	}
}

func TestArrayConstructors(t *testing.T) {
	a := NewArray1(0, 9)
	if a.B.Size() != 10 {
		t.Error("NewArray1 wrong")
	}
	b := NewArray2(1, 1, 3, 3)
	if b.B.Size() != 9 {
		t.Error("NewArray2 wrong")
	}
}

func TestFacadeNotes(t *testing.T) {
	// a1 updates the caller's a (copy-update); a2 updates a1, dead
	// afterwards, in place.
	prog, err := Compile(workloads.TwoSweeps(`param n;
	a2 = bigupd a [ i := a!(i-1) | i <- [2..n] ]`),
		Params{"n": 6},
		&Options{Inputs: map[string]InputBounds{"a": {Lo: []int64{1}, Hi: []int64{6}}}})
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(prog.Notes(), "\n")
	for _, want := range []string{
		"a1: source a live after the update: copy-update, old values read from a",
		"a2: all anti dependences satisfied by the schedule: in-place update with no copying",
	} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes missing %q:\n%s", want, notes)
		}
	}
	for def, want := range map[string]string{"a1": "copy-update", "a2": "in-place"} {
		if got, err := prog.Mode(def); err != nil || got != want {
			t.Errorf("Mode(%s) = %q, %v; want %q", def, got, err, want)
		}
	}
}
