package core

import (
	"testing"

	"arraycomp/internal/analysis"
)

// TestInputLayoutDeterministic: a definition reading three input arrays
// declares them in one order on every compile, so its dump (and any
// plan keyed on the source) is the same each time, and a compile that
// lacks their bounds always names the same missing array.
func TestInputLayoutDeterministic(t *testing.T) {
	const src = `c = array (1,3) [ l := u!l + v!l + w!l | l <- [1..3] ]`
	b := analysis.ArrayBounds{Lo: []int64{1}, Hi: []int64{3}}
	bounds := map[string]analysis.ArrayBounds{"u": b, "v": b, "w": b}
	dumps, errs := map[string]int{}, map[string]int{}
	for range 50 {
		p, err := Compile(src, nil, Options{InputBounds: bounds})
		if err != nil {
			t.Fatal(err)
		}
		dumps[p.Defs["c"].Plan.Program.Dump()]++
		if _, err := Compile(src, nil, Options{}); err != nil {
			errs[err.Error()]++
		} else {
			t.Fatal("compile without input bounds succeeded")
		}
	}
	if len(dumps) != 1 || len(errs) != 1 {
		t.Errorf("50 compiles gave %d distinct dumps and %d distinct errors, want 1 and 1: %v", len(dumps), len(errs), errs)
	}
}
