package core_test

import (
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
)

// TestTierIntModByZero: an integer `mod` whose divisor reaches zero
// must raise the interpreter's error on the native tier too, never a
// Go runtime panic. The zero sits at i = m = n−5, inside the last
// shard's chunk. In the sharded shape it lands on a pool worker, where
// no caller's recover can reach a panic. In the checked-subscript shape
// the loop is emitted sequentially, so a panic would escape RunTiered.
// In the guarded shape `&&` skips the `mod` at the zero, so both tiers
// must succeed with the same result.
func TestTierIntModByZero(t *testing.T) {
	const n = 200000
	b := runtime.NewStrict(runtime.NewBounds1(0, 2*n))
	cases := []struct {
		name, src string
		inputs    map[string]*runtime.Strict
		wantErr   bool
	}{
		{"sharded", `param n; param m;
a = array (1,n) [ i := n mod (i - m) | i <- [1..n] ]`, nil, true},
		{"sequential", `param n; param m;
a = array (1,n) [ i := b!(n mod (i - m) + n) | i <- [1..n] ]`, map[string]*runtime.Strict{"b": b}, true},
		{"guarded", `param n; param m;
a = array (1,n) [ i := if i /= m && n mod (i - m) == 0 then 1.0 else 0.0 | i <- [1..n] ]`, nil, false},
	}
	params := map[string]int64{"n": n, "m": n - 5}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bounds := map[string]analysis.ArrayBounds{}
			for name, a := range c.inputs {
				bounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
			}
			var outs [2]*runtime.Strict
			var errs [2]error
			for i, tier := range []core.TierMode{core.TierOff, core.TierForced} {
				p, err := core.Compile(c.src, params, core.Options{
					InputBounds: bounds, Parallel: true, Workers: 2,
					Certify: true, Tier: tier,
				})
				if err != nil {
					t.Fatal(err)
				}
				out, served, err := p.RunTiered(c.inputs)
				if tier == core.TierForced && served != core.TierNative {
					t.Fatalf("TierForced served by %q, want native", served)
				}
				outs[i], errs[i] = out, err
			}
			if !c.wantErr {
				if errs[0] != nil || errs[1] != nil {
					t.Fatalf("interpreter %v, native %v; want no error", errs[0], errs[1])
				}
				bitwiseEqual(t, "interpreter vs native", outs[0], outs[1])
				return
			}
			if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
				t.Fatalf("errors differ: interpreter %v, native %v", errs[0], errs[1])
			}
		})
	}
}
