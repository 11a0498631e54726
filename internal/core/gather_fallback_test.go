package core_test

// Claim-violating index arrays: SpMV's verified branch runs the
// straight-line gather/scatter row kernel, which raises no errors, so
// an input that breaks a claim must fail verification and take the
// checked branch, whose generic kernel raises the same message at every
// worker count, interpreted or restored from a snapshot.

import (
	"testing"

	"arraycomp/internal/core"
	"arraycomp/internal/workloads"
)

func TestSpMVClaimViolationsFallBack(t *testing.T) {
	cases := []struct {
		name  string
		array string
		pos   int
		shift float64
		want  string
	}{
		{"col beyond x", "col", 5000, 3000, "loopir: y: array x: subscript 5303 out of bounds [1..3000] in dimension 0"},
		{"fractional row", "row", 7000, 0.5, "loopir: y: array row holds non-integral subscript value 872.5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := workloads.CSRInputs(3000, 8, 22)
			c.Inputs[tc.array].Data[tc.pos] += tc.shift
			for _, w := range []int{1, 2, 4} {
				opts := core.Options{Parallel: true, Workers: w, Certify: true, InputBounds: boundsOf(c.Inputs)}
				p, err := core.Compile(workloads.SpMVSrc, c.Params, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, run := range []struct {
					tier string
					p    *core.Program
				}{{"interpreted", p}, {"restored", restored(t, p, opts)}} {
					_, err := run.p.Run(c.Inputs)
					if err == nil || err.Error() != tc.want {
						t.Errorf("w=%d %s: error %v, want %q", w, run.tier, err, tc.want)
					}
					if v := run.p.IdxVerify.Snapshot(); v.Failed != 1 {
						t.Errorf("w=%d %s: verdicts %+v, want one failure", w, run.tier, v)
					}
				}
			}
		})
	}
}

// TestSpMVShuffledRowsMatchClaimsOff: E22's shuffled-rows input fails
// the mono claim every run; the checked fallback's result is bitwise
// the claims-off build's.
func TestSpMVShuffledRowsMatchClaimsOff(t *testing.T) {
	c := workloads.ShuffleRows(workloads.CSRInputs(3000, 8, 22), 25)
	off, err := core.Compile(workloads.SpMVSrc, c.Params, core.Options{NoIdxProp: true, Parallel: true, Workers: 4, InputBounds: boundsOf(c.Inputs)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := off.Run(c.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		p, err := core.Compile(workloads.SpMVSrc, c.Params, core.Options{Parallel: true, Workers: w, InputBounds: boundsOf(c.Inputs)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(c.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, "shuffled rows vs claims off", want, got)
		if v := p.IdxVerify.Snapshot(); v.Failed != 1 {
			t.Errorf("w=%d: verdicts %+v, want the row claims to fail", w, v)
		}
	}
}
