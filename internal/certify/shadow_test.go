package certify

import (
	"math/rand"
	"testing"

	"arraycomp/internal/deptest"
)

// TestTermIntervalsMatchFullScan: on random batteries, every loop's
// term interval under every direction equals a scan of all admitted
// (x, y) pairs with saturating arithmetic. Coefficients straddle
// smallCoeff (2^40) and the 2^62 saturation bound, so both the plain
// arithmetic of the small path and the saturating path are drawn.
func TestTermIntervalsMatchFullScan(t *testing.T) {
	const bound = int64(1) << 62
	rng := rand.New(rand.NewSource(1))
	near := []int64{0, 1, 3, smallCoeff, bound / 4, bound - 1, bound}
	magnitudes := len(near)
	draw := func() int64 {
		v := near[rng.Intn(magnitudes)] + rng.Int63n(5) - 2
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	dirs := []deptest.Direction{deptest.DirLess, deptest.DirEqual, deptest.DirGreater, deptest.DirAny}
	small, sat := 0, 0
	for trial := 0; trial < 3000; trial++ {
		// Even trials draw magnitudes up to about smallCoeff only.
		magnitudes = len(near)
		if trial%2 == 0 {
			magnitudes = 4
		}
		n, np := 1+rng.Intn(3), 1+rng.Intn(2)
		bounds, shared := make([]int64, n), make([]bool, n)
		for k := range bounds {
			bounds[k], shared[k] = 1+rng.Int63n(9), rng.Intn(4) != 0
		}
		probs := make([]deptest.Problem, np)
		for d := range probs {
			p := deptest.Problem{A: make([]int64, n), B: make([]int64, n), Bound: bounds, Shared: shared}
			for k := range bounds {
				p.A[k], p.B[k] = draw(), draw()
				if !shared[k] {
					// An unshared loop surrounds one side only.
					if rng.Intn(2) == 0 {
						p.A[k] = 0
					} else {
						p.B[k] = 0
					}
				}
			}
			probs[d] = p
		}
		bt := NewBattery(probs)
		if bt.small {
			small++
		} else {
			sat++
		}
		copy(bt.clamp, bounds)
		for k := range bounds {
			for _, dir := range dirs {
				bt.v = deptest.AnyVector(n)
				bt.v[k] = dir
				got := bt.termIntervals(k)
				for d := range probs {
					if want := scanTerm(bt, d, k); got[d] != want {
						t.Fatalf("trial %d: problem %+v loop %d dir %s: interval %v, full scan %v",
							trial, probs[d], k, dir, got[d], want)
					}
				}
			}
		}
	}
	if small == 0 || sat == 0 {
		t.Fatalf("draws took the small path %d times and the saturating path %d times", small, sat)
	}
}

// scanTerm is problem d's loop-k term interval by a scan of every
// admitted pair; a saturated term or no pair gives the whole line.
func scanTerm(bt *Battery, d, k int) deptest.Interval {
	p := bt.probs[d]
	iv, seen := deptest.Interval{Lo: deptest.SatMax, Hi: deptest.SatMin}, false
	for x := int64(1); x <= bt.xRange(k); x++ {
		lo, hi := bt.yRange(k, x)
		for y := lo; y <= hi; y++ {
			var so deptest.SatOps
			v := so.Sub(so.Mul(p.A[k], x), so.Mul(p.B[k], y))
			if so.Overflowed {
				return deptest.WholeInterval
			}
			iv.Lo, iv.Hi, seen = min(iv.Lo, v), max(iv.Hi, v), true
		}
	}
	if !seen {
		return deptest.WholeInterval
	}
	return iv
}
