package idxprop

import (
	"fmt"
	"math"
)

// bitmapLimit caps the injectivity bitmap: ranges wider than this fall
// back to a hash set so an adversarial range claim cannot force a huge
// allocation.
const bitmapLimit = int64(1) << 26

// VerifyResult is the verdict of one runtime verification pass.
type VerifyResult struct {
	OK     bool
	Reason string // first violated claim, for diagnostics
}

// needs is what a claim set asks of an index array: an intersected
// range, monotonicity, injectivity.
type needs struct {
	rng, mono, inj bool
	lo, hi         int64
}

func needsOf(claims Claims) needs {
	var n needs
	for _, c := range claims {
		switch c.Kind {
		case KRange:
			if n.rng {
				// Intersect multiple range claims.
				n.lo, n.hi = max64(n.lo, c.Lo), min64(n.hi, c.Hi)
			} else {
				n.rng, n.lo, n.hi = true, c.Lo, c.Hi
			}
		case KMonoNonDec:
			n.mono = true
		case KInjective:
			n.inj = true
		}
	}
	return n
}

// Verify discharges the runtime claims about one index array in one
// O(n) pass over its elements with the verifier Verifier(claims)
// returns. A sound verifier is the security boundary of the whole
// conditional-parallelization scheme — any failure routes execution to
// the fully checked sequential path, never to undefined behavior.
func Verify(data []float64, claims Claims) VerifyResult {
	return needsOf(claims).verify(data)
}

// Verifier returns the verifier specialized to claims, reading the
// claim set once. Range and monotonicity claims run one tight loop
// that tests only what they ask; injectivity runs the general pass.
// Both take the same verdict and, on failure, the same Reason: a
// failing fast loop hands the array to the general pass, which finds
// and names the first violation.
func Verifier(claims Claims) func(data []float64) VerifyResult {
	return needsOf(claims).verify
}

func (n needs) verify(data []float64) VerifyResult {
	if n.inj || !n.rng && !n.mono {
		return n.general(data)
	}
	// Clamping the range to the magnitude limit folds the integrality
	// and magnitude tests into one comparison: float64(int64(v)) == v
	// with the integer inside [lo..hi] holds exactly when v is an
	// integral value of at most 2^40 in magnitude inside the claimed
	// range (NaN, ±Inf and values beyond int64 all fail it).
	lo, hi := -inferMagLimit, inferMagLimit
	if n.rng {
		lo, hi = max64(lo, n.lo), min64(hi, n.hi)
	}
	if n.mono {
		// prev starts at lo and only rises, so iv < prev also rejects
		// every value below the range.
		prev := lo
		for _, v := range data {
			iv := int64(v)
			if float64(iv) != v || iv < prev || iv > hi {
				return n.general(data)
			}
			prev = iv
		}
		return VerifyResult{OK: true}
	}
	for _, v := range data {
		iv := int64(v)
		if float64(iv) != v || iv < lo || iv > hi {
			return n.general(data)
		}
	}
	return VerifyResult{OK: true}
}

// general is the all-claims pass: integrality and range bounds, the
// non-decreasing adjacent comparison, and injectivity via a seen
// bitmap over the claimed range (hash set when no range is claimed or
// the range is too wide). It names the first violation it meets.
func (n needs) general(data []float64) VerifyResult {
	if !n.rng && !n.mono && !n.inj || len(data) == 0 {
		return VerifyResult{OK: true}
	}
	var seenBits []uint64
	var seenSet map[int64]struct{}
	if n.inj {
		if n.rng && n.hi >= n.lo && n.hi-n.lo+1 <= bitmapLimit {
			seenBits = make([]uint64, (n.hi-n.lo)/64+1)
		} else {
			seenSet = make(map[int64]struct{}, len(data))
		}
	}

	prev := int64(0)
	for pos, v := range data {
		// Every claim requires integral values: a fractional subscript
		// has no sound integer reading.
		if v != math.Trunc(v) || v < -float64(inferMagLimit) || v > float64(inferMagLimit) {
			return VerifyResult{Reason: fmt.Sprintf("element %d is not an integral subscript (%v)", pos, v)}
		}
		iv := int64(v)
		if n.rng && (iv < n.lo || iv > n.hi) {
			return VerifyResult{Reason: fmt.Sprintf("range(%d..%d) violated at position %d (value %d)", n.lo, n.hi, pos, iv)}
		}
		if n.mono && pos > 0 && iv < prev {
			return VerifyResult{Reason: fmt.Sprintf("mono violated at position %d (%d < %d)", pos, iv, prev)}
		}
		if n.inj {
			if seenBits != nil {
				// iv is in [lo..hi] here: the range check above rejected
				// everything else before we index the bitmap.
				b := iv - n.lo
				if seenBits[b/64]&(1<<(b%64)) != 0 {
					return VerifyResult{Reason: fmt.Sprintf("inj violated at position %d (value %d repeats)", pos, iv)}
				}
				seenBits[b/64] |= 1 << (b % 64)
			} else {
				if _, dup := seenSet[iv]; dup {
					return VerifyResult{Reason: fmt.Sprintf("inj violated at position %d (value %d repeats)", pos, iv)}
				}
				seenSet[iv] = struct{}{}
			}
		}
		prev = iv
	}
	return VerifyResult{OK: true}
}
