package idxprop

import (
	"math"
	"math/rand"
	"testing"
)

// bruteVerify is the specification Verify must match: evaluate each
// claimed property by definition over the whole array. Any claim
// requires integral values throughout.
func bruteVerify(data []float64, claims Claims) bool {
	var (
		needRange bool
		lo, hi    int64
		needMono  bool
		needInj   bool
	)
	for _, c := range claims {
		switch c.Kind {
		case KRange:
			if needRange {
				lo, hi = max64(lo, c.Lo), min64(hi, c.Hi)
			} else {
				needRange, lo, hi = true, c.Lo, c.Hi
			}
		case KMonoNonDec:
			needMono = true
		case KInjective:
			needInj = true
		}
	}
	if !needRange && !needMono && !needInj {
		return true
	}
	for _, v := range data {
		if v != math.Trunc(v) || v < -float64(inferMagLimit) || v > float64(inferMagLimit) {
			return false
		}
	}
	if needRange {
		for _, v := range data {
			if int64(v) < lo || int64(v) > hi {
				return false
			}
		}
	}
	if needMono {
		for i := 1; i < len(data); i++ {
			if int64(data[i]) < int64(data[i-1]) {
				return false
			}
		}
	}
	if needInj {
		seen := map[int64]bool{}
		for _, v := range data {
			if seen[int64(v)] {
				return false
			}
			seen[int64(v)] = true
		}
	}
	return true
}

// TestVerifyAgainstBruteForce cross-checks the one-pass verifier
// against the by-definition evaluation over thousands of random arrays
// and claim sets — including empty arrays, fractional values, repeated
// values, sorted and shuffled data, and multiple (intersecting) range
// claims. The verifier is the soundness boundary of conditional
// parallelization: a false OK here would admit an unchecked parallel
// region over violating data.
func TestVerifyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	okCount, failCount := 0, 0
	for trial := 0; trial < 5000; trial++ {
		data, claims := bruteTrial(rng)
		got := Verify(data, claims)
		want := bruteVerify(data, claims)
		if got.OK != want {
			t.Fatalf("trial %d: Verify=%v want %v\ndata=%v\nclaims=%s\nreason=%s",
				trial, got.OK, want, data, claims, got.Reason)
		}
		if got.OK {
			okCount++
		} else {
			failCount++
		}
	}
	// The trial distribution must exercise both verdicts heavily.
	if okCount < 500 || failCount < 500 {
		t.Fatalf("degenerate trial distribution: ok=%d fail=%d", okCount, failCount)
	}
}

// bruteTrial draws one random array and claim set of the brute-force
// corpus.
func bruteTrial(rng *rand.Rand) ([]float64, Claims) {
	n := rng.Intn(24)
	data := make([]float64, n)
	for i := range data {
		switch rng.Intn(10) {
		case 0: // fractional — violates integrality
			data[i] = float64(rng.Intn(12)) + 0.5
		case 1: // negative
			data[i] = -float64(rng.Intn(6))
		default:
			data[i] = float64(rng.Intn(12))
		}
	}
	if rng.Intn(3) == 0 {
		// Sorted variants make mono claims pass often enough.
		for i := 1; i < n; i++ {
			if data[i] < data[i-1] {
				data[i] = data[i-1]
			}
		}
	}
	var claims Claims
	if rng.Intn(2) == 0 {
		lo := int64(rng.Intn(8)) - 2
		claims = append(claims, Claim{Array: "p", Kind: KRange, Lo: lo, Hi: lo + int64(rng.Intn(14))})
	}
	if rng.Intn(3) == 0 { // second, intersecting range claim
		lo := int64(rng.Intn(8)) - 2
		claims = append(claims, Claim{Array: "p", Kind: KRange, Lo: lo, Hi: lo + int64(rng.Intn(14))})
	}
	if rng.Intn(2) == 0 {
		claims = append(claims, Claim{Array: "p", Kind: KMonoNonDec})
	}
	if rng.Intn(2) == 0 {
		claims = append(claims, Claim{Array: "p", Kind: KInjective})
	}
	return data, claims
}

// TestVerifierMatchesGeneralPass: the verifier specialized to a claim
// set returns the general all-claims pass's verdict and byte-identical
// Reason, over the brute-force corpus and at the edges the fast loops'
// one-comparison tests must get right: non-finite and signed-zero
// values, fractions, the magnitude limit and the first integer float64
// cannot hold, and a mono violation at the last element.
func TestVerifierMatchesGeneralPass(t *testing.T) {
	check := func(data []float64, claims Claims) {
		t.Helper()
		want := needsOf(claims).general(data)
		if got := Verifier(claims)(data); got != want {
			t.Fatalf("claims %s data %v: specialized %+v, general %+v", claims, data, got, want)
		}
		if got := Verify(data, claims); got != want {
			t.Fatalf("claims %s data %v: Verify %+v, general %+v", claims, data, got, want)
		}
	}
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 5000; trial++ {
		data, claims := bruteTrial(rng)
		check(data, claims)
	}

	const lim = float64(inferMagLimit)
	rangeC := Claim{Array: "p", Kind: KRange, Lo: 1, Hi: 9}
	wide := Claim{Array: "p", Kind: KRange, Lo: math.MinInt64, Hi: math.MaxInt64}
	mono := Claim{Array: "p", Kind: KMonoNonDec}
	inj := Claim{Array: "p", Kind: KInjective}
	sets := []Claims{
		{rangeC}, {wide}, {mono}, {inj},
		{rangeC, mono}, {wide, mono}, {rangeC, inj}, {rangeC, mono, inj},
	}
	edges := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5, -0.5,
		lim, -lim, lim + 1, -lim - 1, 1<<53 + 1, -(1<<53 + 1), 1 << 63, -(1 << 63), 1e300,
	}
	for _, claims := range sets {
		check(nil, claims)
		check([]float64{}, claims)
		for _, e := range edges {
			check([]float64{e}, claims)
			check([]float64{1, 2, e}, claims)
			check([]float64{e, 3, 4}, claims)
		}
		check([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 3}, claims) // mono violated last
		check([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 9}, claims)
		check([]float64{1, 1, 2, 3, 5, 8}, claims)
		check([]float64{9, 8, 7}, claims)
	}
	// The specialized loop must accept what the general pass accepts:
	// a false rejection would only cost a second pass, but show up here.
	if r := Verifier(Claims{rangeC, mono})([]float64{1, 2, 2, 9}); !r.OK {
		t.Fatalf("range+mono rejected a satisfying array: %s", r.Reason)
	}
}
