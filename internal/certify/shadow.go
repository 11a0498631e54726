package certify

import (
	"arraycomp/internal/deptest"
)

// The shadow-domain witness search. A battery of per-dimension
// Problems over one combined loop list describes a reference pair
// completely: the pair touches the same element iff every dimension's
// equation holds simultaneously at one (x, y) point. The search
// enumerates the real iteration domain with every loop clamped to
// ShadowClamp, entirely independently of the closed-form tests it is
// auditing — a deliberately dumb, obviously-correct enumeration, with
// only interval pruning (computed here by direct enumeration, not by
// the Banerjee formulas under test) for speed.

// Battery is one reference pair's per-dimension problem battery,
// prepared for witness searches under many direction vectors. The
// analysis layer certifies up to 3^4 vectors against one battery, so
// the battery keeps each loop's term intervals per (loop, direction,
// clamp) and computes them once, and it reuses its search buffers
// across searches: a search allocates only the witness it returns. A
// Battery is not safe for concurrent use.
type Battery struct {
	probs []deptest.Problem
	n     int  // loops of the combined loop list
	valid bool // every problem shares one loop structure
	empty bool // some loop has an empty range
	exact bool // every equation constant is representable
	// a and b hold the loop coefficients, [k*P+d] for loop k of
	// problem d of P; delta holds each equation's constant.
	a, b, delta []int64
	// small reports that every coefficient is at most smallCoeff in
	// magnitude, so no term over the clamped domain can saturate and
	// plain arithmetic computes exactly what SatOps would.
	small bool
	// varyX marks the unshared loops that only the source surrounds
	// (some problem has a nonzero source coefficient there).
	varyX []bool
	// terms caches the interval of each problem's loop-k term over the
	// admitted clamped pairs, [(k*4+dir)*P+d]; termClamp[k*4+dir] is
	// the clamp it was computed at (0: not computed).
	terms     []deptest.Interval
	termClamp []int64

	// Search state.
	v     deptest.Vector
	clamp []int64
	x, y  []int64
	// target holds, per level k, the residue each problem's equation
	// still needs from loops k.., [k*P+d]; suffix bounds the achievable
	// Σ_{j≥k} term_j for problem d over the clamped admitted domain,
	// [k*P+d].
	target []int64
	suffix []deptest.Interval
	budget int
	sat    bool // some branch skipped due to saturating arithmetic
	out    bool // budget exhausted
}

// NewBattery prepares probs for witness searches. All problems must
// share one loop structure (bounds, sharing); this holds by
// construction for the per-dimension batteries the analysis layer
// builds. A mismatched battery never finds a witness and is never
// exhaustive.
func NewBattery(probs []deptest.Problem) *Battery {
	bt := &Battery{probs: probs}
	if len(probs) == 0 {
		return bt
	}
	n := probs[0].NumLoops()
	for _, p := range probs {
		if p.NumLoops() != n {
			return bt
		}
	}
	np := len(probs)
	bt.valid, bt.n, bt.exact = true, n, true
	// One slab for every int64 buffer, one for the intervals.
	ints := make([]int64, 2*n*np+np+4*n+3*n+(n+1)*np)
	take := func(c int) []int64 {
		s := ints[:c:c]
		ints = ints[c:]
		return s
	}
	bt.a, bt.b, bt.delta = take(n*np), take(n*np), take(np)
	bt.termClamp = take(4 * n)
	bt.clamp, bt.x, bt.y = take(n), take(n), take(n)
	bt.target = take((n + 1) * np)
	ivs := make([]deptest.Interval, 4*n*np+(n+1)*np)
	bt.terms, bt.suffix = ivs[:4*n*np], ivs[4*n*np:]
	bt.varyX = make([]bool, n)
	bt.small = true
	for k := 0; k < n; k++ {
		if probs[0].Bound[k] < 1 {
			bt.empty = true
		}
		for d, p := range probs {
			bt.a[k*np+d], bt.b[k*np+d] = p.A[k], p.B[k]
			if !isSmall(p.A[k]) || !isSmall(p.B[k]) {
				bt.small = false
			}
			if p.A[k] != 0 {
				bt.varyX[k] = true
			}
		}
	}
	for d, p := range probs {
		delta, exact := p.DeltaSat()
		if !exact {
			bt.exact = false
		}
		bt.delta[d] = delta
	}
	return bt
}

// SearchWitness looks for a simultaneous integer solution of all
// problems under direction vector v inside the shadow domain. It
// returns the witness (if any), whether one was found, and whether
// the search exhaustively covered the full (unclamped) domain — only
// then does "not found" certify impossibility outright.
func SearchWitness(probs []deptest.Problem, v deptest.Vector) (Witness, bool, bool) {
	return NewBattery(probs).Search(v)
}

// Search is SearchWitness over the battery's problems. A vector of the
// wrong length, or with an unknown direction on a shared loop, finds
// nothing and is not exhaustive.
func (bt *Battery) Search(v deptest.Vector) (Witness, bool, bool) {
	if !bt.valid || len(v) != bt.n {
		return Witness{}, false, false
	}
	n, p0 := bt.n, bt.probs[0]
	for k := 0; k < n; k++ {
		if p0.Shared[k] && v[k] > deptest.DirGreater {
			return Witness{}, false, false
		}
	}
	// Empty domain: exhaustively no solution.
	if bt.empty {
		return Witness{}, false, true
	}
	bt.v = v
	copy(bt.clamp, p0.Bound)
	covered := !Clamp(bt.clamp, shadowBudget, bt.estimate)
	if !bt.exact {
		// The equation's constant is unrepresentable; no exact
		// witness can balance it and absence proves nothing.
		return Witness{}, false, false
	}
	copy(bt.target, bt.delta)
	bt.budget, bt.sat, bt.out = shadowBudget, false, false
	bt.buildSuffix()
	found := bt.solve(0)
	exhaustive := covered && !bt.sat && !bt.out
	if !found {
		return Witness{}, false, exhaustive
	}
	xy := append(append(make([]int64, 0, 2*n), bt.x...), bt.y...)
	return Witness{X: xy[:n:n], Y: xy[n:]}, true, exhaustive
}

// xRange and yRange give loop k's admitted (x, y) pairs over the
// clamped domain: x runs 1..xRange(k), and for each x, y runs over
// yRange(k, x), both ascending. On a shared loop that is exactly the
// pairs the direction admits: y>x for <, y=x for =, y<x for >. On an
// unshared loop only the side with a nonzero coefficient matters; the
// other reference is not surrounded by this loop at all and its
// position is fixed arbitrarily at 1.
func (bt *Battery) xRange(k int) int64 {
	if !bt.probs[0].Shared[k] && !bt.varyX[k] {
		return 1
	}
	return bt.clamp[k]
}

func (bt *Battery) yRange(k int, x int64) (lo, hi int64) {
	m := bt.clamp[k]
	if !bt.probs[0].Shared[k] {
		if bt.varyX[k] {
			return 1, 1
		}
		return 1, m
	}
	switch bt.v[k] {
	case deptest.DirLess:
		return x + 1, m
	case deptest.DirEqual:
		return x, x
	case deptest.DirGreater:
		return 1, x - 1
	}
	return 1, m
}

// smallCoeff bounds the coefficients for which a term a·x − b·y with
// x, y ≤ ShadowClamp stays far inside the saturation range.
const smallCoeff = 1 << 40

func isSmall(c int64) bool { return -smallCoeff <= c && c <= smallCoeff }

// satTerm computes a loop's contribution a·x − b·y with saturating
// arithmetic; ok=false when it saturated. On the small path callers
// compute the term with plain arithmetic, which is exact there.
func satTerm(a, b, x, y int64) (int64, bool) {
	var so deptest.SatOps
	t := so.Sub(so.Mul(a, x), so.Mul(b, y))
	return t, !so.Overflowed
}

// estimate approximates the number of enumeration points under clamp
// (product of per-loop pair counts, saturating far above the budget).
func (bt *Battery) estimate(clamp []int64) int64 {
	total := int64(1)
	p0 := bt.probs[0]
	for k, m := range clamp {
		var c int64
		switch {
		case !p0.Shared[k]:
			c = m
		case bt.v[k] == deptest.DirEqual:
			c = m
		case bt.v[k] == deptest.DirAny:
			c = m * m
		default: // < or >
			c = m * (m - 1) / 2
			if c < 1 {
				c = 1
			}
		}
		if total > (int64(shadowBudget)*4)/c {
			return int64(shadowBudget) * 4
		}
		total *= c
	}
	return total
}

// buildSuffix computes the pruning intervals from the per-loop term
// intervals.
func (bt *Battery) buildSuffix() {
	n, np := bt.n, len(bt.probs)
	for d := 0; d < np; d++ {
		bt.suffix[n*np+d] = deptest.Interval{}
	}
	for k := n - 1; k >= 0; k-- {
		ivs := bt.termIntervals(k)
		for d := 0; d < np; d++ {
			bt.suffix[k*np+d] = ivs[d].Add(bt.suffix[(k+1)*np+d])
		}
	}
}

// termIntervals returns each problem's loop-k term interval over the
// admitted clamped pairs, by direct enumeration of those pairs (not by
// the Banerjee formulas under audit). A loop without admitted pairs, or
// whose terms saturate, gets the whole line.
//
// The enumeration visits every x but only the two ends of its y range.
// For a fixed x, a·x − b·y is monotone in y ≥ 1, and so is |b·y|: the
// extremes over y ∈ [lo, hi] lie at y = lo and y = hi, and a term that
// saturates anywhere in the range saturates at one of them. The
// interval is the one a scan of every pair would find.
func (bt *Battery) termIntervals(k int) []deptest.Interval {
	np := len(bt.probs)
	dir := deptest.DirAny
	if bt.probs[0].Shared[k] {
		dir = bt.v[k]
	}
	slot := k*4 + int(dir)
	ivs := bt.terms[slot*np : (slot+1)*np]
	m := bt.clamp[k]
	if bt.termClamp[slot] == m {
		return ivs
	}
	bt.termClamp[slot] = m
	xHi := bt.xRange(k)
	for d := 0; d < np; d++ {
		iv, first := deptest.Interval{}, true
		widen := func(t int64) {
			if first {
				iv, first = deptest.Interval{Lo: t, Hi: t}, false
				return
			}
			iv.Lo, iv.Hi = min(iv.Lo, t), max(iv.Hi, t)
		}
		a, b := bt.a[k*np+d], bt.b[k*np+d]
	enum:
		for x := int64(1); x <= xHi; x++ {
			lo, hi := bt.yRange(k, x)
			if lo > hi {
				continue
			}
			for _, y := range [2]int64{lo, hi} {
				t, ok := a*x-b*y, true
				if !bt.small {
					t, ok = satTerm(a, b, x, y)
				}
				if !ok {
					first = true // saturated: the whole line
					break enum
				}
				widen(t)
			}
		}
		if first {
			iv = deptest.WholeInterval
		}
		ivs[d] = iv
	}
	return ivs
}

// solve recursively assigns loops k.. and reports whether a full
// simultaneous solution was found (positions left in bt.x, bt.y).
func (bt *Battery) solve(k int) bool {
	np := len(bt.probs)
	if k == bt.n {
		for _, t := range bt.target[k*np : (k+1)*np] {
			if t != 0 {
				return false
			}
		}
		return true
	}
	cur := bt.target[k*np : (k+1)*np]
	next := bt.target[(k+1)*np : (k+2)*np]
	reach := bt.suffix[(k+1)*np : (k+2)*np]
	a, b := bt.a[k*np:(k+1)*np], bt.b[k*np:(k+1)*np]
	xHi := bt.xRange(k)
	for x := int64(1); x <= xHi; x++ {
		lo, hi := bt.yRange(k, x)
	pair:
		for y := lo; y <= hi; y++ {
			if bt.budget--; bt.budget < 0 {
				bt.out = true
				return false
			}
			for d := 0; d < np; d++ {
				t, ok := a[d]*x-b[d]*y, true
				if !bt.small {
					t, ok = satTerm(a[d], b[d], x, y)
				}
				if !ok {
					bt.sat = true
					continue pair
				}
				// Targets and terms lie within the saturation range, so
				// the raw difference cannot wrap; leaving the range is
				// exactly SatOps' overflow.
				need := cur[d] - t
				if need < deptest.SatMin || need > deptest.SatMax {
					bt.sat = true
					continue pair
				}
				if !reach[d].Contains(need) {
					continue pair
				}
				next[d] = need
			}
			bt.x[k], bt.y[k] = x, y
			if bt.solve(k + 1) {
				return true
			}
			if bt.out {
				return false
			}
		}
	}
	return false
}

// CertifyIndependence checks the claim "no dependence satisfying v
// exists between this reference pair": a witness found in the shadow
// domain (and confirmed by re-evaluating the affine equations)
// falsifies it; otherwise the claim is certified, exhaustively when
// the search covered the whole domain. The caller names the claim of
// a kept certificate.
func CertifyIndependence(layer string, bt *Battery, v deptest.Vector) Certificate {
	w, found, exhaustive := bt.Search(v)
	if found {
		if CheckWitness(bt.probs, v, w) {
			return Certificate{
				Layer: layer, Status: Falsified,
				Witness: w.flatten(), Detail: "dependence witness found in shadow domain",
			}
		}
		return Certificate{
			Layer: layer, Status: Skipped,
			Witness: w.flatten(), Detail: "internal: enumerated witness failed re-evaluation",
		}
	}
	return Certificate{Layer: layer, Status: Certified, Exhaustive: exhaustive}
}

// CertifyDependence checks a Definite ("dependence certainly
// exists") claim by producing a concrete witness. Absence of one is a
// falsification only when the search was exhaustive; a clamped search
// that comes up empty is inconclusive (the definite point may lie
// outside the shadow domain). The caller names the claim of a kept
// certificate.
func CertifyDependence(layer string, bt *Battery, v deptest.Vector) Certificate {
	w, found, exhaustive := bt.Search(v)
	if found && CheckWitness(bt.probs, v, w) {
		return Certificate{
			Layer: layer, Status: Certified,
			Witness: w.flatten(), Exhaustive: exhaustive,
		}
	}
	if exhaustive {
		return Certificate{
			Layer: layer, Status: Falsified,
			Detail: "no solution exists in the exhaustively covered domain",
		}
	}
	return Certificate{
		Layer: layer, Status: Skipped,
		Detail: "no witness within shadow bounds",
	}
}
