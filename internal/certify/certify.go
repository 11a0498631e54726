// Package certify is the soundness-certification engine for the
// compiler's dependence verdicts. Every optimization the compiler
// performs — eliding collision/empties checks, thunkless schedules,
// in-place updates, parallel plans — rests on compile-time
// "independent" claims from the GCD/Banerjee/exact subscript tests. A
// single unsound claim silently produces wrong answers; the
// differential oracle can detect the divergence but not localize the
// lying pass.
//
// Certification closes that gap per claim:
//
//   - a "dependent" (Definite) claim is certified by a concrete
//     witness: a solution point of the dependence equations, checked
//     by re-evaluating the affine forms with saturating arithmetic;
//   - an "independent" claim is cross-validated by exhaustive
//     enumeration over a bounded shadow domain — the real iteration
//     domain with every loop clamped to at most ShadowClamp
//     iterations. The shadow domain is a subset of the real one, so
//     any solution found there soundly falsifies the claim; absence
//     of a solution certifies the claim outright when the clamp
//     covered the full domain, and up to the shadow bound otherwise.
//
// The analysis, schedule, and loop-IR layers each translate their
// claims into Certificates (see their respective certify files); the
// core driver aggregates them into a Report and fails the compile on
// any falsification, naming the layer that lied.
package certify

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"arraycomp/internal/deptest"
)

// ShadowClamp is the per-dimension iteration bound of the shadow
// domain: independence claims are cross-validated over at most this
// many iterations per loop.
const ShadowClamp = 64

// shadowBudget caps the total number of enumeration points per
// witness search. When the clamped domain still exceeds the budget,
// clamps are halved (largest first) until it fits, trading
// exhaustiveness for boundedness.
const shadowBudget = 1 << 20

// Status classifies a certificate.
type Status uint8

const (
	// Certified: the claim was validated (witness found, or shadow
	// search exhausted without a counterexample).
	Certified Status = iota
	// Falsified: a concrete counterexample disproves the claim — a
	// compiler bug, reported as a compile error.
	Falsified
	// Skipped: the claim could not be decided (domain exceeded the
	// shadow bound, arithmetic saturated, or non-affine references).
	Skipped
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Certified:
		return "certified"
	case Falsified:
		return "falsified"
	case Skipped:
		return "skipped"
	}
	return "Status(?)"
}

// Certificate records the outcome of checking one compiler claim.
type Certificate struct {
	// Layer names the pass whose claim was checked: "analysis"
	// (dependence, bounds and def-level verdicts), "schedule" (emitted
	// order), "plan" (parallel schedules), "stencil" (boundary
	// splits), "claims" (index-array claim covers) or "idxprop"
	// (statically discharged index-array claims).
	Layer string
	// Claim is the human-readable statement that was checked.
	Claim string
	// Status is the outcome.
	Status Status
	// Witness holds the solution point (source positions followed by
	// sink positions) for witness-backed certificates and
	// counterexamples.
	Witness []int64
	// Detail carries extra context (why skipped, what the
	// counterexample violates).
	Detail string
	// Exhaustive reports whether the shadow search covered the entire
	// iteration domain (clamps never engaged, budget never hit).
	Exhaustive bool
}

// Kept reports whether a Report keeps c rather than only counting it:
// falsified and skipped certificates are kept, certified ones are not,
// so a certifier need not build a certified claim's text.
func (c Certificate) Kept() bool { return c.Status != Certified }

// String renders the certificate on one line.
func (c Certificate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: %s", c.Layer, c.Claim, c.Status)
	if len(c.Witness) > 0 {
		fmt.Fprintf(&b, " witness=%v", c.Witness)
	}
	if c.Detail != "" {
		fmt.Fprintf(&b, " (%s)", c.Detail)
	}
	if c.Status == Certified && !c.Exhaustive {
		fmt.Fprintf(&b, " [shadow-bounded]")
	}
	return b.String()
}

// Report aggregates certificates across a compilation. Certified
// outcomes are only counted (they would swamp the report); every
// falsification is kept, and a bounded sample of skips is retained
// for diagnostics.
type Report struct {
	CertifiedCount int
	FalsifiedCount int
	SkippedCount   int
	// Failures holds every falsified certificate.
	Failures []Certificate
	// Skips holds the first few skipped certificates.
	Skips []Certificate
	// Layers tallies the certificates per Certificate.Layer.
	Layers map[string]Tally
	// Times holds each certifier's time, keyed by the Layer of the
	// certificates it files (a certifier may file none).
	Times map[string]time.Duration
}

// Tally counts one layer's certificates by status. Exhaustive counts
// the certified ones whose search covered the whole domain.
type Tally struct {
	Certified, Falsified, Skipped, Exhaustive int
}

func (t Tally) add(o Tally) Tally {
	return Tally{t.Certified + o.Certified, t.Falsified + o.Falsified, t.Skipped + o.Skipped, t.Exhaustive + o.Exhaustive}
}

func (r *Report) tally(layer string, t Tally) {
	if r.Layers == nil {
		r.Layers = map[string]Tally{}
	}
	r.Layers[layer] = r.Layers[layer].add(t)
}

// maxSkipSample bounds the retained skipped certificates.
const maxSkipSample = 16

// NewReport returns an empty report.
func NewReport() *Report { return &Report{} }

// Record files one certificate.
func (r *Report) Record(c Certificate) {
	var t Tally
	switch c.Status {
	case Certified:
		r.CertifiedCount++
		t.Certified = 1
		if c.Exhaustive {
			t.Exhaustive = 1
		}
	case Falsified:
		r.FalsifiedCount++
		r.Failures = append(r.Failures, c)
		t.Falsified = 1
	case Skipped:
		r.SkippedCount++
		if len(r.Skips) < maxSkipSample {
			r.Skips = append(r.Skips, c)
		}
		t.Skipped = 1
	}
	r.tally(c.Layer, t)
}

// AddTime charges d to the certifier of layer.
func (r *Report) AddTime(layer string, d time.Duration) {
	if r.Times == nil {
		r.Times = map[string]time.Duration{}
	}
	r.Times[layer] += d
}

// Merge folds another report into r.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.CertifiedCount += o.CertifiedCount
	r.FalsifiedCount += o.FalsifiedCount
	r.SkippedCount += o.SkippedCount
	r.Failures = append(r.Failures, o.Failures...)
	for layer, t := range o.Layers {
		r.tally(layer, t)
	}
	for layer, d := range o.Times {
		r.AddTime(layer, d)
	}
	for _, c := range o.Skips {
		if len(r.Skips) < maxSkipSample {
			r.Skips = append(r.Skips, c)
		}
	}
}

// Summary renders the counts on one line.
func (r *Report) Summary() string {
	return fmt.Sprintf("certified=%d falsified=%d skipped=%d",
		r.CertifiedCount, r.FalsifiedCount, r.SkippedCount)
}

// Err returns a compile-stopping error describing the falsified
// claims (nil when none). The first failure's layer leads the message
// so fuzzing localizes which pass lied.
func (r *Report) Err() error {
	if r.FalsifiedCount == 0 {
		return nil
	}
	first := r.Failures[0]
	return fmt.Errorf("certification falsified %d claim(s); first: %s", r.FalsifiedCount, first)
}

// String renders the full report for -certify output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "certify: %s\n", r.Summary())
	for _, c := range r.Failures {
		fmt.Fprintf(&b, "  FALSIFIED %s\n", c)
	}
	for _, c := range r.Skips {
		fmt.Fprintf(&b, "  skipped %s\n", c)
	}
	if r.SkippedCount > len(r.Skips) {
		fmt.Fprintf(&b, "  … and %d more skipped\n", r.SkippedCount-len(r.Skips))
	}
	return b.String()
}

// LayerTable renders one line per certifier layer, sorted: its tally
// and its time.
func (r *Report) LayerTable() string {
	var b strings.Builder
	keys := slices.Collect(maps.Keys(r.Layers))
	for layer := range r.Times {
		if _, ok := r.Layers[layer]; !ok {
			keys = append(keys, layer)
		}
	}
	slices.Sort(keys)
	for _, layer := range keys {
		t := r.Layers[layer]
		fmt.Fprintf(&b, "  %-9s certified=%d falsified=%d skipped=%d exhaustive=%d  %.3fms\n",
			layer, t.Certified, t.Falsified, t.Skipped, t.Exhaustive, float64(r.Times[layer])/1e6)
	}
	return b.String()
}

// Witness is a simultaneous solution point of a dependence-problem
// battery: X are the source positions and Y the sink positions, both
// over the combined loop list of the problems.
type Witness struct {
	X, Y []int64
}

// flatten renders the witness as one slice (X then Y) for Certificate
// storage.
func (w Witness) flatten() []int64 {
	out := make([]int64, 0, len(w.X)+len(w.Y))
	out = append(out, w.X...)
	out = append(out, w.Y...)
	return out
}

// CheckWitness re-evaluates every problem's dependence equation
// Σ A[k]·x[k] − Σ B[k]·y[k] = B0 − A0 at the witness with saturating
// arithmetic and checks the direction vector admits the point on
// every shared loop. Only exact (non-saturating) evaluations count.
func CheckWitness(probs []deptest.Problem, v deptest.Vector, w Witness) bool {
	if len(probs) == 0 {
		return false
	}
	n := probs[0].NumLoops()
	if len(w.X) != n || len(w.Y) != n {
		return false
	}
	for k := 0; k < n; k++ {
		if w.X[k] < 1 || w.X[k] > probs[0].Bound[k] || w.Y[k] < 1 || w.Y[k] > probs[0].Bound[k] {
			return false
		}
		if probs[0].Shared[k] && k < len(v) && !v[k].Admits(w.X[k], w.Y[k]) {
			return false
		}
	}
	for _, p := range probs {
		if p.NumLoops() != n {
			return false
		}
		var s deptest.SatOps
		h := int64(0)
		for k := 0; k < n; k++ {
			h = s.Add(h, s.Sub(s.Mul(p.A[k], w.X[k]), s.Mul(p.B[k], w.Y[k])))
		}
		delta, exact := p.DeltaSat()
		if s.Overflowed || !exact || h != delta {
			return false
		}
	}
	return true
}
