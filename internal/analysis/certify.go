package analysis

import (
	"fmt"

	"arraycomp/internal/affine"
	"arraycomp/internal/certify"
	"arraycomp/internal/deptest"
	"arraycomp/internal/lang"
)

// Certification of the analysis layer's verdicts. The dependence graph
// the rest of the compiler trusts is exactly the set of PairDeps the
// pair walk emitted; everything the walk *refuted* is an independence
// claim downstream passes act on. Certify replays the walk with
// identical options and, for every reference pair:
//
//   - cross-validates each refuted concrete direction vector by shadow
//     enumeration (certify.CertifyIndependence);
//   - demands a concrete witness for each Definite claim
//     (certify.CertifyDependence);
//
// plus the two non-pair claim families: per-reference in-bounds proofs
// (re-evaluated pointwise over the clamped iteration space) and the
// def-level collision/empties verdicts.

// maxCertifyShared bounds the shared-loop depth for which the 3^n
// concrete direction vectors are enumerated; deeper pairs are skipped
// rather than exploding.
const maxCertifyShared = 4

// Certify cross-validates every dependence verdict in r and returns
// the aggregated report. It must be called on a Result produced by
// Analyze (it replays the same pair walk with the stored options).
func Certify(r *Result) *certify.Report {
	rep := certify.NewReport()
	c := &resultCertifier{r: r, rep: rep, wwExhaustive: true}
	c.certifyPairs()
	c.certifyBounds()
	c.certifyDefVerdicts()
	return rep
}

type resultCertifier struct {
	r   *Result
	rep *certify.Report
	// wwFalsified / wwExhaustive summarize the write-write pair
	// certificates for the def-level collision verdict.
	wwFalsified  bool
	wwExhaustive bool
}

// certifyPairs replays the three pair families of Analyze — flow,
// anti, write-write — and certifies each pair's claims.
func (c *resultCertifier) certifyPairs() {
	r := c.r
	target := r.Def.Name
	if r.Def.Kind == lang.BigUpd {
		target = r.Def.Source
	}
	for _, sink := range r.Clauses {
		for _, rd := range sink.Reads {
			switch {
			case r.Def.Kind != lang.BigUpd && rd.Ix.Array == target:
				for wi, writer := range r.Clauses {
					c.certifyPair("flow",
						fmt.Sprintf("flow %s→%s", writer.Label(), sink.Label()),
						writer.WriteForms, rd.Forms, writer, sink,
						r.pairOpts(r.budget, r.WriteInBounds[wi], r.ReadInBounds[rd]), false)
				}
			case r.Def.Kind == lang.BigUpd && rd.Ix.Array == r.Def.Source:
				for wi, writer := range r.Clauses {
					c.certifyPair("anti",
						fmt.Sprintf("anti %s→%s", sink.Label(), writer.Label()),
						rd.Forms, writer.WriteForms, sink, writer,
						r.pairOpts(r.budget, r.ReadInBounds[rd], r.WriteInBounds[wi]), false)
				}
			case r.Def.Kind == lang.BigUpd && rd.Ix.Array == r.Def.Name:
				for wi, writer := range r.Clauses {
					c.certifyPair("flow",
						fmt.Sprintf("flow %s→%s", writer.Label(), sink.Label()),
						writer.WriteForms, rd.Forms, writer, sink,
						r.pairOpts(r.budget, r.WriteInBounds[wi], r.ReadInBounds[rd]), false)
				}
			}
		}
	}
	for i, a := range r.Clauses {
		for j := i; j < len(r.Clauses); j++ {
			b := r.Clauses[j]
			c.certifyPair("output",
				fmt.Sprintf("write collision %s×%s", a.Label(), b.Label()),
				a.WriteForms, b.WriteForms, a, b,
				r.pairOpts(r.budget, r.WriteInBounds[i], r.WriteInBounds[j]), true)
		}
	}
}

// certifyPair re-runs one reference-pair analysis and certifies its
// claims. The claimed deps cover a subset of the concrete direction
// vectors over the shared loops; every uncovered vector is an
// independence claim, every Definite dep a dependence claim. isWW
// marks write-write pairs, whose outcomes also feed the collision
// summary.
func (c *resultCertifier) certifyPair(kind, pair string, srcForms, sinkForms []affine.Form, src, sink *FlatClause, opts PairOptions, isWW bool) {
	if srcForms == nil || sinkForms == nil {
		// Non-affine: the analysis already claimed the fully pessimistic
		// '*…*' dependence, so there is no independence to audit.
		return
	}
	deps, err := AnalyzePairOpts(srcForms, sinkForms, src, sink, opts)
	if err != nil {
		c.record(isWW, certify.Certificate{
			Layer: "analysis", Claim: pair, Status: certify.Skipped,
			Detail: fmt.Sprintf("pair replay failed: %v", err),
		})
		return
	}
	probs, shared, err := pairProblems(srcForms, sinkForms, src, sink)
	if err != nil || len(probs) == 0 {
		c.record(isWW, certify.Certificate{
			Layer: "analysis", Claim: pair, Status: certify.Skipped,
			Detail: "no problem battery",
		})
		return
	}
	total := probs[0].NumLoops()
	if shared > maxCertifyShared {
		c.record(isWW, certify.Certificate{
			Layer: "analysis", Claim: pair, Status: certify.Skipped,
			Detail: fmt.Sprintf("%d shared loops exceed the certification depth", shared),
		})
		return
	}
	covered := func(v deptest.Vector) bool {
		for _, dep := range deps {
			ok := true
			for k := 0; k < shared; k++ {
				if dep.Dir[k] != deptest.DirAny && dep.Dir[k] != v[k] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	// Enumerate the 3^shared concrete direction vectors; each one the
	// walk refuted is an independence claim. All of them search the
	// same battery, which shares its per-loop term intervals.
	bt := certify.NewBattery(probs)
	v := deptest.AnyVector(total)
	var enum func(k int)
	enum = func(k int) {
		if k == shared {
			if covered(v) {
				return
			}
			claim := fmt.Sprintf("%s dir %s independent", pair, v[:shared])
			c.record(isWW, certify.CertifyIndependence("analysis", claim, bt, v))
			return
		}
		for _, d := range [...]deptest.Direction{deptest.DirLess, deptest.DirEqual, deptest.DirGreater} {
			v[k] = d
			enum(k + 1)
		}
	}
	enum(0)
	// Every Definite claim must have a concrete witness.
	for _, dep := range deps {
		if dep.Verdict != deptest.Definite {
			continue
		}
		full := deptest.AnyVector(total)
		copy(full, dep.Dir)
		claim := fmt.Sprintf("%s dir %s definite", pair, dep.Dir)
		c.record(isWW, certify.CertifyDependence("analysis", claim, bt, full))
	}
}

func (c *resultCertifier) record(isWW bool, cert certify.Certificate) {
	if isWW {
		if cert.Status == certify.Falsified {
			c.wwFalsified = true
		}
		if !(cert.Status == certify.Certified && cert.Exhaustive) {
			c.wwExhaustive = false
		}
	}
	c.rep.Record(cert)
}

// boundsCheckBudget caps the enumerated instances per in-bounds
// certificate.
const boundsCheckBudget = 1 << 16

// certifyBounds re-proves every claimed in-bounds verdict pointwise:
// each claimed reference is evaluated (with saturating arithmetic) at
// every instance of the clamped iteration space and compared against
// the array bounds. Out-of-range values in the *full* range falsify
// the claim — that is exactly what FormRange asserted.
func (c *resultCertifier) certifyBounds() {
	r := c.r
	for i, cl := range r.Clauses {
		if r.WriteInBounds[i] {
			c.rep.Record(c.boundsCert(
				fmt.Sprintf("writes of %s in bounds", cl.Label()),
				cl.WriteForms, cl, r.Bounds))
		}
		for _, rd := range cl.Reads {
			if !r.ReadInBounds[rd] {
				continue
			}
			b, ok := c.readBounds(rd.Ix.Array)
			if !ok {
				c.rep.Record(certify.Certificate{
					Layer:  "analysis",
					Claim:  fmt.Sprintf("reads of %s in %s bounds", rd.Ix.Array, cl.Label()),
					Status: certify.Skipped, Detail: "bounds of read array unavailable",
				})
				continue
			}
			c.rep.Record(c.boundsCert(
				fmt.Sprintf("reads of %s in %s in bounds", rd.Ix.Array, cl.Label()),
				rd.Forms, cl, b))
		}
	}
}

func (c *resultCertifier) readBounds(name string) (ArrayBounds, bool) {
	r := c.r
	target := r.Def.Name
	if r.Def.Kind == lang.BigUpd {
		target = r.Def.Source
	}
	if name == target || name == r.Def.Name {
		return r.Bounds, true
	}
	b, ok := r.external[name]
	return b, ok
}

// boundsCert enumerates the clause's clamped iteration space and
// checks every subscript tuple against b.
func (c *resultCertifier) boundsCert(claim string, forms []affine.Form, cl *FlatClause, b ArrayBounds) certify.Certificate {
	if len(forms) != b.Rank() {
		return certify.Certificate{
			Layer: "analysis", Claim: claim, Status: certify.Falsified,
			Detail: fmt.Sprintf("rank mismatch: %d subscripts for rank %d", len(forms), b.Rank()),
		}
	}
	refs := make([]affine.NormalizedRef, len(forms))
	for d, f := range forms {
		ref, err := cl.Nest.Normalize(f)
		if err != nil {
			return certify.Certificate{
				Layer: "analysis", Claim: claim, Status: certify.Skipped,
				Detail: fmt.Sprintf("normalize: %v", err),
			}
		}
		refs[d] = ref
	}
	trips := cl.Nest.Trips()
	clamp := make([]int64, len(trips))
	exhaustive := true
	points := int64(1)
	for k, m := range trips {
		clamp[k] = m
		if clamp[k] > certify.ShadowClamp {
			clamp[k] = certify.ShadowClamp
			exhaustive = false
		}
		if clamp[k] < 0 {
			clamp[k] = 0
		}
		if points > boundsCheckBudget {
			continue
		}
		if clamp[k] == 0 {
			points = 0
		} else if points > boundsCheckBudget/clamp[k] {
			points = boundsCheckBudget + 1
		} else {
			points *= clamp[k]
		}
	}
	for points > boundsCheckBudget {
		maxK := 0
		for k := range clamp {
			if clamp[k] > clamp[maxK] {
				maxK = k
			}
		}
		if clamp[maxK] <= 1 {
			break
		}
		clamp[maxK] /= 2
		exhaustive = false
		points = 1
		for _, m := range clamp {
			if m == 0 {
				points = 0
				break
			}
			if points > boundsCheckBudget/m {
				points = boundsCheckBudget + 1
				break
			}
			points *= m
		}
	}
	pos := make([]int64, len(trips))
	sat := false
	var bad []int64
	var walk func(k int) bool
	walk = func(k int) bool {
		if k == len(trips) {
			for d, ref := range refs {
				v, exact := ref.EvalSat(pos)
				if !exact {
					sat = true
					return false
				}
				if v < b.Lo[d] || v > b.Hi[d] {
					bad = append([]int64(nil), pos...)
					return true
				}
			}
			return false
		}
		for p := int64(1); p <= clamp[k]; p++ {
			pos[k] = p
			if walk(k + 1) {
				return true
			}
		}
		return false
	}
	if walk(0) {
		return certify.Certificate{
			Layer: "analysis", Claim: claim, Status: certify.Falsified,
			Witness: bad, Detail: "subscript leaves the array bounds",
		}
	}
	if sat {
		return certify.Certificate{
			Layer: "analysis", Claim: claim, Status: certify.Skipped,
			Detail: "subscript evaluation saturated",
		}
	}
	return certify.Certificate{
		Layer: "analysis", Claim: claim, Status: certify.Certified, Exhaustive: exhaustive,
	}
}

// certifyDefVerdicts records the def-level summary certificates: the
// collision verdict (backed by the write-write pair certificates) and
// the empties elision (its instance-count arithmetic re-checked
// exactly; its other two legs are certified separately above).
func (c *resultCertifier) certifyDefVerdicts() {
	r := c.r
	if r.Collision == No {
		status := certify.Certified
		detail := ""
		if c.wwFalsified {
			status = certify.Falsified
			detail = "a write-write independence claim was falsified"
		}
		c.rep.Record(certify.Certificate{
			Layer:  "analysis",
			Claim:  fmt.Sprintf("%s: collision verdict 'no'", r.Def.Name),
			Status: status, Detail: detail, Exhaustive: c.wwExhaustive,
		})
	}
	if r.Def.Kind == lang.Monolithic && r.NoEmpties {
		var count int64
		for _, cl := range r.Clauses {
			count += cl.Instances
		}
		cert := certify.Certificate{
			Layer: "analysis",
			Claim: fmt.Sprintf("%s: empties excluded", r.Def.Name),
		}
		switch {
		case count != r.Bounds.Size():
			cert.Status = certify.Falsified
			cert.Detail = fmt.Sprintf("%d instances for %d elements", count, r.Bounds.Size())
		case c.wwFalsified:
			cert.Status = certify.Falsified
			cert.Detail = "collision leg falsified"
		default:
			cert.Status = certify.Certified
			cert.Exhaustive = c.wwExhaustive
		}
		c.rep.Record(cert)
	}
}
