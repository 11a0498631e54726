package analysis

import (
	"fmt"
	"slices"

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
//
// A report only counts certified certificates, so claim text is built
// only for the falsified and skipped ones it keeps.

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
	for _, sink := range r.Clauses {
		for _, rd := range sink.Reads {
			switch {
			case r.Def.Kind == lang.BigUpd && rd.Ix.Array == r.Def.Source:
				for wi, writer := range r.Clauses {
					c.certifyPair(func() string { return fmt.Sprintf("anti %s→%s", sink.Label(), writer.Label()) },
						rd.Forms, writer.WriteForms, sink, writer,
						r.pairOpts(r.budget, r.ReadInBounds[rd], r.WriteInBounds[wi]), false)
				}
			case rd.Ix.Array == r.Def.Name:
				for wi, writer := range r.Clauses {
					c.certifyPair(func() string { return fmt.Sprintf("flow %s→%s", writer.Label(), sink.Label()) },
						writer.WriteForms, rd.Forms, writer, sink,
						r.pairOpts(r.budget, r.WriteInBounds[wi], r.ReadInBounds[rd]), false)
				}
			}
		}
	}
	for i, a := range r.Clauses {
		for j := i; j < len(r.Clauses); j++ {
			b := r.Clauses[j]
			c.certifyPair(func() string { return fmt.Sprintf("write collision %s×%s", a.Label(), b.Label()) },
				a.WriteForms, b.WriteForms, a, b,
				r.pairOpts(r.budget, r.WriteInBounds[i], r.WriteInBounds[j]), true)
		}
	}
}

// certifyPair re-runs one reference-pair analysis and certifies its
// claims. The claimed deps cover a subset of the concrete direction
// vectors over the shared loops; every uncovered vector is an
// independence claim, every Definite dep a dependence claim. pair
// names the pair in kept certificates. isWW marks write-write pairs,
// whose outcomes also feed the collision summary.
func (c *resultCertifier) certifyPair(pair func() string, srcForms, sinkForms []affine.Form, src, sink *FlatClause, opts PairOptions, isWW bool) {
	if srcForms == nil || sinkForms == nil {
		// Non-affine: the analysis already claimed the fully pessimistic
		// '*…*' dependence, so there is no independence to audit.
		return
	}
	deps, err := AnalyzePairOpts(srcForms, sinkForms, src, sink, opts)
	if err != nil {
		c.record(isWW, certify.Certificate{
			Layer: "analysis", Claim: pair(), Status: certify.Skipped,
			Detail: fmt.Sprintf("pair replay failed: %v", err),
		})
		return
	}
	probs, shared, err := pairProblems(srcForms, sinkForms, src, sink)
	if err != nil || len(probs) == 0 {
		c.record(isWW, certify.Certificate{
			Layer: "analysis", Claim: pair(), Status: certify.Skipped,
			Detail: "no problem battery",
		})
		return
	}
	total := probs[0].NumLoops()
	if shared > maxCertifyShared {
		c.record(isWW, certify.Certificate{
			Layer: "analysis", Claim: pair(), Status: certify.Skipped,
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
			cert := certify.CertifyIndependence("analysis", bt, v)
			if cert.Kept() {
				cert.Claim = fmt.Sprintf("%s dir %s independent", pair(), v[:shared])
			}
			c.record(isWW, cert)
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
		cert := certify.CertifyDependence("analysis", bt, full)
		if cert.Kept() {
			cert.Claim = fmt.Sprintf("%s dir %s definite", pair(), dep.Dir)
		}
		c.record(isWW, cert)
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

// boundsCheckBudget caps the enumerated instances per clause.
const boundsCheckBudget = 1 << 16

// boundsClaim is one in-bounds claim of a clause, of its writes or of
// its reads of array read: its certificate and, while the walk settles
// it, the references to evaluate against b, the first point out of
// bounds and whether an evaluation saturated. refs is nil when the
// certificate was settled before the walk.
type boundsClaim struct {
	cert certify.Certificate
	cl   *FlatClause
	read string
	refs []affine.NormalizedRef
	b    ArrayBounds
	bad  []int64
	sat  bool
}

// certifyBounds re-proves every claimed in-bounds verdict pointwise:
// each clause's clamped iteration space is walked once, and at every
// instance each claimed reference of the clause is evaluated (with
// saturating arithmetic) and compared against its array's bounds.
// Out-of-range values in the *full* range falsify the claim — that is
// exactly what FormRange asserted.
func (c *resultCertifier) certifyBounds() {
	r := c.r
	for i, cl := range r.Clauses {
		var claims []boundsClaim
		if r.WriteInBounds[i] {
			claims = append(claims, newBoundsClaim("", cl.WriteForms, cl, r.Bounds))
		}
		for _, rd := range cl.Reads {
			if !r.ReadInBounds[rd] {
				continue
			}
			b, ok := c.readBounds(rd.Ix.Array)
			if !ok {
				claims = append(claims, boundsClaim{cert: certify.Certificate{
					Layer:  "analysis",
					Claim:  fmt.Sprintf("reads of %s in %s bounds", rd.Ix.Array, cl.Label()),
					Status: certify.Skipped, Detail: "bounds of read array unavailable",
				}})
				continue
			}
			claims = append(claims, newBoundsClaim(rd.Ix.Array, rd.Forms, cl, b))
		}
		walkBounds(claims, cl.Nest.Trips())
		for _, bc := range claims {
			if bc.cert.Kept() && bc.cert.Claim == "" {
				bc.cert.Claim = bc.text()
			}
			c.rep.Record(bc.cert)
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

// text renders the claim of a kept certificate.
func (bc *boundsClaim) text() string {
	if bc.read == "" {
		return fmt.Sprintf("writes of %s in bounds", bc.cl.Label())
	}
	return fmt.Sprintf("reads of %s in %s in bounds", bc.read, bc.cl.Label())
}

// newBoundsClaim normalizes a claim's subscripts against the clause's
// nest; a rank mismatch or an unnormalizable subscript settles it.
func newBoundsClaim(read string, forms []affine.Form, cl *FlatClause, b ArrayBounds) boundsClaim {
	bc := boundsClaim{cert: certify.Certificate{Layer: "analysis"}, cl: cl, read: read, b: b}
	if len(forms) != b.Rank() {
		bc.cert.Status = certify.Falsified
		bc.cert.Detail = fmt.Sprintf("rank mismatch: %d subscripts for rank %d", len(forms), b.Rank())
		return bc
	}
	refs := make([]affine.NormalizedRef, len(forms))
	for d, f := range forms {
		ref, err := cl.Nest.Normalize(f)
		if err != nil {
			bc.cert.Status = certify.Skipped
			bc.cert.Detail = fmt.Sprintf("normalize: %v", err)
			return bc
		}
		refs[d] = ref
	}
	bc.refs = refs
	return bc
}

// walkBounds enumerates one clause's clamped iteration space, trips
// clamped within boundsCheckBudget points, and settles every claim
// still open. Each reference is compiled once for the clamped domain.
func walkBounds(claims []boundsClaim, trips []int64) {
	if !slices.ContainsFunc(claims, func(bc boundsClaim) bool { return bc.refs != nil }) {
		return
	}
	clamp := slices.Clone(trips)
	exhaustive := !certify.Clamp(clamp, boundsCheckBudget, func(clamp []int64) int64 {
		return certify.Points(clamp, boundsCheckBudget)
	})
	// subs holds every claim's compiled references back to back.
	var subs []affine.CompiledRef
	for _, bc := range claims {
		for _, r := range bc.refs {
			subs = append(subs, r.Compile(clamp))
		}
	}
	pos := slices.Repeat([]int64{1}, len(clamp))
	for n := certify.Points(clamp, boundsCheckBudget); n > 0; n-- {
		s0 := 0
		for i := range claims {
			bc := &claims[i]
			for d := 0; d < len(bc.refs) && bc.bad == nil; d++ {
				v, exact := subs[s0+d].Eval(pos)
				if !exact {
					bc.sat = true
					break
				}
				if v < bc.b.Lo[d] || v > bc.b.Hi[d] {
					bc.bad = slices.Clone(pos)
				}
			}
			s0 += len(bc.refs)
		}
		// Advance the odometer, the innermost loop fastest.
		k := len(pos) - 1
		for ; k >= 0 && pos[k] == clamp[k]; k-- {
			pos[k] = 1
		}
		if k >= 0 {
			pos[k]++
		}
	}
	for i := range claims {
		bc := &claims[i]
		switch {
		case bc.refs == nil:
		case bc.bad != nil:
			bc.cert.Status, bc.cert.Witness, bc.cert.Detail = certify.Falsified, bc.bad, "subscript leaves the array bounds"
		case bc.sat:
			bc.cert.Status, bc.cert.Detail = certify.Skipped, "subscript evaluation saturated"
		default:
			bc.cert.Status, bc.cert.Exhaustive = certify.Certified, exhaustive
		}
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
		cert := certify.Certificate{
			Layer:  "analysis",
			Status: status, Detail: detail, Exhaustive: c.wwExhaustive,
		}
		if cert.Kept() {
			cert.Claim = fmt.Sprintf("%s: collision verdict 'no'", r.Def.Name)
		}
		c.rep.Record(cert)
	}
	if r.Def.Kind == lang.Monolithic && r.NoEmpties {
		var count int64
		for _, cl := range r.Clauses {
			count += cl.Instances
		}
		cert := certify.Certificate{Layer: "analysis"}
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
		if cert.Kept() {
			cert.Claim = fmt.Sprintf("%s: empties excluded", r.Def.Name)
		}
		c.rep.Record(cert)
	}
}
