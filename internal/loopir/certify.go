package loopir

import (
	"fmt"

	"arraycomp/internal/certify"
	"arraycomp/internal/deptest"
)

// Certification of parallel plans. The planner derived each schedule
// from closed-form distance vectors; the certifier re-derives the
// ground truth by brute force — enumerating the (clamped) iteration
// space, bucketing raw array accesses by the element they touch, and
// checking that every conflicting pair (at least one write, distinct
// iterations) is legal under the attached schedule's execution order:
//
//   - shard: conflicting points share an outer iteration (chunk
//     boundaries are chosen at run time, so any conflict between
//     iterations can straddle one; within an iteration of a 2-D nest,
//     the prefix and the inner loop run sequentially). On a 1-D loop
//     the outer iteration is the point, so no conflict is legal;
//   - wavefront: the earlier point's tile lies up and to the left of
//     the later point's tile, or is the same tile (a tile starts once
//     the tile above and the tile to its left have finished; tiles
//     not so ordered run concurrently). Per-row prefix statements
//     execute with the row's column-0 tile.

// planOccBudget caps enumerated accesses per scheduled loop, and
// planElemCap the retained occurrences per element.
const (
	planOccBudget = 1 << 18
	planElemCap   = 64
)

// CertifyPlans audits every parallel schedule the optimizer attached
// to p and returns the aggregated report.
func CertifyPlans(p *Program) *certify.Report {
	rep := certify.NewReport()
	o := &optimizer{prog: p}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *Loop:
				if x.Par != nil {
					rep.Record(certifyPlan(o, x))
				}
				walk(x.Body)
			case *If:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(p.Stmts)
	return rep
}

// planOcc is one enumerated access occurrence.
type planOcc struct {
	i, j   int64 // loop variable values (j unused for 1-D)
	prefix bool
	write  bool
}

// planSub is one subscript with its constant and scheduled-variable
// coefficients hoisted out of the linear form.
type planSub struct {
	c, co, ci  int64
	hasO, hasI bool // the form mentions the outer / inner variable
}

// certifyPlan checks one scheduled loop.
func certifyPlan(o *optimizer, l *Loop) certify.Certificate {
	claim := fmt.Sprintf("loop %s: %s schedule legal", l.Var, l.Par)
	skip := func(detail string) certify.Certificate {
		return certify.Certificate{Layer: "plan", Claim: claim, Status: certify.Skipped, Detail: detail}
	}
	if l.Par.Kind != ParShard && l.Par.Kind != ParWavefront {
		return skip("unknown schedule kind")
	}
	if l.Par.AlignOn != nil {
		// Legality is claim-conditional (monotone index array), not a
		// distance-vector fact; CertifyClaims audits the claim cover and
		// the runtime verifier discharges the claims themselves.
		return skip("aligned-shard legality audited by the claims certifier")
	}
	if inner := nest2D(l); inner != nil {
		pre, okPre := o.planAccesses(l.Body[:len(l.Body)-1])
		body, okBody := o.planAccesses(inner.Body)
		if !okPre || !okBody {
			return skip("accesses not collectible")
		}
		return checkPlan(claim, append(pre, body...), len(pre), l, inner, l.Par)
	}
	if l.Par.Kind == ParWavefront || hasLoop(l.Body) {
		return skip("nest shape not recognized")
	}
	acc, ok := o.planAccesses(l.Body)
	if !ok {
		return skip("accesses not collectible")
	}
	return checkPlan(claim, acc, 0, l, nil, l.Par)
}

// checkPlan enumerates the clamped iteration space and validates every
// conflict against the schedule. The first nPre accesses are per-row
// prefix accesses (2-D only; inner == nil means 1-D).
func checkPlan(claim string, acc []*access, nPre int, outer, inner *Loop, par *ParSchedule) certify.Certificate {
	if par.Kind == ParWavefront && (par.TileI < 1 || par.TileJ < 1) {
		return certify.Certificate{
			Layer: "plan", Claim: claim, Status: certify.Falsified,
			Detail: fmt.Sprintf("degenerate tile extents %dx%d", par.TileI, par.TileJ),
		}
	}
	// Accesses to one array must agree on every variable other than the
	// scheduled loop variables; those enclosing contributions then
	// cancel out of element equality, and evaluating them as zero is
	// exact. Disagreement would make conflicts depend on the enclosing
	// iteration, which this pointwise check cannot cover.
	scheduled := map[string]bool{outer.Var: true}
	if inner != nil {
		scheduled[inner.Var] = true
	}
	differ := func(x, y map[string]int64) bool {
		for v, cv := range x {
			if !scheduled[v] && y[v] != cv {
				return true
			}
		}
		return false
	}
	ref := map[string]*access{}
	for _, a := range acc {
		r, ok := ref[a.array]
		if !ok {
			ref[a.array] = a
			continue
		}
		af, rf := a.forms(), r.forms()
		for d := range min(len(af), len(rf)) {
			if differ(af[d].t, rf[d].t) || differ(rf[d].t, af[d].t) {
				return certify.Certificate{
					Layer: "plan", Claim: claim, Status: certify.Skipped,
					Detail: fmt.Sprintf("enclosing-variable coefficients differ on %s", a.array),
				}
			}
		}
	}

	clamp := []int64{tripCount(outer.From, outer.To, outer.Step), 1}
	if inner != nil {
		clamp[1] = tripCount(inner.From, inner.To, inner.Step)
	}
	exhaustive := !certify.Clamp(clamp, 0, nil)
	ni, nj := clamp[0], clamp[1]

	// Hoist each subscript's constant and scheduled-variable
	// coefficients out of the per-point walk; enclosing variables
	// cancel (verified above) and are dropped.
	arrIdx := map[string]int{}
	var arrNames []string
	accArr := make([]int, len(acc))
	accSubs := make([][]planSub, len(acc))
	for k, a := range acc {
		id, ok := arrIdx[a.array]
		if !ok {
			id = len(arrNames)
			arrIdx[a.array] = id
			arrNames = append(arrNames, a.array)
		}
		accArr[k] = id
		forms := a.forms()
		subs := make([]planSub, len(forms))
		for d, f := range forms {
			subs[d].c = f.c
			subs[d].co, subs[d].hasO = f.t[outer.Var]
			if inner != nil {
				subs[d].ci, subs[d].hasI = f.t[inner.Var]
			}
		}
		accSubs[k] = subs
	}
	// pack evaluates access k at (vi, vj) into key: the array's index
	// in the access list order, then the subscript values. It reports
	// false when the arithmetic saturated.
	var key []int64
	pack := func(k int, vi, vj int64) bool {
		key = append(key[:0], int64(accArr[k]))
		for _, f := range accSubs[k] {
			var s deptest.SatOps
			v := f.c
			if f.hasO {
				v = s.Add(v, s.Mul(f.co, vi))
			}
			if f.hasI {
				v = s.Add(v, s.Mul(f.ci, vj))
			}
			if s.Overflowed {
				return false
			}
			key = append(key, v)
		}
		return true
	}

	// Index occurrences by element, elements in first-seen order so the
	// conflict scan reports a deterministic counterexample. Size for
	// every occurrence and for one element per array and point of the
	// domain grown by a one-point halo.
	pre, body := int64(nPre), int64(len(acc)-nPre)
	nOcc := min(satAdd(satMul(ni, pre), satMul(satMul(ni, nj), body)), planOccBudget+1)
	halo := ni + 2
	if inner != nil {
		halo = satMul(halo, nj+2)
	}
	nElem := min(satMul(halo, int64(len(arrNames))), nOcc)
	ix := certify.NewElemIndex(1, planElemCap, int(nElem), int(nOcc))
	defer ix.Release()
	occs := make([]planOcc, 0, nOcc)
	capped := false
	sat := false
	addOcc := func(k int, vi, vj int64) bool {
		if !pack(k, vi, vj) {
			sat = true
			return true
		}
		if !ix.Add(key, 0, int32(len(occs))) {
			capped = true
			return true
		}
		occs = append(occs, planOcc{i: vi, j: vj, prefix: k < nPre, write: acc[k].write})
		return len(occs) <= planOccBudget
	}
enumLoop:
	for ki := int64(0); ki < ni; ki++ {
		vi := outer.From + ki*outer.Step
		for k := range nPre {
			if !addOcc(k, vi, 0) {
				break enumLoop
			}
		}
		if inner == nil {
			for k := nPre; k < len(acc); k++ {
				if !addOcc(k, vi, 0) {
					break enumLoop
				}
			}
			continue
		}
		for kj := int64(0); kj < nj; kj++ {
			vj := inner.From + kj*inner.Step
			for k := nPre; k < len(acc); k++ {
				if !addOcc(k, vi, vj) {
					break enumLoop
				}
			}
		}
	}
	if len(occs) > planOccBudget || capped || sat {
		exhaustive = false
	}

	// Tile coordinates (wavefront). Prefix occurrences sit in the row's
	// column-0 tile.
	tileOf := func(p planOcc) (int64, int64) {
		ti := (p.i - outer.From) / par.TileI
		if p.prefix {
			return ti, 0
		}
		return ti, (p.j - inner.From) / par.TileJ
	}
	// before reports sequential execution order of two distinct points.
	before := func(a, b planOcc) bool {
		if a.i != b.i {
			return a.i < b.i
		}
		if a.prefix != b.prefix {
			return a.prefix
		}
		return a.j < b.j
	}
	legal := func(a, b planOcc) bool {
		// Order the pair by sequential execution.
		if before(b, a) {
			a, b = b, a
		}
		switch par.Kind {
		case ParShard:
			return a.i == b.i
		case ParWavefront:
			ai, aj := tileOf(a)
			bi, bj := tileOf(b)
			return ai <= bi && aj <= bj
		}
		return false
	}
	samePoint := func(a, b planOcc) bool {
		return a.i == b.i && a.j == b.j && a.prefix == b.prefix
	}
	for el := range int32(ix.Len()) {
		for x := ix.Head(el, 0); x >= 0; x = ix.Next(x) {
			for y := ix.Next(x); y >= 0; y = ix.Next(y) {
				p, q := occs[ix.Payload(x)], occs[ix.Payload(y)]
				if !p.write && !q.write {
					continue
				}
				if samePoint(p, q) {
					continue // one iteration executes sequentially
				}
				if !legal(p, q) {
					key := ix.Key(el)
					return certify.Certificate{
						Layer: "plan", Claim: claim, Status: certify.Falsified,
						Witness: []int64{p.i, p.j, q.i, q.j},
						Detail:  fmt.Sprintf("conflicting accesses of %s,%s run unordered", arrNames[key[0]], certify.KeyString(key[1:])),
					}
				}
			}
		}
	}
	return certify.Certificate{
		Layer: "plan", Claim: claim, Status: certify.Certified, Exhaustive: exhaustive,
	}
}
