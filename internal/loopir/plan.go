package loopir

// Parallel planning: the optimizer's last pass walks the optimized
// statement tree and attaches a concrete ParSchedule to loops the
// scheduler marked Parallel (no carried dependences at that level) or
// Doacross (carried dependences consistent with the pass direction).
//
// The scheduler's verdicts are per-level and symbolic; this pass
// re-derives the *concrete distance vectors* of every dependence inside
// the candidate nest — bounds, strides and subscript coefficients are
// all integers by now — and picks the strongest legal schedule:
//
//   - no carried conflicts, or only
//     inner-carried ones (di = 0)      → ParShard of the outer loop
//   - all distances component-wise ≥ 0 → ParWavefront (pipelined row
//     bands of cache tiles)
//   - anything else                    → sequential
//
// A schedule is only attached when the trip/work cost model says the
// parallel dispatch (and, for wavefronts, the band waits) will pay for
// itself.

// --- cost model ---

// The model charges abstract work units (the same currency as
// estimateWork; one unit ran in about 1.9 ns on the 2-vCPU host the
// constants were fitted on) for engine overheads: handing a closure to
// a pool worker, and a wavefront band blocking until the band above
// has finished a tile. A schedule is worthwhile when the work it takes
// off the critical path — the loop's total work minus the share its
// longest worker still runs — covers those overheads by parPayoff, so
// small, cheap or poorly balanced loops stay sequential no matter how
// parallel they look. The workers are the compile's worker target.
const (
	parDispatchWork = 1 << 14 // per worker handed a closure
	parSyncWork     = 1 << 14 // per wavefront band waiting on the band above
	parPayoff       = 4       // required saved work : overhead ratio
	parCohortEst    = 4       // worker target when the compile names none
)

// parPays decides a schedule that splits total work into units equal
// parts, of which the longest worker's chain runs path, with workers
// handed a closure and syncs blocking waits.
func parPays(total, units, path, workers, syncs int64) bool {
	saved := float64(total) * float64(units-path) / float64(units)
	overhead := float64(workers-1)*parDispatchWork + float64(syncs)*parSyncWork
	return workers >= 2 && saved >= parPayoff*overhead
}

// parWorthwhile decides sharding: one contiguous chunk of a loop's
// trip iterations, each costing bodyWork, per worker.
func parWorthwhile(trip, bodyWork, workers int64) bool {
	w := min(workers, trip)
	return trip >= 2 && parPays(satMul(trip, bodyWork), trip, (trip+w-1)/w, w, 0)
}

// tileWorthwhile decides a wavefront. Its row bands are dealt
// cyclically and pipeline one tile apart, so its critical path is the
// longest worker's bands plus the pipeline fill, and every band after
// the first may block on the one above. Degenerate shapes (non-positive
// extents or tiles, e.g. from a saturated trip count) never pay.
func tileWorthwhile(ni, nj, bodyWork, tI, tJ, workers int64) bool {
	if ni < 1 || nj < 1 || tI < 1 || tJ < 1 {
		return false
	}
	nti := (ni-1)/tI + 1
	ntj := (nj-1)/tJ + 1
	units := satMul(nti, ntj)
	total := satMul(satMul(ni, nj), bodyWork)
	w := min(workers, nti, ntj)
	path := min(satAdd(satMul((nti+w-1)/w, ntj), w-1), units)
	return parPays(total, units, path, w, nti-1)
}

// chooseTile picks the cache tile extents for an ni×nj nest. Rows:
// roughly 2·workers tiles along the outer dimension so every
// anti-diagonal keeps a cohort of the compile's worker target busy,
// clamped so a tile stays big enough to amortize its dispatch and small
// enough to live in cache. Columns: the full cache-line-friendly
// maximum, since a tile's rows are unit-stride, so wide tiles cost
// nothing extra and cut the number of tiles a band waits on.
func chooseTile(ni, nj, workers int64) (tI, tJ int64) {
	tI = min(max(ni/(2*workers), 8), 64, ni)
	// A non-positive extent (empty or saturated-degenerate nest) must
	// never produce a zero-diagonal tile.
	return max(1, tI), max(1, min(nj, 64))
}

// --- planning walk ---

// planParallel is invoked by Optimize after all other rewrites.
func (o *optimizer) planParallel(stmts []Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			o.planLoop(x)
		case *If:
			o.planParallel(x.Then)
			o.planParallel(x.Else)
		}
	}
}

func (o *optimizer) planLoop(l *Loop) {
	if (l.Parallel || l.Doacross) && o.assignPar(l) {
		o.stats.ParSchedules++
		return // the schedule consumes the whole nest
	}
	o.planParallel(l.Body)
}

// assignPar analyzes a candidate loop and attaches the strongest legal,
// worthwhile schedule. Returns false to fall through to inner loops.
func (o *optimizer) assignPar(l *Loop) bool {
	trip := tripCount(l.From, l.To, l.Step)
	if trip < 2 || trip >= tripSaturated {
		// A saturated trip count means the span defeated int64
		// arithmetic; the distance and cost models are meaningless
		// there, so the nest stays sequential.
		return false
	}
	if inner := nest2D(l); inner != nil {
		return o.assignPar2D(l, inner)
	}
	if hasLoop(l.Body) {
		return false // deeper nests: only the 2-D shape is scheduled
	}
	return o.assignPar1D(l, trip)
}

// nest2D matches the 2-D schedule shape: the last body statement is
// an inner loop and everything before it is a per-row prefix of plain
// assignments. Both loops must step by +1.
func nest2D(l *Loop) *Loop {
	if l.Step != 1 || len(l.Body) == 0 {
		return nil
	}
	inner, ok := l.Body[len(l.Body)-1].(*Loop)
	if !ok || inner.Step != 1 {
		return nil
	}
	for _, s := range l.Body[:len(l.Body)-1] {
		if _, ok := s.(*Assign); !ok {
			return nil
		}
	}
	if hasLoop(inner.Body) {
		return nil
	}
	return inner
}

func hasLoop(stmts []Stmt) bool {
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			return true
		case *If:
			if hasLoop(x.Then) || hasLoop(x.Else) {
				return true
			}
		}
	}
	return false
}

func (o *optimizer) assignPar2D(l, inner *Loop) bool {
	ni := tripCount(l.From, l.To, l.Step)
	nj := tripCount(inner.From, inner.To, inner.Step)
	if ni < 1 || nj < 2 || ni >= tripSaturated || nj >= tripSaturated {
		return false
	}
	pre, okPre := o.planAccesses(l.Body[:len(l.Body)-1])
	body, okBody := o.planAccesses(inner.Body)
	if !okPre || !okBody {
		return false
	}
	// Prefix subscripts may only involve the outer variable.
	for _, a := range pre {
		for _, f := range a.forms() {
			if _, uses := f.t[inner.Var]; uses {
				return false
			}
		}
	}
	dists, ok := pairDistances(append(pre, body...), l.Var, inner.Var,
		loopRange{l.From, l.To, 1}, loopRange{inner.From, inner.To, 1}, len(pre))
	if !ok {
		return false
	}
	rowIndep, nonneg := true, true
	for _, d := range dists {
		if d.di == 0 && d.dj == 0 && !d.prefix && !d.prePre {
			continue // loop-independent; statement order within a point holds
		}
		if d.prePre {
			// Cross-row prefix conflict: only the wavefront preserves
			// full row order, in either direction.
			rowIndep = false
			continue
		}
		if d.prefix {
			// Prefix dependences are directional (prefix first within
			// its row): a conflict with an earlier row's body breaks
			// every 2-D schedule.
			if d.di < 0 {
				nonneg = false
			}
			if d.di != 0 {
				rowIndep = false
			}
			continue
		}
		if d.di < 0 || (d.di == 0 && d.dj < 0) {
			d.di, d.dj = -d.di, -d.dj
		}
		if d.di != 0 {
			rowIndep = false
		}
		if d.di < 0 || d.dj < 0 {
			nonneg = false
		}
	}
	w := o.workers
	switch {
	case rowIndep:
		// No carried dependence, or only inner-carried ones: rows are
		// independent, so sharding the outer loop needs no
		// synchronization and keeps each row's sequential order. On
		// dependence-free stencils, full-width rows also measured
		// faster than square tiles (out-of-place Jacobi at n=384, 2
		// workers: 1.5-1.7x over one worker against 1.3-1.4x).
		if !parWorthwhile(ni, estimateWork(l.Body), w) {
			return false
		}
		l.Par = &ParSchedule{Kind: ParShard}
		return true
	case nonneg:
		// Regular carried dependences, all pointing right/down: a tile
		// may start once the tile above and the tile to its left are
		// done, so row bands pipeline. A prefix conflict with the same
		// or a later row is fine (the column-0 tile of a row band runs
		// before all its other tiles).
		tI, tJ := chooseTile(ni, nj, w)
		if !tileWorthwhile(ni, nj, estimateWork(inner.Body), tI, tJ, w) {
			return false
		}
		l.Par = &ParSchedule{Kind: ParWavefront, TileI: tI, TileJ: tJ}
		return true
	}
	return false
}

func (o *optimizer) assignPar1D(l *Loop, trip int64) bool {
	if !parWorthwhile(trip, estimateWork(l.Body), o.workers) {
		return false
	}
	if !l.Parallel {
		// Doacross: shard only when the concrete distances show no
		// carried conflict after all. A loop that does carry one stays
		// sequential: running its residue-class chains concurrently
		// lost to one worker at every measured size.
		if l.Step != 1 {
			return false
		}
		acc, ok := o.planAccesses(l.Body)
		if !ok {
			return false
		}
		for i := range acc {
			for j := i; j < len(acc); j++ {
				if !acc[i].write && !acc[j].write {
					continue
				}
				if d, kind := dist1D(acc[i], acc[j], l.Var, trip); kind == distUnknown || (kind == distExact && d != 0) {
					return false
				}
			}
		}
	}
	l.Par = &ParSchedule{Kind: ParShard}
	return true
}

// --- access collection ---

// planAccesses filters the access table of stmts down to the element
// accesses a schedule must order, in table order; the bool is false
// when the statements are not schedulable: anything other than pure
// assignments and guards, accumulation, definedness checks or tracked
// arrays, or non-affine subscripts disqualifies the nest. Whole-array
// touches left after that (index loads outside a subscript, verifier
// guards) are not ordered.
func (o *optimizer) planAccesses(stmts []Stmt) ([]*access, bool) {
	t := collectAccesses(stmts, false)
	if t.other {
		return nil, false
	}
	var out []*access
	for i := range t.acc {
		a := &t.acc[i]
		if a.whole {
			continue
		}
		d := o.prog.Decl(a.array)
		if r, ok := a.node.(*ARef); ok && r.CheckDefined {
			return nil, false
		}
		if d == nil || d.TrackDefs || len(a.forms()) != d.B.Rank() || a.accum || a.collide {
			return nil, false
		}
		for _, f := range a.forms() {
			if f == nil {
				return nil, false
			}
		}
		out = append(out, a)
	}
	return out, true
}

// --- distance extraction ---

// parDist is one dependence distance. For prefix conflicts di is the
// inner-statement row minus the prefix row; dj is meaningless then.
// prePre marks a cross-row conflict between two prefix statements —
// legal only under schedules that preserve row order.
type parDist struct {
	di, dj int64
	prefix bool
	prePre bool
}

// pairDistances computes the distance vector of every conflicting
// access pair over the (outerVar, innerVar) iteration space. The first
// nPre accesses are per-row prefix accesses. Returns ok=false when any
// pair's distance cannot be pinned to a unique constant vector — the
// uniform-dependence requirement of the 2-D schedules.
func pairDistances(acc []*access, outerVar, innerVar string, ri, rj loopRange, nPre int) ([]parDist, bool) {
	var out []parDist
	for i := range acc {
		for j := i; j < len(acc); j++ {
			a, b := acc[i], acc[j]
			if a.array != b.array || (!a.write && !b.write) {
				continue
			}
			if j < nPre {
				// Prefix statements of one row always keep their order,
				// but across rows only the wavefront preserves row order
				// (its column-0 tiles sit on distinct, increasing
				// diagonals). Flag any possible cross-row conflict so the
				// unordered schedules are ruled out.
				d1, kind := dist1D(a, b, outerVar, ri.trip())
				if kind == distNone || (kind == distExact && d1 == 0) {
					continue
				}
				out = append(out, parDist{di: d1, prePre: true})
				continue
			}
			// Prefix accesses come first, so a is the prefix one of a
			// prefix-body pair.
			d, kind := dist2D(a, b, i < nPre, outerVar, innerVar, ri, rj)
			switch kind {
			case distNone:
				continue
			case distUnknown:
				return nil, false
			}
			d.prefix = i < nPre
			out = append(out, d)
		}
	}
	return out, true
}

type distKind uint8

const (
	distNone    distKind = iota // the accesses never conflict
	distExact                   // unique constant distance vector
	distUnknown                 // conflicts exist but distances vary
)

// parCon is one per-dimension conflict constraint: ai·di + aj·dj = rhs.
type parCon struct{ ai, aj, rhs int64 }

// dist2D solves, per dimension, ai·di + aj·dj = Δc for the unique
// distance (di,dj) = (iteration of b − iteration of a). Subscript
// coefficients must agree between the two accesses (uniform
// dependences); terms over enclosing loop variables must cancel. When a
// is a prefix access (aPrefix) its inner-variable coefficient is zero
// and the second unknown is the absolute inner position of the
// conflict, range-checked instead of distance-checked.
func dist2D(a, b *access, aPrefix bool, outerVar, innerVar string, ri, rj loopRange) (parDist, distKind) {
	ni, nj := ri.trip(), rj.trip()
	var cons []parCon
	sa, sb := a.forms(), b.forms()
	for k := range sa {
		fa, fb := sa[k], sb[k]
		ai := fb.t[outerVar]
		aj := fb.t[innerVar]
		if fa.t[outerVar] != ai || (!aPrefix && fa.t[innerVar] != aj) {
			return parDist{}, distUnknown
		}
		// Every other variable (enclosing loops) must contribute
		// identically to both sides.
		for v, c := range fa.t {
			if v != outerVar && v != innerVar && fb.t[v] != c {
				return parDist{}, distUnknown
			}
		}
		for v, c := range fb.t {
			if v != outerVar && v != innerVar && fa.t[v] != c {
				return parDist{}, distUnknown
			}
		}
		rhs := fa.c - fb.c
		if ai == 0 && aj == 0 {
			if rhs != 0 {
				return parDist{}, distNone
			}
			continue
		}
		cons = append(cons, parCon{ai, aj, rhs})
	}
	if aPrefix {
		return solvePrefix(cons, ri, rj)
	}
	if len(cons) == 0 {
		// A constant element touched by every iteration pair: distances
		// take every value.
		return parDist{}, distUnknown
	}
	// Solve the first two independent constraints, verify the rest.
	var di, dj int64
	solved := false
	for x := 0; x < len(cons) && !solved; x++ {
		for y := x + 1; y < len(cons) && !solved; y++ {
			det := cons[x].ai*cons[y].aj - cons[y].ai*cons[x].aj
			if det == 0 {
				continue
			}
			pi := cons[x].rhs*cons[y].aj - cons[y].rhs*cons[x].aj
			pj := cons[x].ai*cons[y].rhs - cons[y].ai*cons[x].rhs
			if pi%det != 0 || pj%det != 0 {
				return parDist{}, distNone
			}
			di, dj = pi/det, pj/det
			solved = true
		}
	}
	if !solved {
		// All constraints parallel: a whole line of distances solves
		// the system, so the dependence is not uniform.
		return parDist{}, distUnknown
	}
	for _, c := range cons {
		if c.ai*di+c.aj*dj != c.rhs {
			return parDist{}, distNone
		}
	}
	if di <= -ni || di >= ni || dj <= -nj || dj >= nj {
		return parDist{}, distNone // unreachable within this nest
	}
	return parDist{di: di, dj: dj}, distExact
}

// solvePrefix resolves a prefix-vs-body conflict: the unknowns are the
// row distance di and the absolute inner variable value j* at which the
// body access touches the prefix element.
func solvePrefix(cons []parCon, ri, rj loopRange) (parDist, distKind) {
	ni := ri.trip()
	var di, jstar int64
	haveI, haveJ := false, false
	for _, c := range cons {
		switch {
		case c.ai != 0 && c.aj == 0:
			if c.rhs%c.ai != 0 {
				return parDist{}, distNone
			}
			v := c.rhs / c.ai
			if haveI && v != di {
				return parDist{}, distNone
			}
			di, haveI = v, true
		case c.ai == 0 && c.aj != 0:
			if c.rhs%c.aj != 0 {
				return parDist{}, distNone
			}
			v := c.rhs / c.aj
			if haveJ && v != jstar {
				return parDist{}, distNone
			}
			jstar, haveJ = v, true
		default: // mixed constraint: di and j* trade off, not uniform
			return parDist{}, distUnknown
		}
	}
	if !haveI || !haveJ {
		return parDist{}, distUnknown
	}
	if jstar < rj.from || jstar > rj.to {
		return parDist{}, distNone // conflict column outside the nest
	}
	if di <= -ni || di >= ni {
		return parDist{}, distNone
	}
	return parDist{di: di}, distExact
}

// dist1D is the one-variable analogue: a·d = Δc across every dimension.
func dist1D(a, b *access, loopVar string, trip int64) (int64, distKind) {
	var d int64
	have := false
	sa, sb := a.forms(), b.forms()
	for k := range sa {
		fa, fb := sa[k], sb[k]
		av := fb.t[loopVar]
		if fa.t[loopVar] != av {
			return 0, distUnknown
		}
		for v, c := range fa.t {
			if v != loopVar && fb.t[v] != c {
				return 0, distUnknown
			}
		}
		for v, c := range fb.t {
			if v != loopVar && fa.t[v] != c {
				return 0, distUnknown
			}
		}
		rhs := fa.c - fb.c
		if av == 0 {
			if rhs != 0 {
				return 0, distNone
			}
			continue
		}
		if rhs%av != 0 {
			return 0, distNone
		}
		v := rhs / av
		if have && v != d {
			return 0, distNone
		}
		d, have = v, true
	}
	if !have {
		return 0, distUnknown
	}
	if d <= -trip || d >= trip {
		return 0, distNone
	}
	return d, distExact
}
