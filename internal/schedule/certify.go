package schedule

import (
	"fmt"

	"arraycomp/internal/affine"
	"arraycomp/internal/analysis"
	"arraycomp/internal/certify"
	"arraycomp/internal/lang"
)

// Certification of a static schedule: thunkless legality means every
// dependence source precedes its sink under the emitted order. Rather
// than trusting the dependence edges the schedule was built from (they
// are certified separately by the analysis layer), the check here
// replays the emitted order over a clamped shadow domain and compares
// raw memory accesses:
//
//   - flow: every write of an element of the defined array executes
//     strictly before every read of that element (a read in the same
//     instance means the element depends on itself);
//   - anti (bigupd): every read of a source-array element executes no
//     later than the write that kills it (the same instance is fine —
//     a clause reads its operands before writing);
//   - output: when the definition's semantics are order-sensitive
//     (bigupd, or accumArray with a non-commutative combiner), writes
//     to one element execute in their source list order.
//
// Guards are ignored: they only shrink the instance sets the analysis
// and scheduler reasoned over, so a violation on the unguarded domain
// is a violation of the compiler's actual claim.

// certifyEventBudget caps the simulated instances per schedule.
const certifyEventBudget = 1 << 16

// instEvent is one simulated clause instance. Events are appended in
// execution order, so an event's index is its execution timestamp.
type instEvent struct {
	ci  *clauseInfo
	off int // its normalized positions are pos[off:off+len(ci.nest)]
}

// clauseInfo is what the certifier needs of one clause.
type clauseInfo struct {
	cl *analysis.FlatClause
	// nest holds the loop numbers (schedCertifier.loopIdx) of the
	// clause's enclosing loops, cl.NestNodes.
	nest []int
	// writes are the write subscripts (nil when not affine or not
	// normalizable); reads the affine reads of the defined or source
	// array, in cl.Reads order. Both are compiled for the clause's
	// clamped domain once the loops are clamped.
	writes []affine.CompiledRef
	reads  []readRefs
	// rank is the clause's place in tree order.
	rank int
}

// readRefs is one read's subscripts (nil when not normalizable) and
// the access kind it records.
type readRefs struct {
	refs []affine.CompiledRef
	kind int
}

// Access kinds, the chains of the element index.
const (
	kindWrite = iota
	kindFlow  // read of the defined array
	kindAnti  // bigupd read of the source array
	numKinds
)

// Anti says how a bigupd plan answers for its anti dependences (reads
// of the old contents against the writes that kill them).
type Anti int

const (
	// AntiOrdered: the schedule keeps the anti edges, and Certify
	// claims the emitted order reads every old value before its kill.
	AntiOrdered Anti = iota
	// AntiSplit: the schedule dropped the anti edges (KeepFlowOutput)
	// and node splitting preloads the affected reads, so emitted-order
	// anti legality is recorded as skipped.
	AntiSplit
	// AntiCopied: a copy-update plan reads old values from the kept
	// source, which nothing writes, so there is no anti claim at all.
	AntiCopied
)

// Certify cross-validates a built schedule against the analysis it was
// derived from; anti says how a bigupd's anti dependences are met.
func Certify(res *analysis.Result, sched *Result, anti Anti) *certify.Report {
	rep := certify.NewReport()
	if sched == nil || sched.Thunked {
		return rep // the thunk fallback makes no static-order claims
	}
	c := &schedCertifier{res: res, rep: rep}
	c.prepare()
	c.runNodes(sched.Nodes)
	c.check(anti)
	return rep
}

type schedCertifier struct {
	res *analysis.Result
	rep *certify.Report

	// loopIdx numbers the comprehension tree's loop nodes in tree
	// order; clamp and cur (the current position, 0 outside the loop)
	// are indexed by it.
	loopIdx map[*analysis.TreeNode]int
	clamp   []int64
	cur     []int64
	clamped bool // some loop ran short of its real trip count
	sat     bool // some subscript evaluation saturated
	over    bool // the event budget aborted the simulation

	clauses map[*analysis.FlatClause]*clauseInfo

	events []instEvent
	pos    []int64
}

// prepare numbers the loops and ranks the clauses of the comprehension
// tree in tree order, clamps every loop and compiles the subscript
// forms once per clause for its clamped domain.
func (c *schedCertifier) prepare() {
	c.loopIdx = map[*analysis.TreeNode]int{}
	rank := map[*analysis.FlatClause]int{}
	var walk func(nodes []*analysis.TreeNode)
	walk = func(nodes []*analysis.TreeNode) {
		for _, n := range nodes {
			if n.IsLoop() {
				c.loopIdx[n] = len(c.clamp)
				c.clamp = append(c.clamp, n.Loop.Trip())
				walk(n.Children)
			} else if n.Clause != nil {
				rank[n.Clause] = len(rank)
			}
		}
	}
	walk(c.res.Roots)
	def := c.res.Def
	bigupd := def.Kind == lang.BigUpd
	c.clauses = make(map[*analysis.FlatClause]*clauseInfo, len(c.res.Clauses))
	for _, cl := range c.res.Clauses {
		ci := &clauseInfo{cl: cl, nest: make([]int, len(cl.NestNodes)), rank: rank[cl]}
		for i, tn := range cl.NestNodes {
			k, ok := c.loopIdx[tn]
			if !ok {
				// A loop outside the tree never runs.
				k = len(c.clamp)
				c.loopIdx[tn] = k
				c.clamp = append(c.clamp, 0)
			}
			ci.nest[i] = k
		}
		if cl.WriteAffine {
			ci.writes = c.normalize(cl, cl.WriteForms)
		}
		for _, rd := range cl.Reads {
			if !rd.Affine {
				continue
			}
			var kind int
			switch {
			case rd.Ix.Array == def.Name:
				kind = kindFlow
			case bigupd && rd.Ix.Array == def.Source:
				kind = kindAnti
			default:
				continue
			}
			ci.reads = append(ci.reads, readRefs{c.normalize(cl, rd.Forms), kind})
		}
		c.clauses[cl] = ci
	}
	c.cur = make([]int64, len(c.clamp))
	c.clamped = certify.Clamp(c.clamp, certifyEventBudget, c.estimate)
	for _, ci := range c.clauses {
		clamp := make([]int64, len(ci.nest))
		for i, k := range ci.nest {
			clamp[i] = c.clamp[k]
		}
		compile(ci.writes, clamp)
		for _, rd := range ci.reads {
			compile(rd.refs, clamp)
		}
	}
	// Size the event buffers for one event per clause instance.
	var nEvents, nPos int64
	for _, ci := range c.clauses {
		size := int64(1)
		for _, k := range ci.nest {
			size *= c.clamp[k]
		}
		nEvents += size
		nPos += size * int64(len(ci.nest))
	}
	nEvents = min(nEvents, certifyEventBudget)
	c.events = make([]instEvent, 0, nEvents)
	c.pos = make([]int64, 0, min(nPos, nEvents*int64(len(c.clamp))))
}

// normalize rewrites forms over the clause's normalized positions,
// nil when one is not normalizable; compile compiles them later.
func (c *schedCertifier) normalize(cl *analysis.FlatClause, forms []affine.Form) []affine.CompiledRef {
	out := make([]affine.CompiledRef, len(forms))
	for d, f := range forms {
		ref, err := cl.Nest.Normalize(f)
		if err != nil {
			return nil
		}
		out[d].NormalizedRef = ref
	}
	return out
}

func compile(refs []affine.CompiledRef, clamp []int64) {
	for d := range refs {
		refs[d] = refs[d].Compile(clamp)
	}
}

// estimate sums the instance counts under clamp over all clauses.
func (c *schedCertifier) estimate(clamp []int64) int64 {
	total := int64(0)
	for _, cl := range c.res.Clauses {
		n := int64(1)
		for _, k := range c.clauses[cl].nest {
			m := clamp[k]
			if m < 1 {
				n = 0
				break
			}
			if n > certifyEventBudget/m {
				return certifyEventBudget + 1
			}
			n *= m
		}
		total += n
		if total > certifyEventBudget {
			return total
		}
	}
	return total
}

// listBefore reports whether event a's instance precedes b's in the
// canonical source order: every loop forward, clauses in tree order.
// Instances first differ at a loop both clauses share, or else run
// in the same iteration of every shared loop and follow tree order.
func (c *schedCertifier) listBefore(a, b int32) bool {
	ea, eb := c.events[a], c.events[b]
	pa, pb := c.posOf(ea), c.posOf(eb)
	for n := 0; n < len(pa) && n < len(pb) && ea.ci.nest[n] == eb.ci.nest[n]; n++ {
		if pa[n] != pb[n] {
			return pa[n] < pb[n]
		}
	}
	return ea.ci.rank < eb.ci.rank
}

// runNodes replays the schedule's emitted order, appending one event
// per clause instance.
func (c *schedCertifier) runNodes(nodes []*Node) {
	if c.over {
		return
	}
	for _, n := range nodes {
		if n.Clause != nil {
			if len(c.events) >= certifyEventBudget {
				c.over = true
				return
			}
			ci := c.clauses[n.Clause]
			off := len(c.pos)
			for _, k := range ci.nest {
				c.pos = append(c.pos, c.cur[k])
			}
			c.events = append(c.events, instEvent{ci: ci, off: off})
			continue
		}
		k, ok := c.loopIdx[n.Loop]
		if !ok {
			continue
		}
		m := c.clamp[k]
		if n.Dir == Backward {
			for p := m; p >= 1; p-- {
				c.cur[k] = p
				c.runNodes(n.Body)
			}
		} else {
			for p := int64(1); p <= m; p++ {
				c.cur[k] = p
				c.runNodes(n.Body)
			}
		}
		c.cur[k] = 0
	}
}

func (c *schedCertifier) posOf(ev instEvent) []int64 {
	return c.pos[ev.off : ev.off+len(ev.ci.nest)]
}

// pack evaluates refs at pos into key; false when there are no refs
// or an evaluation saturated (noted in c.sat).
func (c *schedCertifier) pack(key []int64, refs []affine.CompiledRef, pos []int64) ([]int64, bool) {
	if refs == nil {
		return key, false
	}
	key = key[:0]
	for d := range refs {
		v, exact := refs[d].Eval(pos)
		if !exact {
			c.sat = true
			return key, false
		}
		key = append(key, v)
	}
	return key, true
}

// check indexes the simulated accesses by element and validates the
// three order claims. The index's payloads are event indices, that is,
// execution timestamps.
func (c *schedCertifier) check(anti Anti) {
	def := c.res.Def
	bigupd := def.Kind == lang.BigUpd
	orderMatters := bigupd || (def.Kind == lang.Accumulated && !def.Accum.Commutative())

	nAcc := 0
	for _, ev := range c.events {
		nAcc += 1 + len(ev.ci.reads)
	}
	ix := certify.NewElemIndex(numKinds, 0, len(c.events), nAcc)
	defer ix.Release()
	var key []int64
	var nKind [numKinds]int
	for e, ev := range c.events {
		pos := c.posOf(ev)
		var ok bool
		if key, ok = c.pack(key, ev.ci.writes, pos); ok {
			ix.Add(key, kindWrite, int32(e))
			nKind[kindWrite]++
		}
		for _, rd := range ev.ci.reads {
			if key, ok = c.pack(key, rd.refs, pos); ok {
				ix.Add(key, rd.kind, int32(e))
				nKind[rd.kind]++
			}
		}
	}
	// chain walks one element's accesses of one kind.
	chain := func(el int32, kind int, fn func(ev int32) bool) bool {
		for l := ix.Head(el, kind); l >= 0; l = ix.Next(l) {
			if fn(ix.Payload(l)) {
				return true
			}
		}
		return false
	}
	label := func(ev int32) string { return c.events[ev].ci.cl.Label() }

	exhaustive := !c.clamped && !c.sat && !c.over
	name := def.Name
	// record files the claim that the emitted order preserves what; a
	// certified claim is only counted, so only a falsified one is named.
	record := func(what string, bad *[2]int32, detail string) {
		cert := certify.Certificate{Layer: "schedule"}
		if bad != nil {
			cert.Claim = fmt.Sprintf("%s: emitted order preserves %s", name, what)
			cert.Status = certify.Falsified
			cert.Witness = append(append([]int64(nil), c.posOf(c.events[bad[0]])...), c.posOf(c.events[bad[1]])...)
			cert.Detail = detail
		} else {
			cert.Status = certify.Certified
			cert.Exhaustive = exhaustive
		}
		c.rep.Record(cert)
	}

	// Flow: all writes of an element strictly precede all its reads.
	if nKind[kindFlow] > 0 {
		var flowBad *[2]int32
		var flowDetail string
		for el := range int32(ix.Len()) {
			if chain(el, kindFlow, func(r int32) bool {
				return chain(el, kindWrite, func(w int32) bool {
					if w < r {
						return false
					}
					flowBad = &[2]int32{w, r}
					what := "write does not precede read"
					if w == r {
						what = "instance reads the element it writes"
					}
					flowDetail = fmt.Sprintf("%s: %s vs %s at element (%s,)", what, label(w), label(r), certify.KeyString(ix.Key(el)))
					return true
				})
			}) {
				break
			}
		}
		record("flow dependences", flowBad, flowDetail)
	}

	// Anti: reads of the old contents happen no later than the kill.
	if bigupd && anti != AntiCopied {
		if anti == AntiSplit {
			c.rep.Record(certify.Certificate{
				Layer:  "schedule",
				Claim:  fmt.Sprintf("%s: emitted order preserves anti dependences", name),
				Status: certify.Skipped,
				Detail: "anti edges relaxed; node splitting preloads the reads",
			})
		} else if nKind[kindAnti] > 0 {
			var antiBad *[2]int32
			var antiDetail string
			for el := range int32(ix.Len()) {
				if chain(el, kindAnti, func(r int32) bool {
					return chain(el, kindWrite, func(w int32) bool {
						if w >= r {
							return false
						}
						antiBad = &[2]int32{r, w}
						antiDetail = fmt.Sprintf("read of old value in %s after kill in %s at element (%s,)", label(r), label(w), certify.KeyString(ix.Key(el)))
						return true
					})
				}) {
					break
				}
			}
			record("anti dependences", antiBad, antiDetail)
		}
	}

	// Output: order-sensitive colliding writes keep their list order.
	if orderMatters {
		var outBad *[2]int32
		var outDetail string
		collides := false
		for el := range int32(ix.Len()) {
			first := ix.Head(el, kindWrite)
			if first < 0 || ix.Next(first) < 0 {
				continue
			}
			collides = true
			for a := first; a >= 0 && outBad == nil; a = ix.Next(a) {
				for b := ix.Next(a); b >= 0; b = ix.Next(b) {
					x, y := ix.Payload(a), ix.Payload(b)
					if c.listBefore(y, x) {
						x, y = y, x
					}
					if x >= y {
						outBad = &[2]int32{x, y}
						outDetail = fmt.Sprintf("writes of %s and %s out of list order", label(x), label(y))
						break
					}
				}
			}
			if outBad != nil {
				break
			}
		}
		if collides {
			record("write order", outBad, outDetail)
		}
	}
}
