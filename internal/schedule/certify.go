package schedule

import (
	"encoding/binary"
	"fmt"
	"strings"

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

// instEvent is one simulated clause instance.
type instEvent struct {
	ci  *clauseInfo
	off int // its normalized positions are pos[off:off+len(ci.nest)]
	t   int // execution timestamp
}

// clauseInfo is what the certifier needs of one clause.
type clauseInfo struct {
	cl *analysis.FlatClause
	// nest holds the loop numbers (schedCertifier.loopIdx) of the
	// clause's enclosing loops, cl.NestNodes.
	nest []int
	// writes are the normalized write subscripts (nil when not affine
	// or not normalizable); reads the affine reads of the defined or
	// source array, in cl.Reads order.
	writes []affine.NormalizedRef
	reads  []readRefs
	// listTime is the canonical source-list timestamp of each instance,
	// indexed by its mixed-radix position over the nest's clamps.
	listTime []int32
}

// readRefs is one read's normalized subscripts (nil when not
// normalizable) and the access kind it records.
type readRefs struct {
	refs []affine.NormalizedRef
	kind int
}

// Access kinds, indexing elemAccesses.head/tail.
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
	c.simulate(sched)
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
	time   int
}

// prepare clamps every loop of the comprehension tree, normalizes the
// subscript forms once per clause and records the canonical list order.
func (c *schedCertifier) prepare() {
	c.loopIdx = map[*analysis.TreeNode]int{}
	var walk func(nodes []*analysis.TreeNode)
	walk = func(nodes []*analysis.TreeNode) {
		for _, n := range nodes {
			if n.IsLoop() {
				m := n.Loop.Trip()
				if m > certify.ShadowClamp {
					m = certify.ShadowClamp
					c.clamped = true
				}
				c.loopIdx[n] = len(c.clamp)
				c.clamp = append(c.clamp, m)
				walk(n.Children)
			}
		}
	}
	walk(c.res.Roots)
	def := c.res.Def
	bigupd := def.Kind == lang.BigUpd
	c.clauses = make(map[*analysis.FlatClause]*clauseInfo, len(c.res.Clauses))
	for _, cl := range c.res.Clauses {
		ci := &clauseInfo{cl: cl, nest: make([]int, len(cl.NestNodes))}
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
	// Shrink further until the estimated instance count fits, halving
	// the largest clamp; ties go to the earliest loop in tree order.
	for c.estimate() > certifyEventBudget {
		maxK := -1
		for k, m := range c.clamp {
			if maxK < 0 || m > c.clamp[maxK] {
				maxK = k
			}
		}
		if maxK < 0 || c.clamp[maxK] <= 1 {
			break
		}
		c.clamp[maxK] /= 2
		c.clamped = true
	}
	// Canonical source order: all loops forward, clauses in tree order.
	// Size the event buffers for one event per clause instance.
	var nEvents, nPos int64
	for _, ci := range c.clauses {
		size := int64(1)
		for _, k := range ci.nest {
			size *= max(c.clamp[k], 0)
		}
		ci.listTime = make([]int32, size)
		nEvents += size
		nPos += size * int64(len(ci.nest))
	}
	nEvents = min(nEvents, certifyEventBudget)
	c.events = make([]instEvent, 0, nEvents)
	c.pos = make([]int64, 0, min(nPos, nEvents*int64(len(c.clamp))))
	t := int32(0)
	var pos []int64
	var src func(nodes []*analysis.TreeNode)
	src = func(nodes []*analysis.TreeNode) {
		for _, n := range nodes {
			if n.Clause != nil {
				ci := c.clauses[n.Clause]
				pos = pos[:0]
				for _, k := range ci.nest {
					pos = append(pos, c.cur[k])
				}
				if i, ok := c.instIndex(ci, pos); ok {
					ci.listTime[i] = t
				}
				t++
				continue
			}
			k := c.loopIdx[n]
			for p := int64(1); p <= c.clamp[k]; p++ {
				c.cur[k] = p
				src(n.Children)
			}
			c.cur[k] = 0
		}
	}
	src(c.res.Roots)
}

func (c *schedCertifier) normalize(cl *analysis.FlatClause, forms []affine.Form) []affine.NormalizedRef {
	out := make([]affine.NormalizedRef, len(forms))
	for d, f := range forms {
		ref, err := cl.Nest.Normalize(f)
		if err != nil {
			return nil
		}
		out[d] = ref
	}
	return out
}

// estimate sums the clamped instance counts over all clauses.
func (c *schedCertifier) estimate() int64 {
	total := int64(0)
	for _, cl := range c.res.Clauses {
		n := int64(1)
		for _, k := range c.clauses[cl].nest {
			m := c.clamp[k]
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

// instIndex returns the mixed-radix index into ci.listTime of the
// instance at pos (aligned with ci.nest); ok is false when a position
// lies outside its loop's clamp.
func (c *schedCertifier) instIndex(ci *clauseInfo, pos []int64) (int, bool) {
	i := int64(0)
	for n, k := range ci.nest {
		p, m := pos[n], c.clamp[k]
		if p < 1 || p > m {
			return 0, false
		}
		i = i*m + p - 1
	}
	return int(i), true
}

// simulate replays the schedule's emitted order, appending one event
// per clause instance.
func (c *schedCertifier) simulate(sched *Result) {
	c.runNodes(sched.Nodes)
}

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
			c.events = append(c.events, instEvent{ci: ci, off: off, t: c.time})
			c.time++
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

// access is one element access: its event, the event's canonical list
// timestamp, and the next access of the same element and kind (-1 at
// the end).
type access struct {
	ev, listTime, next int32
}

// elemAccesses chains one element's accesses per kind in event order.
type elemAccesses struct {
	key        string // packed subscript values
	head, tail [numKinds]int32
}

// elemIndex buckets accesses by the element they touch. Elements are
// keyed by their subscript values packed as little-endian int64 bytes
// and kept in first-seen order, so the checks visit them, and report
// counterexamples, deterministically. The keys are substrings of one
// append-only arena rather than one allocation each.
type elemIndex struct {
	byKey map[string]int32
	elems []elemAccesses
	acc   []access
	keys  strings.Builder
	buf   []byte
}

// add records one access of kind at the element packed in ix.buf.
func (ix *elemIndex) add(kind int, ev, listTime int32) {
	e, ok := ix.byKey[string(ix.buf)]
	if !ok {
		e = int32(len(ix.elems))
		off := ix.keys.Len()
		ix.keys.Write(ix.buf)
		key := ix.keys.String()[off:]
		ix.byKey[key] = e
		ix.elems = append(ix.elems, elemAccesses{key: key, head: [numKinds]int32{-1, -1, -1}, tail: [numKinds]int32{-1, -1, -1}})
	}
	a := int32(len(ix.acc))
	ix.acc = append(ix.acc, access{ev: ev, listTime: listTime, next: -1})
	el := &ix.elems[e]
	if el.tail[kind] < 0 {
		el.head[kind] = a
	} else {
		ix.acc[el.tail[kind]].next = a
	}
	el.tail[kind] = a
}

// pack evaluates refs at pos into ix.buf; false when there are no refs
// or an evaluation saturated (noted in c.sat).
func (c *schedCertifier) pack(ix *elemIndex, refs []affine.NormalizedRef, pos []int64) bool {
	if refs == nil {
		return false
	}
	ix.buf = ix.buf[:0]
	for _, r := range refs {
		v, exact := r.EvalSat(pos)
		if !exact {
			c.sat = true
			return false
		}
		ix.buf = binary.LittleEndian.AppendUint64(ix.buf, uint64(v))
	}
	return true
}

// elemString renders a packed element key as "v1,v2,…,".
func elemString(key string) string {
	var b strings.Builder
	for i := 0; i+8 <= len(key); i += 8 {
		fmt.Fprintf(&b, "%d,", int64(binary.LittleEndian.Uint64([]byte(key[i:i+8]))))
	}
	return b.String()
}

// check indexes the simulated accesses by element and validates the
// three order claims.
func (c *schedCertifier) check(anti Anti) {
	def := c.res.Def
	bigupd := def.Kind == lang.BigUpd
	orderMatters := bigupd || (def.Kind == lang.Accumulated && !def.Accum.Commutative())

	nAcc := 0
	for _, ev := range c.events {
		nAcc += 1 + len(ev.ci.reads)
	}
	ix := &elemIndex{
		byKey: make(map[string]int32, len(c.events)),
		elems: make([]elemAccesses, 0, len(c.events)),
		acc:   make([]access, 0, nAcc),
	}
	ix.keys.Grow(8 * len(c.events) * max(len(c.res.Bounds.Lo), 1))
	var nKind [numKinds]int
	for e, ev := range c.events {
		pos := c.posOf(ev)
		lt := c.listTimeOf(ev)
		if c.pack(ix, ev.ci.writes, pos) {
			ix.add(kindWrite, int32(e), lt)
			nKind[kindWrite]++
		}
		for _, rd := range ev.ci.reads {
			if c.pack(ix, rd.refs, pos) {
				ix.add(rd.kind, int32(e), lt)
				nKind[rd.kind]++
			}
		}
	}
	// chain walks one element's accesses of one kind.
	chain := func(el *elemAccesses, kind int, fn func(a access) bool) bool {
		for i := el.head[kind]; i >= 0; i = ix.acc[i].next {
			if fn(ix.acc[i]) {
				return true
			}
		}
		return false
	}
	event := func(a access) instEvent { return c.events[a.ev] }

	exhaustive := !c.clamped && !c.sat && !c.over
	name := def.Name
	record := func(claim string, bad *[2]access, detail string) {
		cert := certify.Certificate{Layer: "schedule", Claim: claim}
		if bad != nil {
			cert.Status = certify.Falsified
			cert.Witness = append(append([]int64(nil), c.posOf(event(bad[0]))...), c.posOf(event(bad[1]))...)
			cert.Detail = detail
		} else {
			cert.Status = certify.Certified
			cert.Exhaustive = exhaustive
		}
		c.rep.Record(cert)
	}

	// Flow: all writes of an element strictly precede all its reads.
	if nKind[kindFlow] > 0 {
		var flowBad *[2]access
		var flowDetail string
		for e := range ix.elems {
			el := &ix.elems[e]
			if chain(el, kindFlow, func(r access) bool {
				return chain(el, kindWrite, func(w access) bool {
					we, re := event(w), event(r)
					if we.t < re.t {
						return false
					}
					flowBad = &[2]access{w, r}
					what := "write does not precede read"
					if we.t == re.t {
						what = "instance reads the element it writes"
					}
					flowDetail = fmt.Sprintf("%s: %s vs %s at element (%s)", what, we.ci.cl.Label(), re.ci.cl.Label(), elemString(el.key))
					return true
				})
			}) {
				break
			}
		}
		record(fmt.Sprintf("%s: emitted order preserves flow dependences", name), flowBad, flowDetail)
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
			var antiBad *[2]access
			var antiDetail string
			for e := range ix.elems {
				el := &ix.elems[e]
				if chain(el, kindAnti, func(r access) bool {
					return chain(el, kindWrite, func(w access) bool {
						we, re := event(w), event(r)
						if we.t >= re.t {
							return false
						}
						antiBad = &[2]access{r, w}
						antiDetail = fmt.Sprintf("read of old value in %s after kill in %s at element (%s)", re.ci.cl.Label(), we.ci.cl.Label(), elemString(el.key))
						return true
					})
				}) {
					break
				}
			}
			record(fmt.Sprintf("%s: emitted order preserves anti dependences", name), antiBad, antiDetail)
		}
	}

	// Output: order-sensitive colliding writes keep their list order.
	if orderMatters {
		var outBad *[2]access
		var outDetail string
		collides := false
		for e := range ix.elems {
			el := &ix.elems[e]
			first := el.head[kindWrite]
			if first < 0 || ix.acc[first].next < 0 {
				continue
			}
			collides = true
			if chain(el, kindWrite, func(a access) bool {
				for j := a.next; j >= 0; j = ix.acc[j].next {
					x, y := a, ix.acc[j]
					if y.listTime < x.listTime {
						x, y = y, x
					}
					if event(x).t >= event(y).t {
						outBad = &[2]access{x, y}
						outDetail = fmt.Sprintf("writes of %s and %s out of list order", event(x).ci.cl.Label(), event(y).ci.cl.Label())
						return true
					}
				}
				return false
			}) {
				break
			}
		}
		if collides {
			record(fmt.Sprintf("%s: emitted order preserves write order", name), outBad, outDetail)
		}
	}
}

// listTimeOf recovers the canonical list timestamp of an event (0 for
// an instance outside the canonical walk).
func (c *schedCertifier) listTimeOf(ev instEvent) int32 {
	i, ok := c.instIndex(ev.ci, c.posOf(ev))
	if !ok {
		return 0
	}
	return ev.ci.listTime[i]
}
