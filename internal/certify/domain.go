package certify

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

// The shadow-domain toolkit shared by the certifiers: one clamp for
// every enumeration bound, and one element-access index for the
// certifiers that compare raw accesses element by element.

// Clamp bounds a shadow domain in place. On entry clamp holds each
// loop's real trip count. Each is clamped to [0, ShadowClamp]; then,
// while count reports more than budget points, the largest clamp is
// halved (ties go to the earliest loop) until it fits or every clamp
// is at most 1. A nil count never halves. Clamp reports whether any
// clamp fell below its trip count.
func Clamp(clamp []int64, budget int64, count func(clamp []int64) int64) bool {
	clamped := false
	for k, m := range clamp {
		if m > ShadowClamp {
			clamp[k], clamped = ShadowClamp, true
		}
		clamp[k] = max(clamp[k], 0)
	}
	for count != nil && len(clamp) > 0 && count(clamp) > budget {
		maxK := 0
		for k, m := range clamp {
			if m > clamp[maxK] {
				maxK = k
			}
		}
		if clamp[maxK] <= 1 {
			break
		}
		clamp[maxK] /= 2
		clamped = true
	}
	return clamped
}

// Points multiplies the clamps in loop order. It returns 0 at a zero
// clamp, and limit+1 as soon as the running product exceeds limit.
func Points(clamp []int64, limit int64) int64 {
	n := int64(1)
	for _, m := range clamp {
		if m == 0 {
			return 0
		}
		if n > limit/m {
			return limit + 1
		}
		n *= m
	}
	return n
}

// ElemIndex buckets accesses by the element they touch. Callers pack
// an element as an int64 tuple (subscript values, optionally led by an
// array number), and elements are numbered in first-seen order, so
// checks that visit them in order report counterexamples
// deterministically. Each element keeps one chain per access kind of
// caller payload indices, in the order they were added. Lookups hash
// the tuple in place and do not allocate.
type ElemIndex struct {
	kinds int
	cap   int32   // payloads kept per element (0: unlimited)
	keys  []int64 // element keys, back to back
	elems []elem
	ends  []int32 // head and tail link of element e's kind k at 2*(e*kinds+k)
	links []link
	slots []int32 // open-addressing table of element+1 (0: free)
}

type elem struct{ off, n, count int32 }

type link struct{ payload, next int32 }

// elemIndexes keeps released indexes, so the certifiers of one compile
// (and of the next) reuse one index's storage instead of allocating and
// clearing a fresh table per definition.
var elemIndexes = sync.Pool{New: func() any { return new(ElemIndex) }}

// NewElemIndex returns an index with kinds access kinds and a
// per-element payload cap (0 for none), sized for about elems elements
// and payloads payloads. Its storage may be a released index's.
func NewElemIndex(kinds, perElem, elems, payloads int) *ElemIndex {
	slots := 16
	for slots < 2*elems {
		slots *= 2
	}
	ix := elemIndexes.Get().(*ElemIndex)
	ix.kinds, ix.cap = kinds, int32(perElem)
	ix.keys = ix.keys[:0]
	ix.elems = slices.Grow(ix.elems[:0], elems)
	ix.ends = slices.Grow(ix.ends[:0], 2*kinds*elems)
	ix.links = slices.Grow(ix.links[:0], payloads)
	ix.slots = sizeSlots(ix.slots, slots)
	return ix
}

// sizeSlots returns a cleared table of n slots, in s's storage when it
// has room.
func sizeSlots(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Release hands the index's storage to a later NewElemIndex. The index
// and the keys it returned must not be used afterwards.
func (ix *ElemIndex) Release() { elemIndexes.Put(ix) }

// Add appends payload to the kind chain of the element key, creating
// the element when it is new. It returns false, and adds nothing, when
// the element already holds its cap of payloads.
func (ix *ElemIndex) Add(key []int64, kind int, payload int32) bool {
	e := ix.lookup(key)
	el := &ix.elems[e]
	if ix.cap > 0 && el.count >= ix.cap {
		return false
	}
	el.count++
	l := int32(len(ix.links))
	ix.links = append(ix.links, link{payload, -1})
	end := ix.ends[2*(int(e)*ix.kinds+kind):]
	if end[1] < 0 {
		end[0] = l
	} else {
		ix.links[end[1]].next = l
	}
	end[1] = l
	return true
}

// lookup returns the number of the element key, creating it if needed.
func (ix *ElemIndex) lookup(key []int64) int32 {
	i := ix.probe(key)
	if s := ix.slots[i]; s != 0 {
		return s - 1
	}
	e := int32(len(ix.elems))
	ix.elems = append(ix.elems, elem{off: int32(len(ix.keys)), n: int32(len(key))})
	ix.keys = append(ix.keys, key...)
	for range 2 * ix.kinds {
		ix.ends = append(ix.ends, -1)
	}
	ix.slots[i] = e + 1
	if 2*len(ix.elems) > len(ix.slots) {
		// Grow to keep the table at most half full.
		ix.slots = sizeSlots(ix.slots, 2*len(ix.slots))
		for e := range ix.elems {
			ix.slots[ix.probe(ix.Key(int32(e)))] = int32(e) + 1
		}
	}
	return e
}

// probe returns the slot holding key, or the free slot where it
// belongs.
func (ix *ElemIndex) probe(key []int64) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := ix.slots[i]; s == 0 || slices.Equal(ix.Key(s-1), key) {
			return i
		}
	}
}

// Len returns the number of elements.
func (ix *ElemIndex) Len() int { return len(ix.elems) }

// Key returns element e's tuple.
func (ix *ElemIndex) Key(e int32) []int64 {
	el := ix.elems[e]
	return ix.keys[el.off : el.off+el.n]
}

// Head returns the first link of element e's kind chain, Next the link
// after l (both -1 at the end), and Payload the payload at link l.
func (ix *ElemIndex) Head(e int32, kind int) int32 { return ix.ends[2*(int(e)*ix.kinds+kind)] }
func (ix *ElemIndex) Next(l int32) int32           { return ix.links[l].next }
func (ix *ElemIndex) Payload(l int32) int32        { return ix.links[l].payload }

// KeyString renders a tuple as comma-separated values.
func KeyString(key []int64) string {
	s := make([]string, len(key))
	for i, v := range key {
		s[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(s, ",")
}
