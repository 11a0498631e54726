package certify

import (
	"slices"
	"testing"
)

func TestClampHalvesLargestEarliestFirst(t *testing.T) {
	product := func(budget int64) func([]int64) int64 {
		return func(c []int64) int64 { return Points(c, budget) }
	}
	cases := []struct {
		trips   []int64
		budget  int64
		count   func([]int64) int64
		want    []int64
		clamped bool
	}{
		// Within the clamp and the budget: untouched.
		{[]int64{10, 20}, 1 << 16, product(1 << 16), []int64{10, 20}, false},
		// Negative trips read as empty loops, which are not clamped.
		{[]int64{-3, 5}, 1 << 16, product(1 << 16), []int64{0, 5}, false},
		// Clamped to ShadowClamp without halving.
		{[]int64{100, 3}, 1 << 16, product(1 << 16), []int64{64, 3}, true},
		// 64³ over 2^16 halves loop 0 (the earliest of the tied largest)
		// to 32, then loop 1 to 32: 64·32·32 = 2^16.
		{[]int64{64, 64, 64}, 1 << 16, product(1 << 16), []int64{32, 32, 64}, true},
		// A nil count never halves.
		{[]int64{64, 64, 64}, 1, nil, []int64{64, 64, 64}, false},
		// Halving stops once every clamp is 1.
		{[]int64{2, 2}, 0, product(0), []int64{1, 1}, true},
	}
	for _, c := range cases {
		got := slices.Clone(c.trips)
		clamped := Clamp(got, c.budget, c.count)
		if !slices.Equal(got, c.want) || clamped != c.clamped {
			t.Errorf("Clamp(%v, %d) = %v, %v; want %v, %v", c.trips, c.budget, got, clamped, c.want, c.clamped)
		}
	}
}

func TestPoints(t *testing.T) {
	for _, c := range []struct {
		clamp []int64
		limit int64
		want  int64
	}{
		{nil, 10, 1},
		{[]int64{3, 4}, 100, 12},
		{[]int64{64, 64, 64}, 1 << 16, 1<<16 + 1},
		{[]int64{64, 0, 64, 64}, 1 << 16, 0},
		// The product overflows before the zero clamp is reached.
		{[]int64{64, 64, 64, 0}, 1 << 16, 1<<16 + 1},
	} {
		if got := Points(c.clamp, c.limit); got != c.want {
			t.Errorf("Points(%v, %d) = %d, want %d", c.clamp, c.limit, got, c.want)
		}
	}
}

// chain collects element e's kind chain of payloads.
func chain(ix *ElemIndex, e int32, kind int) []int32 {
	var out []int32
	for l := ix.Head(e, kind); l >= 0; l = ix.Next(l) {
		out = append(out, ix.Payload(l))
	}
	return out
}

func TestElemIndexChainsInFirstSeenOrder(t *testing.T) {
	// Start tiny so the table rehashes many times.
	ix := NewElemIndex(2, 0, 0, 0)
	const n = 1000
	for p := int32(0); p < 3*n; p++ {
		v := int64(p % n)
		ix.Add([]int64{v, -v}, int(p/n)%2, p)
	}
	// Keys of another length are other elements.
	ix.Add([]int64{0}, 0, -1)
	if ix.Len() != n+1 {
		t.Fatalf("%d elements, want %d", ix.Len(), n+1)
	}
	for e := int32(0); e < n; e++ {
		if k := ix.Key(e); !slices.Equal(k, []int64{int64(e), -int64(e)}) {
			t.Fatalf("element %d has key %v", e, k)
		}
		if got := chain(ix, e, 0); !slices.Equal(got, []int32{e, 2*n + e}) {
			t.Fatalf("element %d kind 0 chain %v", e, got)
		}
		if got := chain(ix, e, 1); !slices.Equal(got, []int32{n + e}) {
			t.Fatalf("element %d kind 1 chain %v", e, got)
		}
	}
	if got := chain(ix, n, 0); !slices.Equal(got, []int32{-1}) || !slices.Equal(ix.Key(n), []int64{0}) {
		t.Fatalf("short key: chain %v key %v", got, ix.Key(n))
	}
	if KeyString(ix.Key(7)) != "7,-7" {
		t.Fatalf("KeyString = %q", KeyString(ix.Key(7)))
	}
}

func TestElemIndexCap(t *testing.T) {
	ix := NewElemIndex(1, 2, 4, 4)
	key := []int64{5}
	for p, want := range []bool{true, true, false, false} {
		if got := ix.Add(key, 0, int32(p)); got != want {
			t.Fatalf("add %d = %v, want %v", p, got, want)
		}
	}
	if got := chain(ix, 0, 0); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("capped chain %v", got)
	}
}

func TestElemIndexLookupDoesNotAllocate(t *testing.T) {
	ix := NewElemIndex(1, 0, 64, 64)
	key := []int64{1, 2, 3}
	ix.Add(key, 0, 0)
	if a := testing.AllocsPerRun(100, func() { ix.lookup(key) }); a != 0 {
		t.Fatalf("lookup of a known key allocates %v times", a)
	}
}

// TestElemIndexReleaseReuse: an index made from released storage, even
// a larger index's with another kind count, starts empty and numbers
// its elements as a fresh one does.
func TestElemIndexReleaseReuse(t *testing.T) {
	big := NewElemIndex(3, 0, 0, 0)
	for p := int32(0); p < 500; p++ {
		big.Add([]int64{int64(p), 1}, int(p%3), p)
	}
	big.Release()
	for round := 0; round < 3; round++ {
		ix := NewElemIndex(1, 2, 2, 4)
		if ix.Len() != 0 {
			t.Fatalf("round %d: reused index starts with %d elements", round, ix.Len())
		}
		for p, v := range []int64{9, 4, 9, 9, 4} {
			ix.Add([]int64{v}, 0, int32(p))
		}
		if ix.Len() != 2 || !slices.Equal(ix.Key(0), []int64{9}) || !slices.Equal(ix.Key(1), []int64{4}) {
			t.Fatalf("round %d: elements %v, %v", round, ix.Key(0), ix.Key(1))
		}
		if c0, c1 := chain(ix, 0, 0), chain(ix, 1, 0); !slices.Equal(c0, []int32{0, 2}) || !slices.Equal(c1, []int32{1, 4}) {
			t.Fatalf("round %d: chains %v, %v", round, c0, c1)
		}
		ix.Release()
	}
}
