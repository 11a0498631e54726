// Package workloads holds the canonical benchmark programs of the
// reproduction — the paper's worked examples and the LINPACK/Livermore
// fragments its section 9 cites — together with hand-written Go
// implementations (the "Fortran" baselines the paper measures against)
// and naive persistent-update baselines.
package workloads

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"arraycomp/internal/runtime"
)

// --- program sources ---

// SquaresSrc is the introduction's vector of squares.
const SquaresSrc = `sq = array (1,n) [ i := i*i | i <- [1..n] ]`

// StreamChainSrc is E23's ten-definition bounded-distance chain over
// an input vector x: elementwise maps, 3-point smoothing with copied
// ends and carried d=1 recurrences. Every read is a constant-offset
// neighbour, so the stream planner admits the whole pipeline.
func StreamChainSrc() string {
	var sb strings.Builder
	sb.WriteString("letrec* s1 = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ]")
	prev := "s1"
	for k := 2; k <= 10; k++ {
		name := fmt.Sprintf("s%d", k)
		sb.WriteString(";\n  ")
		switch k % 3 {
		case 0: // 3-point smooth, copied edges (reads i-1, i, i+1)
			fmt.Fprintf(&sb, "%[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := (%[2]s!(i-1) + %[2]s!i + %[2]s!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := %[2]s!n ])", name, prev)
		case 1: // carried d=1 recurrence
			fmt.Fprintf(&sb, "%[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := %[1]s!(i-1) * 0.75 + %[2]s!i * 0.25 | i <- [2..n] ])", name, prev)
		case 2: // elementwise map
			fmt.Fprintf(&sb, "%s = array (1,n) [ i := %s!i * 0.5 + 0.25 | i <- [1..n] ]", name, prev)
		}
		prev = name
	}
	fmt.Fprintf(&sb, "\nin %s", prev)
	return sb.String()
}

// RecurrenceSrc is a first-order forward recurrence (flow edge (<)).
const RecurrenceSrc = `a = array (1,n)
  ([ 1 := 1.0 ] ++ [ i := 0.999 * a!(i-1) + 0.5 | i <- [2..n] ])`

// WavefrontSrc is the section 3 wavefront recurrence: north and west
// borders 1, interior the sum of N, NW, W neighbours.
const WavefrontSrc = `a = array ((1,1),(n,n))
  ([ (1,j) := 1.0 | j <- [1..n] ] ++
   [ (i,1) := 1.0 | i <- [2..n] ] ++
   [ (i,j) := 0.3 * a!(i-1,j) + 0.3 * a!(i,j-1) + 0.4 * a!(i-1,j-1)
     | i <- [2..n], j <- [2..n] ])`

// Example1Src is the paper's section 5 example 1 (guard added so the
// first instance is well defined; the dependence structure is
// unchanged).
const Example1Src = `a = array (1,3*n)
  [* [3*i := 2.0] ++
     [3*i-1 := if i == 1 then 1.0 else 0.5 * a!(3*(i-1))] ++
     [3*i-2 := 0.5 * a!(3*i)]
   | i <- [1..n] *]`

// Example2Src matches the edge structure of section 5, example 2:
// 2→1 (=,>), 1→2 (<,>), 2→3 (<). Analysis-only (partial coverage).
const Example2Src = `param n, m;
a = array ((1,0),(2*n, m+1))
  [* ([* [ (2*i, j)   := a!(2*i-1, j+1) ] ++
          [ (2*i-1, j) := a!(2*i-2, j+1) ]
        | j <- [1..m] *]) ++
     [ (2*i, 0) := a!(2*i-3, 1) ]
   | i <- [1..n] *]`

// MixedPassSrc is the section 8.1.2 acyclic A→B(<), B→C(>), A→C(=)
// example: schedulable in two passes.
const MixedPassSrc = `param n;
a = array (1,3*n)
  [* [ i := 1.0 ] ++
     [ n + i := if i == 1 then 1.0 else a!(i-1) ] ++
     [ 2*n + i := (if i == n then 1.0 else a!(n+i+1)) + a!i ]
   | i <- [1..n] *]`

// CyclicSrc is the section 8.1.2 cycle A→B(<), B→A(>): thunk fallback
// required, yet semantically well defined (staggered chain).
const CyclicSrc = `param n;
a = array (1,2*n)
  [* [ i := if i >= n - 1 then 1.0 else a!(n+i+2) + 1.0 ] ++
     [ n + i := if i == 1 then 1.0 else a!(i-1) + 1.0 ]
   | i <- [1..n] *]`

// RowSwapSrc is the LINPACK row interchange of section 9, written with
// a shared generator so node splitting needs only a per-instance
// scalar.
const RowSwapSrc = `param m, n, i0, k0;
a2 = bigupd a
  [* [ (i0,j) := a!(k0,j) ] ++ [ (k0,j) := a!(i0,j) ] | j <- [1..n] *]`

// JacobiSrc is the section 9 Jacobi step: every neighbour read sees
// the old array, forcing node splitting (row snapshots for the inner and
// the outer distance-1 reads).
const JacobiSrc = `param n;
a2 = bigupd a
  [* [ (i,j) := 0.25 * (a!(i-1,j) + a!(i+1,j) + a!(i,j-1) + a!(i,j+1)) ]
   | i <- [2..n-1], j <- [2..n-1] *]`

// SORSrc is the section 9 Gauss-Seidel/SOR step: north/west read the
// new values, south/east the old — all dependences agree with forward
// loops, so the update is purely in place (the Livermore Kernel 23
// wavefront structure).
const SORSrc = `param n;
a2 = bigupd a
  [* [ (i,j) := 0.25 * (a2!(i-1,j) + a2!(i,j-1) + a!(i+1,j) + a!(i,j+1)) ]
   | i <- [2..n-1], j <- [2..n-1] *]`

// Livermore23Src is Livermore Loops Kernel 23 (2-D implicit
// hydrodynamics fragment), which the paper notes has the same
// northwest-to-southeast wavefront structure as SOR. za is updated in
// place from neighbours and coefficient arrays.
const Livermore23Src = `param n;
za2 = bigupd za
  [* [ (j,k) := za!(j,k) + 0.175 *
         (zr!(j,k) * (za2!(j-1,k) - za!(j,k)) +
          zb!(j,k) * (za2!(j,k-1) - za!(j,k)) +
          zu!(j,k) * (za!(j+1,k)  - za!(j,k)) +
          zv!(j,k) * (za!(j,k+1)  - za!(j,k))) ]
   | j <- [2..n-1], k <- [2..n-1] *]`

// ScaleRowSrc scales a matrix row in place (LINPACK DSCAL shape): a
// pure self (=) anti dependence, no copying.
const ScaleRowSrc = `param m, n, i0;
a2 = bigupd a [ (i0,j) := 3.5 * a!(i0,j) | j <- [1..n] ]`

// SaxpyRowSrc adds a multiple of one row to another in place (LINPACK
// DAXPY shape): reads of a different row are never killed.
const SaxpyRowSrc = `param m, n, i0, k0;
a2 = bigupd a [ (k0,j) := a!(k0,j) + 2.0 * a!(i0,j) | j <- [1..n] ]`

// HistogramSrc is the accumArray workload.
const HistogramSrc = `h = accumArray (+) 0.0 (0,99)
  [ (i * 37) mod 100 := 1.0 | i <- [1..n] ]`

// TwoSweeps chains two copies of a one-definition bigupd workload
// `new = bigupd old [...]`. The first sweep, named old+"1", updates the
// caller's old, which the caller keeps, so it compiles to a copy-update
// plan. The second, named new, updates the first's result, which
// nothing reads afterwards, so it compiles in place with node splitting
// (the paper's section 9). Tests and benches use it to reach the
// in-place plan of a dead source.
func TwoSweeps(src string) string {
	m := bigupdHead.FindStringSubmatchIndex(src)
	if m == nil {
		panic("workloads: TwoSweeps needs a `new = bigupd old` definition")
	}
	newName, old := src[m[2]:m[3]], src[m[4]:m[5]]
	mid := old + "1"
	body := src[m[1]:]
	read := func(name string) *regexp.Regexp { return regexp.MustCompile(`\b` + name + `!`) }
	first := read(newName).ReplaceAllString(body, mid+"!")
	second := read(old).ReplaceAllString(body, mid+"!")
	return fmt.Sprintf("%sletrec*\n%s = bigupd %s%s;\n%s = bigupd %s%s\nin %s",
		src[:m[0]], mid, old, first, newName, mid, second, newName)
}

var bigupdHead = regexp.MustCompile(`(\w+) = bigupd (\w+)`)

// --- input builders ---

// Mesh builds a deterministic pseudo-random n×n matrix with bounds
// (1,1)..(n,n).
func Mesh(n int64, seed int64) *runtime.Strict {
	rng := rand.New(rand.NewSource(seed))
	s := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
	for i := range s.Data {
		s.Data[i] = rng.Float64()
	}
	return s
}

// Vector builds a deterministic pseudo-random vector (1..n).
func Vector(n int64, seed int64) *runtime.Strict {
	rng := rand.New(rand.NewSource(seed))
	s := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := range s.Data {
		s.Data[i] = rng.Float64()
	}
	return s
}

// --- hand-written Go baselines (the "Fortran" stand-ins) ---

// HandSquares computes the squares vector with a plain loop.
func HandSquares(n int64) *runtime.Strict {
	out := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := int64(1); i <= n; i++ {
		out.Data[i-1] = float64(i * i)
	}
	return out
}

// HandRecurrence computes RecurrenceSrc with a plain loop.
func HandRecurrence(n int64) *runtime.Strict {
	out := runtime.NewStrict(runtime.NewBounds1(1, n))
	out.Data[0] = 1
	for i := int64(2); i <= n; i++ {
		out.Data[i-1] = 0.999*out.Data[i-2] + 0.5
	}
	return out
}

// HandWavefront computes WavefrontSrc with plain loops.
func HandWavefront(n int64) *runtime.Strict {
	out := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
	at := func(i, j int64) *float64 { return &out.Data[(i-1)*n+(j-1)] }
	for j := int64(1); j <= n; j++ {
		*at(1, j) = 1
	}
	for i := int64(2); i <= n; i++ {
		*at(i, 1) = 1
	}
	for i := int64(2); i <= n; i++ {
		for j := int64(2); j <= n; j++ {
			*at(i, j) = 0.3**at(i-1, j) + 0.3**at(i, j-1) + 0.4**at(i-1, j-1)
		}
	}
	return out
}

// HandRowSwap swaps rows i0 and k0 in place with a scalar temporary —
// the code the paper's node splitting should match.
func HandRowSwap(a *runtime.Strict, i0, k0 int64) {
	n := a.B.Extent(1)
	ri := (i0 - a.B.Lo[0]) * n
	rk := (k0 - a.B.Lo[0]) * n
	for j := int64(0); j < n; j++ {
		t := a.Data[ri+j]
		a.Data[ri+j] = a.Data[rk+j]
		a.Data[rk+j] = t
	}
}

// HandJacobi performs one Jacobi step in place with a previous-row
// buffer and a pipeline scalar — the hand-coded form the paper says
// node splitting should cost no more than.
func HandJacobi(a *runtime.Strict) {
	n := a.B.Extent(0)
	at := func(i, j int64) int64 { return (i-1)*n + (j - 1) }
	prevRow := make([]float64, n+1)
	// prevRow[j] holds the OLD a(i-1, j) while processing row i.
	for j := int64(1); j <= n; j++ {
		prevRow[j] = a.Data[at(1, j)]
	}
	for i := int64(2); i <= n-1; i++ {
		prevLeft := a.Data[at(i, 1)] // old a(i, j-1) pipeline
		for j := int64(2); j <= n-1; j++ {
			old := a.Data[at(i, j)]
			a.Data[at(i, j)] = 0.25 * (prevRow[j] + a.Data[at(i+1, j)] + prevLeft + a.Data[at(i, j+1)])
			prevRow[j] = old
			prevLeft = old
		}
		// Columns outside [2..n-1] keep their old values in prevRow.
		prevRow[1] = a.Data[at(i, 1)]
		prevRow[n] = a.Data[at(i, n)]
	}
}

// HandSOR performs one Gauss-Seidel step in place with plain loops.
func HandSOR(a *runtime.Strict) {
	n := a.B.Extent(0)
	at := func(i, j int64) int64 { return (i-1)*n + (j - 1) }
	for i := int64(2); i <= n-1; i++ {
		for j := int64(2); j <= n-1; j++ {
			a.Data[at(i, j)] = 0.25 * (a.Data[at(i-1, j)] + a.Data[at(i, j-1)] +
				a.Data[at(i+1, j)] + a.Data[at(i, j+1)])
		}
	}
}

// HandLivermore23 performs one Kernel 23 step in place.
func HandLivermore23(za, zr, zb, zu, zv *runtime.Strict) {
	n := za.B.Extent(0)
	at := func(j, k int64) int64 { return (j-1)*n + (k - 1) }
	for j := int64(2); j <= n-1; j++ {
		for k := int64(2); k <= n-1; k++ {
			o := at(j, k)
			za.Data[o] += 0.175 * (zr.Data[o]*(za.Data[at(j-1, k)]-za.Data[o]) +
				zb.Data[o]*(za.Data[at(j, k-1)]-za.Data[o]) +
				zu.Data[o]*(za.Data[at(j+1, k)]-za.Data[o]) +
				zv.Data[o]*(za.Data[at(j, k+1)]-za.Data[o]))
		}
	}
}

// --- naive persistent-update baselines (section 9's strawman) ---

// NaiveJacobiCopying performs one Jacobi step through the persistent
// CopyArray representation: every element update copies the array.
func NaiveJacobiCopying(a *runtime.Strict) *runtime.Strict {
	n := a.B.Extent(0)
	old := runtime.NewCopyArray(a)
	cur := old
	for i := int64(2); i <= n-1; i++ {
		for j := int64(2); j <= n-1; j++ {
			v := 0.25 * (old.At(i-1, j) + old.At(i+1, j) + old.At(i, j-1) + old.At(i, j+1))
			cur = cur.Upd(v, i, j)
		}
	}
	return cur.Freeze()
}

// TrailerJacobi performs one Jacobi step through the trailer
// representation: O(1) per update on the newest version, but every
// read of the original version pays for the trail.
func TrailerJacobi(a *runtime.Strict) *runtime.Strict {
	n := a.B.Extent(0)
	old := runtime.NewVersionArray(a)
	cur := old
	for i := int64(2); i <= n-1; i++ {
		for j := int64(2); j <= n-1; j++ {
			v := 0.25 * (old.At(i-1, j) + old.At(i+1, j) + old.At(i, j-1) + old.At(i, j+1))
			cur = cur.Upd(v, i, j)
		}
	}
	return cur.Freeze()
}

// NaiveRowSwapCopying swaps rows through the CopyArray representation.
func NaiveRowSwapCopying(a *runtime.Strict, i0, k0 int64) *runtime.Strict {
	n := a.B.Extent(1)
	old := runtime.NewCopyArray(a)
	cur := old
	for j := int64(1); j <= n; j++ {
		cur = cur.Upd(old.At(k0, j), i0, j)
		cur = cur.Upd(old.At(i0, j), k0, j)
	}
	return cur.Freeze()
}

// --- deforestation baselines (section 3.1 / E13) ---

// SumProductsListComp simulates the naive TE translation: materialize
// the intermediate list of values, then fold it.
func SumProductsListComp(a, b *runtime.Strict) float64 {
	n := a.B.Size()
	list := make([]float64, 0, n) // the intermediate list TE builds
	for i := int64(0); i < n; i++ {
		list = append(list, a.Data[i]*b.Data[i])
	}
	var acc float64
	for _, v := range list {
		acc += v
	}
	return acc
}

// SumProductsConsList simulates the fully naive translation with an
// actual cons-cell list (one allocation per element).
func SumProductsConsList(a, b *runtime.Strict) float64 {
	type cell struct {
		head float64
		tail *cell
	}
	var head *cell
	n := a.B.Size()
	for i := n - 1; i >= 0; i-- {
		head = &cell{head: a.Data[i] * b.Data[i], tail: head}
	}
	var acc float64
	for c := head; c != nil; c = c.tail {
		acc += c.head
	}
	return acc
}

// SumProductsFused is the deforested tail-recursive loop the paper's
// translation produces: no intermediate list at all.
func SumProductsFused(a, b *runtime.Strict) float64 {
	var acc float64
	for i, av := range a.Data {
		acc += av * b.Data[i]
	}
	return acc
}

// Livermore23Inputs builds the five coefficient/state arrays.
func Livermore23Inputs(n int64) map[string]*runtime.Strict {
	return map[string]*runtime.Strict{
		"za": Mesh(n, 1),
		"zr": Mesh(n, 2),
		"zb": Mesh(n, 3),
		"zu": Mesh(n, 4),
		"zv": Mesh(n, 5),
	}
}

// ParamsFor returns the parameter binding each workload needs.
func ParamsFor(name string, n int64) map[string]int64 {
	switch name {
	case "rowswap", "scalerow", "saxpy":
		return map[string]int64{"m": n, "n": n, "i0": 2, "k0": n - 1}
	case "example2":
		return map[string]int64{"n": n, "m": n}
	default:
		return map[string]int64{"n": n}
	}
}

// MatrixBoundsFor returns InputBounds-style bounds for the n×n inputs.
func MatrixBounds(n int64) (lo, hi []int64) {
	return []int64{1, 1}, []int64{n, n}
}

// CheckClose reports whether two arrays agree within eps, for harness
// self-checks.
func CheckClose(a, b *runtime.Strict, eps float64) error {
	if !a.EqualWithin(b, eps) {
		return fmt.Errorf("workloads: results differ beyond %g", eps)
	}
	return nil
}

// JacobiMonolithicSrc computes a fresh mesh from an input mesh `b`:
// every element depends only on the input, so all loops are
// dependence-free and eligible for the section 10 parallel extension.
const JacobiMonolithicSrc = `param n;
a = array ((1,1),(n,n))
  ([ (1,j) := b!(1,j) | j <- [1..n] ] ++
   [ (n,j) := b!(n,j) | j <- [1..n] ] ++
   [ (i,1) := b!(i,1) | i <- [2..n-1] ] ++
   [ (i,n) := b!(i,n) | i <- [2..n-1] ] ++
   [ (i,j) := 0.25 * (b!(i-1,j) + b!(i+1,j) + b!(i,j-1) + b!(i,j+1))
     | i <- [2..n-1], j <- [2..n-1] ])`

// HandJacobiMonolithic is the hand-written out-of-place step.
func HandJacobiMonolithic(b *runtime.Strict) *runtime.Strict {
	n := b.B.Extent(0)
	out := runtime.NewStrict(b.B)
	at := func(i, j int64) int64 { return (i-1)*n + (j - 1) }
	copy(out.Data, b.Data)
	for i := int64(2); i <= n-1; i++ {
		for j := int64(2); j <= n-1; j++ {
			out.Data[at(i, j)] = 0.25 * (b.Data[at(i-1, j)] + b.Data[at(i+1, j)] +
				b.Data[at(i, j-1)] + b.Data[at(i, j+1)])
		}
	}
	return out
}
