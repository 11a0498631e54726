package workloads

import (
	"math/rand"

	"arraycomp/internal/runtime"
)

// Irregular (subscripted-subscript) workloads: the index arrays arrive
// as inputs, so none of their properties are provable statically — the
// compiler emits claim-conditional plans and a one-pass runtime
// verifier decides, per execution, whether the unchecked parallel fast
// path is admissible. These are the reproduction's stand-ins for the
// sparse/irregular kernels that motivated subscripted-subscript
// parallelization (Bhosale & Eigenmann): SpMV over CSR-ordered
// triples, data-dependent histogram binning, and neighbor gathers
// through an adjacency list.

// SpMVSrc is sparse matrix-vector multiply over CSR-ordered entries:
// entry k contributes v(k)·x(col(k)) to row row(k). With row verified
// monotone (CSR order) and in range, the accumulation parallelizes by
// sharding rows at entry boundaries; col needs only a range claim for
// the unchecked gather from x.
const SpMVSrc = `param n, nnz;
y = accumArray (+) 0.0 (1,n)
  [ row!(k) := v!(k) * x!(col!(k)) | k <- [1..nnz] ]`

// HistogramIdxSrc bins n samples through a data-dependent bucket
// array — the irregular cousin of HistogramSrc, whose bucket map is a
// closed-form expression.
const HistogramIdxSrc = `param n, b;
h = accumArray (+) 0.0 (1,b) [ bkt!(k) := 1.0 | k <- [1..n] ]`

// AdjGatherSrc gathers each vertex's neighbor value through an
// adjacency (edge-endpoint) array: a pure indirect read, needing only
// a range claim to run unchecked.
const AdjGatherSrc = `param n, m;
g = array (1,m) [ j := x!(adj!(j)) | j <- [1..m] ]`

// PermuteSrc scatters x through a permutation p: the untracked
// parallel store is sound only under verified injectivity (plus
// range), making it the smallest workload that exercises the
// injectivity verifier.
const PermuteSrc = `param n;
s = array (1,n) [ p!(i) := x!(i) | i <- [1..n] ]`

// SparseCase bundles one irregular workload instance.
type SparseCase struct {
	Params map[string]int64
	Inputs map[string]*runtime.Strict
}

func intArray(lo, hi int64, vals []int64) *runtime.Strict {
	a := runtime.NewStrict(runtime.NewBounds1(lo, hi))
	for i, v := range vals {
		a.Data[i] = float64(v)
	}
	return a
}

// CSRInputs builds a CSR-ordered sparse matrix with about avgDeg
// entries per row (row monotone non-decreasing, col uniform in 1..n)
// and a dense vector x. Deterministic in (n, avgDeg, seed).
func CSRInputs(n, avgDeg, seed int64) SparseCase {
	rng := rand.New(rand.NewSource(seed))
	var rows, cols []int64
	for i := int64(1); i <= n; i++ {
		deg := 1 + rng.Int63n(2*avgDeg-1)
		for d := int64(0); d < deg; d++ {
			rows = append(rows, i)
			cols = append(cols, 1+rng.Int63n(n))
		}
	}
	nnz := int64(len(rows))
	v := runtime.NewStrict(runtime.NewBounds1(1, nnz))
	for i := range v.Data {
		v.Data[i] = rng.Float64()
	}
	x := Vector(n, seed+1)
	return SparseCase{
		Params: map[string]int64{"n": n, "nnz": nnz},
		Inputs: map[string]*runtime.Strict{
			"row": intArray(1, nnz, rows),
			"col": intArray(1, nnz, cols),
			"v":   v,
			"x":   x,
		},
	}
}

// ShuffleRows returns a copy of a CSR case with its entries permuted
// into a random (non-CSR) order: the same matrix, but the row array is
// no longer monotone, so runtime verification fails and execution must
// fall back to the checked sequential path — with the same result.
func ShuffleRows(c SparseCase, seed int64) SparseCase {
	rng := rand.New(rand.NewSource(seed))
	nnz := c.Params["nnz"]
	perm := rng.Perm(int(nnz))
	out := SparseCase{Params: c.Params, Inputs: map[string]*runtime.Strict{"x": c.Inputs["x"]}}
	for _, name := range []string{"row", "col", "v"} {
		src := c.Inputs[name]
		dst := runtime.NewStrict(src.B)
		for i, p := range perm {
			dst.Data[i] = src.Data[p]
		}
		out.Inputs[name] = dst
	}
	return out
}

// HistogramIdxInputs builds n samples binned into b buckets. With
// sorted set, the bucket array is monotone (pre-bucketed samples), so
// the accumulation runs as an aligned shard; unsorted exercises the
// fallback.
func HistogramIdxInputs(n, b, seed int64, sorted bool) SparseCase {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1 + rng.Int63n(b)
	}
	if sorted {
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
	}
	return SparseCase{
		Params: map[string]int64{"n": n, "b": b},
		Inputs: map[string]*runtime.Strict{"bkt": intArray(1, n, vals)},
	}
}

// AdjInputs builds an m-edge adjacency-endpoint array over n vertices
// plus the vertex value vector.
func AdjInputs(n, m, seed int64) SparseCase {
	rng := rand.New(rand.NewSource(seed))
	adj := make([]int64, m)
	for i := range adj {
		adj[i] = 1 + rng.Int63n(n)
	}
	return SparseCase{
		Params: map[string]int64{"n": n, "m": m},
		Inputs: map[string]*runtime.Strict{
			"adj": intArray(1, m, adj),
			"x":   Vector(n, seed+1),
		},
	}
}

// PermuteInputs builds a random permutation of 1..n and the vector to
// scatter through it.
func PermuteInputs(n, seed int64) SparseCase {
	rng := rand.New(rand.NewSource(seed))
	p := make([]int64, n)
	for i, v := range rng.Perm(int(n)) {
		p[i] = int64(v) + 1
	}
	return SparseCase{
		Params: map[string]int64{"n": n},
		Inputs: map[string]*runtime.Strict{
			"p": intArray(1, n, p),
			"x": Vector(n, seed+1),
		},
	}
}

// --- hand-written baselines ---

// HandSpMV accumulates the CSR entries in order.
func HandSpMV(c SparseCase) *runtime.Strict {
	n := c.Params["n"]
	row, col := c.Inputs["row"], c.Inputs["col"]
	v, x := c.Inputs["v"], c.Inputs["x"]
	y := runtime.NewStrict(runtime.NewBounds1(1, n))
	for k := range row.Data {
		r := int64(row.Data[k])
		cI := int64(col.Data[k])
		y.Data[r-1] += v.Data[k] * x.Data[cI-1]
	}
	return y
}

// HandHistogramIdx counts samples per bucket.
func HandHistogramIdx(c SparseCase) *runtime.Strict {
	b := c.Params["b"]
	bkt := c.Inputs["bkt"]
	h := runtime.NewStrict(runtime.NewBounds1(1, b))
	for _, v := range bkt.Data {
		h.Data[int64(v)-1]++
	}
	return h
}

// HandAdjGather gathers neighbor values.
func HandAdjGather(c SparseCase) *runtime.Strict {
	m := c.Params["m"]
	adj, x := c.Inputs["adj"], c.Inputs["x"]
	g := runtime.NewStrict(runtime.NewBounds1(1, m))
	for j := range adj.Data {
		g.Data[j] = x.Data[int64(adj.Data[j])-1]
	}
	return g
}

// HandPermute scatters x through the permutation.
func HandPermute(c SparseCase) *runtime.Strict {
	p, x := c.Inputs["p"], c.Inputs["x"]
	s := runtime.NewStrict(x.B)
	for i := range p.Data {
		s.Data[int64(p.Data[i])-1] = x.Data[i]
	}
	return s
}
