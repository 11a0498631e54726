package affine

import (
	"fmt"

	"arraycomp/internal/lang"
)

// Loop describes one generator of a nest in source terms: the index
// variable runs first, first+stride, …, through last (inclusive when
// hit exactly).
type Loop struct {
	Var    string
	First  int64
	Stride int64
	Last   int64
}

// Trip returns the iteration count of the loop (0 when empty).
func (l Loop) Trip() int64 {
	if l.Stride == 0 {
		return 0
	}
	span := l.Last - l.First
	if l.Stride > 0 {
		if span < 0 {
			return 0
		}
		return span/l.Stride + 1
	}
	if span > 0 {
		return 0
	}
	return span/l.Stride + 1
}

// ValueAt returns the source index value at normalized position
// p ∈ [1..Trip].
func (l Loop) ValueAt(p int64) int64 {
	return l.First + (p-1)*l.Stride
}

// String renders the generator range.
func (l Loop) String() string {
	if l.Stride == 1 {
		return fmt.Sprintf("%s <- [%d..%d]", l.Var, l.First, l.Last)
	}
	return fmt.Sprintf("%s <- [%d,%d..%d]", l.Var, l.First, l.First+l.Stride, l.Last)
}

// LoopFromGenerator evaluates a generator's endpoints under env and
// returns the concrete Loop. The paper's normalization requirement
// ("the surrounding loops can always be put in normalized form") is
// realized here: any arithmetic-sequence generator is accepted.
func LoopFromGenerator(g *lang.Generator, env map[string]int64) (Loop, error) {
	first, err := EvalInt(g.First, env)
	if err != nil {
		return Loop{}, fmt.Errorf("generator %s first: %w", g.Var, err)
	}
	last, err := EvalInt(g.Last, env)
	if err != nil {
		return Loop{}, fmt.Errorf("generator %s last: %w", g.Var, err)
	}
	stride := int64(1)
	if g.Second != nil {
		second, err := EvalInt(g.Second, env)
		if err != nil {
			return Loop{}, fmt.Errorf("generator %s second: %w", g.Var, err)
		}
		stride = second - first
		if stride == 0 {
			return Loop{}, fmt.Errorf("generator %s has zero stride", g.Var)
		}
	}
	return Loop{Var: g.Var, First: first, Stride: stride, Last: last}, nil
}

// Nest is a loop nest, outermost first.
type Nest []Loop

// Index returns the position of the loop binding v, or −1.
func (n Nest) Index(v string) int {
	for i, l := range n {
		if l.Var == v {
			return i
		}
	}
	return -1
}

// Trips returns the per-loop iteration counts.
func (n Nest) Trips() []int64 {
	out := make([]int64, len(n))
	for i, l := range n {
		out[i] = l.Trip()
	}
	return out
}

// NormalizedRef is an affine subscript rewritten over the normalized
// indices of a nest: value = Const + Σ Coeff[k]·p_k with p_k ∈
// [1..n[k].Trip()]. Coefficients are positionally aligned with the
// nest.
type NormalizedRef struct {
	Const int64
	Coeff []int64
}

// evalSatBound is the saturation range for EvalSat, matching the
// dependence tests' ±2^62 working range.
const evalSatBound = int64(1) << 62

// EvalSat evaluates the normalized form with saturating arithmetic,
// clamping into [−2^62, 2^62−1]. The boolean reports whether the
// result is exact; certification layers that re-evaluate subscripts
// at witness points must discard (not trust) inexact evaluations.
func (r NormalizedRef) EvalSat(pos []int64) (int64, bool) {
	clamp := func(v int64) (int64, bool) {
		if v >= evalSatBound {
			return evalSatBound - 1, false
		}
		if v < -evalSatBound {
			return -evalSatBound, false
		}
		return v, true
	}
	out, exact := clamp(r.Const)
	for k, c := range r.Coeff {
		if c == 0 {
			continue
		}
		p := pos[k]
		// |c|, |p| ≤ 2^62 after clamping, so test the product bound
		// before multiplying.
		cc, ok := clamp(c)
		pp, ok2 := clamp(p)
		exact = exact && ok && ok2
		var term int64
		if cc != 0 && pp != 0 {
			aa, bb := cc, pp
			if aa < 0 {
				aa = -aa
			}
			if bb < 0 {
				bb = -bb
			}
			if aa > (evalSatBound-1)/bb {
				exact = false
				if (cc > 0) == (pp > 0) {
					term = evalSatBound - 1
				} else {
					term = -evalSatBound
				}
			} else {
				term = aa * bb
				if (cc > 0) != (pp > 0) {
					term = -term
				}
			}
		}
		var ok3 bool
		out, ok3 = clamp(out + term) // |out|+|term| ≤ 2^63−2: no wrap
		exact = exact && ok3
	}
	return out, exact
}

// CompiledRef is a NormalizedRef compiled for one clamped domain, the
// positions p_k ∈ [1..clamp[k]]: its nonzero coefficients by slot, and
// whether plain int64 arithmetic is exact over the whole domain.
type CompiledRef struct {
	NormalizedRef
	exact bool
	slots []int
	coeff []int64
}

// Compile compiles r for the domain clamp, positionally aligned with
// r.Coeff. The exactness check runs once: |Const| + Σ|Coeff[k]|·clamp[k]
// < 2^62 bounds every partial sum at every point of the domain, so
// EvalSat could neither clamp nor report inexact there.
func (r NormalizedRef) Compile(clamp []int64) CompiledRef {
	c := CompiledRef{NormalizedRef: r, exact: inSatRange(r.Const)}
	acc := max(r.Const, -r.Const)
	for k, a := range r.Coeff {
		if a == 0 {
			continue
		}
		c.slots = append(c.slots, k)
		c.coeff = append(c.coeff, a)
		m := max(clamp[k], 0)
		switch {
		case !c.exact:
		case !inSatRange(a):
			c.exact = false
		case m > 0 && max(a, -a) > (evalSatBound-1-acc)/m:
			c.exact = false
		default:
			acc += max(a, -a) * m
		}
	}
	return c
}

func inSatRange(v int64) bool { return -evalSatBound < v && v < evalSatBound }

// Exact reports whether every point of the compiled domain evaluates
// exactly.
func (c *CompiledRef) Exact() bool { return c.exact }

// Eval evaluates c at pos, a point of the domain it was compiled for,
// with exactly EvalSat's result: plain arithmetic over the nonzero
// slots when the domain passed the exactness check, EvalSat otherwise.
func (c *CompiledRef) Eval(pos []int64) (int64, bool) {
	if !c.exact {
		return c.EvalSat(pos)
	}
	v := c.Const
	for i, k := range c.slots {
		v += c.coeff[i] * pos[k]
	}
	return v, true
}

// Normalize rewrites a source-variable affine form over the nest's
// normalized indices: substituting v = first + (p−1)·stride for each
// loop variable v. Variables in f that are not bound by the nest are
// an error (the caller should have folded parameters into constants).
func (n Nest) Normalize(f Form) (NormalizedRef, error) {
	out := NormalizedRef{Const: f.Const, Coeff: make([]int64, len(n))}
	for v, c := range f.Coeff {
		k := n.Index(v)
		if k < 0 {
			return NormalizedRef{}, fmt.Errorf("affine: variable %q is not bound by the loop nest", v)
		}
		l := n[k]
		// c·v = c·(first − stride) + (c·stride)·p
		out.Const += c * (l.First - l.Stride)
		out.Coeff[k] += c * l.Stride
	}
	return out, nil
}
