// Package gencomp generates random-but-well-formed array-comprehension
// programs for differential testing. The generator is seeded and
// deterministic: the same seed always yields the same program, so any
// failure found by the fuzzing oracle is reproducible from its seed
// alone.
//
// Programs are built as lang ASTs from a weighted grammar that covers
// the paper's interesting corners on purpose: affine and deliberately
// non-affine subscripts, nested generators, guards, appends, lets,
// negative and non-unit strides, empty ranges, letrec* self-reference
// (recurrences and wavefronts), accumArray with every combiner, bigupd
// chains, and — at low weight — shapes that must fail identically on
// every backend (collisions, empties, out-of-bounds reads, ⊥).
package gencomp

import (
	"fmt"
	"math/rand"

	"arraycomp/internal/analysis"
	"arraycomp/internal/lang"
)

// Program is one generated test case: the AST, its rendered source,
// and everything needed to compile and run it.
type Program struct {
	// Seed reproduces the program via Generate(Seed, cfg).
	Seed uint64
	// Prog is the generated AST (bindings are letrec*, i.e. strict).
	Prog *lang.Program
	// Source is the concrete syntax (lang.ProgramString of Prog); it
	// must re-parse to an equivalent program.
	Source string
	// Params binds every scalar parameter the program declares.
	Params map[string]int64
	// Inputs declares the bounds of the free input arrays the program
	// may read.
	Inputs map[string]analysis.ArrayBounds
}

// Config tunes the generator.
type Config struct {
	// MaxDefs bounds the number of array definitions (default 3).
	MaxDefs int
	// MaxExtent bounds each dimension's extent (default 6).
	MaxExtent int64
	// ErrorWeight is the per-definition permille chance of an
	// error-shaped definition (collision, partial cover, out-of-bounds
	// read, self-⊥). Default 80 (8%). Set 0 for clean programs only.
	ErrorWeight int
	// IdxWeight is the per-program permille chance of appending a
	// subscripted-subscript pair: an index-array definition plus a
	// consumer (gather/scatter/histogram) subscripting through it, with
	// value shapes spanning statically provable, runtime-verifiable,
	// and claim-violating index arrays. Default 0 (off); the idxprop
	// fuzz arm sets it high.
	IdxWeight int
	// AccumWeight is the per-program permille chance, when no
	// subscripted-subscript pair was appended, of appending an
	// accumulation the row kernels run unchecked (accumgen.go): a dense
	// accumArray over unit-step covers or a scatter through an index
	// array, or else two clauses whose writes must keep list order (a
	// non-commutative accumArray or a bigupd) or a recurrence that
	// reads itself d elements back. Default 0 (off) draws
	// nothing, so every other config generates the same programs as
	// before; hacc fuzz sets it.
	AccumWeight int
}

func (c Config) withDefaults() Config {
	if c.MaxDefs <= 0 {
		c.MaxDefs = 3
	}
	if c.MaxExtent <= 0 {
		c.MaxExtent = 6
	}
	if c.ErrorWeight == 0 {
		c.ErrorWeight = 80
	}
	if c.ErrorWeight < 0 {
		c.ErrorWeight = 0
	}
	return c
}

// Generate builds the program for one seed.
func Generate(seed uint64, cfg Config) *Program {
	cfg = cfg.withDefaults()
	g := &gen{
		rng: rand.New(rand.NewSource(int64(seed))),
		cfg: cfg,
		env: map[string]int64{},
	}
	prog := g.program()
	return &Program{
		Seed:   seed,
		Prog:   prog,
		Source: lang.ProgramString(prog),
		Params: g.env,
		Inputs: g.inputs(),
	}
}

// arr is an array visible to later definitions.
type arr struct {
	name   string
	bounds analysis.ArrayBounds
	input  bool
}

type gen struct {
	rng    *rand.Rand
	cfg    Config
	env    map[string]int64
	arrs   []arr
	defs   []*lang.ArrayDef
	varSeq int
}

// vrange is an in-scope integer variable with its concrete range.
type vrange struct {
	name     string
	min, max int64
}

func (g *gen) intn(n int) int { return g.rng.Intn(n) }
func (g *gen) chance(permille int) bool {
	return g.rng.Intn(1000) < permille
}

// pick returns a weighted choice index.
func (g *gen) pick(weights ...int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := g.rng.Intn(total)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

func (g *gen) inputs() map[string]analysis.ArrayBounds {
	out := map[string]analysis.ArrayBounds{}
	for _, a := range g.arrs {
		if a.input {
			out[a.name] = a.bounds
		}
	}
	return out
}

// program generates the whole test case.
func (g *gen) program() *lang.Program {
	// One scalar parameter n, bound to a small extent; bounds
	// expressions reference it about half the time.
	n := 2 + g.rng.Int63n(g.cfg.MaxExtent-1)
	g.env["n"] = n

	// Two free input arrays with generous bounds: a vector and a
	// matrix. Both are always declared and filled by the harness.
	g.arrs = append(g.arrs,
		arr{name: "u", bounds: analysis.ArrayBounds{Lo: []int64{0}, Hi: []int64{n + 2}}, input: true},
		arr{name: "w", bounds: analysis.ArrayBounds{Lo: []int64{0, 0}, Hi: []int64{n + 1, n + 1}}, input: true},
	)

	nDefs := 1 + g.intn(g.cfg.MaxDefs)
	for k := 0; k < nDefs; k++ {
		name := fmt.Sprintf("%c", 'a'+k)
		def := g.arrayDef(name)
		g.defs = append(g.defs, def)
		b := g.boundsOf(def)
		g.arrs = append(g.arrs, arr{name: name, bounds: b})
	}
	if g.cfg.IdxWeight > 0 && g.chance(g.cfg.IdxWeight) {
		k := len(g.defs)
		idxName := fmt.Sprintf("%c", 'a'+k)
		consName := fmt.Sprintf("%c", 'a'+k+1)
		// Appended last so the consumer is the program result: the
		// indirect pair is always live.
		for _, def := range g.indirectDefs(idxName, consName) {
			g.defs = append(g.defs, def)
			g.arrs = append(g.arrs, arr{name: def.Name, bounds: g.boundsOf(def)})
		}
	} else if g.cfg.AccumWeight > 0 && g.chance(g.cfg.AccumWeight) {
		// Appended last, like the pair above, so it is the result.
		for _, def := range g.accumDefs(len(g.defs)) {
			g.defs = append(g.defs, def)
			g.arrs = append(g.arrs, arr{name: def.Name, bounds: g.boundsOf(def)})
		}
	}
	prog := &lang.Program{
		Params: []lang.Param{{Name: "n"}},
		Defs:   g.defs,
		Result: g.defs[len(g.defs)-1].Name,
	}
	return prog
}

// boundsOf evaluates a definition's concrete bounds (bigupd inherits
// its source's).
func (g *gen) boundsOf(def *lang.ArrayDef) analysis.ArrayBounds {
	if def.Kind == lang.BigUpd {
		for _, a := range g.arrs {
			if a.name == def.Source {
				return a.bounds
			}
		}
	}
	b, err := analysis.EvalBounds(def, g.env)
	if err != nil {
		panic(fmt.Sprintf("gencomp: internal: generated unevaluable bounds: %v", err))
	}
	return b
}

// boundExpr renders a concrete bound value as either a literal or an
// expression over the parameter n when the value allows it.
func (g *gen) boundExpr(v int64) lang.Expr {
	n := g.env["n"]
	if v == n && g.chance(500) {
		return lang.Name("n")
	}
	if v == n+1 && g.chance(400) {
		return lang.Add(lang.Name("n"), lang.Num(1))
	}
	if v == n-1 && g.chance(400) {
		return lang.Sub(lang.Name("n"), lang.Num(1))
	}
	return lang.Num(v)
}

// freshBounds picks a rank and concrete bounds for a new array.
func (g *gen) freshBounds() (rank int, lo, hi []int64) {
	rank = 1
	if g.chance(300) {
		rank = 2
	}
	for d := 0; d < rank; d++ {
		l := int64(g.pick(5, 4, 1)) // 0, 1, or 2
		extent := 1 + g.rng.Int63n(g.cfg.MaxExtent)
		if rank == 2 && extent > 5 {
			extent = 5 // keep 2-D sizes small
		}
		lo = append(lo, l)
		hi = append(hi, l+extent-1)
	}
	return rank, lo, hi
}

func (g *gen) langBounds(lo, hi []int64) []lang.Bound {
	var out []lang.Bound
	for d := range lo {
		out = append(out, lang.Bound{Lo: g.boundExpr(lo[d]), Hi: g.boundExpr(hi[d])})
	}
	return out
}

// arrayDef generates one definition.
func (g *gen) arrayDef(name string) *lang.ArrayDef {
	// bigupd requires an existing source; weight it once defs exist.
	bigupdW := 0
	if len(g.arrs) > 2 || g.chance(300) { // inputs alone are legal sources too
		bigupdW = 18
	}
	switch g.pick(60, 18, bigupdW) {
	case 0:
		return g.monolithic(name)
	case 1:
		return g.accumArray(name)
	default:
		return g.bigupd(name)
	}
}

// --- monolithic definitions ---

func (g *gen) monolithic(name string) *lang.ArrayDef {
	rank, lo, hi := g.freshBounds()
	def := &lang.ArrayDef{
		Name:   name,
		Kind:   lang.Monolithic,
		Bounds: g.langBounds(lo, hi),
		Strict: true,
	}
	errShape := g.chance(g.cfg.ErrorWeight)
	if rank == 2 {
		def.Comp = g.monolithic2D(name, lo, hi, errShape)
		return def
	}
	def.Comp = g.monolithic1D(name, lo[0], hi[0], errShape)
	return def
}

// monolithic1D picks one of the 1-D coverage patterns.
func (g *gen) monolithic1D(name string, lo, hi int64, errShape bool) lang.CompNode {
	if errShape {
		return g.errShape1D(name, lo, hi)
	}
	switch g.pick(22, 22, 14, 12, 10, 8, 6, 6) {
	case 0: // plain full cover, ascending
		return g.coverGen(name, lo, hi, false)
	case 1: // forward or backward recurrence with a base clause
		return g.recurrence(name, lo, hi)
	case 2: // full cover, descending generator
		return g.coverGen(name, lo, hi, true)
	case 3: // guard split: even/odd halves via mod guards
		return g.guardSplit(name, lo, hi)
	case 4: // permuted cover: i ↦ lo+hi-i
		v := g.freshVar()
		return g.genNode(v, lo, hi, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Sub(lang.Add(lang.Num(lo), lang.Num(hi)), lang.Name(v))},
			Value: g.value(2, []vrange{{v, lo, hi}}, g.readables(name)),
		})
	case 5: // strided interleave: two stride-2 generators covering all
		return g.strideSplit(name, lo, hi)
	case 6: // cover plus an empty-range appendix
		parts := []lang.CompNode{g.coverGen(name, lo, hi, false)}
		v := g.freshVar()
		parts = append(parts, g.genNode(v, 1, 0, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: lang.Num(99),
		}))
		return &lang.Append{Parts: parts}
	default: // non-affine safe cover: (i*i) mod e + lo over a larger range
		// may collide (quadratic residues); collisions are legitimate
		// error-agreement cases, so this pattern rides the line by
		// construction — use extent 1..2 only, where i*i mod e is
		// injective enough, or accept the occasional collision case.
		e := hi - lo + 1
		v := g.freshVar()
		sub := lang.Add(&lang.BinOp{Op: lang.OpMod, L: lang.Name(v), R: lang.Num(e)}, lang.Num(lo))
		return g.genNode(v, 0, e-1, 1, &lang.Clause{
			Subs:  []lang.Expr{sub},
			Value: g.value(2, []vrange{{v, 0, e - 1}}, g.readables(name)),
		})
	}
}

// errShape1D: deliberately broken definitions — every backend must
// agree on the failure.
func (g *gen) errShape1D(name string, lo, hi int64) lang.CompNode {
	v := g.freshVar()
	switch g.pick(30, 30, 25, 15) {
	case 0: // collision: cover plus one duplicate write
		return &lang.Append{Parts: []lang.CompNode{
			g.coverGen(name, lo, hi, false),
			&lang.Clause{Subs: []lang.Expr{lang.Num(lo)}, Value: lang.Num(7)},
		}}
	case 1: // partial cover: an element never defined
		if hi > lo {
			return g.genNode(v, lo+1, hi, 1, &lang.Clause{
				Subs:  []lang.Expr{lang.Name(v)},
				Value: g.value(2, []vrange{{v, lo + 1, hi}}, g.readables(name)),
			})
		}
		// Single-element array: fall back to a collision.
		return &lang.Append{Parts: []lang.CompNode{
			&lang.Clause{Subs: []lang.Expr{lang.Num(lo)}, Value: lang.Num(1)},
			&lang.Clause{Subs: []lang.Expr{lang.Num(lo)}, Value: lang.Num(2)},
		}}
	case 2: // out-of-bounds write
		return &lang.Append{Parts: []lang.CompNode{
			g.coverGen(name, lo, hi, false),
			&lang.Clause{Subs: []lang.Expr{lang.Num(hi + 1)}, Value: lang.Num(1)},
		}}
	default: // self-⊥: an element that depends on itself
		return g.genNode(v, lo, hi, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: lang.At(name, lang.Name(v)),
		})
	}
}

// coverGen is the canonical full cover [ i := V | i <- [lo..hi] ],
// optionally with a descending generator.
func (g *gen) coverGen(name string, lo, hi int64, desc bool) lang.CompNode {
	v := g.freshVar()
	cl := &lang.Clause{
		Subs:  []lang.Expr{lang.Name(v)},
		Value: g.value(2, []vrange{{v, lo, hi}}, g.readables(name)),
	}
	if desc {
		return g.genNode(v, hi, lo, -1, cl)
	}
	return g.genNode(v, lo, hi, 1, cl)
}

// recurrence builds base ++ step with a self-read of the previous (or
// next) element; direction is random, and the descending direction uses
// a negative-stride generator.
func (g *gen) recurrence(name string, lo, hi int64) lang.CompNode {
	if hi == lo {
		return g.coverGen(name, lo, hi, false)
	}
	v := g.freshVar()
	backward := g.chance(400)
	var base *lang.Clause
	var step lang.CompNode
	if backward {
		base = &lang.Clause{Subs: []lang.Expr{lang.Num(hi)}, Value: g.baseValue()}
		selfRead := lang.At(name, lang.Add(lang.Name(v), lang.Num(1)))
		step = g.genNode(v, hi-1, lo, -1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: g.combine(selfRead, g.value(1, []vrange{{v, lo, hi - 1}}, g.readables(name))),
		})
	} else {
		base = &lang.Clause{Subs: []lang.Expr{lang.Num(lo)}, Value: g.baseValue()}
		selfRead := lang.At(name, lang.Sub(lang.Name(v), lang.Num(1)))
		step = g.genNode(v, lo+1, hi, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: g.combine(selfRead, g.value(1, []vrange{{v, lo + 1, hi}}, g.readables(name))),
		})
	}
	return &lang.Append{Parts: []lang.CompNode{base, step}}
}

// guardSplit covers the range with two guarded clauses (even/odd).
func (g *gen) guardSplit(name string, lo, hi int64) lang.CompNode {
	v1, v2 := g.freshVar(), g.freshVar()
	evenCond := func(v string) lang.Expr {
		return &lang.BinOp{Op: lang.OpEq,
			L: &lang.BinOp{Op: lang.OpMod, L: lang.Name(v), R: lang.Num(2)}, R: lang.Num(0)}
	}
	part := func(v string, even bool) lang.CompNode {
		cond := evenCond(v)
		if !even {
			cond = &lang.UnOp{Op: lang.OpNot, X: cond}
		}
		return &lang.Generator{Var: v, First: lang.Num(lo), Last: lang.Num(hi),
			Body: &lang.Guard{Cond: cond, Body: &lang.Clause{
				Subs:  []lang.Expr{lang.Name(v)},
				Value: g.value(2, []vrange{{v, lo, hi}}, g.readables(name)),
			}}}
	}
	return &lang.Append{Parts: []lang.CompNode{part(v1, true), part(v2, false)}}
}

// strideSplit covers [lo..hi] with two interleaved stride-2 generators.
func (g *gen) strideSplit(name string, lo, hi int64) lang.CompNode {
	if hi == lo {
		return g.coverGen(name, lo, hi, false)
	}
	v1, v2 := g.freshVar(), g.freshVar()
	p1 := &lang.Generator{Var: v1, First: lang.Num(lo), Second: lang.Num(lo + 2), Last: lang.Num(hi),
		Body: &lang.Clause{Subs: []lang.Expr{lang.Name(v1)},
			Value: g.value(2, []vrange{{v1, lo, hi}}, g.readables(name))}}
	p2 := &lang.Generator{Var: v2, First: lang.Num(lo + 1), Second: lang.Num(lo + 3), Last: lang.Num(hi),
		Body: &lang.Clause{Subs: []lang.Expr{lang.Name(v2)},
			Value: g.value(2, []vrange{{v2, lo, hi}}, g.readables(name))}}
	return &lang.Append{Parts: []lang.CompNode{p1, p2}}
}

// monolithic2D: border + interior wavefront, plain nested cover, or a
// transposed cover.
func (g *gen) monolithic2D(name string, lo, hi []int64, errShape bool) lang.CompNode {
	i, j := g.freshVar(), g.freshVar()
	ri := vrange{i, lo[0], hi[0]}
	rj := vrange{j, lo[1], hi[1]}
	if errShape {
		// Interior-only cover: the border stays empty.
		if hi[0] > lo[0] && hi[1] > lo[1] {
			inner := g.genNode(j, lo[1]+1, hi[1], 1, &lang.Clause{
				Subs:  []lang.Expr{lang.Name(i), lang.Name(j)},
				Value: g.value(2, []vrange{ri, rj}, g.readables(name)),
			})
			return g.genNode(i, lo[0]+1, hi[0], 1, inner)
		}
		errShape = false
	}
	if (hi[0] > lo[0] && hi[1] > lo[1]) && g.chance(400) {
		return g.wavefront(name, lo, hi)
	}
	transpose := hi[0]-lo[0] == hi[1]-lo[1] && g.chance(250)
	subs := []lang.Expr{lang.Name(i), lang.Name(j)}
	if transpose {
		subs = []lang.Expr{
			lang.Add(lang.Sub(lang.Name(j), lang.Num(lo[1])), lang.Num(lo[0])),
			lang.Add(lang.Sub(lang.Name(i), lang.Num(lo[0])), lang.Num(lo[1])),
		}
	}
	inner := g.genNode(j, lo[1], hi[1], 1, &lang.Clause{
		Subs:  subs,
		Value: g.value(2, []vrange{ri, rj}, g.readables(name)),
	})
	return g.genNode(i, lo[0], hi[0], 1, inner)
}

// wavefront: first row and first column are bases; the interior reads
// the north and west neighbors.
func (g *gen) wavefront(name string, lo, hi []int64) lang.CompNode {
	i, j := g.freshVar(), g.freshVar()
	row := g.genNode(j, lo[1], hi[1], 1, &lang.Clause{
		Subs:  []lang.Expr{lang.Num(lo[0]), lang.Name(j)},
		Value: g.baseValue(),
	})
	col := g.genNode(i, lo[0]+1, hi[0], 1, &lang.Clause{
		Subs:  []lang.Expr{lang.Name(i), lang.Num(lo[1])},
		Value: g.baseValue(),
	})
	north := lang.At(name, lang.Sub(lang.Name(i), lang.Num(1)), lang.Name(j))
	west := lang.At(name, lang.Name(i), lang.Sub(lang.Name(j), lang.Num(1)))
	interior := g.genNode(i, lo[0]+1, hi[0], 1,
		g.genNode(j, lo[1]+1, hi[1], 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(i), lang.Name(j)},
			Value: g.combine(north, west),
		}))
	return &lang.Append{Parts: []lang.CompNode{row, col, interior}}
}

// --- accumArray definitions ---

var combiners = []string{"+", "+", "+", "max", "min", "*", "right", "left"}

func (g *gen) accumArray(name string) *lang.ArrayDef {
	_, lo, hi := g.freshBounds()
	lo, hi = lo[:1], hi[:1] // accumulations stay rank 1
	e := hi[0] - lo[0] + 1
	comb := combiners[g.intn(len(combiners))]
	init := lang.Expr(lang.Num(0))
	if comb == "*" || comb == "min" {
		init = lang.Num(1)
	}
	def := &lang.ArrayDef{
		Name:   name,
		Kind:   lang.Accumulated,
		Bounds: g.langBounds(lo, hi),
		Accum:  &lang.AccumSpec{Combine: comb, Init: init},
		Strict: true,
	}
	v := g.freshVar()
	span := e + g.rng.Int63n(2*e+1) // scatter range, often > extent
	// Histogram-style scatter: (v mod e) + lo hits elements repeatedly.
	sub := lang.Add(&lang.BinOp{Op: lang.OpMod, L: lang.Name(v), R: lang.Num(e)}, lang.Num(lo[0]))
	val := g.accumValue(comb, v, span)
	cl := &lang.Clause{Subs: []lang.Expr{sub}, Value: val}
	var body lang.CompNode = cl
	if g.chance(250) { // guarded scatter
		body = &lang.Guard{Cond: &lang.BinOp{Op: lang.OpNe,
			L: &lang.BinOp{Op: lang.OpMod, L: lang.Name(v), R: lang.Num(3)}, R: lang.Num(0)}, Body: cl}
	}
	def.Comp = g.genNode(v, 0, span-1, 1, body)
	return def
}

// accumValue keeps combiner-specific exactness: products use powers of
// two (exactly representable over the whole overflow-free range), sums
// use small integers (exact in float64, reassociation-safe).
func (g *gen) accumValue(comb, v string, span int64) lang.Expr {
	switch comb {
	case "*":
		if g.chance(500) {
			return &lang.FloatLit{Value: 0.5}
		}
		return lang.Num(2)
	case "right", "left":
		// Order matters: make each hit distinguishable.
		return lang.Add(lang.Name(v), lang.Num(1))
	default:
		return g.value(1, []vrange{{v, 0, span - 1}}, nil)
	}
}

// --- bigupd definitions ---

func (g *gen) bigupd(name string) *lang.ArrayDef {
	src := g.arrs[g.intn(len(g.arrs))]
	def := &lang.ArrayDef{
		Name:   name,
		Kind:   lang.BigUpd,
		Source: src.name,
		Strict: true,
	}
	b := src.bounds
	if b.Rank() == 1 {
		def.Comp = g.bigupd1D(name, src)
		return def
	}
	// Rank 2: update one row from another row (the paper's row
	// operations), reading old contents.
	j := g.freshVar()
	r0 := b.Lo[0] + g.rng.Int63n(b.Hi[0]-b.Lo[0]+1)
	r1 := b.Lo[0] + g.rng.Int63n(b.Hi[0]-b.Lo[0]+1)
	read := lang.At(src.name, lang.Num(r1), lang.Name(j))
	def.Comp = g.genNode(j, b.Lo[1], b.Hi[1], 1, &lang.Clause{
		Subs:  []lang.Expr{lang.Num(r0), lang.Name(j)},
		Value: g.combine(read, g.value(1, []vrange{{j, b.Lo[1], b.Hi[1]}}, nil)),
	})
	return def
}

func (g *gen) bigupd1D(name string, src arr) lang.CompNode {
	lo, hi := src.bounds.Lo[0], src.bounds.Hi[0]
	v := g.freshVar()
	switch g.pick(40, 30, 20, 10) {
	case 0: // pointwise in-range update reading the old value
		return g.genNode(v, lo, hi, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: g.combine(lang.At(src.name, lang.Name(v)), g.value(1, []vrange{{v, lo, hi}}, nil)),
		})
	case 1: // shift: read the old neighbor (anti dependences; node splitting)
		if hi == lo {
			return g.genNode(v, lo, hi, 1, &lang.Clause{
				Subs: []lang.Expr{lang.Name(v)}, Value: lang.At(src.name, lang.Name(v)),
			})
		}
		return g.genNode(v, lo, hi-1, 1, &lang.Clause{
			Subs:  []lang.Expr{lang.Name(v)},
			Value: g.combine(lang.At(src.name, lang.Add(lang.Name(v), lang.Num(1))), lang.Num(1)),
		})
	case 2: // Gauss-Seidel flavor: read the *new* previous element
		if hi == lo {
			return g.genNode(v, lo, hi, 1, &lang.Clause{
				Subs: []lang.Expr{lang.Name(v)}, Value: lang.At(src.name, lang.Name(v)),
			})
		}
		return g.genNode(v, lo+1, hi, 1, &lang.Clause{
			Subs: []lang.Expr{lang.Name(v)},
			Value: g.combine(
				lang.At(name, lang.Sub(lang.Name(v), lang.Num(1))),
				lang.At(src.name, lang.Name(v))),
		})
	default: // single-element poke
		at := lo + g.rng.Int63n(hi-lo+1)
		return &lang.Clause{Subs: []lang.Expr{lang.Num(at)}, Value: g.value(1, nil, nil)}
	}
}

// --- expressions ---

var varNames = []string{"i", "j", "k", "l", "p", "q"}

func (g *gen) freshVar() string {
	// Generator variables may shadow freely across defs; uniqueness per
	// nest is guaranteed by drawing without replacement per definition
	// in practice (collisions across sibling nests are harmless and
	// legal, but same-nest duplicates are avoided by sequence).
	g.varSeq++
	return varNames[g.varSeq%len(varNames)]
}

// varSeq cycles variable names.
// (declared on gen below via struct extension)

// genNode wraps body in a generator with the given concrete range.
func (g *gen) genNode(v string, first, last, stride int64, body lang.CompNode) lang.CompNode {
	gen := &lang.Generator{Var: v, First: lang.Num(first), Last: lang.Num(last), Body: body}
	if stride != 1 {
		gen.Second = lang.Num(first + stride)
	}
	return gen
}

// combine joins two value expressions with an exactness-preserving
// operator.
func (g *gen) combine(l, r lang.Expr) lang.Expr {
	switch g.pick(45, 25, 15, 15) {
	case 0:
		return lang.Add(l, r)
	case 1:
		return lang.Sub(l, r)
	case 2:
		return &lang.Call{Fn: "max", Args: []lang.Expr{l, r}}
	default:
		return &lang.BinOp{Op: lang.OpMul, L: &lang.FloatLit{Value: 0.5}, R: lang.Add(l, r)}
	}
}

// baseValue is a small leaf constant.
func (g *gen) baseValue() lang.Expr {
	switch g.pick(50, 30, 20) {
	case 0:
		return lang.Num(int64(g.intn(5)))
	case 1:
		return &lang.FloatLit{Value: float64(g.intn(8)) / 2}
	default:
		return lang.Name("n")
	}
}

// readable is an array a value expression may read, with its bounds.
type readable struct {
	name   string
	bounds analysis.ArrayBounds
}

// readables lists every array a definition may read: inputs and all
// previously defined arrays (never the one being defined — self-reads
// are inserted only by the structured patterns, which know how to keep
// them well-founded).
func (g *gen) readables(self string) []readable {
	var out []readable
	for _, a := range g.arrs {
		if a.name != self {
			out = append(out, readable{name: a.name, bounds: a.bounds})
		}
	}
	return out
}

// value generates a value expression of bounded depth over the given
// in-scope variables and readable arrays.
func (g *gen) value(depth int, vars []vrange, reads []readable) lang.Expr {
	if depth <= 0 || g.chance(300) {
		return g.valueLeaf(vars)
	}
	switch g.pick(30, 22, 14, 10, 8, 8, 8) {
	case 0:
		return lang.Add(g.value(depth-1, vars, reads), g.value(depth-1, vars, reads))
	case 1:
		if len(reads) > 0 {
			return g.safeRead(reads[g.intn(len(reads))], vars)
		}
		return g.valueLeaf(vars)
	case 2:
		return lang.Sub(g.value(depth-1, vars, reads), g.value(depth-1, vars, reads))
	case 3:
		return &lang.BinOp{Op: lang.OpMul, L: &lang.FloatLit{Value: 0.5}, R: g.value(depth-1, vars, reads)}
	case 4:
		fn := []string{"max", "min"}[g.intn(2)]
		return &lang.Call{Fn: fn, Args: []lang.Expr{
			g.value(depth-1, vars, reads), g.value(depth-1, vars, reads)}}
	case 5:
		if len(vars) > 0 {
			v := vars[g.intn(len(vars))]
			// Three guard flavors, chosen to exercise the stencil
			// splitter's edge cases: a midpoint split (interior plus
			// boundary strips), an edge equality (1-wide boundary with a
			// maximal interior), and a whole-range-true condition (the
			// guard is constant, resolved in place — no clones at all).
			var cond lang.Expr
			switch g.pick(50, 25, 25) {
			case 0:
				cond = &lang.BinOp{Op: lang.OpLe, L: lang.Name(v.name), R: lang.Num((v.min + v.max) / 2)}
			case 1:
				cond = &lang.BinOp{Op: lang.OpEq, L: lang.Name(v.name), R: lang.Num(v.min)}
			default:
				cond = &lang.BinOp{Op: lang.OpLe, L: lang.Name(v.name), R: lang.Num(v.max)}
			}
			return &lang.Cond{C: cond,
				T: g.value(depth-1, vars, reads),
				E: g.value(depth-1, vars, reads)}
		}
		return g.valueLeaf(vars)
	default:
		// let-bound common subexpression
		rhs := g.value(depth-1, vars, reads)
		body := lang.Add(lang.Name("t"), g.valueLeaf(vars))
		return &lang.Let{Binds: []lang.Binding{{Name: "t", Rhs: rhs}}, Body: body}
	}
}

func (g *gen) valueLeaf(vars []vrange) lang.Expr {
	switch g.pick(35, 25, 20, 20) {
	case 0:
		return lang.Num(int64(g.intn(5)))
	case 1:
		if len(vars) > 0 {
			return lang.Name(vars[g.intn(len(vars))].name)
		}
		return lang.Num(int64(g.intn(5)))
	case 2:
		return &lang.FloatLit{Value: float64(g.intn(16)) / 4}
	default:
		return lang.Name("n")
	}
}

// safeRead builds an in-bounds read of the array: per dimension either
// a clamped affine map of a variable, a mod-clamped map (non-affine on
// purpose), or an in-range constant.
func (g *gen) safeRead(r readable, vars []vrange) lang.Expr {
	subs := make([]lang.Expr, r.bounds.Rank())
	for d := range subs {
		lo, hi := r.bounds.Lo[d], r.bounds.Hi[d]
		e := hi - lo + 1
		var candidates []vrange
		for _, v := range vars {
			if v.min >= 0 {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 || g.chance(250) {
			subs[d] = lang.Num(lo + g.rng.Int63n(e))
			continue
		}
		v := candidates[g.intn(len(candidates))]
		if v.max-v.min <= hi-lo && g.chance(600) {
			// affine shift: v - v.min + lo, provably in bounds
			subs[d] = g.shiftExpr(v, lo)
		} else {
			// non-affine clamp: (v mod e) + lo, in bounds for v ≥ 0
			subs[d] = lang.Add(&lang.BinOp{Op: lang.OpMod, L: lang.Name(v.name), R: lang.Num(e)}, lang.Num(lo))
		}
	}
	return &lang.Index{Array: r.name, Subs: subs}
}

// shiftExpr renders v - v.min + lo without redundant zero terms.
func (g *gen) shiftExpr(v vrange, lo int64) lang.Expr {
	delta := lo - v.min
	switch {
	case delta == 0:
		return lang.Name(v.name)
	case delta > 0:
		return lang.Add(lang.Name(v.name), lang.Num(delta))
	default:
		return lang.Sub(lang.Name(v.name), lang.Num(-delta))
	}
}
