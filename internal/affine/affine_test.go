package affine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"arraycomp/internal/lang"
	"arraycomp/internal/parser"
)

func parse(t *testing.T, src string) lang.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func isIJ(v string) bool { return v == "i" || v == "j" || v == "k" }

func TestEvalInt(t *testing.T) {
	env := map[string]int64{"n": 10, "m": 3}
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"n - 1", 9},
		{"n * m", 30},
		{"n / m", 3},
		{"n mod m", 1},
		{"-n", -10},
		{"min(n, m)", 3},
		{"max(n, m)", 10},
		{"abs(m - n)", 7},
		{"if n > m then n else m", 10},
		{"let h = n / 2 in h + 1", 6},
	}
	for _, c := range cases {
		got, err := EvalInt(parse(t, c.src), env)
		if err != nil {
			t.Errorf("EvalInt(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalInt(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvalIntErrors(t *testing.T) {
	for _, src := range []string{"q", "a!i", "1.5", "n / 0", "sin(n)"} {
		if _, err := EvalInt(parse(t, src), map[string]int64{"n": 1}); err == nil {
			t.Errorf("EvalInt(%q) succeeded, want error", src)
		}
	}
}

func TestEvalBool(t *testing.T) {
	env := map[string]int64{"n": 10}
	cases := []struct {
		src  string
		want bool
	}{
		{"n == 10", true},
		{"n /= 10", false},
		{"n < 11 && n > 9", true},
		{"n < 5 || n >= 10", true},
		{"not (n == 10)", false},
	}
	for _, c := range cases {
		got, err := EvalBool(parse(t, c.src), env)
		if err != nil {
			t.Errorf("EvalBool(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalBool(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestFromExprBasic(t *testing.T) {
	env := map[string]int64{"n": 100}
	cases := []struct {
		src  string
		want string
	}{
		{"i", "0 + i"},
		{"3*i - 1", "-1 + 3*i"},
		{"i + j", "0 + i + j"},
		{"2*(i - j) + n", "100 + 2*i - 2*j"},
		{"n - i", "100 - i"},
		{"i - i", "0"},
		{"7", "7"},
		{"3 * (n / 2)", "150"},
		{"let d = i - 1 in 2*d", "-2 + 2*i"},
		{"-(i + 1)", "-1 - i"},
	}
	for _, c := range cases {
		f, err := FromExpr(parse(t, c.src), isIJ, env)
		if err != nil {
			t.Errorf("FromExpr(%q): %v", c.src, err)
			continue
		}
		if got := f.String(); got != c.want {
			t.Errorf("FromExpr(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestFromExprNotAffine(t *testing.T) {
	env := map[string]int64{"n": 100}
	for _, src := range []string{"i * j", "i / 2", "i mod 2", "a!i", "q + 1", "if i > 0 then i else 0"} {
		_, err := FromExpr(parse(t, src), isIJ, env)
		if err == nil {
			t.Errorf("FromExpr(%q) succeeded, want ErrNotAffine", src)
			continue
		}
		if src != "a!i" && src != "i / 2" && !errors.Is(err, ErrNotAffine) {
			// a!i and i/2 report ErrNotAffine too; all should wrap it
		}
		if !errors.Is(err, ErrNotAffine) && src != "q + 1" {
			t.Errorf("FromExpr(%q) error %v does not wrap ErrNotAffine", src, err)
		}
	}
}

func TestFormAlgebraProperties(t *testing.T) {
	// Check Add/Sub/Scale against evaluation at random points.
	rng := rand.New(rand.NewSource(11))
	randForm := func() Form {
		f := Form{Const: int64(rng.Intn(21) - 10)}
		for _, v := range []string{"i", "j", "k"} {
			if rng.Intn(2) == 0 {
				f.addTerm(v, int64(rng.Intn(9)-4))
			}
		}
		return f
	}
	for trial := 0; trial < 500; trial++ {
		f, g := randForm(), randForm()
		at := map[string]int64{
			"i": int64(rng.Intn(20) - 10),
			"j": int64(rng.Intn(20) - 10),
			"k": int64(rng.Intn(20) - 10),
		}
		kk := int64(rng.Intn(9) - 4)
		if f.Add(g).Eval(at) != f.Eval(at)+g.Eval(at) {
			t.Fatalf("Add broken: %v + %v at %v", f, g, at)
		}
		if f.Sub(g).Eval(at) != f.Eval(at)-g.Eval(at) {
			t.Fatalf("Sub broken: %v − %v at %v", f, g, at)
		}
		if f.Scale(kk).Eval(at) != kk*f.Eval(at) {
			t.Fatalf("Scale broken: %d·%v at %v", kk, f, at)
		}
		if !f.Add(g).Sub(g).Equal(f) {
			t.Fatalf("(f+g)−g ≠ f for %v, %v", f, g)
		}
	}
}

func TestLoopTripAndValueAt(t *testing.T) {
	cases := []struct {
		l      Loop
		trip   int64
		values []int64
	}{
		{Loop{"i", 1, 1, 5}, 5, []int64{1, 2, 3, 4, 5}},
		{Loop{"i", 2, 1, 5}, 4, []int64{2, 3, 4, 5}},
		{Loop{"i", 5, -1, 1}, 5, []int64{5, 4, 3, 2, 1}},
		{Loop{"i", 1, 2, 9}, 5, []int64{1, 3, 5, 7, 9}},
		{Loop{"i", 1, 2, 8}, 4, []int64{1, 3, 5, 7}},
		{Loop{"i", 10, -3, 1}, 4, []int64{10, 7, 4, 1}},
		{Loop{"i", 5, 1, 4}, 0, nil},
		{Loop{"i", 1, -1, 5}, 0, nil},
		{Loop{"i", 3, 1, 3}, 1, []int64{3}},
	}
	for _, c := range cases {
		if got := c.l.Trip(); got != c.trip {
			t.Errorf("%v.Trip() = %d, want %d", c.l, got, c.trip)
			continue
		}
		for p, want := range c.values {
			if got := c.l.ValueAt(int64(p + 1)); got != want {
				t.Errorf("%v.ValueAt(%d) = %d, want %d", c.l, p+1, got, want)
			}
		}
	}
}

func TestLoopFromGenerator(t *testing.T) {
	comp, err := parser.ParseComp("[ i := 0.0 | i <- [n, n-2 .. 1] ]")
	if err != nil {
		t.Fatal(err)
	}
	gen := comp.(*lang.Generator)
	l, err := LoopFromGenerator(gen, map[string]int64{"n": 9})
	if err != nil {
		t.Fatal(err)
	}
	if l.First != 9 || l.Stride != -2 || l.Last != 1 || l.Trip() != 5 {
		t.Errorf("loop = %+v trip %d", l, l.Trip())
	}
}

func TestLoopFromGeneratorZeroStride(t *testing.T) {
	comp, _ := parser.ParseComp("[ i := 0.0 | i <- [3, 3 .. 9] ]")
	gen := comp.(*lang.Generator)
	if _, err := LoopFromGenerator(gen, nil); err == nil {
		t.Error("zero stride must be an error")
	}
}

func TestNestNormalize(t *testing.T) {
	// i <- [2..10], j <- [10,8..2]; form 3i − j + 5.
	nest := Nest{
		{Var: "i", First: 2, Stride: 1, Last: 10},
		{Var: "j", First: 10, Stride: -2, Last: 2},
	}
	f := Form{Const: 5, Coeff: map[string]int64{"i": 3, "j": -1}}
	ref, err := nest.Normalize(f)
	if err != nil {
		t.Fatal(err)
	}
	// Check agreement at every normalized point.
	for p1 := int64(1); p1 <= nest[0].Trip(); p1++ {
		for p2 := int64(1); p2 <= nest[1].Trip(); p2++ {
			src := f.Eval(map[string]int64{"i": nest[0].ValueAt(p1), "j": nest[1].ValueAt(p2)})
			norm, exact := ref.EvalSat([]int64{p1, p2})
			if !exact || src != norm {
				t.Fatalf("normalization mismatch at (%d,%d): src %d, norm %d", p1, p2, src, norm)
			}
		}
	}
}

func TestNestNormalizeUnboundVar(t *testing.T) {
	nest := Nest{{Var: "i", First: 1, Stride: 1, Last: 5}}
	_, err := nest.Normalize(Form{Coeff: map[string]int64{"q": 1}})
	if err == nil {
		t.Error("unbound variable must be an error")
	}
}

// Property: normalization preserves subscript values for random nests
// and forms.
func TestNormalizePropertyQuick(t *testing.T) {
	f := func(c0 int8, ci, cj int8, fi, fj uint8, si, sj int8, ti, tj uint8) bool {
		strideI := int64(si%5) - 2
		strideJ := int64(sj%5) - 2
		if strideI == 0 {
			strideI = 1
		}
		if strideJ == 0 {
			strideJ = 1
		}
		tripI := int64(ti%6) + 1
		tripJ := int64(tj%6) + 1
		li := Loop{Var: "i", First: int64(fi % 20), Stride: strideI}
		li.Last = li.First + (tripI-1)*strideI
		lj := Loop{Var: "j", First: int64(fj % 20), Stride: strideJ}
		lj.Last = lj.First + (tripJ-1)*strideJ
		nest := Nest{li, lj}
		if nest[0].Trip() != tripI || nest[1].Trip() != tripJ {
			return false
		}
		form := Form{Const: int64(c0)}
		form.addTerm("i", int64(ci))
		form.addTerm("j", int64(cj))
		ref, err := nest.Normalize(form)
		if err != nil {
			return false
		}
		for p1 := int64(1); p1 <= tripI; p1++ {
			for p2 := int64(1); p2 <= tripJ; p2++ {
				src := form.Eval(map[string]int64{"i": li.ValueAt(p1), "j": lj.ValueAt(p2)})
				if v, exact := ref.EvalSat([]int64{p1, p2}); !exact || src != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNestHelpers(t *testing.T) {
	nest := Nest{{Var: "i", First: 1, Stride: 1, Last: 4}, {Var: "j", First: 1, Stride: 1, Last: 7}}
	if nest.Index("j") != 1 || nest.Index("q") != -1 {
		t.Error("Nest.Index broken")
	}
	trips := nest.Trips()
	if trips[0] != 4 || trips[1] != 7 {
		t.Errorf("Trips = %v", trips)
	}
}

func TestLoopString(t *testing.T) {
	if got := (Loop{"i", 1, 1, 9}).String(); got != "i <- [1..9]" {
		t.Errorf("String = %q", got)
	}
	if got := (Loop{"i", 9, -2, 1}).String(); got != "i <- [9,7..1]" {
		t.Errorf("String = %q", got)
	}
}

func TestFormEqualEdgeCases(t *testing.T) {
	a := Form{Const: 1, Coeff: map[string]int64{"i": 2}}
	b := Form{Const: 1, Coeff: map[string]int64{"i": 2}}
	if !a.Equal(b) {
		t.Error("identical forms not equal")
	}
	if a.Equal(Form{Const: 2, Coeff: map[string]int64{"i": 2}}) {
		t.Error("different consts equal")
	}
	if a.Equal(Form{Const: 1, Coeff: map[string]int64{"j": 2}}) {
		t.Error("different vars equal")
	}
	if a.Equal(Form{Const: 1, Coeff: map[string]int64{"i": 2, "j": 1}}) {
		t.Error("different arity equal")
	}
}

// TestCompiledRefMatchesEvalSat: at every point of random clamped
// domains, a compiled subscript returns EvalSat's value and exactness.
// The draws straddle 2^40 and the 2^62 saturation bound, and every
// third one puts the domain's extreme value within two of ±2^62, where
// the exactness check decides between plain arithmetic and EvalSat.
func TestCompiledRefMatchesEvalSat(t *testing.T) {
	const bound = int64(1) << 62
	rng := rand.New(rand.NewSource(1))
	near := []int64{0, 1, 7, 1 << 40, bound/5 - 1, bound - 1, bound, bound + 1}
	draw := func() int64 {
		v := near[rng.Intn(len(near))] + rng.Int63n(5) - 2
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	exact := 0
	for trial := 0; trial < 6000; trial++ {
		n := rng.Intn(4)
		clamp := make([]int64, n)
		ref := NormalizedRef{Const: draw(), Coeff: make([]int64, n)}
		for k := range clamp {
			clamp[k] = rng.Int63n(6)
			ref.Coeff[k] = draw()
		}
		if trial%3 == 0 {
			// Every coefficient one sign, so the corner p = clamp
			// reaches |Const| + Σ|c_k|·clamp_k = 2^62 + δ.
			sign, total := int64(1-2*rng.Intn(2)), int64(0)
			for k := range clamp {
				clamp[k] = 1 + rng.Int63n(5)
				c := 1 + rng.Int63n(1<<40)
				ref.Coeff[k] = sign * c
				total += c * clamp[k]
			}
			ref.Const = sign * (bound - total + rng.Int63n(5) - 2)
		}
		c := ref.Compile(clamp)
		if c.Exact() {
			exact++
		}
		pos := make([]int64, n)
		for k := range pos {
			pos[k] = 1
		}
		for points := domainPoints(clamp); points > 0; points-- {
			gv, gok := c.Eval(pos)
			wv, wok := ref.EvalSat(pos)
			if gv != wv || gok != wok {
				t.Fatalf("ref %+v clamp %v at %v: compiled (%d, %v), EvalSat (%d, %v)", ref, clamp, pos, gv, gok, wv, wok)
			}
			k := n - 1
			for ; k >= 0 && pos[k] == clamp[k]; k-- {
				pos[k] = 1
			}
			if k >= 0 {
				pos[k]++
			}
		}
	}
	if exact == 0 {
		t.Fatal("no draw passed the exactness check")
	}
}

// domainPoints counts the points of a clamped domain.
func domainPoints(clamp []int64) int64 {
	n := int64(1)
	for _, m := range clamp {
		n *= m
	}
	return n
}
