package analysis

import (
	"strings"
	"testing"

	"arraycomp/internal/certify"
	"arraycomp/internal/parser"
	"arraycomp/internal/workloads"
)

// certifySrc analyzes a source program and certifies the result.
func certifySrc(t *testing.T, src string, env map[string]int64) (*Result, *certify.Report) {
	t.Helper()
	res := analyzeSrc(t, src, env)
	return res, Certify(res)
}

func TestCertifyPaperExample1(t *testing.T) {
	src := `a = array (1,300)
	  [* [3*i := 1.0] ++
	     [3*i-1 := 0.5 * a!(3*(i-1))] ++
	     [3*i-2 := 0.5 * a!(3*i)]
	   | i <- [1..100] *]`
	_, rep := certifySrc(t, src, nil)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("sound analysis falsified:\n%s", rep)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("no claims certified: %s", rep.Summary())
	}
}

func TestCertifyIndependentClauses(t *testing.T) {
	// Disjoint strides: 2i vs 2i+1 never collide; the collision 'no'
	// verdict and the refuted directions must all certify (shadow
	// clamp engages at n=100: trips 50 ≤ 64, so exhaustively).
	src := `a = array (1,100)
	  [* [2*i := 1.0] ++ [2*i-1 := 2.0] | i <- [1..50] *]`
	res, rep := certifySrc(t, src, nil)
	if res.Collision != No {
		t.Fatalf("collision = %v (%s)", res.Collision, res.CollisionDetail)
	}
	if rep.FalsifiedCount != 0 {
		t.Fatalf("falsified:\n%s", rep)
	}
	// Certification is deterministic: a second pass agrees.
	sum := Certify(res)
	if sum.FalsifiedCount != rep.FalsifiedCount || sum.CertifiedCount != rep.CertifiedCount {
		t.Fatalf("second pass differs: %s vs %s", sum.Summary(), rep.Summary())
	}
}

func TestCertifyInBoundsClaims(t *testing.T) {
	// Writes 1..n of an array with bounds (1,n): in-bounds claims hold
	// and certify exhaustively at small n.
	src := `a = array (1,10) [* [i := 1.0] | i <- [1..10] *]`
	res, rep := certifySrc(t, src, nil)
	if !res.WriteInBounds[0] {
		t.Fatal("writes must be provably in bounds")
	}
	if !res.NoEmpties {
		t.Fatalf("empties: %s", res.EmptiesDetail)
	}
	if rep.FalsifiedCount != 0 {
		t.Fatalf("falsified:\n%s", rep)
	}
}

func TestCertifyCatchesForgedIndependence(t *testing.T) {
	// Forge an unsound analysis: claim the references of a definition
	// are in bounds of a *smaller* array. The pointwise re-evaluation
	// must falsify every such claim, each with its own first point out
	// of bounds, and the certificates must not change.
	cases := []struct{ src, want string }{
		{`a = array (1,10) [* [i := 1.0] | i <- [1..10] *]`,
			"[analysis] writes of clause0@1:24 in bounds: falsified witness=[6] (subscript leaves the array bounds)\n" +
				"[analysis] a: empties excluded: falsified (10 instances for 5 elements)"},
		// One clause, a write and a read leaving the bounds at
		// different points.
		{`a = array (1,10) ([1 := 1.0] ++ [i := a!(i-1) | i <- [2..10]])`,
			"[analysis] writes of clause1@1:36 in bounds: falsified witness=[5] (subscript leaves the array bounds)\n" +
				"[analysis] reads of a in clause1@1:36 in bounds: falsified witness=[6] (subscript leaves the array bounds)\n" +
				"[analysis] a: empties excluded: falsified (10 instances for 5 elements)"},
	}
	for _, c := range cases {
		res := analyzeSrc(t, c.src, nil)
		res.Bounds = ArrayBounds{Lo: []int64{1}, Hi: []int64{5}} // shrink after the fact
		rep := Certify(res)
		got := make([]string, len(rep.Failures))
		for i, f := range rep.Failures {
			got[i] = f.String()
		}
		if g := strings.Join(got, "\n"); g != c.want {
			t.Errorf("%s: falsifications changed:\n%s\nwant\n%s", c.src, g, c.want)
		}
	}
}

func TestCertifyCatchesForgedInstanceCount(t *testing.T) {
	src := `a = array (1,10) [* [i := 1.0] | i <- [1..10] *]`
	res := analyzeSrc(t, src, nil)
	if !res.NoEmpties {
		t.Fatal("precondition: NoEmpties")
	}
	res.Clauses[0].Instances = 7 // forge the count the elision rests on
	rep := Certify(res)
	if rep.FalsifiedCount == 0 {
		t.Fatalf("forged instance count survived:\n%s", rep)
	}
}

func TestCertifyBigUpd(t *testing.T) {
	// The paper's relaxation step: anti deps on the source reads.
	src := `param n;
	a2 = bigupd a
	  [ i := 0.5*(a!(i-1) + a!(i+1)) | i <- [2..n-1] ]`
	env := map[string]int64{"n": 20}
	_, rep := certifySrc(t, src, env)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("falsified:\n%s", rep)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("nothing certified: %s", rep.Summary())
	}
}

func TestCertifyLargeBoundsShadowClamped(t *testing.T) {
	// Trips beyond the clamp: certification must stay bounded and not
	// falsify anything, but some certificates lose exhaustiveness.
	src := `a = array (1,100000) [* [i := 1.0] | i <- [1..100000] *]`
	_, rep := certifySrc(t, src, nil)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("falsified:\n%s", rep)
	}
}

// BenchmarkCertifyBounds certifies Livermore 23 at n=64: one 62×62
// clause whose write and 13 reads are all claimed in bounds, plus its
// pair and definition-level claims.
func BenchmarkCertifyBounds(b *testing.B) {
	prog, err := parser.ParseProgram(workloads.Livermore23Src)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	lo, hi := workloads.MatrixBounds(n)
	mesh := ArrayBounds{Lo: lo, Hi: hi}
	in := map[string]ArrayBounds{"za": mesh, "zr": mesh, "zb": mesh, "zu": mesh, "zv": mesh}
	res, err := Analyze(prog.Defs[0], map[string]int64{"n": n}, mesh, in, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if rep := Certify(res); rep.FalsifiedCount != 0 || rep.SkippedCount != 0 {
			b.Fatalf("Livermore 23: %s", rep.Summary())
		}
	}
}
