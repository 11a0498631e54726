package schedule

import (
	"strings"
	"testing"

	"arraycomp/internal/certify"
)

func TestCertifyForwardSchedule(t *testing.T) {
	// Paper example 1: the forward schedule is legal; every order
	// claim must certify with no falsifications.
	src := `a = array (1,300)
	  [* [3*i := 1.0] ++
	     [3*i-1 := 0.5 * a!(3*(i-1))] ++
	     [3*i-2 := 0.5 * a!(3*i)]
	   | i <- [1..100] *]`
	res := analyzeSrc(t, src, nil)
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		t.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	rep := Certify(res, sched, AntiOrdered)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("legal schedule falsified:\n%s", rep)
	}
	if rep.CertifiedCount == 0 {
		t.Fatalf("no order claims certified: %s", rep.Summary())
	}
}

func TestCertifyCatchesFlippedDirection(t *testing.T) {
	// Forge an illegal schedule by flipping every loop direction: the
	// (<)-carried flow dependence now runs backward and the write no
	// longer precedes its read.
	src := `a = array (1,300)
	  [* [3*i := 1.0] ++
	     [3*i-1 := 0.5 * a!(3*(i-1))]
	   | i <- [1..100] *]`
	res := analyzeSrc(t, src, nil)
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		t.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	flipLoops(sched.Nodes)
	wantFailures(t, Certify(res, sched, AntiOrdered),
		"[schedule] a: emitted order preserves flow dependences: falsified witness=[63 64] (write does not precede read: clause0@2:12 vs clause1@3:14 at element (189,))")
}

// TestCertifyCatchesReversedBigupd: a bigupd whose clause reads the
// old a!(i+1) before iteration i+1 kills it. Run backward, the kill
// comes first, and the anti claim must fall with the same witness.
func TestCertifyCatchesReversedBigupd(t *testing.T) {
	src := `param n;
	a2 = bigupd a [ i := 0.5 * a!(i+1) | i <- [1..n-1] ]`
	res := analyzeSrc(t, src, map[string]int64{"n": 20})
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		t.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	if rep := Certify(res, sched, AntiOrdered); rep.FalsifiedCount != 0 {
		t.Fatalf("legal schedule falsified:\n%s", rep)
	}
	flipLoops(sched.Nodes)
	wantFailures(t, Certify(res, sched, AntiOrdered),
		"[schedule] a2: emitted order preserves anti dependences: falsified witness=[18 19] (read of old value in clause0@2:20 after kill in clause0@2:20 at element (19,))")
}

// TestCertifyCatchesReversedAccum: a non-commutative accumArray that
// writes each element once per inner iteration, in list order. Run
// backward, the writes to one element come out of list order, and the
// output-order claim must fall with the same witness.
func TestCertifyCatchesReversedAccum(t *testing.T) {
	src := `h = accumArray right 0.0 (1,5)
	  [ i := 1.0 | i <- [1..5], j <- [1..3] ]`
	res := analyzeSrc(t, src, nil)
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		t.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	if rep := Certify(res, sched, AntiOrdered); rep.FalsifiedCount != 0 {
		t.Fatalf("legal schedule falsified:\n%s", rep)
	}
	flipLoops(sched.Nodes)
	wantFailures(t, Certify(res, sched, AntiOrdered),
		"[schedule] h: emitted order preserves write order: falsified witness=[5 2 5 3] (writes of clause0@2:8 and clause0@2:8 out of list order)")
}

// wantFailures compares a report's falsified certificates, one per
// line, with want.
func wantFailures(t *testing.T, rep *certify.Report, want string) {
	t.Helper()
	got := make([]string, len(rep.Failures))
	for i, c := range rep.Failures {
		got[i] = c.String()
	}
	if g := strings.Join(got, "\n"); g != want {
		t.Fatalf("falsifications changed:\n%s\nwant\n%s", g, want)
	}
}

func TestCertifyThunkedMakesNoClaims(t *testing.T) {
	// The Gauss-Seidel relaxation has an anti cycle under KeepAll; the
	// thunk fallback claims nothing.
	src := `param n;
	a2 = bigupd a
	  [ i := 0.5*(a!(i-1) + a!(i+1)) | i <- [2..n-1] ]`
	env := map[string]int64{"n": 30}
	res := analyzeSrc(t, src, env)
	sched, err := Build(res, KeepAll)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Thunked {
		t.Skip("schedule unexpectedly static; relaxed-path test covers it")
	}
	rep := Certify(res, sched, AntiOrdered)
	if rep.CertifiedCount+rep.FalsifiedCount+rep.SkippedCount != 0 {
		t.Fatalf("thunked schedule produced certificates: %s", rep.Summary())
	}
}

func TestCertifyRelaxedAnti(t *testing.T) {
	// Same relaxation built with anti edges dropped (the node-splitting
	// path): certification with antiRelaxed must skip the anti claim,
	// and without it must falsify — the emitted order really does kill
	// a!(i-1) before the read, which is exactly what node splitting
	// compensates for.
	src := `param n;
	a2 = bigupd a
	  [ i := 0.5*(a!(i-1) + a!(i+1)) | i <- [2..n-1] ]`
	env := map[string]int64{"n": 30}
	res := analyzeSrc(t, src, env)
	sched, err := Build(res, KeepFlowOutput)
	if err != nil || sched.Thunked {
		t.Fatalf("relaxed schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	rep := Certify(res, sched, AntiSplit)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("relaxed certification falsified:\n%s", rep)
	}
	skippedAnti := false
	for _, c := range rep.Skips {
		if strings.Contains(c.Claim, "anti") {
			skippedAnti = true
		}
	}
	if !skippedAnti {
		t.Fatalf("anti claim not skipped under relaxation: %s", rep.Summary())
	}

	strict := Certify(res, sched, AntiOrdered)
	if strict.FalsifiedCount == 0 {
		t.Fatalf("relaxed order passed strict anti certification:\n%s", strict)
	}

	// A copy-update plan reads the old values from the kept source: no
	// anti claim is made, neither certified nor skipped.
	copied := Certify(res, sched, AntiCopied)
	if copied.FalsifiedCount != 0 || copied.CertifiedCount != rep.CertifiedCount || copied.SkippedCount != rep.SkippedCount-1 {
		t.Fatalf("copy-update certification = %s, want the node-split report minus its skipped anti claim (%s)",
			copied.Summary(), rep.Summary())
	}
}

func TestCertifyLargeBoundsClamped(t *testing.T) {
	src := `a = array (1,100000) [* [i := 1.0] | i <- [1..100000] *]`
	res := analyzeSrc(t, src, nil)
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		t.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	rep := Certify(res, sched, AntiOrdered)
	if rep.FalsifiedCount != 0 {
		t.Fatalf("falsified:\n%s", rep)
	}
}

// flipLoops reverses every loop direction of a schedule.
func flipLoops(ns []*Node) {
	for _, n := range ns {
		if n.IsLoop() {
			n.Dir = -n.Dir
			flipLoops(n.Body)
		}
	}
}

func TestCertifyDeterministic(t *testing.T) {
	// Five loops of 63 or 64 iterations exceed the event budget, so the
	// certifier halves clamps, and several tie. A flipped schedule then
	// falsifies the flow claim; the shadow domain (ties broken in tree
	// order) and the reported counterexample (elements visited in
	// first-seen order) must not change between runs.
	src := `a = array ((1,1,1),(64,64,64))
	  ([ (1,j,k) := 1.0 | j <- [1..64], k <- [1..64] ] ++
	   [ (i,j,k) := a!(i-1,j,k) + 1.0 | i <- [2..64], j <- [1..64], k <- [1..64] ])`
	res := analyzeSrc(t, src, nil)
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		t.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	if rep := Certify(res, sched, AntiOrdered); rep.FalsifiedCount != 0 {
		t.Fatalf("legal schedule falsified:\n%s", rep)
	}
	flipLoops(sched.Nodes)
	first := Certify(res, sched, AntiOrdered)
	if first.FalsifiedCount == 0 || len(first.Failures[0].Witness) == 0 {
		t.Fatalf("flipped schedule not falsified with a witness:\n%s", first)
	}
	if d := first.Failures[0].Detail; !strings.Contains(d, "at element (") {
		t.Fatalf("detail %q does not name the element", d)
	}
	for i := 1; i < 50; i++ {
		if rep := Certify(res, sched, AntiOrdered); rep.String() != first.String() {
			t.Fatalf("run %d reported\n%s\nrun 0 reported\n%s", i, rep, first)
		}
	}
}

// BenchmarkScheduleCertify certifies the 64×64 wavefront's schedule
// over its whole domain: 4,096 instances of up to four accesses.
func BenchmarkScheduleCertify(b *testing.B) {
	src := `a = array ((1,1),(64,64))
	  ([ (1,j) := 1.0 | j <- [1..64] ] ++
	   [ (i,1) := 1.0 | i <- [2..64] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..64], j <- [2..64] ])`
	res := analyzeSrc(b, src, nil)
	sched, err := Build(res, nil)
	if err != nil || sched.Thunked {
		b.Fatalf("schedule: err=%v thunked=%v", err, sched.Thunked)
	}
	b.ReportAllocs()
	for b.Loop() {
		if rep := Certify(res, sched, AntiOrdered); rep.FalsifiedCount != 0 {
			b.Fatalf("legal schedule falsified:\n%s", rep)
		}
	}
}
