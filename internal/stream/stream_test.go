package stream_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/stream"
)

func b1(lo, hi int64) runtime.Bounds { return runtime.NewBounds1(lo, hi) }

func inBounds(name string, lo, hi int64) map[string]analysis.ArrayBounds {
	return map[string]analysis.ArrayBounds{name: {Lo: []int64{lo}, Hi: []int64{hi}}}
}

// iv / off build the two subscript shapes streaming admits.
func iv(v string) loopir.IntExpr { return &loopir.IVar{Name: v} }
func off(v string, c int64) loopir.IntExpr {
	return &loopir.ILin{Const: c, Terms: []loopir.ITerm{{Var: v, Coeff: 1}}}
}

func aref(a string, s loopir.IntExpr) loopir.VExpr {
	return &loopir.ARef{Array: a, Subs: []loopir.IntExpr{s}}
}

// fill deterministically fills an array with dyadic rationals so
// float comparisons are exact.
func fill(b runtime.Bounds, seed int64) *runtime.Strict {
	a := runtime.NewStrict(b)
	r := rand.New(rand.NewSource(seed))
	for i := range a.Data {
		a.Data[i] = float64(r.Intn(1<<20)-1<<19) / 1024.0
	}
	return a
}

// runMaterialized executes the defs through the loop-IR interpreter in
// order, exactly like core's runInterp store walk.
func runMaterialized(t *testing.T, defs []stream.Def, inputs map[string]*runtime.Strict, result string) *runtime.Strict {
	t.Helper()
	store := map[string]*runtime.Strict{}
	for k, v := range inputs {
		store[k] = v
	}
	for _, d := range defs {
		ex, err := loopir.Compile(d.Prog)
		if err != nil {
			t.Fatalf("compile %s: %v", d.Name, err)
		}
		out, err := ex.RunResult(store)
		if err != nil {
			t.Fatalf("run %s: %v", d.Name, err)
		}
		store[d.Name] = out
	}
	return store[result]
}

// mkDef wraps a program into a stream.Def, deriving its plan.
func mkDef(t *testing.T, name string, prog *loopir.Program) stream.Def {
	t.Helper()
	sp, err := loopir.BuildStreamPlan(prog)
	if err != nil {
		t.Fatalf("BuildStreamPlan(%s): %v", name, err)
	}
	return stream.Def{Name: name, Prog: prog, Plan: sp}
}

// smoothProg builds out[i] = (src[i-1] + src[i] + src[i+1]) / 3 over
// the interior with copied edges — a bounded-distance consumer with
// both backward and forward reads.
func smoothProg(name, src string, lo, hi int64) *loopir.Program {
	v := "i"
	sum := &loopir.VBin{Op: '+',
		L: &loopir.VBin{Op: '+', L: aref(src, off(v, -1)), R: aref(src, iv(v))},
		R: aref(src, off(v, 1))}
	return &loopir.Program{
		Name: name,
		Arrays: []loopir.ArrayDecl{
			{Name: src, B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: name, B: b1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: v, From: lo, To: lo, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: name, Subs: []loopir.IntExpr{iv(v)}, Rhs: aref(src, iv(v))},
			}},
			&loopir.Loop{Var: v, From: lo + 1, To: hi - 1, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: name, Subs: []loopir.IntExpr{iv(v)},
					Rhs: &loopir.VBin{Op: '/', L: sum, R: &loopir.VConst{Value: 3}}},
			}},
			&loopir.Loop{Var: v, From: hi, To: hi, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: name, Subs: []loopir.IntExpr{iv(v)}, Rhs: aref(src, iv(v))},
			}},
		},
	}
}

// ewmaProg builds the recurrence out[lo] = src[lo];
// out[i] = out[i-1]*0.75 + src[i]*0.25 — carried distance 1.
func ewmaProg(name, src string, lo, hi int64) *loopir.Program {
	v := "i"
	return &loopir.Program{
		Name: name,
		Arrays: []loopir.ArrayDecl{
			{Name: src, B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: name, B: b1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: v, From: lo, To: lo, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: name, Subs: []loopir.IntExpr{iv(v)}, Rhs: aref(src, iv(v))},
			}},
			&loopir.Loop{Var: v, From: lo + 1, To: hi, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: name, Subs: []loopir.IntExpr{iv(v)},
					Rhs: &loopir.VBin{Op: '+',
						L: &loopir.VBin{Op: '*', L: aref(name, off(v, -1)), R: &loopir.VConst{Value: 0.75}},
						R: &loopir.VBin{Op: '*', L: aref(src, iv(v)), R: &loopir.VConst{Value: 0.25}}}},
			}},
		},
	}
}

// stepWidths are the cohort widths every pipeline test runs at.
var stepWidths = []int{1, 2, 4}

// diffPipeline runs a pipeline streamed (at the given chunk size, at
// every cohort width) and materialized and requires bitwise equality.
func diffPipeline(t *testing.T, defs []stream.Def, result string, inputs map[string]*runtime.Strict, chunk int64) {
	t.Helper()
	pl, err := stream.Build(defs, result, stream.Config{ChunkSize: chunk})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := runMaterialized(t, defs, inputs, result)
	for _, w := range stepWidths {
		pl.SetWorkers(w)
		got, _, err := pl.Run(inputs)
		if err != nil {
			t.Fatalf("width %d: Run: %v", w, err)
		}
		if !got.B.Equal(want.B) {
			t.Fatalf("width %d: bounds differ: %v vs %v", w, got.B, want.B)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("width %d: element %d differs: streamed %v, materialized %v", w, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestStreamBitwiseChain(t *testing.T) {
	const lo, hi = 1, 10007 // deliberately not a chunk multiple
	x := fill(b1(lo, hi), 42)
	defs := []stream.Def{
		mkDef(t, "a", smoothProg("a", "x", lo, hi)),
		mkDef(t, "b", ewmaProg("b", "a", lo, hi)),
		mkDef(t, "c", smoothProg("c", "b", lo, hi)),
	}
	for _, chunk := range []int64{1, 2, 7, 64, 4096, 1 << 20} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			diffPipeline(t, defs, "c", map[string]*runtime.Strict{"x": x}, chunk)
		})
	}
}

// TestStreamBitwiseDiamond exercises one producer feeding two
// consumers joined by a final stage: the producer's window keeps the
// history of its most-lagged consumer.
func TestStreamBitwiseDiamond(t *testing.T) {
	const lo, hi = 1, 5003
	v := "i"
	x := fill(b1(lo, hi), 7)
	join := &loopir.Program{
		Name: "j",
		Arrays: []loopir.ArrayDecl{
			{Name: "l", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "r", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "j", B: b1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: v, From: lo, To: hi, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: "j", Subs: []loopir.IntExpr{iv(v)},
					Rhs: &loopir.VCall{Fn: "max", Args: []loopir.VExpr{aref("l", iv(v)), aref("r", iv(v))}}},
			}},
		},
	}
	defs := []stream.Def{
		mkDef(t, "s", smoothProg("s", "x", lo, hi)),
		mkDef(t, "l", ewmaProg("l", "s", lo, hi)),
		mkDef(t, "r", smoothProg("r", "s", lo, hi)),
		mkDef(t, "j", join),
	}
	diffPipeline(t, defs, "j", map[string]*runtime.Strict{"x": x}, 128)
}

// TestStreamGuardsAndScalars covers If guards, VCond, and per-iteration
// scalar temporaries under chunking.
func TestStreamGuardsAndScalars(t *testing.T) {
	const lo, hi = 1, 3001
	v := "i"
	x := fill(b1(lo, hi), 11)
	p := &loopir.Program{
		Name:    "g",
		Scalars: []string{"t"},
		Arrays: []loopir.ArrayDecl{
			{Name: "x", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "g", B: b1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: v, From: lo, To: hi, Step: 1, Body: []loopir.Stmt{
				&loopir.SetScalar{Name: "t", Rhs: &loopir.VBin{Op: '*', L: aref("x", iv(v)), R: &loopir.VConst{Value: 0.5}}},
				&loopir.If{
					Cond: &loopir.BCmpFloat{Op: ">", L: &loopir.VScalar{Name: "t"}, R: &loopir.VConst{Value: 0}},
					Then: []loopir.Stmt{&loopir.Assign{Array: "g", Subs: []loopir.IntExpr{iv(v)},
						Rhs: &loopir.VCond{
							C: &loopir.BCmpInt{Op: "<", L: iv(v), R: &loopir.IConst{Value: 100}},
							T: &loopir.VScalar{Name: "t"},
							E: &loopir.VCall{Fn: "abs", Args: []loopir.VExpr{&loopir.VScalar{Name: "t"}}}}}},
					Else: []loopir.Stmt{&loopir.Assign{Array: "g", Subs: []loopir.IntExpr{iv(v)},
						Rhs: &loopir.VNeg{X: &loopir.VScalar{Name: "t"}}}},
				},
			}},
		},
	}
	defs := []stream.Def{mkDef(t, "g", p)}
	diffPipeline(t, defs, "g", map[string]*runtime.Strict{"x": x}, 256)
}

// TestStreamEmitOrder checks RunEmit delivers chunks in position order
// and their concatenation is the materialized result.
func TestStreamEmitOrder(t *testing.T) {
	const lo, hi = 1, 4099
	x := fill(b1(lo, hi), 3)
	defs := []stream.Def{mkDef(t, "e", ewmaProg("e", "x", lo, hi))}
	pl, err := stream.Build(defs, "e", stream.Config{ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	next := int64(lo)
	rep, err := pl.RunEmit(map[string]*runtime.Strict{"x": x}, func(clo int64, data []float64) error {
		if clo != next {
			return fmt.Errorf("chunk at %d, expected %d", clo, next)
		}
		next = clo + int64(len(data))
		got = append(got, data...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks == 0 || rep.PeakBytes <= 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	want := runMaterialized(t, defs, map[string]*runtime.Strict{"x": x}, "e")
	if len(got) != len(want.Data) {
		t.Fatalf("emitted %d elements, want %d", len(got), len(want.Data))
	}
	for i := range got {
		if got[i] != want.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

// TestStreamEmitAbort propagates an emit error as the run error: the
// run stops at the failing chunk and its error wraps the client's.
func TestStreamEmitAbort(t *testing.T) {
	const lo, hi = 1, 10000
	x := fill(b1(lo, hi), 5)
	defs := []stream.Def{mkDef(t, "e", ewmaProg("e", "x", lo, hi))}
	pl, err := stream.Build(defs, "e", stream.Config{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	errGone := errors.New("client went away")
	calls := 0
	_, err = pl.RunEmit(map[string]*runtime.Strict{"x": x}, func(int64, []float64) error {
		calls++
		if calls == 3 {
			return errGone
		}
		return nil
	})
	if !errors.Is(err, errGone) {
		t.Fatalf("run error %v does not wrap the emit error", err)
	}
	if calls != 3 {
		t.Fatalf("emit called %d times, want 3", calls)
	}
}

// TestStreamPeakBytes: a long bounded-distance chain holds far less
// than the materialized store, and the peak is the closed form of the
// windows Build sized, the same on every run and at every cohort width.
func TestStreamPeakBytes(t *testing.T) {
	const lo, hi = 1, 1<<18 + 13
	const n, chunk = hi - lo + 1, 1024
	x := fill(b1(lo, hi), 9)
	var defs []stream.Def
	src := "x"
	for s := 0; s < 8; s++ {
		name := fmt.Sprintf("s%d", s)
		defs = append(defs, mkDef(t, name, smoothProg(name, src, lo, hi)))
		src = name
	}
	pl, err := stream.Build(defs, src, stream.Config{ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	// Each smoothing consumer reads one position back and one ahead,
	// so it trails its producer by 2 chunks (one of lookahead, plus
	// one), and the producer keeps 1 + 2·chunk positions of history
	// before its current chunk. The last stage has no consumer.
	inBytes := int64(n * 8)
	winBytes := int64(7*(1+2*chunk+chunk)) * 8
	wantEmit := inBytes + winBytes + chunk*8
	wantCollect := inBytes + winBytes + n*8
	inputs := map[string]*runtime.Strict{"x": x}
	for _, w := range stepWidths {
		pl.SetWorkers(w)
		for rep := 0; rep < 2; rep++ {
			// Emit mode is the true streaming shape (/evalstream ships
			// chunks without materializing the result).
			erep, err := pl.RunEmit(inputs, func(int64, []float64) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if erep.PeakBytes != wantEmit {
				t.Fatalf("width %d: emit peak %d, want %d", w, erep.PeakBytes, wantEmit)
			}
			// Collect mode holds the result array in place of the last
			// stage's window.
			_, crep, err := pl.Run(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if crep.PeakBytes != wantCollect {
				t.Fatalf("width %d: collect peak %d, want %d", w, crep.PeakBytes, wantCollect)
			}
			if crep.MaterializedBytes != 9*n*8 {
				t.Fatalf("materialized accounting %d, want %d", crep.MaterializedBytes, 9*n*8)
			}
		}
	}
}

// TestStreamMissingInput reports a clean error.
func TestStreamMissingInput(t *testing.T) {
	defs := []stream.Def{mkDef(t, "e", ewmaProg("e", "x", 1, 100))}
	pl, err := stream.Build(defs, "e", stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.Run(nil); err == nil {
		t.Fatalf("missing input must error")
	}
}

// TestStreamRejectsResidentStageOutput: a stage output read at a
// non-constant-offset position cannot stream.
func TestStreamRejectsResidentStageOutput(t *testing.T) {
	const lo, hi = 1, 100
	v := "i"
	rev := &loopir.Program{
		Name: "r",
		Arrays: []loopir.ArrayDecl{
			{Name: "a", B: b1(lo, hi), Role: loopir.RoleIn},
			{Name: "r", B: b1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: v, From: lo, To: hi, Step: 1, Body: []loopir.Stmt{
				// r[i] = a[101-i]: affine but not offset-1 — needs a
				// resident again.
				&loopir.Assign{Array: "r", Subs: []loopir.IntExpr{iv(v)},
					Rhs: aref("a", &loopir.ILin{Const: 101, Terms: []loopir.ITerm{{Var: v, Coeff: -1}}})},
			}},
		},
	}
	defs := []stream.Def{
		mkDef(t, "a", smoothProg("a", "x", lo, hi)),
		mkDef(t, "r", rev),
	}
	if _, err := stream.Build(defs, "r", stream.Config{}); err == nil {
		t.Fatalf("reversal over a stage output must not stream")
	}
}

// TestStreamRejectsUnboundArray: every declared array must bind to a
// window or a resident input, so a declaration the stage never reads
// fails the build.
func TestStreamRejectsUnboundArray(t *testing.T) {
	p := ewmaProg("e", "x", 1, 100)
	p.Arrays = append(p.Arrays, loopir.ArrayDecl{Name: "unused", B: b1(1, 100), Role: loopir.RoleIn})
	_, err := stream.Build([]stream.Def{mkDef(t, "e", p)}, "e", stream.Config{})
	if err == nil || !strings.Contains(err.Error(), "never reads") {
		t.Fatalf("unread declaration must fail the build, got %v", err)
	}
}

// --- core-level integration: Options.Stream end to end ---

// TestCoreStreamBitwise compiles a source pipeline with and without
// Options.Stream and requires bitwise-equal results plus the stream
// tier report.
func TestCoreStreamBitwise(t *testing.T) {
	src := `letrec* a = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ];
  b = array (1,n) ([ 1 := a!1 ] ++ [ i := b!(i-1) * 0.5 + a!i | i <- [2..n] ]);
  res = array (1,n) [ i := b!i * 2.0 | i <- [1..n] ]
in res`
	n := int64(20000)
	base, err := core.Compile(src, map[string]int64{"n": n}, core.Options{
		InputBounds: inBounds("x", 1, n),
	})
	if err != nil {
		t.Fatalf("compile materialized: %v", err)
	}
	st, err := core.Compile(src, map[string]int64{"n": n}, core.Options{
		InputBounds: inBounds("x", 1, n),
		Stream:      true,
	})
	if err != nil {
		t.Fatalf("compile streaming: %v", err)
	}
	if !st.StreamActive() {
		t.Fatalf("streaming should be active; fallback: %s", st.StreamFallback())
	}
	x := fill(b1(1, n), 21)
	inputs := map[string]*runtime.Strict{"x": x}
	want, err := base.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, tier, err := st.RunTiered(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tier != core.TierStream {
		t.Fatalf("tier = %s, want stream", tier)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
	rep := st.StreamReport()
	if rep == nil || rep.PeakBytes <= 0 || rep.MaterializedBytes <= rep.PeakBytes {
		t.Fatalf("stream report unconvincing: %+v", rep)
	}
}

// TestCoreStreamFallback: an accumArray program cannot stream and must
// fall back with a reason, still producing correct results.
func TestCoreStreamFallback(t *testing.T) {
	src := `h = accumArray (+) 0.0 (0,9) [ (3*i) mod 10 := 1.0 | i <- [1..n] ]`
	n := int64(100)
	p, err := core.Compile(src, map[string]int64{"n": n}, core.Options{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.StreamActive() {
		t.Fatalf("accumArray must not stream")
	}
	if p.StreamFallback() == "" {
		t.Fatalf("fallback reason missing")
	}
	out, tier, err := p.RunTiered(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tier == core.TierStream {
		t.Fatalf("fallback must not report the stream tier")
	}
	var sum float64
	for _, v := range out.Data {
		sum += v
	}
	if sum != float64(n) {
		t.Fatalf("histogram sum %v, want %v", sum, float64(n))
	}
}

// TestCoreStreamCertify: streaming under -certify replays window
// legality into the certificate report.
func TestCoreStreamCertify(t *testing.T) {
	src := `e = array (1,n) ([ 1 := x!1 ] ++ [ i := e!(i-1) * 0.5 + x!i | i <- [2..n] ])`
	n := int64(5000)
	p, err := core.Compile(src, map[string]int64{"n": n}, core.Options{
		InputBounds: inBounds("x", 1, n),
		Stream:      true,
		Certify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.StreamActive() {
		t.Fatalf("streaming should be active; fallback: %s", p.StreamFallback())
	}
	if p.Certs == nil || p.Certs.CertifiedCount == 0 {
		t.Fatalf("certification report empty")
	}
	found := false
	for _, note := range p.Notes {
		if strings.HasPrefix(note, "stream:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stream note in %v", p.Notes)
	}
}

// TestStreamOptimizedChainChunks streams an E23-style chain of
// optimized stages — maps and smoothings in the strip form, a
// recurrence in the straight-line form — at chunk sizes that cut a
// row mid-strip, and requires the materialized run's bits.
func TestStreamOptimizedChainChunks(t *testing.T) {
	src := `letrec* a = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ];
  b = array (1,n) ([ 1 := a!1 ] ++ [ i := (a!(i-1) + a!i + a!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := a!n ]);
  c = array (1,n) ([ 1 := b!1 ] ++ [ i := c!(i-1) * 0.75 + b!i * 0.25 | i <- [2..n] ]);
  d = array (1,n) [ i := c!i * 0.5 + 0.25 | i <- [1..n] ]
in d`
	const n = 3*256 + 7 + 2000
	p, err := core.Compile(src, map[string]int64{"n": n}, core.Options{InputBounds: inBounds("x", 1, n)})
	if err != nil {
		t.Fatal(err)
	}
	var defs []stream.Def
	for _, name := range p.Order {
		defs = append(defs, mkDef(t, name, p.Defs[name].Plan.Program))
	}
	x := fill(b1(1, n), 23)
	inputs := map[string]*runtime.Strict{"x": x}
	want, err := p.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := runMaterialized(t, defs, inputs, "d"); !slices.Equal(got.Data, want.Data) {
		t.Fatal("the stage programs run materialized differ from Program.Run")
	}
	for _, chunk := range []int64{255, 257, 1000} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			diffPipeline(t, defs, "d", inputs, chunk)
		})
	}
}
