package gogen_test

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gogen"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

func compileWorkload(t *testing.T, src string, params map[string]int64, inputBounds map[string]analysis.ArrayBounds) *core.Program {
	t.Helper()
	p, err := core.Compile(src, params, core.Options{InputBounds: inputBounds})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestEmitSquaresStructure(t *testing.T) {
	p := compileWorkload(t, workloads.SquaresSrc, map[string]int64{"n": 8}, nil)
	src, err := gogen.EmitFile(p.Defs["sq"].Plan.Program, "gen", "Squares")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package gen",
		"func Squares(workers int) ([]float64, error)",
		"for v_i := int64(1); v_i <= 8; v_i += 1 {",
		"v_sq := make([]float64, 8)",
		"return v_sq, nil",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "[]bool") {
		t.Error("squares needs no definedness bitmap")
	}
}

func TestEmitConditionalIsLazy(t *testing.T) {
	// The else branch reads out of bounds at i=1; eager evaluation in
	// the generated code would panic. The conditional must lower to
	// if/else statements. NoStencil keeps the guard in the IR — the
	// specializer would otherwise resolve it away by splitting the
	// i=1 boundary off (see TestEmitStencilInterior for that path).
	p, err := core.Compile(workloads.Example1Src, map[string]int64{"n": 4}, core.Options{NoStencil: true})
	if err != nil {
		t.Fatal(err)
	}
	src, err := gogen.EmitFile(p.Defs["a"].Plan.Program, "gen", "Ex1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "} else {") {
		t.Errorf("conditional not lowered to statements:\n%s", src)
	}
}

func TestEmitUnsupportedStatements(t *testing.T) {
	// An accumArray plan without AccumOp must fail loudly.
	p := compileWorkload(t, workloads.HistogramSrc, map[string]int64{"n": 10}, nil)
	prog := p.Defs["h"].Plan.Program
	saved := prog.AccumOp
	prog.AccumOp = ""
	if _, err := gogen.EmitFile(prog, "gen", "H"); err == nil {
		t.Error("missing AccumOp must be an error")
	}
	prog.AccumOp = saved
	if _, err := gogen.EmitFile(prog, "gen", "H"); err != nil {
		t.Errorf("histogram emission failed: %v", err)
	}
}

// lcgFill fills a slice exactly like the generated harness does.
func lcgFill(data []float64, seed uint64) {
	x := seed
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float64((x>>33)&0xFFFF) / 65536.0
	}
}

func checksum(data []float64) float64 {
	var acc float64
	for i, v := range data {
		acc += v * float64(i+1)
	}
	return acc
}

// emitHarness writes a runnable main package: the generated function
// plus a main() that fills inputs with the LCG, runs, and prints each
// result's checksum, or, with elements set, every element of every
// result in its shortest round-trip form.
func emitHarness(t *testing.T, dir string, prog *core.Program, def string, elements bool) (params, results []string) {
	t.Helper()
	plan := prog.Defs[def].Plan
	fn, params, results, err := gogen.EmitFunc(plan.Program, "Compiled")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n")
	if strings.Contains(fn, "math.") {
		b.WriteString("\t\"math\"\n")
	}
	b.WriteString(")\n\n")
	b.WriteString(fn)
	b.WriteString("\n" + gogen.Runners)
	b.WriteString(`
func lcgFill(data []float64, seed uint64) {
	x := seed
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float64((x>>33)&0xFFFF) / 65536.0
	}
}

func checksum(data []float64) float64 {
	var acc float64
	for i, v := range data {
		acc += v * float64(i+1)
	}
	return acc
}

func main() {
`)
	for i, name := range params {
		d := plan.Program.Decl(name)
		fmt.Fprintf(&b, "\tin%d := make([]float64, %d)\n", i, d.B.Size())
		fmt.Fprintf(&b, "\tlcgFill(in%d, %d)\n", i, 1000+i)
	}
	args := []string{"1"}
	for i := range params {
		args = append(args, fmt.Sprintf("in%d", i))
	}
	var outs []string
	for i := range results {
		outs = append(outs, fmt.Sprintf("out%d", i))
	}
	outs = append(outs, "err")
	fmt.Fprintf(&b, "\t%s := Compiled(%s)\n", strings.Join(outs, ", "), strings.Join(args, ", "))
	b.WriteString("\tif err != nil {\n\t\tfmt.Fprintln(os.Stderr, err)\n\t\tos.Exit(1)\n\t}\n")
	for i := range results {
		if elements {
			fmt.Fprintf(&b, "\tfor _, v := range out%d {\n\t\tfmt.Println(v)\n\t}\n", i)
		} else {
			fmt.Fprintf(&b, "\tfmt.Printf(\"%%.17g\\n\", checksum(out%d))\n", i)
		}
	}
	b.WriteString("}\n")
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return params, results
}

// runGenerated builds and runs the harness, returning the printed
// checksums.
func runGenerated(t *testing.T, dir string) []float64 {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run: %v\n%s", err, out)
	}
	var sums []float64
	for _, line := range strings.Fields(strings.TrimSpace(string(out))) {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatalf("bad harness output %q: %v", out, err)
		}
		sums = append(sums, v)
	}
	return sums
}

// interpret runs def's plan in the interpreter on the inputs the
// harness fills, params in the emitted function's order.
func interpret(t *testing.T, prog *core.Program, def string, params []string) map[string]*runtime.Strict {
	t.Helper()
	plan := prog.Defs[def].Plan
	inputs := map[string]*runtime.Strict{}
	for i, name := range params {
		a := runtime.NewStrict(plan.Program.Decl(name).B)
		lcgFill(a.Data, uint64(1000+i))
		inputs[name] = a
	}
	outs, err := plan.Exec.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// differential runs a workload through the interpreter and the
// generated Go code on identical inputs and compares checksums.
func differential(t *testing.T, src string, params map[string]int64, inputDims map[string][]int64, def string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping go-run differential")
	}
	inputBounds := map[string]analysis.ArrayBounds{}
	for name, dims := range inputDims {
		lo := make([]int64, len(dims))
		for i := range lo {
			lo[i] = 1
		}
		inputBounds[name] = analysis.ArrayBounds{Lo: lo, Hi: dims}
	}
	prog := compileWorkload(t, src, params, inputBounds)
	dir := t.TempDir()
	fnParams, results := emitHarness(t, dir, prog, def, false)
	got := runGenerated(t, dir)
	if len(got) != len(results) {
		t.Fatalf("harness printed %d checksums, want %d", len(got), len(results))
	}
	outs := interpret(t, prog, def, fnParams)
	for i, name := range results {
		want := checksum(outs[name].Data)
		diff := got[i] - want
		if diff < -1e-9 || diff > 1e-9 {
			t.Errorf("result %s: generated %v, interpreter %v", name, got[i], want)
		}
	}
}

// TestEmitStencilInterior: gogen's slice emitter is the only stencil
// recognizer, and needs no annotation from the optimizer. The interiors
// of SOR, the wavefront and Jacobi, and a 1-D pointwise map each emit a
// constant-width slice row; a row whose read keeps its bounds check
// (guard splitting's interior clone b[i] := a[1+i], whose read the
// lowering could not prove before the split) and a guarded body do not.
// Every emitted program runs bitwise equal to the interpreter.
func TestEmitStencilInterior(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping go-run differential")
	}
	n := int64(24)
	mesh := map[string]analysis.ArrayBounds{"a": {Lo: []int64{1, 1}, Hi: []int64{n, n}}}
	vec := map[string]analysis.ArrayBounds{"a": {Lo: []int64{1}, Hi: []int64{n}}}
	for _, c := range []struct {
		name, src, def string
		inputs         map[string]analysis.ArrayBounds
		sliced         bool
	}{
		{"sor", workloads.SORSrc, "a2", mesh, true},
		{"wavefront", workloads.WavefrontSrc, "a", nil, true},
		{"jacobi", workloads.JacobiSrc, "a2", mesh, true},
		{"pointwise map", "param n;\nb = array (1,n) [ i := 2.0 * a!i + 1.0 | i <- [1..n] ]", "b", vec, true},
		{"checked read", "param n;\nb = array (1,n) [ i := if i < n then a!(i+1) else a!1 | i <- [1..n] ]", "b", vec, false},
		{"guarded body", "param n;\nb = array (1,n) [ i := if i mod 2 == 0 then a!i else 0.0 - a!i | i <- [1..n] ]", "b", vec, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := compileWorkload(t, c.src, map[string]int64{"n": n}, c.inputs)
			dir := t.TempDir()
			fnParams, results := emitHarness(t, dir, prog, c.def, true)
			src, err := os.ReadFile(filepath.Join(dir, "main.go"))
			if err != nil {
				t.Fatal(err)
			}
			if sliced := strings.Contains(string(src), "// stencil interior"); sliced != c.sliced {
				t.Fatalf("slice row emitted: %v, want %v\n%s", sliced, c.sliced, src)
			}
			outs := interpret(t, prog, c.def, fnParams)
			var want []float64
			for _, name := range results {
				want = append(want, outs[name].Data...)
			}
			got := runGenerated(t, dir)
			if len(got) != len(want) {
				t.Fatalf("generated code printed %d elements, the interpreter has %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("element %d: generated %v, interpreter %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestGeneratedSquaresMatchesInterpreter(t *testing.T) {
	differential(t, workloads.SquaresSrc, map[string]int64{"n": 1000}, nil, "sq")
}

func TestGeneratedWavefrontMatchesInterpreter(t *testing.T) {
	differential(t, workloads.WavefrontSrc, map[string]int64{"n": 40}, nil, "a")
}

func TestGeneratedExample1MatchesInterpreter(t *testing.T) {
	differential(t, workloads.Example1Src, map[string]int64{"n": 50}, nil, "a")
}

func TestGeneratedJacobiMatchesInterpreter(t *testing.T) {
	n := int64(24)
	differential(t, workloads.JacobiSrc, map[string]int64{"n": n},
		map[string][]int64{"a": {n, n}}, "a2")
}

func TestGeneratedSORMatchesInterpreter(t *testing.T) {
	n := int64(24)
	differential(t, workloads.SORSrc, map[string]int64{"n": n},
		map[string][]int64{"a": {n, n}}, "a2")
}

func TestGeneratedRowSwapMatchesInterpreter(t *testing.T) {
	n := int64(16)
	differential(t, workloads.RowSwapSrc, workloads.ParamsFor("rowswap", n),
		map[string][]int64{"a": {n, n}}, "a2")
}

func TestGeneratedHistogramMatchesInterpreter(t *testing.T) {
	differential(t, workloads.HistogramSrc, map[string]int64{"n": 500}, nil, "h")
}

func TestGeneratedGuardedChecksMatchInterpreter(t *testing.T) {
	src := `a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], i mod 2 == 1 ] ++
	   [ i := 2.0 | i <- [1..n], i mod 2 == 0 ])`
	differential(t, src, map[string]int64{"n": 101}, nil, "a")
}

func TestGeneratedGofmtClean(t *testing.T) {
	// The emitted source must parse (gofmt -e reports syntax errors).
	p := compileWorkload(t, workloads.WavefrontSrc, map[string]int64{"n": 8}, nil)
	src, err := gogen.EmitFile(p.Defs["a"].Plan.Program, "gen", "Wavefront")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.LookPath("gofmt"); err != nil {
		t.Skip("gofmt not available")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("gofmt", "-e", "-l", path).CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt: %v\n%s\nsource:\n%s", err, out, src)
	}
}

// TestNativeSpeed builds the generated Go code for the headline
// workloads and measures it against hand-written loops — the paper's
// "comparable to Fortran" claim with the interpreter substitution
// removed. Reported via -v; skipped in short mode.
func TestNativeSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	cases := []struct {
		name   string
		src    string
		params map[string]int64
		def    string
		iters  int
		hand   func() float64 // returns ns/op
	}{
		{
			"squares", workloads.SquaresSrc, map[string]int64{"n": 100000}, "sq", 200,
			func() float64 {
				r := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						workloads.HandSquares(100000)
					}
				})
				return float64(r.T.Nanoseconds()) / float64(r.N)
			},
		},
		{
			"wavefront", workloads.WavefrontSrc, map[string]int64{"n": 256}, "a", 100,
			func() float64 {
				r := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						workloads.HandWavefront(256)
					}
				})
				return float64(r.T.Nanoseconds()) / float64(r.N)
			},
		},
	}
	for _, c := range cases {
		prog := compileWorkload(t, c.src, c.params, nil)
		harness, err := gogen.EmitBenchHarness(prog.Defs[c.def].Plan.Program, c.iters)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(harness), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.24\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "run", ".")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run: %v\n%s\n%s", err, out, harness)
		}
		fields := strings.Fields(strings.TrimSpace(string(out)))
		gen, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad output %q", out)
		}
		hand := c.hand()
		t.Logf("%s: generated-Go %.0f ns/op, hand-written %.0f ns/op (ratio %.2fx)",
			c.name, gen, hand, gen/hand)
		if gen > hand*4 {
			t.Errorf("%s: generated code is %.1fx hand-written; want within 4x", c.name, gen/hand)
		}
	}
}

// TestGeneratedParallelLoop: a dependence-free program compiled with
// the Parallel option at a size where the planner shards must emit a
// RunShard call whose chunk loop still matches the interpreter.
func TestGeneratedParallelLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := int64(192)
	inputBounds := map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}}
	prog, err := core.Compile(workloads.JacobiMonolithicSrc, map[string]int64{"n": n},
		core.Options{Parallel: true, InputBounds: inputBounds})
	if err != nil {
		t.Fatal(err)
	}
	if kinds := prog.Stats.Counters.SchedulesByKind; kinds["shard"] == 0 {
		t.Fatalf("planner did not shard: schedules %v", kinds)
	}
	fn, _, _, err := gogen.EmitFunc(prog.Defs["a"].Plan.Program, "Compiled")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fn, "shard loop over") || !strings.Contains(fn, "RunShard(workers, int64(190), nil, func(_ int, lo, hi int64) {") {
		t.Fatalf("parallel loop not emitted:\n%s", fn)
	}
	// Differential against the interpreter.
	dir := t.TempDir()
	emitParallelHarness(t, dir, fn, n)
	got := runGenerated(t, dir)
	plan := prog.Defs["a"].Plan
	in := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
	lcgFill(in.Data, 1000)
	outs, err := plan.Exec.Run(map[string]*runtime.Strict{"b": in})
	if err != nil {
		t.Fatal(err)
	}
	want := checksum(outs["a"].Data)
	if d := got[0] - want; d < -1e-9 || d > 1e-9 {
		t.Errorf("parallel generated %v, interpreter %v", got[0], want)
	}
}

func emitParallelHarness(t *testing.T, dir, fn string, n int64) {
	t.Helper()
	var b strings.Builder
	b.WriteString("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n")
	if strings.Contains(fn, "math.") {
		b.WriteString("\t\"math\"\n")
	}
	b.WriteString(")\n\n")
	b.WriteString(fn)
	b.WriteString("\n" + gogen.Runners)
	fmt.Fprintf(&b, "\nconst N = %d\n", n)
	b.WriteString(`
func lcgFill(data []float64, seed uint64) {
	x := seed
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float64((x>>33)&0xFFFF) / 65536.0
	}
}

func checksum(data []float64) float64 {
	var acc float64
	for i, v := range data {
		acc += v * float64(i+1)
	}
	return acc
}

func main() {
	in := make([]float64, N*N)
	lcgFill(in, 1000)
	out, err := Compiled(1, in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%.17g\n", checksum(out))
}
`)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEmitBooleanGuards covers the boolean emission paths (&&, ||,
// not, float comparison) structurally and differentially.
func TestEmitBooleanGuards(t *testing.T) {
	src := `param n;
	a = array (1,n)
	  ([ i := 1.0 | i <- [1..n], (i mod 3 == 0 || i mod 3 == 1) && not (i == 5) ] ++
	   [ i := 2.0 | i <- [1..n], i mod 3 == 2 || i == 5 ])`
	prog := compileWorkload(t, src, map[string]int64{"n": 20}, nil)
	fn, _, _, err := gogen.EmitFunc(prog.Defs["a"].Plan.Program, "G")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"&&", "||", "!("} {
		if !strings.Contains(fn, want) {
			t.Errorf("generated guard missing %q:\n%s", want, fn)
		}
	}
	differential(t, src, map[string]int64{"n": 20}, nil, "a")
}

// TestEmitFloatCondAndBuiltins: float comparison conditions and math
// builtins in the generated code.
func TestEmitFloatCondAndBuiltins(t *testing.T) {
	src := `param n;
	a = array (1,n)
	  [ i := if sqrt(1.0 * i) > 2.0 then pow(2.0, 3.0) else abs(0.0 - i) | i <- [1..n] ]`
	differential(t, src, map[string]int64{"n": 30}, nil, "a")
}

// TestHasErrorPathsClassification pins the goroutine-safety predicate.
func TestHasErrorPathsClassification(t *testing.T) {
	clean := []loopir.Stmt{
		&loopir.Assign{Array: "a", Subs: []loopir.IntExpr{&loopir.IConst{Value: 1}}, Rhs: &loopir.VConst{}},
	}
	if loopir.CanFail(clean) {
		t.Error("unchecked assign must be clean")
	}
	checked := []loopir.Stmt{
		&loopir.Assign{Array: "a", Subs: []loopir.IntExpr{&loopir.IConst{Value: 1}}, Rhs: &loopir.VConst{}, CheckBounds: true},
	}
	if !loopir.CanFail(checked) {
		t.Error("bounds-checked assign must be an error path")
	}
	readChecked := []loopir.Stmt{
		&loopir.SetScalar{Name: "s", Rhs: &loopir.ARef{Array: "a", Subs: []loopir.IntExpr{&loopir.IConst{Value: 1}}, CheckBounds: true}},
	}
	if !loopir.CanFail(readChecked) {
		t.Error("checked read must be an error path")
	}
	condChecked := []loopir.Stmt{
		&loopir.If{Cond: &loopir.BConst{Value: true}, Then: []loopir.Stmt{&loopir.Fail{Msg: "x"}}},
	}
	if !loopir.CanFail(condChecked) {
		t.Error("Fail inside If must be an error path")
	}
	nestedBool := []loopir.Stmt{
		&loopir.SetScalar{Name: "s", Rhs: &loopir.VCond{
			C: &loopir.BNot{X: &loopir.BCmpFloat{Op: "<",
				L: &loopir.ARef{Array: "a", Subs: []loopir.IntExpr{&loopir.IConst{Value: 1}}, CheckDefined: true},
				R: &loopir.VConst{}}},
			T: &loopir.VConst{}, E: &loopir.VConst{},
		}},
	}
	if !loopir.CanFail(nestedBool) {
		t.Error("checked read inside a boolean condition must be an error path")
	}
	// An integer mod (or division) fails on a zero divisor, and gogen
	// checks for it with a `return err`.
	mod := []loopir.Stmt{
		&loopir.Assign{Array: "a", Subs: []loopir.IntExpr{&loopir.IConst{Value: 1}}, Rhs: &loopir.VFromInt{
			X: &loopir.IBin{Op: '%', L: &loopir.IVar{Name: "n"}, R: &loopir.IVar{Name: "i"}}}},
	}
	if !loopir.CanFail(mod) {
		t.Error("integer mod must be an error path")
	}
}
