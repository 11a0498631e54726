package gogen_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gogen"
	"arraycomp/internal/workloads"
)

func checkGofmt(t *testing.T, name, src string) {
	t.Helper()
	if _, err := exec.LookPath("gofmt"); err != nil {
		t.Skip("gofmt not available")
	}
	path := filepath.Join(t.TempDir(), "gen.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("gofmt", "-e", "-l", path).CombinedOutput(); err != nil {
		t.Fatalf("%s: gofmt: %v\n%s\nsource:\n%s", name, err, out, src)
	}
}

// parDifferential compiles src with the Parallel option, checks the
// emitted function carries the expected schedule shape, and runs the
// generated code against the interpreter on identical inputs.
func parDifferential(t *testing.T, src string, params map[string]int64, inputDims map[string][]int64, def string, wantShapes ...string) {
	t.Helper()
	inputBounds := map[string]analysis.ArrayBounds{}
	for name, dims := range inputDims {
		lo := make([]int64, len(dims))
		for i := range lo {
			lo[i] = 1
		}
		inputBounds[name] = analysis.ArrayBounds{Lo: lo, Hi: dims}
	}
	prog, err := core.Compile(src, params, core.Options{Parallel: true, InputBounds: inputBounds})
	if err != nil {
		t.Fatal(err)
	}
	fn, fnParams, results, err := gogen.EmitFunc(prog.Defs[def].Plan.Program, "Compiled")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range wantShapes {
		if !strings.Contains(fn, want) {
			t.Fatalf("emitted function missing %q:\n%s", want, fn)
		}
	}
	if testing.Short() {
		t.Skip("short mode: skipping go-run differential")
	}
	dir := t.TempDir()
	emitHarness(t, dir, prog, def, false)
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

// TestGeneratedWavefrontSchedule: SOR's doacross nest must emit a
// RunWavefront call over its tile grid and still match the interpreter
// exactly.
func TestGeneratedWavefrontSchedule(t *testing.T) {
	n := int64(384)
	parDifferential(t, workloads.SORSrc, workloads.ParamsFor("sor", n),
		map[string][]int64{"a": {n, n}}, "a2",
		"wavefront nest", "RunWavefront(workers, ", "func(_ int, bi, bj int64) {")
}

// TestGeneratedShardNestSchedule: the dependence-free Jacobi interior
// shards its outer loop: one RunShard call, whole rows per chunk.
func TestGeneratedShardNestSchedule(t *testing.T) {
	n := int64(192)
	parDifferential(t, workloads.JacobiMonolithicSrc, workloads.ParamsFor("jacobimono", n),
		map[string][]int64{"b": {n, n}}, "a",
		"shard loop over", "RunShard(workers, int64(190), nil, func(_ int, lo, hi int64) {")
}

// TestGeneratedProgramNamesReserved: program identifiers never collide
// with the emitter's own or with each other. Arrays named lo (the shard
// closure's chunk bound), workers (the budget parameter), math and fmt
// (packages), RunShard (the runner), and a_ beside a' must build and
// match the interpreter.
func TestGeneratedProgramNamesReserved(t *testing.T) {
	const n = 200000
	src := `param n;
RunShard = array (1,n) [ i := lo!(i) * workers!(i) + sqrt (math!(i)) + fmt!(i) - a_!(i) * a'!(i) | i <- [1..n] ]`
	parDifferential(t, src, map[string]int64{"n": n},
		map[string][]int64{"lo": {n}, "workers": {n}, "math": {n}, "fmt": {n}, "a_": {n}, "a'": {n}}, "RunShard",
		"RunShard(workers, int64(200000), nil, func(_ int, lo, hi int64) {")
}

// runnerCall matches an emitted runner call.
const runnerCall = "Run(Shard|Wavefront)\\(workers, "

// TestGeneratedSequentialWithoutSchedule: Parallel marks alone never
// change execution. At one worker the planner attaches no schedule to
// out-of-place Jacobi, the interpreter runs it sequentially, and so
// must the emitted code.
func TestGeneratedSequentialWithoutSchedule(t *testing.T) {
	n := int64(192)
	prog, err := core.Compile(workloads.JacobiMonolithicSrc, workloads.ParamsFor("jacobimono", n),
		core.Options{Parallel: true, Workers: 1, InputBounds: map[string]analysis.ArrayBounds{
			"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}}})
	if err != nil {
		t.Fatal(err)
	}
	if kinds := prog.Stats.Counters.SchedulesByKind; kinds["sequential"] == 0 || len(kinds) != 1 {
		t.Fatalf("schedules %v, want only sequential loops at one worker", kinds)
	}
	fn, _, _, err := gogen.EmitFunc(prog.Defs["a"].Plan.Program, "Compiled")
	if err != nil {
		t.Fatal(err)
	}
	if regexp.MustCompile(runnerCall).MatchString(fn) {
		t.Fatalf("unscheduled loops must emit sequentially:\n%s", fn)
	}
}

// TestForcedChecksSuppressParallelEmission pins the loopir.CanFail ×
// optimizer interplay: with runtime checks forced on, every loop body
// carries error paths and the emitter must fall back to sequential
// loops even though the plans still carry parallel schedules. With the
// optimizer eliminating the checks (the default), the same program
// calls its runner.
func TestForcedChecksSuppressParallelEmission(t *testing.T) {
	n := int64(192)
	bounds := map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{n, n}}}
	params := workloads.ParamsFor("jacobimono", n)

	checked, err := core.Compile(workloads.JacobiMonolithicSrc, params,
		core.Options{Parallel: true, ForceChecks: true, InputBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, _, err := gogen.EmitFunc(checked.Defs["a"].Plan.Program, "Compiled")
	if err != nil {
		t.Fatal(err)
	}
	if regexp.MustCompile(runnerCall).MatchString(fn) {
		t.Fatalf("check-carrying bodies must emit sequentially:\n%s", fn)
	}

	clean, err := core.Compile(workloads.JacobiMonolithicSrc, params,
		core.Options{Parallel: true, InputBounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, _, err = gogen.EmitFunc(clean.Defs["a"].Plan.Program, "Compiled")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fn, "RunShard(workers, ") {
		t.Fatalf("check-eliminated bodies must take the parallel path:\n%s", fn)
	}
}

// TestGeneratedParallelGofmtClean: every scheduled shape must emit
// syntactically valid Go that calls its runner and spawns no goroutine
// of its own.
func TestGeneratedParallelGofmtClean(t *testing.T) {
	n := int64(384)
	csr := workloads.CSRInputs(20000, 8, 5)
	csrBounds := map[string]analysis.ArrayBounds{}
	for name, a := range csr.Inputs {
		csrBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	for _, c := range []struct {
		name, src, def string
		params         map[string]int64
		bounds         map[string]analysis.ArrayBounds
		shape          string // a line the scheduled shape emits
		runner         string // the shape's runner call
	}{
		{"sor", workloads.SORSrc, "a2", workloads.ParamsFor("sor", n),
			map[string]analysis.ArrayBounds{"a": {Lo: []int64{1, 1}, Hi: []int64{n, n}}},
			"wavefront nest", "RunWavefront(workers, "},
		{"jacobimono", workloads.JacobiMonolithicSrc, "a", workloads.ParamsFor("jacobimono", 192),
			map[string]analysis.ArrayBounds{"b": {Lo: []int64{1, 1}, Hi: []int64{192, 192}}},
			"no carried dependences between iterations", "RunShard(workers, int64(190), nil, "},
		{"spmv", workloads.SpMVSrc, "y", csr.Params, csrBounds,
			"equal-subscript runs stay in one chunk", "RunShard(workers, int64(160003), func(_ int, t int64) int64 {"},
	} {
		prog, err := core.Compile(c.src, c.params, core.Options{Parallel: true, InputBounds: c.bounds})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		src, err := gogen.EmitFile(prog.Defs[c.def].Plan.Program, "gen", "F")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, want := range []string{c.shape, c.runner} {
			if !strings.Contains(src, want) {
				t.Fatalf("%s: emitted source missing %q:\n%s", c.name, want, src)
			}
		}
		for _, banned := range []string{"go func", "sync.WaitGroup", "runtime.GOMAXPROCS"} {
			if strings.Contains(src, banned) {
				t.Fatalf("%s: emitted source contains %q:\n%s", c.name, banned, src)
			}
		}
		checkGofmt(t, c.name, src)
	}
}
