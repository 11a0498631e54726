// Package native is the compiled-Go execution tier: it takes the
// loop-IR plans of one or more compiled programs, emits them as a
// standalone Go package through gogen, builds that package with the
// host toolchain, and loads the result back into the process so a
// compiled program runs as real machine code instead of interpreter
// closures — the paper's "comparable to Fortran" claim made the hot
// path, not just an offline measurement.
//
// The package is built with `go build -buildmode=plugin` and loaded
// with plugin.Open, so the emitted entry points become in-process
// function values and a native call costs exactly one function call
// plus the program's own loops. The emitted package imports only fmt,
// math and sync/atomic. Its scheduled loops call two runner variables,
// RunShard and RunWavefront (gogen.Runners). After plugin.Open, and
// before any entry is published, the host assigns them loopir.Shard
// and loopir.Wavefront, so native kernels run on the interpreter's
// executors, worker pool and worker count. When the host binary is
// race-instrumented the plugin is built with -race too (the runtimes
// must match). Where a plugin cannot be built or loaded, Build fails
// and the caller keeps serving the interpreted tier.
//
// Builds are batched: one Build call with N program specs produces ONE
// toolchain invocation and one loaded module serving all N programs,
// which is what keeps a 200-program differential suite at seconds
// instead of minutes.
package native

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arraycomp/internal/gogen"
	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
)

// buildTimeout bounds one toolchain invocation.
const buildTimeout = 3 * time.Minute

// Unit is one compiled definition inside a program, in evaluation
// order: its lowered loop-IR plan.
type Unit struct {
	// Name is the definition (result array) name.
	Name string
	// Prog is the lowered loop-IR program of this definition.
	Prog *loopir.Program
}

// ProgramSpec describes one program to compile natively: its units in
// evaluation order and the name of the result definition.
type ProgramSpec struct {
	// Key addresses the program inside the module (any non-empty
	// string, unique within one Build call — callers typically use the
	// plan-cache content address or a corpus seed).
	Key string
	// Units are the compiled definitions in evaluation order.
	Units []Unit
	// Result names the unit whose output is the program result.
	Result string
	// Workers is the worker budget of the program's parallel loops
	// (core.Options.Workers); 0 means GOMAXPROCS at the start of
	// each run, as the interpreter resolves it.
	Workers int
}

// Module is one loaded native build serving the programs of a Build
// call. A module is safe for concurrent use. Go plugins cannot be
// unloaded, so a module stays mapped for the life of the process.
type Module struct {
	plans map[string]*Plan
}

// Plan is one program's native execution plan.
type Plan struct {
	key     string
	fn      entry
	workers int
	inputs  []string
	bounds  runtime.Bounds
	// flatPool recycles the name→data map marshalled on every call, so
	// the steady-state host overhead per Run is the result slice and
	// its Strict header only.
	flatPool sync.Pool
	// verifyFn reads the module's cumulative verify verdicts.
	verifyFn func() (uint64, uint64)
	// vmu guards the last-seen counters behind TakeVerifyDelta.
	vmu                sync.Mutex
	lastPass, lastFail uint64
}

// Builds counts completed native toolchain invocations in this
// process — the observable side of promotion singleflight: however
// many concurrent evaluations race a tier-up, the count rises once.
var builds atomic.Int64

// Builds returns the number of native builds this process has run.
func Builds() int64 { return builds.Load() }

// modSeq makes plugin package paths process-unique: the Go plugin
// runtime refuses to open two distinct plugins sharing a package
// path, so every build gets a fresh module name.
var modSeq atomic.Int64

// Build emits, compiles, and loads the given programs as one native
// module. All specs share a single toolchain invocation.
func Build(specs []ProgramSpec) (*Module, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("native: no programs to build")
	}
	if _, err := exec.LookPath("go"); err != nil {
		return nil, fmt.Errorf("native: go toolchain unavailable: %w", err)
	}
	src, metas, err := emitModuleSource(specs)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "hacnative")
	if err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	// The loaded plugin keeps its mapping alive; the directory can go.
	defer os.RemoveAll(dir)
	modName := fmt.Sprintf("hacnative%d_%d", os.Getpid(), modSeq.Add(1))
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	gomod := fmt.Sprintf("module %s\n\ngo 1.24\n", modName)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}

	entries, verifies, err := buildAndOpenPlugin(dir)
	if err != nil {
		return nil, fmt.Errorf("native: %w", err)
	}
	m := &Module{plans: map[string]*Plan{}}
	for _, spec := range specs {
		fn, ok := entries[spec.Key]
		vf, vok := verifies[spec.Key]
		if !ok || !vok {
			return nil, fmt.Errorf("native: plugin is missing entry %q", spec.Key)
		}
		meta := metas[spec.Key]
		m.plans[spec.Key] = &Plan{key: spec.Key, fn: fn, workers: spec.Workers, verifyFn: vf, inputs: meta.inputs, bounds: meta.bounds}
	}
	builds.Add(1)
	return m, nil
}

// BuildOne is the single-program convenience used by tier promotion.
func BuildOne(spec ProgramSpec) (*Plan, error) {
	m, err := Build([]ProgramSpec{spec})
	if err != nil {
		return nil, err
	}
	return m.Plan(spec.Key), nil
}

// Plan returns the plan for a spec key, or nil.
func (m *Module) Plan(key string) *Plan { return m.plans[key] }

// Run executes the native program. Semantics match the interpreter
// tier exactly: inputs are never mutated (a bigupd over an input is a
// copy-update plan), runtime checks surface as errors, and the result
// carries the compiled bounds.
func (p *Plan) Run(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	flat, _ := p.flatPool.Get().(map[string][]float64)
	if flat == nil {
		flat = make(map[string][]float64, len(p.inputs))
	}
	for _, name := range p.inputs {
		a, ok := inputs[name]
		if !ok {
			p.flatPool.Put(flat)
			return nil, fmt.Errorf("native: missing input array %q", name)
		}
		flat[name] = a.Data
	}
	w := p.workers
	if w <= 0 {
		w = goruntime.GOMAXPROCS(0)
	}
	out, err := p.fn(w, flat)
	// The callee does not retain flat past its return; drop the data
	// references and recycle the map.
	for k := range flat {
		delete(flat, k)
	}
	p.flatPool.Put(flat)
	if err != nil {
		return nil, err
	}
	if int64(len(out)) != p.bounds.Size() {
		return nil, fmt.Errorf("native: program %q returned %d elements, bounds %s want %d",
			p.key, len(out), p.bounds, p.bounds.Size())
	}
	return &runtime.Strict{B: p.bounds, Data: out}, nil
}

// TakeVerifyDelta returns the runtime-verifier verdicts recorded since
// the previous call (or since load), so the host can fold native-tier
// verifications into the same counters the interpreter hook feeds.
// Deltas are consumed exactly once; concurrent callers split them.
// The module's counters are monotonic atomics, so the delta is never
// negative.
func (p *Plan) TakeVerifyDelta() (pass, fail int64) {
	curPass, curFail := p.verifyFn()
	p.vmu.Lock()
	defer p.vmu.Unlock()
	pass = int64(curPass - p.lastPass)
	fail = int64(curFail - p.lastFail)
	p.lastPass, p.lastFail = curPass, curFail
	return pass, fail
}

// planMeta is the host-side metadata captured during emission.
type planMeta struct {
	inputs []string
	bounds runtime.Bounds
}

// emitModuleSource renders all specs into one self-contained main
// package: per-unit functions from gogen, a driver per program that
// chains them the way core.Program.Run does, the runner variables, and
// the Entries and VerifyCounts registries the host looks up after
// plugin.Open.
func emitModuleSource(specs []ProgramSpec) (string, map[string]*planMeta, error) {
	metas := map[string]*planMeta{}
	var funcs strings.Builder
	var entries strings.Builder
	var verifies strings.Builder
	entries.WriteString("// Entries maps program keys to their native entry points.\nvar Entries = map[string]func(int, map[string][]float64) ([]float64, error){\n")
	verifies.WriteString("// VerifyCounts reads a program's cumulative runtime-verifier\n// verdicts (verified, failed) — the native mirror of the host's\n// VerifyStats, queried after runs so no verdict is dropped.\nvar VerifyCounts = map[string]func() (uint64, uint64){\n")
	seen := map[string]bool{}
	for i, spec := range specs {
		if spec.Key == "" || seen[spec.Key] {
			return "", nil, fmt.Errorf("native: spec %d has empty or duplicate key %q", i, spec.Key)
		}
		seen[spec.Key] = true
		fmt.Fprintf(&funcs, "var nvPass_%d, nvFail_%d uint64\n\n", i, i)
		meta, err := emitProgram(&funcs, spec, i)
		if err != nil {
			return "", nil, err
		}
		metas[spec.Key] = meta
		fmt.Fprintf(&entries, "\t%q: nrun_%d,\n", spec.Key, i)
		fmt.Fprintf(&verifies, "\t%q: func() (uint64, uint64) { return atomic.LoadUint64(&nvPass_%d), atomic.LoadUint64(&nvFail_%d) },\n", spec.Key, i, i)
	}
	entries.WriteString("}\n")
	verifies.WriteString("}\n")

	var b strings.Builder
	b.WriteString("// Code generated by arraycomp (internal/native). DO NOT EDIT.\npackage main\n\n")
	b.WriteString("import (\n\t\"fmt\"\n\t\"math\"\n\t\"sync/atomic\"\n)\n\nvar _, _ = fmt.Errorf, math.Abs\n\n")
	b.WriteString(gogen.Runners)
	b.WriteString("\n")
	b.WriteString(entries.String())
	b.WriteString("\n")
	b.WriteString(verifies.String())
	b.WriteString("\n")
	b.WriteString(funcs.String())
	return b.String(), metas, nil
}

// emitProgram renders one spec: its unit functions plus the driver.
func emitProgram(b *strings.Builder, spec ProgramSpec, idx int) (*planMeta, error) {
	if len(spec.Units) == 0 {
		return nil, fmt.Errorf("native: program %q has no units", spec.Key)
	}
	// produced maps a definition name to its driver-local variable.
	produced := map[string]string{}
	external := map[string]string{}
	var externalOrder []string
	var driver strings.Builder

	resolve := func(name string) string {
		if v, ok := produced[name]; ok {
			return v
		}
		if v, ok := external[name]; ok {
			return v
		}
		v := fmt.Sprintf("e%d", len(externalOrder))
		external[name] = v
		externalOrder = append(externalOrder, name)
		return v
	}

	var resultVar string
	var resultBounds runtime.Bounds
	var calls strings.Builder
	for j, u := range spec.Units {
		fnName := fmt.Sprintf("nf_%d_%d", idx, j)
		src, params, results, err := gogen.EmitFuncCounted(u.Prog, fnName,
			fmt.Sprintf("nvPass_%d", idx), fmt.Sprintf("nvFail_%d", idx))
		if err != nil {
			return nil, fmt.Errorf("native: program %q unit %s: %w", spec.Key, u.Name, err)
		}
		if len(results) != 1 {
			return nil, fmt.Errorf("native: program %q unit %s has %d result arrays, want 1", spec.Key, u.Name, len(results))
		}
		b.WriteString(src)
		b.WriteString("\n")

		args := []string{"workers"}
		for _, pn := range params {
			args = append(args, resolve(pn))
		}
		out := fmt.Sprintf("d%d", j)
		produced[u.Name] = out
		fmt.Fprintf(&calls, "\t%s, err%d := %s(%s)\n", out, j, fnName, strings.Join(args, ", "))
		fmt.Fprintf(&calls, "\tif err%d != nil {\n\t\treturn nil, err%d\n\t}\n", j, j)
		fmt.Fprintf(&calls, "\t_ = %s\n", out)
		if u.Name == spec.Result {
			resultVar = out
			d := u.Prog.Decl(results[0])
			if d == nil {
				return nil, fmt.Errorf("native: program %q unit %s: result decl %q missing", spec.Key, u.Name, results[0])
			}
			resultBounds = d.B
		}
	}
	if resultVar == "" {
		return nil, fmt.Errorf("native: program %q never defines result %q", spec.Key, spec.Result)
	}

	fmt.Fprintf(&driver, "func nrun_%d(workers int, in map[string][]float64) ([]float64, error) {\n", idx)
	for _, name := range externalOrder {
		fmt.Fprintf(&driver, "\t%s, ok%s := in[%q]\n", external[name], external[name], name)
		fmt.Fprintf(&driver, "\tif !ok%s {\n\t\treturn nil, fmt.Errorf(\"native: missing input array %%q\", %q)\n\t}\n", external[name], name)
	}
	driver.WriteString(calls.String())
	fmt.Fprintf(&driver, "\treturn %s, nil\n}\n\n", resultVar)
	b.WriteString(driver.String())

	return &planMeta{inputs: externalOrder, bounds: resultBounds}, nil
}

// buildAndOpenPlugin compiles the emitted package as a Go plugin and
// loads its entry and verify-counter registries. The plugin is
// race-instrumented iff this binary is: the Go runtime refuses to mix
// race and non-race images.
func buildAndOpenPlugin(dir string) (entryMap, verifyMap, error) {
	args := []string{"build", "-buildmode=plugin"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", "plan.so", ".")
	if out, err := runGo(dir, args...); err != nil {
		return nil, nil, fmt.Errorf("plugin build: %v: %s", err, truncate(out, 400))
	}
	return openPlugin(filepath.Join(dir, "plan.so"))
}

// runGo invokes the toolchain in dir with CGO enabled (plugins need
// it) and module mode pinned, killing it after buildTimeout.
func runGo(dir string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.TODO(), buildTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "CGO_ENABLED=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
