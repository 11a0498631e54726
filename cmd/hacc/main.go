// Command hacc is the array-comprehension compiler driver: it parses a
// program in the paper's surface syntax, runs the subscript analysis
// and scheduler, and reports (or executes) the result.
//
// Usage:
//
//	hacc report [-p n=100,m=20] [-in a=1:8,1:8] [-O] [-explain] [-certify] file.hac
//	hacc run     [-p n=100] [-in a=1:8,1:8] [-seed 1] [-show k] [-parallel] [-workers k] [-explain] [-certify] [-stream] [-tier off|auto|native] [-tier-threshold n] [-repeat n] file.hac
//	hacc ir      [-p n=100] [-in …] [-O] [-nostencil] file.hac
//	hacc dot     [-p n=100] [-in …] file.hac
//	hacc emit-go [-p n=100] [-in …] [-O] file.hac   # standalone Go source
//	hacc fuzz    [-n 100] [-seed 1] [-nogogen] [-nonative]  # differential fuzzing
//
// -p binds scalar parameters; -in declares the bounds of free input
// arrays (filled with deterministic pseudo-random data for `run`).
// For the inspection commands (report, ir, emit-go) the loop-IR
// optimizer is off by default so the output shows the scheduler's raw
// lowering; -O turns it on (`hacc ir -O` prints the fused /
// strength-reduced nest). `run` always executes the optimized plan.
// `fuzz` generates random programs and cross-checks every backend
// against the thunked reference, shrink-reporting any divergence.
// -certify re-proves every dependence verdict the compiler acted on
// (concrete witnesses for "dependent", shadow-domain enumeration for
// "independent", schedule-order simulation, parallel-plan conflict
// checks); a falsified claim is a compiler bug and aborts the compile.
// With -certify (or -explain on a certified compile), each certifier's
// tally and time are printed before the command's output.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/gogen"
	"arraycomp/internal/oracle"
	"arraycomp/internal/runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hacc:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: hacc <report|run|ir|dot|emit-go|fuzz> [flags] [file.hac]")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var paramsFlag, inFlag repeated
	fs.Var(&paramsFlag, "p", "comma-separated parameter bindings, e.g. n=100,m=20; repeatable")
	fs.Var(&inFlag, "in", "semicolon-separated input bounds, e.g. a=1:8,1:8;b=0:99; repeatable")
	seed := fs.Int64("seed", 1, "seed for generated input data (run) or first program seed (fuzz)")
	show := fs.Int64("show", 5, "how many leading elements to print (run)")
	thunked := fs.Bool("thunked", false, "force the thunked baseline")
	optimize := fs.Bool("O", false, "run the loop-IR optimizer before report/ir/emit-go output")
	explain := fs.Bool("explain", false, "print the compile report (per-phase timings, optimization counters) before the command output")
	parallel := fs.Bool("parallel", false, "enable parallel scheduling (shard/wavefront)")
	certifyFlag := fs.Bool("certify", false, "audit every dependence verdict (witness re-checks + shadow-domain enumeration); falsified claims abort the compile naming the lying layer")
	noStencil := fs.Bool("nostencil", false, "disable stencil guard splitting (interior/boundary clones)")
	workers := fs.Int("workers", 0, "parallel worker count; 0 = GOMAXPROCS at run time (needs -parallel)")
	streamFlag := fs.Bool("stream", false, "execute through the bounded-memory streaming pipeline when the window-legality analysis allows it (run; materialized fallback otherwise)")
	tierFlag := fs.String("tier", "off", "execution tier policy for run: off, auto (promote to compiled native code after -tier-threshold calls), or native (compile natively up front); implies -certify")
	tierThreshold := fs.Int("tier-threshold", 0, "interpreted calls before auto promotion; 0 = default (run)")
	repeat := fs.Int("repeat", 1, "evaluate the program n times (run; >1 exercises tier promotion)")
	fuzzN := fs.Int("n", 100, "number of programs to generate (fuzz)")
	noGogen := fs.Bool("nogogen", false, "skip the emitted-Go backend (fuzz)")
	noNative := fs.Bool("nonative", false, "skip the native execution tier (fuzz)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if cmd == "fuzz" {
		if fs.NArg() != 0 {
			return fmt.Errorf("fuzz takes no source file")
		}
		return runFuzz(*fuzzN, *seed, !*noGogen, !*noNative, w)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one source file")
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	params, err := parseParams(paramsFlag...)
	if err != nil {
		return err
	}
	inputBounds, err := parseInputs(inFlag...)
	if err != nil {
		return err
	}
	tierMode, err := core.ParseTierMode(*tierFlag)
	if err != nil {
		return err
	}
	if tierMode != core.TierOff && cmd != "run" {
		return fmt.Errorf("-tier only applies to run")
	}
	if *streamFlag && cmd != "run" {
		return fmt.Errorf("-stream only applies to run")
	}
	opts := core.Options{ForceThunked: *thunked, Parallel: *parallel, Workers: *workers, InputBounds: inputBounds, Certify: *certifyFlag, NoStencil: *noStencil, Stream: *streamFlag,
		// TierSync keeps the CLI deterministic: promotion happens inline
		// at the threshold call, never racing the process exit.
		Tier: tierMode, TierThreshold: *tierThreshold, TierSync: true}
	// Inspection commands show the raw lowering unless -O; execution
	// always optimizes.
	if cmd != "run" {
		opts.NoOptimize = !*optimize
	}
	prog, err := core.Compile(string(srcBytes), params, opts)
	if err != nil {
		return err
	}
	if *explain {
		// The same instrumentation layer the haccd service exposes via
		// GET /metrics: phase timings plus optimization counters.
		fmt.Fprint(w, prog.Stats.String())
	}
	if *certifyFlag && prog.Certs != nil {
		// A compile that got here has zero falsifications (they abort
		// with an error); print the audit trail.
		fmt.Fprint(w, prog.Certs.String())
	}
	if (*explain || *certifyFlag) && prog.Certs != nil {
		// The certify phase split by certifier: each one's tally and time.
		fmt.Fprint(w, "certify layers:\n", prog.Certs.LayerTable())
	}
	switch cmd {
	case "report":
		fmt.Fprint(w, prog.Report())
		return nil
	case "dot":
		for _, name := range prog.Order {
			fmt.Fprint(w, prog.Defs[name].Analysis.Graph.DOT(name))
		}
		return nil
	case "ir":
		for _, name := range prog.Order {
			cd := prog.Defs[name]
			if cd.Plan == nil {
				fmt.Fprintf(w, "-- %s: %s (no loop IR)\n", name, cd.Mode())
				continue
			}
			fmt.Fprint(w, cd.Plan.Program.Dump())
		}
		return nil
	case "emit-go":
		for _, name := range prog.Order {
			cd := prog.Defs[name]
			if cd.Plan == nil {
				return fmt.Errorf("%s compiled %s; only thunkless/in-place plans can be emitted as Go", name, cd.Mode())
			}
			src, err := gogen.EmitFile(cd.Plan.Program, "main", exportName(name))
			if err != nil {
				return err
			}
			fmt.Fprint(w, src)
		}
		return nil
	case "run":
		inputs := map[string]*runtime.Strict{}
		rng := rand.New(rand.NewSource(*seed))
		for name, b := range inputBounds {
			a := runtime.NewStrict(runtime.Bounds{Lo: b.Lo, Hi: b.Hi})
			for i := range a.Data {
				a.Data[i] = rng.Float64()
			}
			inputs[name] = a
		}
		if *repeat < 1 {
			return fmt.Errorf("run: -repeat must be at least 1")
		}
		var out *runtime.Strict
		for i := 0; i < *repeat; i++ {
			out, _, err = prog.RunTiered(inputs)
			if err != nil {
				return err
			}
		}
		if tierMode != core.TierOff {
			fmt.Fprintf(w, "%s\n", prog.TierReport())
		}
		if *streamFlag {
			if rep := prog.StreamReport(); prog.StreamActive() && rep != nil {
				fmt.Fprintf(w, "stream: stages=%d chunk=%d chunks=%d window_d=%d peak_bytes=%d materialized_bytes=%d\n",
					rep.Stages, rep.ChunkSize, rep.Chunks, rep.MaxDist, rep.PeakBytes, rep.MaterializedBytes)
			} else {
				fmt.Fprintf(w, "stream: materialized fallback: %s\n", prog.StreamFallback())
			}
		}
		fmt.Fprintf(w, "result %s %s\n", prog.Result, out.B)
		n := out.B.Size()
		if n > *show {
			n = *show
		}
		for off := int64(0); off < n; off++ {
			fmt.Fprintf(w, "  %s%v = %g\n", prog.Result, out.B.Unlinear(off), out.Data[off])
		}
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// fuzzConfig is the generator configuration hacc fuzz draws from: the
// defaults plus accumulations the row kernels run unchecked, which the
// default shapes seldom reach.
var fuzzConfig = gencomp.Config{AccumWeight: 250}

// runFuzz is the differential-fuzzing entry point: n generated
// programs, every Options ablation cross-checked against the thunked
// reference (and, unless -nogogen, against emitted Go run out of
// process; unless -nonative, against the native execution tier).
// Failures are minimized by the structural shrinker and printed in
// the corpus file format, ready to be checked into
// internal/oracle/testdata/.
func runFuzz(n int, seed int64, withGogen, withNative bool, w io.Writer) error {
	if n <= 0 {
		return fmt.Errorf("fuzz: -n must be positive")
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(seed) + uint64(i)
	}
	s := oracle.RunSeeds(seeds, fuzzConfig, withGogen, withNative)
	fmt.Fprint(w, s)
	if len(s.Failures) == 0 {
		fmt.Fprintf(w, "FUZZ-OK programs=%d\n", s.Programs)
		return nil
	}
	// One machine-readable line per divergence, so CI steps fail on a
	// grep-able contract (and the exit status) rather than log shape.
	for _, c := range s.Failures {
		backends := map[string]bool{}
		for _, m := range c.Mismatches {
			backends[m.Backend] = true
		}
		names := make([]string, 0, len(backends))
		for b := range backends {
			names = append(names, b)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "FUZZ-FAIL seed=%d backends=%s\n", c.Seed, strings.Join(names, ","))
	}
	const maxReports = 3
	for i, c := range s.Failures {
		if i >= maxReports {
			fmt.Fprintf(w, "\n… and %d more failing seeds\n", len(s.Failures)-maxReports)
			break
		}
		min := oracle.ShrinkFailure(c)
		fmt.Fprintf(w, "\nseed %d diverges; minimized reproducer:\n", c.Seed)
		fmt.Fprint(w, oracle.CorpusString(min.Program))
		report := min
		if !report.Failed() {
			// The gogen-only part of the failure is not re-checked by
			// the shrinker's inner loop; fall back to the original.
			report = c
		}
		for _, m := range report.Mismatches {
			fmt.Fprintf(w, "  %s: %s\n", m.Backend, m.Detail)
		}
	}
	return fmt.Errorf("fuzz: %d of %d programs diverged", len(s.Failures), n)
}

// exportName capitalizes a definition name into an exported Go
// identifier.
func exportName(s string) string {
	if s == "" {
		return "Compiled"
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// repeated collects every occurrence of a repeatable flag.
type repeated []string

func (r *repeated) String() string { return strings.Join(*r, " ") }

func (r *repeated) Set(s string) error {
	*r = append(*r, s)
	return nil
}

// eachBinding calls fn for every name=value entry of a repeatable flag's
// occurrences, whose entries are separated by sep. A name may be given
// once across all of them.
func eachBinding(vals []string, sep, what string, fn func(name, val string) error) error {
	seen := map[string]bool{}
	for _, s := range vals {
		if s == "" {
			continue
		}
		for _, part := range strings.Split(s, sep) {
			name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || name == "" {
				return fmt.Errorf("bad %s %q", what, part)
			}
			if seen[name] {
				return fmt.Errorf("%s %s given twice", what, name)
			}
			seen[name] = true
			if err := fn(name, val); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseParams(vals ...string) (map[string]int64, error) {
	out := map[string]int64{}
	err := eachBinding(vals, ",", "parameter", func(name, val string) error {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad value of parameter %s: %v", name, err)
		}
		out[name] = v
		return nil
	})
	return out, err
}

func parseInputs(vals ...string) (map[string]analysis.ArrayBounds, error) {
	out := map[string]analysis.ArrayBounds{}
	err := eachBinding(vals, ";", "input", func(name, val string) error {
		var b analysis.ArrayBounds
		for _, dim := range strings.Split(val, ",") {
			lh := strings.SplitN(strings.TrimSpace(dim), ":", 2)
			if len(lh) != 2 {
				return fmt.Errorf("bad bounds %q (want lo:hi)", dim)
			}
			lo, err := strconv.ParseInt(lh[0], 10, 64)
			if err != nil {
				return err
			}
			hi, err := strconv.ParseInt(lh[1], 10, 64)
			if err != nil {
				return err
			}
			b.Lo = append(b.Lo, lo)
			b.Hi = append(b.Hi, hi)
		}
		out[name] = b
		return nil
	})
	return out, err
}
