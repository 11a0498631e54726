// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process for a fixed time budget, checks every
// op's output against a reference computed apart from the code under
// test, and prints as its last line one JSON object: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced run
// (--trace 1). The lines before it stamp the host and the configuration.
// README.md describes the workloads and which end-to-end metric each
// layer metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// workers is the worker budget every compile pins and the GOMAXPROCS
// the process runs at. The loop-IR planner sizes tiles from GOMAXPROCS
// while planning, so pinning both keeps plan shapes the same on every
// host.
const workers = 2

// minOps is the fewest ops a run attempts, so that at least ten samples
// lie beyond the 90th percentile.
const minOps = 100

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	minOps   int
	// spansDir receives the traced run's spans.
	spansDir string
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	setup []time.Duration // one per set-up repetition
	phase *phase
	// rssMiB is the process's peak RSS at the end of the timed phase.
	rssMiB float64
	// stamp holds sizes and plan shapes for the configuration line.
	stamp map[string]any
	// layers and spans are set by traced runs only.
	layers map[string]float64
	spans  *recorder
}

var workloadFuncs = map[string]func(config) (*outcome, error){
	"kernels": runKernels,
	"compile": runCompile,
	"serve":   runServe,
	"stream":  runStream,
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	goruntime.GOMAXPROCS(workers)
	o, err := workloadFuncs[cfg.workload](cfg)
	if err == nil {
		err = writeReport(os.Stdout, cfg, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: kernels, compile, serve or stream")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloadFuncs[*workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		minOps:   minOps,
		spansDir: filepath.Join(".bench_build", "spans"),
	}, nil
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the host and configuration stamps, writes a traced
// run's spans, and prints the result line.
func writeReport(w io.Writer, cfg config, o *outcome) error {
	conf := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.budget.Seconds(),
		"trace":      cfg.trace,
		"workers":    workers,
		"setup_reps": setupReps,
	}
	for k, v := range o.stamp {
		conf[k] = v
	}
	if err := printLine(w, "host", hostStamp()); err != nil {
		return err
	}
	if err := printLine(w, "config", conf); err != nil {
		return err
	}
	res := result{
		Correct:   o.phase.failed == 0 && o.phase.attempted() > 0,
		Attempted: o.phase.attempted(),
		Failed:    o.phase.failed,
	}
	if cfg.trace {
		self := o.spans.selfMsPerOp()
		if err := printLine(w, "self_ms_per_op", self); err != nil {
			return err
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := o.spans.write(path, cfg, self); err != nil {
			return err
		}
		res.Metrics = withUnits(layerSpecs, o.layers)
	} else {
		res.Metrics = endToEndMetrics(o)
	}
	return printLine(w, "", res)
}

// printLine writes v as one JSON line, after label when one is given.
func printLine(w io.Writer, label string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if label != "" {
		_, err = fmt.Fprintf(w, "%s %s\n", label, data)
	} else {
		_, err = fmt.Fprintf(w, "%s\n", data)
	}
	return err
}
