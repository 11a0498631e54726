// Command benchdiff is the CI bench-regression gate: it compares a
// fresh hacbench -json run against a committed baseline and exits
// nonzero if any gated label's ns/op regressed beyond the threshold.
//
//	benchdiff -base BENCH_2.json -new /tmp/bench.json -max-regress 25
//
// -new takes a comma-separated list of result files from repeated runs;
// every check then reads their per-label median, so one run slowed by a
// noisy host fails nothing:
//
//	benchdiff -base BENCH_2.json -new /tmp/b1.json,/tmp/b2.json,/tmp/b3.json
//
// Baseline arms that exist to be slow (thunked, hand-written, naive,
// trailer, list variants) are skipped by default; -skip overrides the
// substring list and -all gates everything. Output ends with one
// machine-readable summary line — BENCH-OK on success, BENCH-FAIL
// after one BENCH-REGRESS / BENCH-MISSING line per offender — so CI
// logs can be grepped without parsing tables.
//
// Result files record the measuring host (CPU count, GOMAXPROCS, Go
// version); when the two files disagree a BENCH-HOST-MISMATCH line is
// printed, and -require-same-host turns that warning into a failure.
//
// The wall also gates expected orderings WITHIN the new run: a
// repeatable -minspeedup "SLOW|FAST|RATIO" flag asserts that the FAST
// label beats the SLOW one by at least RATIO — e.g.
//
//	benchdiff -new /tmp/b.json -speedup-only \
//	  -minspeedup 'sor 256x256 x20 interp|sor 256x256 x20 native|1.0' \
//	  -minspeedup 'jacobi workers=1|jacobi workers=4|1.5'
//
// so an arm that exists to be faster failing to keep its edge fails
// CI even when neither arm regressed against its own baseline.
// A fresh file measured with GOMAXPROCS above the CPU count cannot
// show the speedups parallel arms exist for: there a check with an arm
// labelled w=N or workers=N, N above the CPU count, prints
// BENCH-HOST-MISMATCH with its measured ratio and does not fail; every
// other check is judged as usual.
// -speedup-only skips the baseline comparison entirely (no -base file
// needed), which is how the multicore wall gates a fresh same-host
// run where no committed cross-host baseline would be comparable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"arraycomp/internal/benchcmp"
)

func main() {
	var (
		basePath   = flag.String("base", "BENCH_2.json", "committed baseline result file")
		newPath    = flag.String("new", "", "fresh hacbench -json result file, or a comma-separated list of repeated runs' files, compared by their per-label median (required)")
		maxRegress = flag.Float64("max-regress", 25, "max allowed ns/op regression, percent")
		skipList   = flag.String("skip", strings.Join(benchcmp.DefaultSkip, ","),
			"comma-separated label substrings excluded from gating")
		all         = flag.Bool("all", false, "gate every label, including baseline arms")
		quiet       = flag.Bool("quiet", false, "suppress the per-label table")
		sameHost    = flag.Bool("require-same-host", false, "fail (exit 1) when the two files were measured on different hosts; default is a BENCH-HOST-MISMATCH warning")
		speedupOnly = flag.Bool("speedup-only", false, "skip the baseline comparison; gate only the -minspeedup checks against -new")
	)
	var checks []benchcmp.SpeedupCheck
	flag.Func("minspeedup", "expected ordering 'SLOW|FAST|RATIO' within the new run (repeatable)", func(s string) error {
		c, err := benchcmp.ParseSpeedupCheck(s)
		if err != nil {
			return err
		}
		checks = append(checks, c)
		return nil
	})
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		flag.Usage()
		os.Exit(2)
	}
	if *speedupOnly && len(checks) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -speedup-only without any -minspeedup check gates nothing")
		os.Exit(2)
	}
	var runs []map[string]benchcmp.Result
	for _, path := range strings.Split(*newPath, ",") {
		run, err := benchcmp.Load(path)
		if err != nil {
			die(err)
		}
		runs = append(runs, run)
	}
	fresh := benchcmp.Median(runs)
	failed := false
	if !*speedupOnly {
		base, err := benchcmp.Load(*basePath)
		if err != nil {
			die(err)
		}
		var skip func(string) bool
		if !*all {
			skip = benchcmp.Skipper(strings.Split(*skipList, ","))
		}
		if mismatch := benchcmp.HostMismatch(base, fresh); mismatch != "" {
			// ns/op from different machines are not comparable; say so in a
			// grep-able form, and refuse outright under -require-same-host.
			fmt.Printf("BENCH-HOST-MISMATCH %s\n", mismatch)
			if *sameHost {
				os.Exit(1)
			}
		}
		rep := benchcmp.Compare(base, fresh, *maxRegress, skip)
		if !*quiet {
			fmt.Printf("benchdiff: %s vs %s (wall: +%.0f%%)\n", *basePath, *newPath, *maxRegress)
			rep.WriteTable(os.Stdout)
		}
		rep.WriteMachine(os.Stdout)
		failed = !rep.OK()
	}
	if len(checks) > 0 {
		results, ok := benchcmp.CheckSpeedups(fresh, checks)
		benchcmp.WriteSpeedups(os.Stdout, results)
		failed = failed || !ok
	}
	if failed {
		os.Exit(1)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
