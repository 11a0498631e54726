// Package benchcmp compares two hacbench -json result files and
// reports per-label regressions. It is the engine behind the benchdiff
// CLI, which enforces the CI bench-regression wall (compiled-path
// ns/op must not regress more than a threshold against the committed
// baseline).
package benchcmp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark entry: the machine-readable form hacbench
// writes under each label. Workers is 0 for sequential arms. The host
// fields record where the number was measured — ns/op from different
// machines are not comparable, so the regression wall refuses (or at
// least flags) cross-host diffs rather than producing phantom
// regressions. They are omitempty so result files from before the
// fields existed still load.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Workers     int     `json:"workers,omitempty"`
	NCPU        int     `json:"ncpu,omitempty"`
	GoMaxProcs  int     `json:"gomaxprocs,omitempty"`
	GoVersion   string  `json:"go_version,omitempty"`
}

// Host identifies the measuring machine well enough to veto a
// cross-host comparison.
type Host struct {
	NCPU       int
	GoMaxProcs int
	GoVersion  string
}

// CurrentHost snapshots this process's host identity.
func CurrentHost() Host {
	return Host{NCPU: goruntime.NumCPU(), GoMaxProcs: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version()}
}

// Stamp copies the host identity into a result entry.
func (h Host) Stamp(r *Result) {
	r.NCPU = h.NCPU
	r.GoMaxProcs = h.GoMaxProcs
	r.GoVersion = h.GoVersion
}

func (h Host) String() string {
	return fmt.Sprintf("ncpu=%d gomaxprocs=%d go=%s", h.NCPU, h.GoMaxProcs, h.GoVersion)
}

// Known reports whether the host was recorded at all (files written
// before the fields existed load as zero hosts).
func (h Host) Known() bool { return h != Host{} }

// Oversubscribed reports whether the host ran more Go threads than it
// has CPUs, where parallel arms cannot show their speedup.
func (h Host) Oversubscribed() bool { return h.GoMaxProcs > h.NCPU }

// HostOf extracts the recorded host of a result file: the first entry
// carrying host fields wins (hacbench stamps every entry identically).
func HostOf(m map[string]Result) Host {
	for _, r := range m {
		if h := (Host{NCPU: r.NCPU, GoMaxProcs: r.GoMaxProcs, GoVersion: r.GoVersion}); h.Known() {
			return h
		}
	}
	return Host{}
}

// HostMismatch compares the recorded hosts of two result files.
// It returns "" when they match or when either file predates host
// stamping (nothing to compare); otherwise a human-readable
// description of the difference.
func HostMismatch(base, newRun map[string]Result) string {
	bh, nh := HostOf(base), HostOf(newRun)
	if !bh.Known() || !nh.Known() || bh == nh {
		return ""
	}
	return fmt.Sprintf("base host (%s) differs from new host (%s)", bh, nh)
}

// Load reads a hacbench -json result file.
func Load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]Result{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("benchcmp: %s is not a result file: %w", path, err)
	}
	return m, nil
}

// Median returns the per-label median of several runs' result files, so
// that one run slowed by a noisy host moves no label. A label's median
// is over the runs that have it: the middle entry by ns/op, and for an
// even count the lower middle entry carrying the mean of the middle two
// ns/op.
func Median(runs []map[string]Result) map[string]Result {
	byLabel := map[string][]Result{}
	for _, run := range runs {
		for l, r := range run {
			byLabel[l] = append(byLabel[l], r)
		}
	}
	out := make(map[string]Result, len(byLabel))
	for l, rs := range byLabel {
		sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		m := rs[(len(rs)-1)/2]
		if len(rs)%2 == 0 {
			m.NsPerOp = (m.NsPerOp + rs[len(rs)/2].NsPerOp) / 2
		}
		out[l] = m
	}
	return out
}

// DefaultSkip matches the baseline arms the regression wall ignores:
// thunked, hand-written, and naive variants exist to be slow — only
// the compiled path is gated.
var DefaultSkip = []string{"thunked", "hand", "naive", "trailer", "cons list", "slice list"}

// Skipper returns a label predicate that is true when any of the
// substrings occurs in the label (case-insensitive).
func Skipper(substrings []string) func(string) bool {
	lowered := make([]string, len(substrings))
	for i, s := range substrings {
		lowered[i] = strings.ToLower(strings.TrimSpace(s))
	}
	return func(label string) bool {
		l := strings.ToLower(label)
		for _, s := range lowered {
			if s != "" && strings.Contains(l, s) {
				return true
			}
		}
		return false
	}
}

// Delta is one compared label.
type Delta struct {
	Label  string
	BaseNs float64
	NewNs  float64
}

// Ratio is new/base; > 1 means the new run is slower.
func (d Delta) Ratio() float64 { return d.NewNs / d.BaseNs }

// Report is the outcome of comparing a new run against a baseline.
type Report struct {
	MaxRegressPct float64  // threshold used, e.g. 25
	Compared      []Delta  // every gated label present in both files
	Regressions   []Delta  // subset over the threshold, worst first
	Missing       []string // gated labels in the baseline absent from the new run
	Skipped       []string // labels excluded from gating
}

// OK reports whether the run passed the wall: no regressions and no
// gated baseline labels missing from the new run.
func (r *Report) OK() bool { return len(r.Regressions) == 0 && len(r.Missing) == 0 }

// Compare gates newRun against base: every non-skipped baseline label
// must be present and within maxRegressPct percent of the baseline
// ns/op. Labels only in newRun are ignored (new experiments don't
// break old walls).
func Compare(base, newRun map[string]Result, maxRegressPct float64, skip func(string) bool) *Report {
	rep := &Report{MaxRegressPct: maxRegressPct}
	labels := make([]string, 0, len(base))
	for l := range base {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	limit := 1 + maxRegressPct/100
	for _, l := range labels {
		if skip != nil && skip(l) {
			rep.Skipped = append(rep.Skipped, l)
			continue
		}
		nr, ok := newRun[l]
		if !ok {
			rep.Missing = append(rep.Missing, l)
			continue
		}
		d := Delta{Label: l, BaseNs: base[l].NsPerOp, NewNs: nr.NsPerOp}
		rep.Compared = append(rep.Compared, d)
		if d.BaseNs > 0 && d.Ratio() > limit {
			rep.Regressions = append(rep.Regressions, d)
		}
	}
	sort.Slice(rep.Regressions, func(i, j int) bool {
		return rep.Regressions[i].Ratio() > rep.Regressions[j].Ratio()
	})
	return rep
}

// WriteMachine emits the machine-readable contract CI greps for: one
// BENCH-REGRESS line per offending label, BENCH-MISSING for absent
// labels, then a BENCH-OK or BENCH-FAIL summary line.
func (r *Report) WriteMachine(w io.Writer) {
	for _, d := range r.Regressions {
		fmt.Fprintf(w, "BENCH-REGRESS label=%q base_ns=%.0f new_ns=%.0f ratio=%.3f max_ratio=%.3f\n",
			d.Label, d.BaseNs, d.NewNs, d.Ratio(), 1+r.MaxRegressPct/100)
	}
	for _, l := range r.Missing {
		fmt.Fprintf(w, "BENCH-MISSING label=%q\n", l)
	}
	if r.OK() {
		fmt.Fprintf(w, "BENCH-OK compared=%d skipped=%d max_regress_pct=%.0f\n",
			len(r.Compared), len(r.Skipped), r.MaxRegressPct)
	} else {
		fmt.Fprintf(w, "BENCH-FAIL regressions=%d missing=%d compared=%d\n",
			len(r.Regressions), len(r.Missing), len(r.Compared))
	}
}

// SpeedupCheck asserts an expected performance ordering inside ONE
// result file: the Fast label must run at least MinRatio times faster
// (in ns/op) than the Slow label. This is the other half of the bench
// wall — Compare catches "the compiled path got slower than it was",
// a speedup check catches "the compiled path lost its edge over the
// arm it exists to beat" (native vs hand-written, workers=4 vs
// workers=1) even when both arms drifted together.
type SpeedupCheck struct {
	Slow     string  // label expected to be slower
	Fast     string  // label expected to be faster
	MinRatio float64 // required Slow/Fast ns ratio, e.g. 1.5
}

// ParseSpeedupCheck parses the CLI form "SLOW|FAST|RATIO".
func ParseSpeedupCheck(s string) (SpeedupCheck, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 3 {
		return SpeedupCheck{}, fmt.Errorf("benchcmp: speedup check %q: want SLOW|FAST|RATIO", s)
	}
	var ratio float64
	if _, err := fmt.Sscanf(strings.TrimSpace(parts[2]), "%g", &ratio); err != nil || ratio <= 0 {
		return SpeedupCheck{}, fmt.Errorf("benchcmp: speedup check %q: bad ratio %q", s, parts[2])
	}
	c := SpeedupCheck{Slow: strings.TrimSpace(parts[0]), Fast: strings.TrimSpace(parts[1]), MinRatio: ratio}
	if c.Slow == "" || c.Fast == "" {
		return SpeedupCheck{}, fmt.Errorf("benchcmp: speedup check %q: empty label", s)
	}
	return c, nil
}

// SpeedupResult is one evaluated check.
type SpeedupResult struct {
	Check          SpeedupCheck
	SlowNs, FastNs float64
	Ratio          float64 // SlowNs/FastNs; >= MinRatio passes
	Missing        string  // non-empty when a label is absent from the file
	// HostMismatch describes an oversubscribed measuring host with
	// fewer CPUs than an arm of the check runs workers; the ratio is
	// then reported, not judged.
	HostMismatch string
}

// OK reports whether the check held, or could not be judged on its
// host.
func (r SpeedupResult) OK() bool {
	return r.Missing == "" && (r.HostMismatch != "" || r.Ratio >= r.Check.MinRatio)
}

// CheckSpeedups evaluates every check against one result file and
// reports whether all held. On a file measured with GOMAXPROCS above
// the CPU count, a check one of whose arms runs more workers than the
// host has CPUs (armWorkers) cannot show the speedup it demands, so
// its ratio is reported, not judged; every other check, and a missing
// label anywhere, still fails.
func CheckSpeedups(m map[string]Result, checks []SpeedupCheck) ([]SpeedupResult, bool) {
	out := make([]SpeedupResult, 0, len(checks))
	allOK := true
	h := HostOf(m)
	for _, c := range checks {
		r := SpeedupResult{Check: c}
		if h.Oversubscribed() && max(armWorkers(c.Slow), armWorkers(c.Fast)) > h.NCPU {
			r.HostMismatch = fmt.Sprintf("gomaxprocs=%d > ncpu=%d", h.GoMaxProcs, h.NCPU)
		}
		slow, okS := m[c.Slow]
		fast, okF := m[c.Fast]
		switch {
		case !okS:
			r.Missing = c.Slow
		case !okF:
			r.Missing = c.Fast
		case fast.NsPerOp <= 0:
			r.Missing = c.Fast
		default:
			r.SlowNs, r.FastNs = slow.NsPerOp, fast.NsPerOp
			r.Ratio = slow.NsPerOp / fast.NsPerOp
		}
		if !r.OK() {
			allOK = false
		}
		out = append(out, r)
	}
	return out, allOK
}

// armWorkers reads the worker count an arm's label names, as a
// "w=N" or "workers=N" field; a label naming none is a one-worker arm.
func armWorkers(label string) int {
	n := 1
	for _, f := range strings.Fields(label) {
		k, v, ok := strings.Cut(f, "=")
		if w, err := strconv.Atoi(v); ok && err == nil && (k == "w" || k == "workers") {
			n = max(n, w)
		}
	}
	return n
}

// WriteSpeedups emits one machine-readable line per check:
// BENCH-SPEEDUP-OK / BENCH-SPEEDUP-FAIL / BENCH-SPEEDUP-MISSING, or
// BENCH-HOST-MISMATCH with the measured ratio for a check its host
// could not judge.
func WriteSpeedups(w io.Writer, results []SpeedupResult) {
	for _, r := range results {
		switch {
		case r.Missing != "":
			fmt.Fprintf(w, "BENCH-SPEEDUP-MISSING label=%q slow=%q fast=%q\n",
				r.Missing, r.Check.Slow, r.Check.Fast)
		case r.HostMismatch != "":
			fmt.Fprintf(w, "BENCH-HOST-MISMATCH %s slow=%q fast=%q ratio=%.2f min=%.2f\n",
				r.HostMismatch, r.Check.Slow, r.Check.Fast, r.Ratio, r.Check.MinRatio)
		case r.OK():
			fmt.Fprintf(w, "BENCH-SPEEDUP-OK slow=%q fast=%q ratio=%.2f min=%.2f\n",
				r.Check.Slow, r.Check.Fast, r.Ratio, r.Check.MinRatio)
		default:
			fmt.Fprintf(w, "BENCH-SPEEDUP-FAIL slow=%q fast=%q ratio=%.2f min=%.2f\n",
				r.Check.Slow, r.Check.Fast, r.Ratio, r.Check.MinRatio)
		}
	}
}

// WriteTable renders a human-oriented comparison of every compared
// label, flagging the ones over the threshold.
func (r *Report) WriteTable(w io.Writer) {
	for _, d := range r.Compared {
		flag := ""
		if d.BaseNs > 0 && d.Ratio() > 1+r.MaxRegressPct/100 {
			flag = "  <-- REGRESSION"
		}
		fmt.Fprintf(w, "  %-36s %12.0f -> %12.0f ns/op  (%.2fx)%s\n",
			d.Label, d.BaseNs, d.NewNs, d.Ratio(), flag)
	}
}
