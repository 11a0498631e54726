package benchcmp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagsOnlyOverThreshold(t *testing.T) {
	base := map[string]Result{
		"opt/compiled n=256": {NsPerOp: 1000},
		"opt/SOR seq":        {NsPerOp: 2000},
		"opt/fast path":      {NsPerOp: 500},
	}
	newRun := map[string]Result{
		"opt/compiled n=256": {NsPerOp: 1240}, // +24%: under the wall
		"opt/SOR seq":        {NsPerOp: 2600}, // +30%: over
		"opt/fast path":      {NsPerOp: 400},  // improvement
	}
	rep := Compare(base, newRun, 25, nil)
	if len(rep.Compared) != 3 {
		t.Fatalf("compared %d labels, want 3", len(rep.Compared))
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Label != "opt/SOR seq" {
		t.Fatalf("regressions = %+v, want exactly opt/SOR seq", rep.Regressions)
	}
	if rep.OK() {
		t.Fatal("report with a regression must not be OK")
	}
}

func TestCompareSkipsBaselineArms(t *testing.T) {
	base := map[string]Result{
		"opt/compiled n=256":           {NsPerOp: 1000},
		"opt/thunked  n=256":           {NsPerOp: 9000},
		"opt/handwritten n=256":        {NsPerOp: 800},
		"opt/naive per-update copying": {NsPerOp: 5000},
	}
	newRun := map[string]Result{
		"opt/compiled n=256":    {NsPerOp: 1000},
		"opt/thunked  n=256":    {NsPerOp: 90000}, // 10x slower but not gated
		"opt/handwritten n=256": {NsPerOp: 8000},
	}
	rep := Compare(base, newRun, 25, Skipper(DefaultSkip))
	if !rep.OK() {
		t.Fatalf("baseline arms must be skipped: %+v", rep.Regressions)
	}
	if len(rep.Skipped) != 3 {
		t.Fatalf("skipped = %v, want the 3 baseline arms", rep.Skipped)
	}
}

func TestCompareMissingLabelFails(t *testing.T) {
	base := map[string]Result{"opt/compiled n=256": {NsPerOp: 1000}}
	rep := Compare(base, map[string]Result{}, 25, nil)
	if rep.OK() || len(rep.Missing) != 1 {
		t.Fatalf("missing gated label must fail the wall: %+v", rep)
	}
}

func TestWriteMachineContract(t *testing.T) {
	base := map[string]Result{
		"opt/a": {NsPerOp: 1000},
		"opt/b": {NsPerOp: 1000},
	}
	newRun := map[string]Result{
		"opt/a": {NsPerOp: 2000},
		"opt/b": {NsPerOp: 1000},
	}
	var buf bytes.Buffer
	Compare(base, newRun, 25, nil).WriteMachine(&buf)
	out := buf.String()
	if !strings.Contains(out, `BENCH-REGRESS label="opt/a" base_ns=1000 new_ns=2000 ratio=2.000`) {
		t.Errorf("missing BENCH-REGRESS line:\n%s", out)
	}
	if !strings.Contains(out, "BENCH-FAIL regressions=1") {
		t.Errorf("missing BENCH-FAIL summary:\n%s", out)
	}
	buf.Reset()
	Compare(base, map[string]Result{"opt/a": {NsPerOp: 1000}, "opt/b": {NsPerOp: 1000}}, 25, nil).WriteMachine(&buf)
	if !strings.Contains(buf.String(), "BENCH-OK compared=2") {
		t.Errorf("missing BENCH-OK summary:\n%s", buf.String())
	}
}

func TestParseSpeedupCheck(t *testing.T) {
	c, err := ParseSpeedupCheck("sor interp|sor native|1.5")
	if err != nil {
		t.Fatal(err)
	}
	if c.Slow != "sor interp" || c.Fast != "sor native" || c.MinRatio != 1.5 {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{"", "a|b", "a|b|c|d", "a|b|zero", "a|b|-1", "|b|2", "a||2"} {
		if _, err := ParseSpeedupCheck(bad); err == nil {
			t.Errorf("ParseSpeedupCheck(%q) accepted junk", bad)
		}
	}
}

func TestCheckSpeedups(t *testing.T) {
	m := map[string]Result{
		"sor interp":        {NsPerOp: 3000},
		"sor native":        {NsPerOp: 1000},
		"jacobi workers=1":  {NsPerOp: 4000},
		"jacobi workers=4":  {NsPerOp: 3500}, // only 1.14x, below 1.5
		"wavefront workers": {NsPerOp: 0},
	}
	checks := []SpeedupCheck{
		{Slow: "sor interp", Fast: "sor native", MinRatio: 2},               // 3.0x: holds
		{Slow: "jacobi workers=1", Fast: "jacobi workers=4", MinRatio: 1.5}, // lost its edge
		{Slow: "sor interp", Fast: "absent", MinRatio: 1},                   // missing label
		{Slow: "sor interp", Fast: "wavefront workers", MinRatio: 1},        // zero ns: unusable
	}
	results, ok := CheckSpeedups(m, checks)
	if ok {
		t.Fatal("a failing check must fail the set")
	}
	if !results[0].OK() || results[0].Ratio != 3 {
		t.Fatalf("holding check misjudged: %+v", results[0])
	}
	if results[1].OK() || results[1].Missing != "" {
		t.Fatalf("lost-edge check misjudged: %+v", results[1])
	}
	if results[2].Missing != "absent" || results[3].Missing != "wavefront workers" {
		t.Fatalf("missing labels misjudged: %+v %+v", results[2], results[3])
	}
	var buf bytes.Buffer
	WriteSpeedups(&buf, results)
	out := buf.String()
	if !strings.Contains(out, `BENCH-SPEEDUP-OK slow="sor interp" fast="sor native" ratio=3.00 min=2.00`) {
		t.Errorf("missing BENCH-SPEEDUP-OK line:\n%s", out)
	}
	if !strings.Contains(out, `BENCH-SPEEDUP-FAIL slow="jacobi workers=1" fast="jacobi workers=4"`) {
		t.Errorf("missing BENCH-SPEEDUP-FAIL line:\n%s", out)
	}
	if !strings.Contains(out, `BENCH-SPEEDUP-MISSING label="absent"`) {
		t.Errorf("missing BENCH-SPEEDUP-MISSING line:\n%s", out)
	}
	// All-holding set reports ok.
	if _, ok := CheckSpeedups(m, checks[:1]); !ok {
		t.Fatal("holding set must pass")
	}

	// A file stamped GOMAXPROCS > NCPU reports the lost edge as a host
	// mismatch with its ratio and passes; a missing label still fails.
	// At GOMAXPROCS <= NCPU the lost edge fails as above.
	for _, h := range []Host{{NCPU: 2, GoMaxProcs: 4}, {NCPU: 4, GoMaxProcs: 4}} {
		stamped := map[string]Result{}
		for l, r := range m {
			h.Stamp(&r)
			stamped[l] = r
		}
		results, ok := CheckSpeedups(stamped, checks[:2])
		buf.Reset()
		WriteSpeedups(&buf, results)
		if over := h.GoMaxProcs > h.NCPU; ok != over {
			t.Fatalf("%s: lost edge passes %v, want %v\n%s", h, ok, over, buf.String())
		}
		line := `BENCH-HOST-MISMATCH gomaxprocs=4 > ncpu=2 slow="jacobi workers=1" fast="jacobi workers=4" ratio=1.14 min=1.50`
		if got := strings.Contains(buf.String(), line); got != (h.NCPU == 2) {
			t.Fatalf("%s: host mismatch line present %v:\n%s", h, got, buf.String())
		}
		if _, ok := CheckSpeedups(stamped, checks[2:3]); ok {
			t.Fatalf("%s: a missing label must fail", h)
		}
	}
}

// TestHostExemptionPerCheck: on a file stamped GOMAXPROCS 4 over 2
// CPUs, only a check with an arm of more workers than CPUs is exempt.
// An ordering between one-worker arms, such as spmv claims-off over
// spmv par w=1, fails there as on any host.
func TestHostExemptionPerCheck(t *testing.T) {
	h := Host{NCPU: 2, GoMaxProcs: 4}
	m := map[string]Result{}
	for l, ns := range map[string]float64{
		"opt/spmv claims-off nnz=160257": 3000,
		"opt/spmv par w=1 nnz=160257":    2000, // 1.5x, below 2.5
		"opt/spmv par w=2":               1500, // 2x, below 2.5
		"opt/spmv par w=4":               2500, // 1.2x, below 1.5
	} {
		r := Result{NsPerOp: ns}
		h.Stamp(&r)
		m[l] = r
	}
	for _, c := range []struct {
		check  SpeedupCheck
		exempt bool
	}{
		{SpeedupCheck{"opt/spmv claims-off nnz=160257", "opt/spmv par w=1 nnz=160257", 2.5}, false},
		{SpeedupCheck{"opt/spmv claims-off nnz=160257", "opt/spmv par w=2", 2.5}, false},
		{SpeedupCheck{"opt/spmv claims-off nnz=160257", "opt/spmv par w=4", 1.5}, true},
		{SpeedupCheck{"opt/spmv par w=4", "opt/spmv par w=1 nnz=160257", 2.5}, true},
	} {
		results, ok := CheckSpeedups(m, []SpeedupCheck{c.check})
		var buf bytes.Buffer
		WriteSpeedups(&buf, results)
		if ok != c.exempt || (results[0].HostMismatch != "") != c.exempt {
			t.Errorf("%s | %s: passes %v, want %v:\n%s", c.check.Slow, c.check.Fast, ok, c.exempt, buf.String())
		}
		if !c.exempt && !strings.HasPrefix(buf.String(), "BENCH-SPEEDUP-FAIL ") {
			t.Errorf("%s | %s: want a BENCH-SPEEDUP-FAIL line:\n%s", c.check.Slow, c.check.Fast, buf.String())
		}
	}
	for label, want := range map[string]int{
		"opt/spmv par w=4": 4, "jacobi workers=3": 3, "opt/spmv claims-off nnz=160257": 1,
		"opt/jacobi stencil par w=1": 1, "opt/w=x": 1,
	} {
		if got := armWorkers(label); got != want {
			t.Errorf("armWorkers(%q) = %d, want %d", label, got, want)
		}
	}
}

// TestMedianOfRuns: gated by the median of three runs, one slow outlier
// passes both the drift wall and an ordering check, and two slow runs
// fail both.
func TestMedianOfRuns(t *testing.T) {
	base := map[string]Result{"opt/split": {NsPerOp: 1000}}
	run := func(split float64) map[string]Result {
		return map[string]Result{"opt/split": {NsPerOp: split}, "opt/hand": {NsPerOp: 500}}
	}
	checks := []SpeedupCheck{{Slow: "opt/hand", Fast: "opt/split", MinRatio: 0.4}}
	for _, c := range []struct {
		name  string
		split []float64
		ok    bool
	}{
		{"one outlier", []float64{1010, 2000, 990}, true},
		{"two slow runs", []float64{2000, 1010, 1900}, false},
	} {
		var runs []map[string]Result
		for _, ns := range c.split {
			runs = append(runs, run(ns))
		}
		med := Median(runs)
		if rep := Compare(base, med, 25, nil); rep.OK() != c.ok {
			t.Errorf("%s: drift wall passes %v, want %v (median %.0f ns)", c.name, rep.OK(), c.ok, med["opt/split"].NsPerOp)
		}
		if _, ok := CheckSpeedups(med, checks); ok != c.ok {
			t.Errorf("%s: ordering check passes %v, want %v", c.name, ok, c.ok)
		}
	}
	if got := Median([]map[string]Result{run(1000), run(3000)})["opt/split"].NsPerOp; got != 2000 {
		t.Errorf("median of two runs %.0f ns, want their mean 2000", got)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(`{"opt/a": {"ns_per_op": 123.5, "allocs_per_op": 7, "workers": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := m["opt/a"]
	if r.NsPerOp != 123.5 || r.AllocsPerOp != 7 || r.Workers != 2 {
		t.Fatalf("loaded %+v", r)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("loading a missing file must error")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("loading junk must error")
	}
}
