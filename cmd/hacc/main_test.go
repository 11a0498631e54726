package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arraycomp/internal/workloads"
)

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.hac")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseParams(t *testing.T) {
	p, err := parseParams("n=100,m=20")
	if err != nil {
		t.Fatal(err)
	}
	if p["n"] != 100 || p["m"] != 20 {
		t.Errorf("params = %v", p)
	}
	if p, err := parseParams(""); err != nil || len(p) != 0 {
		t.Error("empty params must parse")
	}
	for _, bad := range []string{"n", "n=x", "=5"} {
		if _, err := parseParams(bad); err == nil {
			t.Errorf("parseParams(%q) succeeded", bad)
		}
	}
}

func TestParseInputs(t *testing.T) {
	in, err := parseInputs("a=1:8,1:8;b=0:99")
	if err != nil {
		t.Fatal(err)
	}
	a := in["a"]
	if len(a.Lo) != 2 || a.Lo[0] != 1 || a.Hi[1] != 8 {
		t.Errorf("a bounds = %+v", a)
	}
	b := in["b"]
	if len(b.Lo) != 1 || b.Hi[0] != 99 {
		t.Errorf("b bounds = %+v", b)
	}
	for _, bad := range []string{"a", "a=1", "a=1:", "a=x:2"} {
		if _, err := parseInputs(bad); err == nil {
			t.Errorf("parseInputs(%q) succeeded", bad)
		}
	}
}

// TestRepeatedFlags: -p and -in may each be given several times, and
// their entries merge; a name given twice, in one value or across
// occurrences, is an error that names it.
func TestRepeatedFlags(t *testing.T) {
	path := writeTemp(t, workloads.Livermore23Src)
	in := []string{"-in", "za=1:8,1:8", "-in", "zr=1:8,1:8", "-in", "zb=1:8,1:8;zu=1:8,1:8", "-in", "zv=1:8,1:8"}
	if err := run(append([]string{"emit-go", "-O", "-p", "n=8"}, append(in, path)...), io.Discard); err != nil {
		t.Fatalf("repeated -in: %v", err)
	}
	path2 := writeTemp(t, `param n, m; a = array (1,n) [ i := 1.0 | i <- [m..n] ]`)
	if err := run([]string{"report", "-p", "n=4", "-p", "m=1", path2}, io.Discard); err != nil {
		t.Fatalf("repeated -p: %v", err)
	}
	for _, c := range []struct {
		args []string
		name string
	}{
		{[]string{"-p", "n=4", "-p", "m=3", "-p", "n=5"}, "parameter n"},
		{[]string{"-p", "n=4,m=3,m=3"}, "parameter m"},
		{[]string{"-p", "n=4,m=3", "-in", "a=1:4", "-in", "a=1:5"}, "input a"},
		{[]string{"-p", "n=4,m=3", "-in", "b=1:4;b=1:4"}, "input b"},
	} {
		err := run(append(append([]string{"report"}, c.args...), path2), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.name+" given twice") {
			t.Errorf("hacc report %v: error %v, want %q given twice", c.args, err, c.name)
		}
	}
}

func TestRunCommands(t *testing.T) {
	path := writeTemp(t, `a = array (1,n) ([ 1 := 1.0 ] ++ [ i := a!(i-1) + 1.0 | i <- [2..n] ])`)
	for _, cmd := range []string{"report", "ir", "dot", "run"} {
		if err := run([]string{cmd, "-p", "n=5", path}, io.Discard); err != nil {
			t.Errorf("hacc %s: %v", cmd, err)
		}
	}
}

func TestRunWithInputs(t *testing.T) {
	path := writeTemp(t, `param n; a2 = bigupd a [ i := 2.0 * a!i | i <- [1..n] ]`)
	if err := run([]string{"run", "-p", "n=4", "-in", "a=1:4", path}, io.Discard); err != nil {
		t.Errorf("hacc run with inputs: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTemp(t, `a = array (1,n) [ i := 1.0 | i <- [1..n] ]`)
	cases := [][]string{
		{},                                  // no args
		{"bogus", "-p", "n=3", path},        // unknown command
		{"report", path},                    // unbound parameter
		{"report", "-p", "n=3"},             // missing file
		{"report", "-p", "n=3", "/no/file"}, // unreadable file
		{"report", "-p", "n=3", path, path}, // too many files
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunStreamFlag(t *testing.T) {
	// A d=1 recurrence pipeline: streamable, so the run must report the
	// pipeline's accounting.
	path := writeTemp(t, `letrec* a = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ];
  b = array (1,n) ([ 1 := a!1 ] ++ [ i := b!(i-1) * 0.5 + a!i | i <- [2..n] ])
in b`)
	var buf strings.Builder
	if err := run([]string{"run", "-stream", "-p", "n=9000", "-in", "x=1:9000", path}, &buf); err != nil {
		t.Fatalf("hacc run -stream: %v", err)
	}
	if !strings.Contains(buf.String(), "stream: stages=") {
		t.Errorf("missing streaming report:\n%s", buf.String())
	}

	// An accumArray reduction cannot stream: same flag, fallback note.
	path = writeTemp(t, `h = accumArray (+) 0.0 (0,9) [ (3*i) mod 10 := 1.0 | i <- [1..n] ]`)
	buf.Reset()
	if err := run([]string{"run", "-stream", "-p", "n=100", path}, &buf); err != nil {
		t.Fatalf("hacc run -stream fallback: %v", err)
	}
	if !strings.Contains(buf.String(), "stream: materialized fallback:") {
		t.Errorf("missing fallback note:\n%s", buf.String())
	}

	// -stream outside run is a usage error.
	if err := run([]string{"report", "-stream", "-p", "n=4", path}, io.Discard); err == nil {
		t.Error("hacc report -stream succeeded, want error")
	}
}

func TestRunThunkedFlag(t *testing.T) {
	path := writeTemp(t, `a = array (1,n) [ i := i*i | i <- [1..n] ]`)
	if err := run([]string{"run", "-thunked", "-p", "n=4", path}, io.Discard); err != nil {
		t.Errorf("hacc run -thunked: %v", err)
	}
}

func TestEmitGoCommand(t *testing.T) {
	path := writeTemp(t, `a = array (1,n) [ i := i*i | i <- [1..n] ]`)
	if err := run([]string{"emit-go", "-p", "n=5", path}, io.Discard); err != nil {
		t.Errorf("hacc emit-go: %v", err)
	}
	// Thunked programs cannot be emitted.
	path2 := writeTemp(t, `a = array (1,n) [ i := a!i | i <- [1..n] ]`)
	if err := run([]string{"emit-go", "-p", "n=5", path2}, io.Discard); err == nil {
		t.Error("emit-go of a thunked plan must error")
	}
}
