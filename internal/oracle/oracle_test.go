package oracle

import (
	"math"
	"path/filepath"
	"testing"

	"arraycomp/internal/gencomp"
	"arraycomp/internal/lang"
	"arraycomp/internal/parser"
	"arraycomp/internal/runtime"
)

// TestOracleGenerated is the headline differential test: hundreds of
// generated programs, every Options ablation cross-checked against the
// thunked reference, the gogen-eligible subset additionally built and
// executed as native Go in one batched `go run`, and the same subset
// run through the native execution tier (one batched plugin build,
// adopted via the tier hot-swap).
func TestOracleGenerated(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 220
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	s := RunSeeds(seeds, gencomp.Config{}, true, true)
	t.Logf("\n%s", s)
	if s.Programs != n {
		t.Fatalf("ran %d programs, want %d", s.Programs, n)
	}
	for _, c := range s.Failures {
		min := ShrinkFailure(c)
		t.Errorf("seed %d disagrees: %v\nminimized:\n%s", c.Seed, c.Mismatches, min.Program.Source)
		if len(s.Failures) > 5 {
			break
		}
	}
	// The corpus must actually exercise all three backends: a corpus
	// where nothing is gogen-eligible (or nothing errors, or nothing
	// succeeds) would be vacuous.
	if s.GogenRan < 20 {
		t.Errorf("only %d cases ran on the gogen backend", s.GogenRan)
	}
	if s.GogenRan != s.GogenAgreed {
		t.Errorf("gogen: %d ran but only %d agreed", s.GogenRan, s.GogenAgreed)
	}
	if s.NativeRan < 20 {
		t.Errorf("only %d cases ran on the native tier", s.NativeRan)
	}
	if s.StreamEngaged < 20 {
		t.Errorf("only %d cases engaged the streaming pipeline", s.StreamEngaged)
	}
	if s.NativeRan != s.NativeAgreed {
		t.Errorf("native: %d ran but only %d agreed", s.NativeRan, s.NativeAgreed)
	}
	full := s.PerAblation["full"]
	if full.OK == 0 || full.Err == 0 {
		t.Errorf("corpus lacks outcome variety: ok=%d err=%d", full.OK, full.Err)
	}
}

// TestOracleSeedCorpus replays every checked-in regression program.
// Programs land here whenever the fuzzer minimizes a failure, so this
// test is the permanent memorial of every bug the oracle ever caught.
func TestOracleSeedCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.hacc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files in testdata/")
	}
	var cases []*Case
	for _, f := range files {
		p, err := LoadCorpusFile(f)
		if err != nil {
			t.Fatalf("load %s: %v", f, err)
		}
		c := RunCase(p)
		cases = append(cases, c)
		if c.Failed() {
			t.Errorf("%s: %v", f, c.Mismatches)
		}
	}
	RunGogenBatch(cases)
	RunNativeBatch(cases)
	for i, c := range cases {
		if c.Failed() {
			t.Errorf("%s (after gogen+native): %v", files[i], c.Mismatches)
		}
	}
}

// TestAgree pins the comparator's semantics.
func TestAgree(t *testing.T) {
	mk := func(vals ...float64) Outcome {
		a := runtime.NewStrict(runtime.NewBounds1(0, int64(len(vals))-1))
		copy(a.Data, vals)
		return Outcome{Value: a}
	}
	errOut := Outcome{Err: "collision at 3"}
	nan := math.NaN()
	inf := math.Inf(1)
	tests := []struct {
		name     string
		ref, got Outcome
		want     bool
	}{
		{"both ok equal", mk(1, 2.5), mk(1, 2.5), true},
		{"both ok within tol", mk(1e9), mk(1e9 + 0.5), true},
		{"both ok differ", mk(1, 2), mk(1, 3), false},
		{"ok vs err", mk(1), errOut, false},
		{"err vs ok", errOut, mk(1), false},
		{"both err (texts differ)", errOut, Outcome{Err: "⊥ at 0"}, true},
		{"err vs backend panic", errOut, Outcome{Err: "panic: integer divide by zero", Panicked: true}, false},
		{"reference panic vs err", Outcome{Err: "panic: x", Panicked: true}, errOut, false},
		{"nan matches nan", mk(nan), mk(nan), true},
		{"nan vs number", mk(nan), mk(0), false},
		{"inf matches inf", mk(inf), mk(inf), true},
		{"inf vs -inf", mk(inf), mk(math.Inf(-1)), false},
		{"inf vs finite", mk(inf), mk(1e308), false},
	}
	for _, tt := range tests {
		if got, detail := Agree(tt.ref, tt.got); got != tt.want {
			t.Errorf("%s: Agree = %v (%s), want %v", tt.name, got, detail, tt.want)
		}
	}
	a := mk(1, 2)
	b := mk(1, 2)
	b.Value.B = runtime.NewBounds1(1, 2)
	if ok, _ := Agree(a, b); ok {
		t.Error("bounds mismatch not detected")
	}
}

// TestShrink minimizes an error-shaped program under the property
// "the reference still errors" and checks the result is no larger and
// still failing — the CLI's shrink-report path in miniature.
func TestShrink(t *testing.T) {
	var prog *gencomp.Program
	for seed := uint64(0); seed < 500; seed++ {
		p := gencomp.Generate(seed, gencomp.Config{})
		if len(p.Prog.Defs) >= 2 && !RunCase(p).Ref.OK() {
			prog = p
			break
		}
	}
	if prog == nil {
		t.Fatal("no multi-definition erroring program in the first 500 seeds")
	}
	prop := func(p *gencomp.Program) bool { return !RunCase(p).Ref.OK() }
	small := Shrink(prog, prop)
	if !prop(small) {
		t.Fatal("shrink result no longer satisfies the property")
	}
	if len(small.Prog.Defs) > len(prog.Prog.Defs) {
		t.Errorf("shrink grew the program: %d -> %d defs", len(prog.Prog.Defs), len(small.Prog.Defs))
	}
	if len(small.Source) > len(prog.Source) {
		t.Errorf("shrink grew the source: %d -> %d bytes", len(prog.Source), len(small.Source))
	}
	if _, err := parser.ParseProgram(small.Source); err != nil {
		t.Errorf("shrunk source does not parse: %v", err)
	}
}

// TestFillInputsDeterministic pins the input-filling contract the
// emitted gogen driver replicates.
func TestFillInputsDeterministic(t *testing.T) {
	p := gencomp.Generate(7, gencomp.Config{})
	a := FillInputs(p)
	b := FillInputs(p)
	for name := range a {
		if !a[name].EqualWithin(b[name], 0) {
			t.Fatalf("input %s not deterministic", name)
		}
		for _, v := range a[name].Data {
			if v < 0 || v >= 1 {
				t.Fatalf("input %s value %v outside [0,1)", name, v)
			}
			if v*65536 != math.Trunc(v*65536) {
				t.Fatalf("input %s value %v is not a 16-bit dyadic rational", name, v)
			}
		}
	}
}

// FuzzCompileRoundTrip is the native fuzz target: any byte-derived
// seed must generate a program that round-trips through the printer
// and parser and whose ablation outcomes all agree with the reference.
// Run with: go test ./internal/oracle -fuzz FuzzCompileRoundTrip
func FuzzCompileRoundTrip(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := gencomp.Generate(seed, gencomp.Config{})
		reparsed, err := parser.ParseProgram(p.Source)
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, p.Source)
		}
		if again := lang.ProgramString(reparsed); again != p.Source {
			t.Fatalf("seed %d: print/parse/print not a fixpoint", seed)
		}
		c := RunCase(p)
		if c.Failed() {
			min := ShrinkFailure(c)
			t.Fatalf("seed %d: backends disagree: %v\nminimized:\n%s",
				seed, c.Mismatches, min.Program.Source)
		}
	})
}
