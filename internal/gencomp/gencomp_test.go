package gencomp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"arraycomp/internal/core"
	"arraycomp/internal/lang"
	"arraycomp/internal/loopir"
	"arraycomp/internal/parser"
)

func TestDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a := Generate(seed, Config{})
		b := Generate(seed, Config{})
		if a.Source != b.Source {
			t.Fatalf("seed %d: two generations differ:\n%s\n----\n%s", seed, a.Source, b.Source)
		}
		if a.Params["n"] != b.Params["n"] {
			t.Fatalf("seed %d: params differ", seed)
		}
	}
}

// TestRoundTrip checks that every generated program's source re-parses
// to a program that prints identically: the generator only emits
// concrete syntax the parser accepts, which is what lets the oracle
// shrink by re-parsing.
func TestRoundTrip(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 120
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		p := Generate(seed, Config{})
		reparsed, err := parser.ParseProgram(p.Source)
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, p.Source)
		}
		again := lang.ProgramString(reparsed)
		if again != p.Source {
			t.Errorf("seed %d: print/parse/print not a fixpoint:\n%s\n----\n%s", seed, p.Source, again)
		}
	}
}

// TestCompileSmoke compiles a batch of generated programs and checks
// the corpus has useful variety: most programs compile, some schedule
// thunkless, some need thunks, and all three definition kinds appear.
func TestCompileSmoke(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 100
	}
	var compiled, failed, thunked, planned int
	kinds := map[lang.DefKind]int{}
	for seed := uint64(0); seed < uint64(n); seed++ {
		p := Generate(seed, Config{})
		for _, def := range p.Prog.Defs {
			kinds[def.Kind]++
		}
		prog, err := core.CompileProgram(p.Prog, p.Params, core.Options{InputBounds: p.Inputs})
		if err != nil {
			failed++
			continue
		}
		compiled++
		for _, d := range prog.Defs {
			if d.Plan != nil {
				planned++
			} else {
				thunked++
			}
		}
	}
	if compiled < n/2 {
		t.Errorf("only %d/%d generated programs compile", compiled, n)
	}
	if planned == 0 || thunked == 0 {
		t.Errorf("corpus lacks scheduling variety: planned=%d thunked=%d", planned, thunked)
	}
	for _, k := range []lang.DefKind{lang.Monolithic, lang.Accumulated, lang.BigUpd} {
		if kinds[k] == 0 {
			t.Errorf("corpus never generated kind %v", k)
		}
	}
	t.Logf("compiled=%d failed=%d planned-defs=%d thunked-defs=%d kinds=%v",
		compiled, failed, planned, thunked, kinds)
}

// TestErrorWeightZero checks the clean-program knob: with ErrorWeight
// disabled the corpus should compile at a much higher rate.
func TestErrorWeightZero(t *testing.T) {
	var failed int
	const n = 100
	for seed := uint64(0); seed < n; seed++ {
		p := Generate(seed, Config{ErrorWeight: -1})
		if strings.TrimSpace(p.Source) == "" {
			t.Fatalf("seed %d: empty source", seed)
		}
		if _, err := core.CompileProgram(p.Prog, p.Params, core.Options{InputBounds: p.Inputs}); err != nil {
			failed++
		}
	}
	if failed > n/4 {
		t.Errorf("clean corpus: %d/%d fail to compile", failed, n)
	}
}

// TestBenchConfigPinned pins the first 64 sources of the configuration
// the compile benchmark draws from, so a new generator shape that
// consumes random draws under it shows up here rather than as a silent
// change of the benchmark's programs.
func TestBenchConfigPinned(t *testing.T) {
	const want = "2732f1a4aa9e587e4146f4ebb5d5d668f952ad98095b5eca7524017ef59a2fb1"
	h := sha256.New()
	for seed := uint64(0); seed < 64; seed++ {
		h.Write([]byte(Generate(seed, Config{ErrorWeight: -1, IdxWeight: 400}).Source))
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sources hash %s, want %s", got, want)
	}
}

// TestAccumWeightReachesRowKernels: with AccumWeight on, most
// generated programs end in an accumulating store the specialized row
// forms take — unchecked, through an offset form or an unchecked
// index-array load — and some in an in-place update that engages each
// node-splitting tier.
func TestAccumWeightReachesRowKernels(t *testing.T) {
	const n = 100
	dense, scatter := 0, 0
	tiers := map[string]int{}
	notes := map[string]string{
		"scalar":    "saved to a per-instance scalar",
		"inner row": "row snapshot taken before the pass (inner distance 1)",
		"outer row": "row snapshot saved before the previous pass (outer distance 1)",
		"copy":      "fall back to a whole-array entry copy",
	}
	for seed := uint64(0); seed < n; seed++ {
		p := Generate(seed, Config{ErrorWeight: -1, AccumWeight: 1000})
		prog, err := core.CompileProgram(p.Prog, p.Params, core.Options{InputBounds: p.Inputs})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		res := prog.Defs[prog.Result]
		if res.Plan == nil {
			continue
		}
		for tier, note := range notes {
			if strings.Contains(strings.Join(res.Plan.Notes, "\n"), note) {
				tiers[tier]++
			}
		}
		loopir.Inspect(res.Plan.Program.Stmts, func(n any) bool {
			x, ok := n.(*loopir.Loop)
			if !ok {
				return true
			}
			for _, s := range x.Body {
				a, ok := s.(*loopir.Assign)
				if !ok || !a.HasAccum || a.CheckBounds {
					continue
				}
				if a.Off != nil {
					dense++
				} else if ii, ok := a.Subs[0].(*loopir.IIdx); ok && !ii.CheckBounds {
					scatter++
				}
			}
			return true
		})
	}
	if dense < n/4 || scatter < n/20 {
		t.Errorf("unchecked accumulating stores: %d dense, %d scatters in %d programs", dense, scatter, n)
	}
	for tier := range notes {
		if tiers[tier] < 2 {
			t.Errorf("node splitting's %s tier engaged in %d of %d programs", tier, tiers[tier], n)
		}
	}
	t.Logf("unchecked accumulating stores: %d dense, %d scatters; node-splitting tiers %v, in %d programs", dense, scatter, tiers, n)
}
