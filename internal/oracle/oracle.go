// Package oracle is the differential-testing harness: it compiles one
// program under a matrix of Options ablations and executes it on three
// backends — the non-strict thunked runtime (the reference semantics),
// the loop-IR closure interpreter, and gogen-emitted Go built and run
// out of process — then asserts that every execution agrees, element
// by element, including agreement on errors (⊥, collision, empties,
// bounds).
//
// The contract being checked is the paper's central claim: dependence
// analysis, check elision, thunkless scheduling and node splitting are
// semantics-preserving refinements of the naive thunked evaluator. Any
// divergence between an optimized configuration and the ForceThunked
// reference is a compiler bug by definition.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/lang"
	"arraycomp/internal/runtime"
)

// Outcome is the observable result of one compile+run: either an error
// (compile-time rejection or runtime ⊥/collision/empties/bounds) or a
// result array. Two outcomes agree when they error together or succeed
// with element-wise equal arrays — the oracle deliberately does not
// require error *messages* to match across backends.
type Outcome struct {
	// Err is the error text; empty means success.
	Err string
	// CompileTime marks Err as a compile-time rejection.
	CompileTime bool
	// Panicked marks Err as a recovered panic. An arm must fail with an
	// error, never a panic, so a panicked outcome agrees with nothing.
	Panicked bool
	// Value is the result array when Err is empty.
	Value *runtime.Strict
}

// OK reports success.
func (o Outcome) OK() bool { return o.Err == "" }

func (o Outcome) String() string {
	if o.OK() {
		return fmt.Sprintf("ok %d elements", len(o.Value.Data))
	}
	stage := "runtime"
	switch {
	case o.CompileTime:
		stage = "compile"
	case o.Panicked:
		stage = "panic"
	}
	return fmt.Sprintf("%s error: %s", stage, o.Err)
}

// Ablation is one compiler configuration under test.
type Ablation struct {
	Name string
	Opts core.Options
}

// RefAblation names the reference configuration: every definition
// evaluated by the non-strict thunked runtime, no scheduling, no check
// elision. Its outcome defines correct behavior.
const RefAblation = "thunked"

// Ablations returns the configuration matrix. The thunked entry is the
// reference; the rest must reproduce its observable behavior exactly.
func Ablations() []Ablation {
	return []Ablation{
		{RefAblation, core.Options{ForceThunked: true}},
		{"full", core.Options{}},
		{"nolinearize", core.Options{NoLinearize: true}},
		{"forcechecks", core.Options{ForceChecks: true}},
		// noopt executes the lowered nest with the loop-IR optimizer
		// disabled, so every fuzzed program cross-checks optimized
		// (full) against unoptimized execution element-wise.
		{"noopt", core.Options{NoOptimize: true}},
		// stencil keeps the optimizer but turns stencil guard
		// splitting off. RunCase additionally holds this arm to a
		// bitwise comparison against full: splitting re-orders
		// nothing, so even the last ulp must match.
		{"stencil", core.Options{NoStencil: true}},
		// parallel runs the shard and wavefront schedules with a
		// forced multi-worker pool; results (and error messages) must be
		// indistinguishable from sequential execution.
		{"parallel", core.Options{Parallel: true, Workers: 4}},
		// idxprop disables the index-array property layer (no static
		// discharge, no claim-conditional dual plans, no runtime
		// verifier) under the same parallel pool. RunCase holds this arm
		// to a bitwise comparison against parallel: claim-assuming fast
		// paths elide checks but must perform the identical arithmetic,
		// and a failed runtime verification must fall back to exactly
		// the execution this arm always takes.
		{"idxprop", core.Options{NoIdxProp: true, Parallel: true, Workers: 4}},
		// stream requests the bounded-memory chunked engine; programs the
		// window-legality analysis rejects fall back to materialized
		// execution, so every generated program runs under this arm
		// either way. RunCase holds it to a bitwise comparison against
		// full: an engaged pipeline computes each element exactly once
		// with the interpreter's float semantics, so even the last ulp
		// must match.
		{"stream", core.Options{Stream: true}},
		// certify audits every dependence verdict (witness re-checks and
		// shadow-domain enumeration) and turns any falsified claim into
		// a compile error — which then diverges from the reference here,
		// surfacing the lying layer by name. It also cross-checks that
		// the audit itself never changes observable behavior.
		{"certify", core.Options{Certify: true, Parallel: true, Workers: 4}},
	}
}

// Mismatch records one disagreement with the reference outcome.
type Mismatch struct {
	// Backend is "interp:<ablation>" or "gogen".
	Backend string
	Detail  string
}

// Case is the full oracle result for one program.
type Case struct {
	Seed    uint64
	Program *gencomp.Program
	// Ref is the reference (thunked) outcome.
	Ref Outcome
	// ByAblation maps ablation name to its interpreter outcome.
	ByAblation map[string]Outcome
	// Mismatches lists every disagreement found (empty = all agree).
	Mismatches []Mismatch
	// GogenEligible: every live definition compiled to a loop-IR plan
	// under the full configuration, so the case can run as emitted Go.
	GogenEligible bool
	// GogenRan/GogenOutcome are filled by RunGogenBatch.
	GogenRan     bool
	GogenOutcome Outcome
	// NativeEligible/NativeRan/NativeOutcome are the native-tier leg,
	// filled by RunNativeBatch: the full-configuration program with a
	// batch-built native plan adopted, run through the real tier
	// dispatch.
	NativeEligible bool
	NativeRan      bool
	NativeOutcome  Outcome
	// IdxVerified/IdxFailed are the parallel arm's runtime index-claim
	// verifier verdict counters (zero when every claim discharged
	// statically or the program has no subscripted subscripts).
	IdxVerified int64
	IdxFailed   int64
	// StreamEngaged reports that the stream arm actually ran the
	// chunked pipeline (as opposed to the materialized fallback), so
	// sweeps can count how often the window analysis admits generated
	// programs.
	StreamEngaged bool

	// fullProg retains the full-configuration compile for gogen
	// emission and native adoption.
	fullProg *core.Program
}

// Failed reports whether any backend disagreed with the reference.
func (c *Case) Failed() bool { return len(c.Mismatches) > 0 }

// FillInputs builds the deterministic input arrays for a program: each
// declared input is filled from a linear congruential generator seeded
// by the program seed and the array's position in name order. Values
// are dyadic rationals in [0,1) with 16-bit significands, so sums and
// power-of-two products stay exact in float64 and element-wise
// comparison across backends can be bitwise.
func FillInputs(p *gencomp.Program) map[string]*runtime.Strict {
	names := make([]string, 0, len(p.Inputs))
	for n := range p.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]*runtime.Strict{}
	for i, n := range names {
		b := p.Inputs[n]
		a := runtime.NewStrict(runtime.Bounds{Lo: b.Lo, Hi: b.Hi})
		lcgFill(a.Data, inputSeed(p.Seed, i))
		out[n] = a
	}
	return out
}

// inputSeed derives the LCG seed for the i-th input (in name order).
func inputSeed(progSeed uint64, i int) uint64 {
	return progSeed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
}

// lcgFill fills data with dyadic rationals in [0,1).
func lcgFill(data []float64, seed uint64) {
	x := seed
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float64((x>>33)&0xFFFF) / 65536.0
	}
}

// RunCase compiles and runs one program under every ablation and
// cross-checks the interpreter outcomes against the thunked reference.
// The gogen backend is batched separately (RunGogenBatch) because it
// shells out to the Go toolchain.
func RunCase(p *gencomp.Program) *Case {
	c := &Case{Seed: p.Seed, Program: p, ByAblation: map[string]Outcome{}}
	inputs := FillInputs(p)
	for _, ab := range Ablations() {
		opts := ab.Opts
		opts.InputBounds = p.Inputs
		c.ByAblation[ab.Name] = runOnce(p, opts, inputs, ab.Name, c)
	}
	c.Ref = c.ByAblation[RefAblation]
	for _, ab := range Ablations() {
		if ab.Name == RefAblation {
			continue
		}
		if ok, detail := Agree(c.Ref, c.ByAblation[ab.Name]); !ok {
			c.Mismatches = append(c.Mismatches, Mismatch{
				Backend: "interp:" + ab.Name,
				Detail:  detail,
			})
		}
	}
	// Guard splitting's contract is stronger than the matrix default:
	// the interior and boundary clones perform the same float
	// operations in the same order, so the split (full) run must match
	// the forced-off run bitwise, not merely within tolerance.
	if ok, detail := BitwiseAgree(c.ByAblation["stencil"], c.ByAblation["full"]); !ok {
		c.Mismatches = append(c.Mismatches, Mismatch{
			Backend: "interp:stencil/bitwise",
			Detail:  detail,
		})
	}
	// The index-property layer's contract is bitwise too: a
	// claim-conditional plan either verifies its claims and runs the
	// unchecked fast path — same arithmetic, same order, no tracking —
	// or falls back to precisely the checked execution that the
	// NoIdxProp arm always performs.
	if ok, detail := BitwiseAgree(c.ByAblation["idxprop"], c.ByAblation["parallel"]); !ok {
		c.Mismatches = append(c.Mismatches, Mismatch{
			Backend: "interp:idxprop/bitwise",
			Detail:  detail,
		})
	}
	// The streaming engine's contract is the strongest of all: a
	// chunked pipeline stores exactly the values the materialized walk
	// stores (each element computed once, same closure semantics, and
	// the window invariants prove the operands identical), so the
	// stream arm must match full bitwise whether or not the pipeline
	// engaged.
	if ok, detail := BitwiseAgree(c.ByAblation["stream"], c.ByAblation["full"]); !ok {
		c.Mismatches = append(c.Mismatches, Mismatch{
			Backend: "interp:stream/bitwise",
			Detail:  detail,
		})
	}
	return c
}

// BitwiseAgree compares two outcomes element-wise at full precision:
// success must match success and every element must carry identical
// bits (NaNs of any payload compare equal). Used for pairs of
// configurations that are required to perform the same operations in
// the same order, where tolerance would mask a real divergence.
func BitwiseAgree(ref, got Outcome) (bool, string) {
	if ref.OK() != got.OK() || ref.Panicked || got.Panicked {
		return false, fmt.Sprintf("reference %s, backend %s", ref, got)
	}
	if !ref.OK() {
		return true, ""
	}
	a, b := ref.Value, got.Value
	if !a.B.Equal(b.B) {
		return false, fmt.Sprintf("bounds differ: %v vs %v", a.B, b.B)
	}
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false, fmt.Sprintf("element %d differs bitwise: %v vs %v", i, x, y)
		}
	}
	return true, ""
}

// runOnce compiles and runs one configuration, converting panics and
// errors into Outcomes. The "full" arm's compiled program is retained
// on c for later gogen emission; the "parallel" arm's runtime claim
// verdicts are captured for corpus-coverage assertions.
func runOnce(p *gencomp.Program, opts core.Options, inputs map[string]*runtime.Strict, abName string, c *Case) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Err: fmt.Sprintf("panic: %v", r), Panicked: true}
		}
	}()
	prog, err := core.CompileProgram(p.Prog, p.Params, opts)
	if err != nil {
		return Outcome{Err: err.Error(), CompileTime: true}
	}
	if abName == "full" {
		c.fullProg = prog
		c.GogenEligible = gogenEligible(prog)
	}
	if abName == "stream" {
		c.StreamEngaged = prog.StreamActive()
	}
	defer func() {
		if abName == "parallel" {
			snap := prog.IdxVerify.Snapshot()
			c.IdxVerified, c.IdxFailed = snap.Verified, snap.Failed
		}
	}()
	// Every arm runs on the same input arrays: Run must never mutate
	// them, and an arm that does shows up as a mismatch in the arms
	// after it.
	res, err := prog.Run(inputs)
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	return Outcome{Value: res}
}

// gogenEligible reports that every definition the program retained
// compiled to a loop-IR plan (thunked and group definitions cannot be
// emitted as Go loops).
func gogenEligible(prog *core.Program) bool {
	for _, name := range prog.Order {
		if prog.Defs[name].Plan == nil {
			return false
		}
	}
	return len(prog.Order) > 0
}

// Agree compares an outcome against the reference. Success must match
// success, and successful values must agree element-wise: bitwise
// equal, or within 1e-9 relative tolerance (NaN matches NaN, and
// infinities must match exactly). Error text is not compared — the
// three backends phrase the same ⊥/collision differently — but an
// error must be an error: a recovered panic agrees with nothing.
func Agree(ref, got Outcome) (bool, string) {
	if ref.OK() != got.OK() || ref.Panicked || got.Panicked {
		return false, fmt.Sprintf("reference %s, backend %s", ref, got)
	}
	if !ref.OK() {
		return true, ""
	}
	a, b := ref.Value, got.Value
	if !a.B.Equal(b.B) {
		return false, fmt.Sprintf("bounds differ: %v vs %v", a.B, b.B)
	}
	for i := range a.Data {
		if !floatsAgree(a.Data[i], b.Data[i]) {
			return false, fmt.Sprintf("element %d differs: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
	return true, ""
}

func floatsAgree(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // non-equal infinities (or inf vs finite)
	}
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol
}

// Summary aggregates a corpus run for reporting.
type Summary struct {
	Programs int
	// PerAblation maps ablation name to ok/err counts (outcomes, not
	// verdicts: a clean both-error agreement counts under Err).
	PerAblation map[string]*AblationStats
	// GogenEligible / GogenRan / GogenAgreed count the emitted-Go leg.
	GogenEligible int
	GogenRan      int
	GogenAgreed   int
	// NativeEligible / NativeRan / NativeAgreed count the native-tier
	// leg (RunNativeBatch).
	NativeEligible int
	NativeRan      int
	NativeAgreed   int
	// IdxVerified / IdxFailed total the parallel arm's runtime
	// index-claim verifier verdicts across the corpus.
	IdxVerified int64
	IdxFailed   int64
	// StreamEngaged counts cases where the stream arm ran the chunked
	// pipeline rather than the materialized fallback.
	StreamEngaged int
	// Failures lists every case with at least one mismatch.
	Failures []*Case
}

// AblationStats counts one configuration's outcomes across the corpus.
type AblationStats struct {
	OK, Err, Mismatch int
}

// RunSeeds runs the oracle over a seed range. When withGogen is set the
// gogen-eligible cases are additionally emitted as one Go program and
// cross-checked via `go run` (a single toolchain invocation for the
// whole corpus). When withNative is set the eligible cases also run
// through the native execution tier (one batched plugin build).
func RunSeeds(seeds []uint64, cfg gencomp.Config, withGogen, withNative bool) *Summary {
	s := &Summary{PerAblation: map[string]*AblationStats{}}
	for _, ab := range Ablations() {
		s.PerAblation[ab.Name] = &AblationStats{}
	}
	var cases []*Case
	for _, seed := range seeds {
		c := RunCase(gencomp.Generate(seed, cfg))
		cases = append(cases, c)
		s.Programs++
		for name, out := range c.ByAblation {
			st := s.PerAblation[name]
			if out.OK() {
				st.OK++
			} else {
				st.Err++
			}
		}
		for _, m := range c.Mismatches {
			if st, ok := s.PerAblation[strings.TrimPrefix(m.Backend, "interp:")]; ok {
				st.Mismatch++
			}
		}
		s.IdxVerified += c.IdxVerified
		s.IdxFailed += c.IdxFailed
		if c.StreamEngaged {
			s.StreamEngaged++
		}
	}
	if withGogen {
		RunGogenBatch(cases)
	}
	if withNative {
		RunNativeBatch(cases)
	}
	for _, c := range cases {
		if c.GogenEligible {
			s.GogenEligible++
		}
		if c.GogenRan {
			s.GogenRan++
			agreed := true
			for _, m := range c.Mismatches {
				if m.Backend == "gogen" {
					agreed = false
				}
			}
			if agreed {
				s.GogenAgreed++
			}
		}
		if c.NativeEligible {
			s.NativeEligible++
		}
		if c.NativeRan {
			s.NativeRan++
			agreed := true
			for _, m := range c.Mismatches {
				if m.Backend == "native" {
					agreed = false
				}
			}
			if agreed {
				s.NativeAgreed++
			}
		}
		if c.Failed() {
			s.Failures = append(s.Failures, c)
		}
	}
	return s
}

// String renders the per-ablation summary table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs: %d\n", s.Programs)
	for _, ab := range Ablations() {
		st := s.PerAblation[ab.Name]
		role := ""
		if ab.Name == RefAblation {
			role = "  (reference)"
		}
		fmt.Fprintf(&b, "  %-12s ok %4d  err %4d  mismatch %d%s\n",
			ab.Name, st.OK, st.Err, st.Mismatch, role)
	}
	fmt.Fprintf(&b, "  %-12s eligible %d  ran %d  agreed %d\n",
		"gogen", s.GogenEligible, s.GogenRan, s.GogenAgreed)
	fmt.Fprintf(&b, "  %-12s eligible %d  ran %d  agreed %d\n",
		"native", s.NativeEligible, s.NativeRan, s.NativeAgreed)
	if s.IdxVerified+s.IdxFailed > 0 {
		fmt.Fprintf(&b, "  %-12s verified %d  failed %d\n", "idx-verify", s.IdxVerified, s.IdxFailed)
	}
	fmt.Fprintf(&b, "  %-12s engaged %d\n", "stream", s.StreamEngaged)
	fmt.Fprintf(&b, "failures: %d\n", len(s.Failures))
	return b.String()
}

// boundsOf evaluates a definition's concrete bounds the way the
// generator does (bigupd inherits its source's bounds). Used by the
// shrinker when a dropped definition becomes a free input.
func boundsOf(p *gencomp.Program, name string) (analysis.ArrayBounds, bool) {
	def := p.Prog.Def(name)
	if def == nil {
		b, ok := p.Inputs[name]
		return b, ok
	}
	seen := map[string]bool{}
	for def.Kind == lang.BigUpd {
		if seen[def.Name] {
			return analysis.ArrayBounds{}, false
		}
		seen[def.Name] = true
		src := p.Prog.Def(def.Source)
		if src == nil {
			b, ok := p.Inputs[def.Source]
			return b, ok
		}
		def = src
	}
	b, err := analysis.EvalBounds(def, p.Params)
	if err != nil {
		return analysis.ArrayBounds{}, false
	}
	return b, true
}
