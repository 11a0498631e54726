package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arraycomp/internal/gogen"
	"arraycomp/internal/metrics"
	"arraycomp/internal/native"
	"arraycomp/internal/runtime"
)

// This file is the tiered execution subsystem: one compiled Program
// can be served by three backends — the thunked reference evaluator,
// the loop-IR interpreter, and native compiled Go — behind a single
// ExecutionPlan interface. The policy mirrors a JIT's: interpret on
// the first calls (compilation already paid for the analysis; the
// interpreter starts instantly), kick off a background native build
// once the program proves hot, and hot-swap to machine code when the
// build lands. Uncertified programs never tier up: promotion replaces
// the interpreter that the oracle differentially tested with code
// from a second backend, so it is gated on the -certify soundness
// audit having passed.

// Tier names an execution backend.
type Tier string

const (
	// TierThunked is the reference evaluator: suspension graphs,
	// demand-driven, the paper's semantics baseline. A program lands
	// here when every live definition fell back to thunks.
	TierThunked Tier = "thunked"
	// TierInterpreted is the loop-IR interpreter: the scheduler's
	// static loop nests executed as Go closures.
	TierInterpreted Tier = "interpreted"
	// TierNative is gogen-emitted Go compiled by the host toolchain
	// and loaded as a plugin. Where no plugin can be built, the
	// program keeps serving TierInterpreted.
	TierNative Tier = "native"
	// TierStream is the bounded-memory streaming pipeline
	// (Options.Stream with every definition window-legal). Streaming
	// replaces the tier ladder: a streaming program neither counts
	// toward promotion nor tiers up to native.
	TierStream Tier = "stream"
)

// TierMode is the tiering policy of a compiled program.
type TierMode int

const (
	// TierOff never tiers up; every Run uses the interpreter (or the
	// thunked evaluator where scheduling fell back). The default.
	TierOff TierMode = iota
	// TierAuto interprets the first TierThreshold calls, then promotes
	// to native in the background and hot-swaps when the build lands.
	TierAuto
	// TierForced builds the native tier during Compile and serves
	// every call natively (falling back to interpreted, with a note,
	// if the program is native-ineligible).
	TierForced
)

// String renders the mode the way the -tier flag spells it.
func (m TierMode) String() string {
	switch m {
	case TierAuto:
		return "auto"
	case TierForced:
		return "native"
	default:
		return "off"
	}
}

// ParseTierMode parses a -tier flag value.
func ParseTierMode(s string) (TierMode, error) {
	switch s {
	case "", "off":
		return TierOff, nil
	case "auto":
		return TierAuto, nil
	case "native", "forced":
		return TierForced, nil
	}
	return TierOff, fmt.Errorf("unknown tier mode %q (want off, auto, or native)", s)
}

// DefaultTierThreshold is the number of interpreted calls before
// TierAuto starts a native build: the first call is often the only
// call, and a toolchain invocation costs ~10⁵ interpreted runs of a
// small program, so tiering must prove the program hot first.
const DefaultTierThreshold = 3

// ExecutionPlan is the uniform interface over the three backends. A
// Program selects one per call; tests select them explicitly to pin
// a tier.
type ExecutionPlan interface {
	// Run evaluates the program over the inputs. Inputs are never
	// mutated, whichever backend serves the call.
	Run(inputs map[string]*runtime.Strict) (*runtime.Strict, error)
	// Tier names the backend.
	Tier() Tier
}

// tierState is the mutable runtime state of a tiered program. The
// native pointer is the hot-swap point: readers load it on every call
// and see either nil (keep interpreting) or a fully built plan —
// never a partial one, because the pointer is published exactly once,
// after Build returns.
type tierState struct {
	mode      TierMode
	threshold int
	sync      bool
	stats     *metrics.TierStats

	calls   atomic.Int64 // tiering-policy call counter (threshold test)
	interp  atomic.Int64 // interpreted/thunked runs actually served
	native  atomic.Pointer[native.Plan]
	started atomic.Bool // promotion singleflight: first CAS winner builds
	done    chan struct{}

	mu            sync.Mutex
	buildErr      error
	ineligible    string // non-empty: why native emission is impossible
	promotedAfter int64  // interpreted calls served before the swap
	buildTime     time.Duration
}

// --- the three backends as ExecutionPlans ---

// interpPlan serves a call from the compiled loop-IR plans (with
// thunked fallbacks where scheduling demanded them).
type interpPlan struct{ p *Program }

func (e interpPlan) Run(in map[string]*runtime.Strict) (*runtime.Strict, error) {
	if ts := e.p.tier; ts != nil {
		ts.interp.Add(1)
		if ts.stats != nil {
			ts.stats.InterpRuns.Add(1)
		}
	}
	return e.p.runInterp(in)
}
func (e interpPlan) Tier() Tier { return TierInterpreted }

// thunkedPlan is the same evaluation pipeline when every live
// definition compiled to the reference representation — reported as
// its own tier because it is the semantics baseline, not the
// scheduler's output.
type thunkedPlan struct{ p *Program }

func (e thunkedPlan) Run(in map[string]*runtime.Strict) (*runtime.Strict, error) {
	if ts := e.p.tier; ts != nil {
		ts.interp.Add(1)
		if ts.stats != nil {
			ts.stats.ThunkedRuns.Add(1)
		}
	}
	return e.p.runInterp(in)
}
func (e thunkedPlan) Tier() Tier { return TierThunked }

// nativePlan serves a call from the loaded native module.
type nativePlan struct {
	p  *Program
	np *native.Plan
}

func (e nativePlan) Run(in map[string]*runtime.Strict) (*runtime.Strict, error) {
	if ts := e.p.tier; ts != nil && ts.stats != nil {
		ts.stats.NativeRuns.Add(1)
	}
	out, err := e.np.Run(in)
	// Fold the emitted verifier's verdicts into the same counters the
	// interpreter hook feeds; without this the native tier runs every
	// BVerify check but the tallies silently undercount.
	if pass, fail := e.np.TakeVerifyDelta(); pass > 0 || fail > 0 {
		e.p.IdxVerify.AddN(true, pass)
		e.p.IdxVerify.AddN(false, fail)
		if sink := e.p.verifySink; sink != nil {
			sink.AddN(true, pass)
			sink.AddN(false, fail)
		}
	}
	return out, err
}
func (e nativePlan) Tier() Tier { return TierNative }

// interpBackend picks the non-native backend by compile shape.
func (p *Program) interpBackend() ExecutionPlan {
	if p.allThunked {
		return thunkedPlan{p}
	}
	return interpPlan{p}
}

// CurrentPlan returns the backend a call made right now would use,
// without advancing the tiering policy.
func (p *Program) CurrentPlan() ExecutionPlan {
	if ts := p.tier; ts != nil {
		if np := ts.native.Load(); np != nil {
			return nativePlan{p, np}
		}
	}
	return p.interpBackend()
}

// CurrentTier reports the tier a call made right now would run at.
func (p *Program) CurrentTier() Tier { return p.CurrentPlan().Tier() }

// selectPlan advances the tiering policy by one call and returns the
// backend to serve it: the call-count bump, the threshold test, and
// the synchronous or background promotion all live here.
func (p *Program) selectPlan() ExecutionPlan {
	ts := p.tier
	if ts == nil {
		return p.interpBackend()
	}
	if np := ts.native.Load(); np != nil {
		return nativePlan{p, np}
	}
	n := ts.calls.Add(1)
	if ts.mode == TierAuto && n >= int64(ts.threshold) && p.tierEligible() {
		if ts.sync {
			if err := p.PromoteNative(); err == nil {
				if np := ts.native.Load(); np != nil {
					return nativePlan{p, np}
				}
			}
		} else if !ts.started.Load() {
			go p.PromoteNative()
		}
	}
	return p.interpBackend()
}

// tierEligible reports whether promotion could possibly succeed:
// every live definition has a thunkless plan gogen can emit, and the
// certify audit passed. The emission half was probed at compile time;
// the certificate half re-checks here because AdoptNative and tests
// may exercise programs compiled without -certify.
func (p *Program) tierEligible() bool {
	ts := p.tier
	if ts == nil {
		return false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.ineligible == "" && p.Certs != nil && p.Certs.Err() == nil
}

// RunTiered executes the program and reports which tier served the
// call. Run delegates here; callers that need the tier (haccd's eval
// response, hacc -repeat traces) use it directly.
func (p *Program) RunTiered(inputs map[string]*runtime.Strict) (*runtime.Strict, Tier, error) {
	if p.StreamActive() {
		out, err := p.runStream(inputs)
		return out, TierStream, err
	}
	ep := p.selectPlan()
	out, err := ep.Run(inputs)
	return out, ep.Tier(), err
}

// PromoteNative builds the native tier now and hot-swaps to it.
// Singleflight: concurrent callers (including the background
// goroutine TierAuto spawns) coalesce onto one toolchain invocation —
// the first caller builds, everyone blocks until the build lands, and
// all see the same verdict. Promotion refuses uncertified programs.
func (p *Program) PromoteNative() error {
	ts := p.tier
	if ts == nil {
		return fmt.Errorf("core: tiering is off for this program")
	}
	if ts.started.CompareAndSwap(false, true) {
		err := p.buildNative()
		ts.mu.Lock()
		ts.buildErr = err
		ts.mu.Unlock()
		close(ts.done)
	}
	<-ts.done
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.buildErr
}

// buildNative emits, compiles, loads, and publishes the native plan.
// Only ever executed by the singleflight winner.
func (p *Program) buildNative() error {
	ts := p.tier
	fail := func(err error) error {
		if ts.stats != nil {
			ts.stats.PromoteFailures.Add(1)
		}
		return err
	}
	ts.mu.Lock()
	reason := ts.ineligible
	ts.mu.Unlock()
	if reason != "" {
		return fail(fmt.Errorf("core: native-ineligible: %s", reason))
	}
	if p.Certs == nil {
		return fail(fmt.Errorf("core: refusing native tier-up: program was compiled without -certify (uncertified programs never tier up)"))
	}
	if err := p.Certs.Err(); err != nil {
		return fail(fmt.Errorf("core: refusing native tier-up: %w", err))
	}
	spec, err := p.NativeSpec("main")
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	plan, err := native.BuildOne(spec)
	d := time.Since(t0)
	if ts.stats != nil {
		ts.stats.PromoteNs.Add(int64(d))
	}
	if err != nil {
		return fail(err)
	}
	ts.mu.Lock()
	ts.buildTime = d
	ts.promotedAfter = ts.interp.Load()
	ts.mu.Unlock()
	if ts.stats != nil {
		ts.stats.Promotions.Add(1)
	}
	// Publish last: a reader that loads non-nil gets a complete plan.
	ts.native.Store(plan)
	return nil
}

// AdoptNative installs an externally built native plan (the batch
// path: the differential harness and the oracle build one module for
// a whole corpus, then hand each program its plan). It deliberately
// bypasses the certify gate — the adopters are the test harnesses
// whose whole purpose is to compare tiers on arbitrary programs.
func (p *Program) AdoptNative(plan *native.Plan) {
	ts := p.tier
	if ts == nil {
		// Program compiled with TierOff: attach a minimal state so the
		// swap still works (tests pin tiers on plain compiles).
		ts = &tierState{mode: TierAuto, threshold: DefaultTierThreshold, done: make(chan struct{})}
		p.tier = ts
	}
	if ts.started.CompareAndSwap(false, true) {
		defer close(ts.done)
	}
	ts.mu.Lock()
	ts.promotedAfter = ts.interp.Load()
	ts.mu.Unlock()
	ts.native.Store(plan)
}

// NativeSpec renders the program as a native build spec under the
// given module key: every live definition's loop-IR plan in
// evaluation order, run at the program's worker budget. It fails on
// programs with thunked or grouped definitions — the native tier has
// no suspension machinery.
func (p *Program) NativeSpec(key string) (native.ProgramSpec, error) {
	spec := native.ProgramSpec{Key: key, Result: p.Result, Workers: p.workers}
	for _, name := range p.Order {
		cd := p.Defs[name]
		if cd.Plan == nil {
			return spec, fmt.Errorf("core: %s compiled %s; the native tier needs a thunkless plan", name, cd.Mode())
		}
		spec.Units = append(spec.Units, native.Unit{Name: name, Prog: cd.Plan.Program})
	}
	return spec, nil
}

// initTier wires the tiering state into a freshly compiled program:
// probes gogen emission over every live plan (a program that cannot
// be emitted is marked ineligible, with the reason in the report),
// and for TierForced performs the promotion right now, charged to the
// compile report's promote phase.
func (p *Program) initTier(opts Options, rep *metrics.CompileReport) error {
	p.workers = opts.Workers
	p.allThunked = true
	for _, name := range p.Order {
		cd := p.Defs[name]
		if cd.GroupIdx < 0 && cd.Thunked == nil {
			p.allThunked = false
		}
	}
	if opts.Tier == TierOff {
		return nil
	}
	threshold := opts.TierThreshold
	if threshold <= 0 {
		threshold = DefaultTierThreshold
	}
	ts := &tierState{
		mode:      opts.Tier,
		threshold: threshold,
		sync:      opts.TierSync,
		stats:     opts.TierStats,
		done:      make(chan struct{}),
	}
	p.tier = ts
	ts.ineligible = p.probeNativeEligibility()
	if ts.ineligible != "" {
		p.note("tier: native-ineligible: %s", ts.ineligible)
	}
	if opts.Tier == TierForced {
		t0 := time.Now()
		err := p.PromoteNative()
		rep.AddPhase(metrics.PhasePromote, time.Since(t0))
		if err != nil {
			// Forced mode degrades rather than failing the compile: the
			// program still runs, one tier down, and the report says why.
			p.note("tier: native build failed; serving interpreted (%v)", err)
		}
	}
	return nil
}

// probeNativeEligibility dry-runs gogen emission over every live plan
// and returns the first reason native tier-up cannot work ("" when it
// can).
func (p *Program) probeNativeEligibility() string {
	for _, name := range p.Order {
		cd := p.Defs[name]
		if cd.GroupIdx >= 0 {
			return fmt.Sprintf("%s is in a mutually recursive group", name)
		}
		if cd.Plan == nil {
			return fmt.Sprintf("%s fell back to the thunked evaluator", name)
		}
		if _, _, results, err := gogen.EmitFunc(cd.Plan.Program, "probe"); err != nil {
			return fmt.Sprintf("%s: gogen: %v", name, err)
		} else if len(results) != 1 {
			return fmt.Sprintf("%s: plan has %d result arrays", name, len(results))
		}
	}
	return ""
}

// TierReport renders the tiering decision for hacc -explain and the
// run trace — deterministic (no timings), so it can be golden-tested.
func (p *Program) TierReport() string {
	ts := p.tier
	if ts == nil {
		return fmt.Sprintf("tier: %s (tiering off)", p.interpBackend().Tier())
	}
	base := string(p.interpBackend().Tier())
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.native.Load() != nil {
		if ts.mode == TierForced {
			return "tier: native (forced at compile)"
		}
		return fmt.Sprintf("tier: %s → native (promoted after %d calls)", base, ts.promotedAfter)
	}
	if ts.ineligible != "" {
		return fmt.Sprintf("tier: %s (native-ineligible: %s)", base, ts.ineligible)
	}
	if ts.buildErr != nil {
		return fmt.Sprintf("tier: %s (native build failed: %v)", base, ts.buildErr)
	}
	if ts.mode == TierForced {
		return fmt.Sprintf("tier: %s (forced native pending)", base)
	}
	return fmt.Sprintf("tier: %s (native after %d calls; %d so far)", base, ts.threshold, ts.calls.Load())
}

// TierBuildTime reports the native build duration (0 until promoted).
func (p *Program) TierBuildTime() time.Duration {
	ts := p.tier
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.buildTime
}
