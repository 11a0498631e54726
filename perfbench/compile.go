package main

import (
	"fmt"
	"math/rand"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/metrics"
	"arraycomp/internal/oracle"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// The compile workload is compile-bound: one op is a round of cold
// core.Compile calls with Certify on, each followed by one small Run,
// over a fixed set of programs. It is the path `hacc run -certify`
// takes, and haccd's path for tiered and disk-tier plans.
const (
	paperN   = 64
	genCount = 16
)

// genConfig draws clean generated programs (no error shapes) with
// frequent index-array (subscripted-subscript) pairs.
var genConfig = gencomp.Config{ErrorWeight: -1, IdxWeight: 400}

type compileCase struct {
	*job
	opts core.Options
	// want is the hand-written baseline's result where the workloads
	// package has one, else the ForceThunked reference, which must match
	// bit for bit.
	want    *runtime.Strict
	bitwise bool
}

// genJob is generated program i with the oracle's dyadic inputs.
func genJob(i int, seed uint64) *job {
	gp := gencomp.Generate(seed, genConfig)
	return &job{name: fmt.Sprintf("gen%02d", i), src: gp.Source, params: gp.Params, inputs: oracle.FillInputs(gp)}
}

// pickGenerated draws generator seeds from seed and keeps the first
// genCount whose ForceThunked reference runs cleanly.
func pickGenerated(seed int64) ([]uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	var keep []uint64
	for tries := 0; len(keep) < genCount; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("only %d of 1000 generated programs ran", len(keep))
		}
		s := rng.Uint64()
		if _, err := genJob(len(keep), s).thunkedRun(); err == nil {
			keep = append(keep, s)
		}
	}
	return keep, nil
}

// buildCompileCases makes the round's programs and inputs: the six
// paper programs at n=paperN and the generated ones.
func buildCompileCases(seed int64, gen []uint64) []*compileCase {
	n := map[string]int64{"n": paperN}
	jobs := append(stencilJobs(paperN, paperN, seed),
		&job{name: "example1", src: workloads.Example1Src, params: n},
		&job{name: "mixedpass", src: workloads.MixedPassSrc, params: n},
	)
	for i, s := range gen {
		jobs = append(jobs, genJob(i, s))
	}
	cs := make([]*compileCase, len(jobs))
	for i, j := range jobs {
		opts := j.options(workers)
		opts.Certify = true
		cs[i] = &compileCase{job: j, opts: opts}
	}
	return cs
}

// compileStats sums the compiler's own reports (Program.Stats).
type compileStats struct {
	phases                            map[string]time.Duration
	schedules                         map[string]int
	claims, certified, thunked, fused int
}

func newCompileStats() *compileStats {
	return &compileStats{phases: map[string]time.Duration{}, schedules: map[string]int{}}
}

func (s *compileStats) add(r *metrics.CompileReport) {
	for ph, d := range r.Phases {
		s.phases[ph] += d
	}
	c := r.Counters
	s.claims += c.ClaimsCertified + c.ClaimsFalsified + c.ClaimsSkipped
	s.certified += c.ClaimsCertified
	s.thunked += c.ThunkedDefs
	s.fused += c.LoopsFused
	for kind, n := range c.SchedulesByKind {
		s.schedules[kind] += n
	}
}

func (s *compileStats) parallelLoops() int {
	n := 0
	for kind, k := range s.schedules {
		if kind != "sequential" {
			n += k
		}
	}
	return n
}

func runCompile(cfg config) (*outcome, error) {
	gen, err := pickGenerated(cfg.seed)
	if err != nil {
		return nil, err
	}
	cs, setup, err := repeatSetup(func() ([]*compileCase, error) { return buildCompileCases(cfg.seed, gen), nil }, nil)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if c.hand != nil {
			c.want = c.hand()
			continue
		}
		if c.want, err = c.thunkedRun(); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", c.name, err)
		}
		c.bitwise = true
	}
	// One untimed round stamps the plan shapes the compiler builds.
	shapes := newCompileStats()
	if _, _, err := compileRound(-1, cs, nil, shapes); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	st := newCompileStats()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var untraced, traced []time.Duration
	ph := runPhase(cfg.budget, cfg.minOps, func(i int) (time.Duration, error) {
		r, s := (*recorder)(nil), (*compileStats)(nil)
		if cfg.trace && i%2 == 1 {
			r, s = rec, st
		}
		lat, outs, err := compileRound(i, cs, r, s)
		if err != nil {
			return lat, err
		}
		if r != nil {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
		}
		return lat, checkCompile(cs, outs)
	})
	o := &outcome{setup: setup, phase: ph, rssMiB: maxRSSMiB(), stamp: map[string]any{
		"sizes":           map[string]int64{"paper_n": paperN, "generated": genCount},
		"generated_seeds": gen,
		"plan_shapes":     shapes.schedules,
		"certify_claims":  shapes.claims,
	}}
	if cfg.trace {
		o.spans = rec
		o.layers = compileLayers(st, rec, untraced, traced)
	}
	return o, nil
}

// compileRound compiles and runs every case once. With a recorder it
// opens a span around each core.Compile and Program.Run call; with
// stats it sums each compile's own report.
func compileRound(op int, cs []*compileCase, rec *recorder, st *compileStats) (time.Duration, []*runtime.Strict, error) {
	outs := make([]*runtime.Strict, len(cs))
	start := time.Now()
	root := rec.begin(op, -1, "bench.round")
	defer rec.end(root)
	for j, c := range cs {
		s := rec.begin(op, root, "core.compile")
		p, err := core.Compile(c.src, c.params, c.opts)
		rec.end(s)
		if err != nil {
			return time.Since(start), nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if st != nil {
			st.add(p.Stats)
		}
		s = rec.begin(op, root, "core.run")
		outs[j], err = p.Run(c.inputs)
		rec.end(s)
		if err != nil {
			return time.Since(start), nil, fmt.Errorf("%s: run: %w", c.name, err)
		}
	}
	return time.Since(start), outs, nil
}

func checkCompile(cs []*compileCase, outs []*runtime.Strict) error {
	for j, c := range cs {
		if err := agree(c.want, outs[j], c.bitwise); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// compileLayers reports the compiler's phase times as Program.Stats
// gives them, beside the benchmark's own wall time of core.Compile. The
// phases overlap: PhaseAnalyze's timer encloses the analysis-layer and
// static-claim certification that PhaseCertify also counts, so the
// phases sum to more than the compile's wall time; phase_overlap_ms is
// that excess.
func compileLayers(st *compileStats, rec *recorder, untraced, traced []time.Duration) map[string]float64 {
	n := float64(rec.ops())
	phaseMs := func(ph string) float64 { return ratio(ms(st.phases[ph]), n) }
	var sum time.Duration
	for _, d := range st.phases {
		sum += d
	}
	compileMs := rec.perOpMs("core.compile")
	l := map[string]float64{
		"parser.parse_ms":          phaseMs(metrics.PhaseParse),
		"analysis.analyze_ms":      phaseMs(metrics.PhaseAnalyze),
		"schedule.plan_ms":         phaseMs(metrics.PhasePlan),
		"codegen.lower_ms":         phaseMs(metrics.PhaseLower),
		"loopir.optimize_ms":       phaseMs(metrics.PhaseOptimize),
		"certify.certify_ms":       phaseMs(metrics.PhaseCertify),
		"core.compile_ms":          compileMs,
		"core.run_ms":              rec.perOpMs("core.run"),
		"metrics.phase_overlap_ms": ratio(ms(sum), n) - compileMs,
		"certify.claims":           ratio(float64(st.claims), n),
		"certify.certified_frac":   ratio(float64(st.certified), float64(st.claims)),
		"codegen.thunked_defs":     ratio(float64(st.thunked), n),
		"loopir.loops_fused":       ratio(float64(st.fused), n),
		"schedule.parallel_loops":  ratio(float64(st.parallelLoops()), n),
	}
	traceLayers(l, rec, untraced, traced)
	return l
}
