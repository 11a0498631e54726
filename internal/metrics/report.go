// Package metrics is the compiler's instrumentation layer: per-phase
// timings and optimization counters recorded by every Compile (the
// CompileReport), plus a small process-wide metric registry with
// Prometheus text exposition for the haccd service.
//
// Everything the paper buys — collision-freeness proofs, elided
// empties sweeps, thunkless schedules, doacross plans — is computed at
// compile time, so a serving system wants two things from the
// compiler: to know where compile time goes (so cached plans can be
// shown to skip it) and to know *why* each optimization fired (so a
// cached plan stays auditable). The CompileReport records both.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase names the compiler phases a CompileReport times. They match
// the pipeline order: parse → analyze → plan (scheduling) → lower
// (codegen) → optimize (loop-IR rewrites).
const (
	PhaseParse    = "parse"
	PhaseAnalyze  = "analyze"
	PhasePlan     = "plan"
	PhaseLower    = "lower"
	PhaseOptimize = "optimize"
	// PhaseCertify times the -certify soundness audit (witness checks
	// and shadow-domain enumeration across all three layers).
	PhaseCertify = "certify"
	// PhasePromote times native tier-up: gogen emission plus the
	// toolchain build and load. Charged at compile time only when the
	// native tier is forced; background promotions account into
	// TierStats.PromoteNs instead (a CompileReport is read-only once
	// compilation returns).
	PhasePromote = "promote"
	// PhaseLoad times restoring a compiled program from the persistent
	// disk cache tier: deserialization plus IR-to-closure compilation.
	// It is the ONLY phase a disk-warm program pays — parse, analyze,
	// plan, lower, optimize, and certify all stay at zero, which is the
	// restart-warmth contract tests assert through Program.Stats.
	PhaseLoad = "load"
)

// Phases lists every compile phase in pipeline order.
var Phases = []string{PhaseParse, PhaseAnalyze, PhasePlan, PhaseLower, PhaseOptimize, PhaseCertify, PhasePromote, PhaseLoad}

// CompilePhases lists the phases that represent actual compilation
// work (everything but PhaseLoad). A program served from the disk tier
// must show zero time across all of them.
var CompilePhases = []string{PhaseParse, PhaseAnalyze, PhasePlan, PhaseLower, PhaseOptimize, PhaseCertify, PhasePromote}

// Counters tallies the optimizations a compilation performed — the
// quantities the paper's analyses exist to maximize.
type Counters struct {
	// CollisionChecksElided counts clause writes whose collision check
	// was discharged statically (the §7 interleave/permutation proofs).
	CollisionChecksElided int `json:"collision_checks_elided"`
	// EmptiesChecksElided counts definitions whose definedness bitmap
	// and final empties sweep were proven redundant (§4).
	EmptiesChecksElided int `json:"empties_checks_elided"`
	// ThunksAvoided counts definitions compiled thunkless or in-place
	// (a static schedule exists; no suspension graph is built).
	ThunksAvoided int `json:"thunks_avoided"`
	// ThunkedDefs counts definitions that fell back to the thunked
	// evaluator (no static schedule, non-strict binding, or a
	// mutually recursive group).
	ThunkedDefs int `json:"thunked_defs"`
	// LoopsFused counts adjacent loop pairs merged by the optimizer.
	LoopsFused int `json:"loops_fused"`
	// SchedulesByKind counts compiled loops by execution shape:
	// "sequential", "shard", "wavefront".
	SchedulesByKind map[string]int `json:"schedules_by_kind,omitempty"`
	// ClaimsCertified/ClaimsFalsified/ClaimsSkipped tally the -certify
	// audit outcomes across the analysis, schedule, and plan layers
	// (all zero unless certification ran).
	ClaimsCertified int `json:"claims_certified,omitempty"`
	ClaimsFalsified int `json:"claims_falsified,omitempty"`
	ClaimsSkipped   int `json:"claims_skipped,omitempty"`
	// IdxClaims counts the index-array property claims the conditional
	// subscripted-subscript analysis assumed; IdxClaimsStatic counts how
	// many of them were discharged statically from the index array's own
	// defining comprehension (the rest carry a runtime verifier guard).
	IdxClaims       int `json:"idx_claims,omitempty"`
	IdxClaimsStatic int `json:"idx_claims_static,omitempty"`
}

// AddSchedule bumps the counter for one loop's schedule kind.
func (c *Counters) AddSchedule(kind string) {
	if c.SchedulesByKind == nil {
		c.SchedulesByKind = map[string]int{}
	}
	c.SchedulesByKind[kind]++
}

// CompileReport is the instrumentation record of one Compile: where
// the time went and which optimizations fired. A report is built
// single-threaded during compilation and read-only afterwards, so a
// cached plan may share its report across concurrent readers.
type CompileReport struct {
	// Phases maps phase name to cumulative time spent in it.
	Phases   map[string]time.Duration `json:"phases"`
	Counters Counters                 `json:"counters"`
}

// NewCompileReport returns an empty report.
func NewCompileReport() *CompileReport {
	return &CompileReport{Phases: map[string]time.Duration{}}
}

// AddPhase accumulates time into a phase.
func (r *CompileReport) AddPhase(phase string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.Phases[phase] += d
}

// Total returns the summed phase time.
func (r *CompileReport) Total() time.Duration {
	var t time.Duration
	for _, d := range r.Phases {
		t += d
	}
	return t
}

// String renders the report for `hacc -explain` and logs.
func (r *CompileReport) String() string {
	var b strings.Builder
	b.WriteString("compile phases:\n")
	for _, p := range Phases {
		if p == PhasePromote && r.Phases[p] == 0 {
			// Only forced-tier compiles charge a promote phase; keep
			// the report stable for everyone else.
			continue
		}
		fmt.Fprintf(&b, "  %-9s %12v\n", p, r.Phases[p].Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  %-9s %12v\n", "total", r.Total().Round(time.Microsecond))
	c := r.Counters
	b.WriteString("optimizations:\n")
	fmt.Fprintf(&b, "  collision checks elided  %d\n", c.CollisionChecksElided)
	fmt.Fprintf(&b, "  empties checks elided    %d\n", c.EmptiesChecksElided)
	fmt.Fprintf(&b, "  thunks avoided           %d (thunked: %d)\n", c.ThunksAvoided, c.ThunkedDefs)
	fmt.Fprintf(&b, "  loops fused              %d\n", c.LoopsFused)
	if c.ClaimsCertified+c.ClaimsFalsified+c.ClaimsSkipped > 0 {
		fmt.Fprintf(&b, "  claims certified         %d (falsified: %d, skipped: %d)\n",
			c.ClaimsCertified, c.ClaimsFalsified, c.ClaimsSkipped)
	}
	if len(c.SchedulesByKind) > 0 {
		kinds := make([]string, 0, len(c.SchedulesByKind))
		for k := range c.SchedulesByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		var parts []string
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c.SchedulesByKind[k]))
		}
		fmt.Fprintf(&b, "  schedules                %s\n", strings.Join(parts, " "))
	}
	return b.String()
}
