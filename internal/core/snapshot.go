package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"arraycomp/internal/certify"
	"arraycomp/internal/codegen"
	"arraycomp/internal/lang"
	"arraycomp/internal/loopir"
	"arraycomp/internal/metrics"
	"arraycomp/internal/wire"
)

// This file is the persistence boundary of the compiler: a compiled
// Program whose every definition reached a thunkless plan is pure data
// (loop-IR nests over concrete integers), so it can be serialized,
// written to a disk cache tier, and restored in a later process with
// zero compile-phase work — the fleet-scale form of the paper's
// compile-once/run-many amortization argument.
//
// Two deliberate restrictions keep the boundary sound:
//
//   - Only CERTIFIED programs snapshot. A disk entry outlives the
//     process that proved its schedules legal, so the proof has to
//     ride along: Snapshot refuses programs compiled without -certify
//     (or whose audit falsified anything), and the restored program
//     carries the certified-claims count so the tiering gate
//     ("uncertified programs never tier up") keeps holding.
//   - Only fully thunkless programs snapshot. Thunked fallbacks and
//     recursive groups evaluate through the analysis-time suspension
//     machinery, which is not data; those programs stay memory-only.

// SnapshotDef is one definition's durable compilation artifact.
type SnapshotDef struct {
	Name string
	// SourceArray is the updated array of a bigupd plan.
	SourceArray string
	InPlace     bool
	CopyUpdate  bool
	Checks      codegen.CheckCounts
	IR          *loopir.Program
}

// Snapshot is the durable form of a compiled Program.
type Snapshot struct {
	Result string
	Env    map[string]int64
	Order  []string
	Notes  []string
	// Counters preserves the original compilation's optimization
	// record (what was elided, fused, scheduled) — the phase timings
	// deliberately do not survive: a restored program reports only the
	// load phase it actually paid.
	Counters metrics.Counters
	// CertifiedClaims is the original audit's certified-claim count;
	// Snapshot never produces an uncertified snapshot.
	CertifiedClaims int
	Defs            []SnapshotDef
}

// Snapshot renders the program in durable form. It fails on programs
// that are not certified or not fully thunkless — the callers (the
// cache's disk tier) treat that as "memory-only entry", not an error
// condition worth surfacing to clients.
func (p *Program) Snapshot() (*Snapshot, error) {
	if p.Certs == nil {
		return nil, fmt.Errorf("core: refusing to snapshot an uncertified program (compile with Certify)")
	}
	if err := p.Certs.Err(); err != nil {
		return nil, fmt.Errorf("core: refusing to snapshot: %w", err)
	}
	s := &Snapshot{
		Result:          p.Result,
		Env:             p.Env,
		Order:           p.Order,
		Notes:           p.Notes,
		Counters:        p.Stats.Counters,
		CertifiedClaims: p.Certs.CertifiedCount,
	}
	for _, name := range p.Order {
		cd := p.Defs[name]
		if cd.GroupIdx >= 0 {
			return nil, fmt.Errorf("core: %s is in a mutually recursive group; snapshots need thunkless plans", name)
		}
		if cd.Plan == nil {
			return nil, fmt.Errorf("core: %s compiled %s; snapshots need thunkless plans", name, cd.Mode())
		}
		s.Defs = append(s.Defs, SnapshotDef{
			Name:        name,
			SourceArray: cd.Def.Source,
			InPlace:     cd.Plan.InPlace,
			CopyUpdate:  cd.Plan.CopyUpdate,
			Checks:      cd.Plan.Checks,
			IR:          cd.Plan.Program,
		})
	}
	return s, nil
}

// snapshotVersion leads every encoded Snapshot; any other is refused.
const snapshotVersion = 1

// MarshalBinary encodes s field by field (internal/wire), each
// definition's IR in loopir's own encoding, and Env in key order.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	e := &wire.Encoder{Buf: []byte{snapshotVersion}}
	e.Str(s.Result)
	e.Len(len(s.Env))
	for _, k := range slices.Sorted(maps.Keys(s.Env)) {
		e.Str(k)
		e.Int(s.Env[k])
	}
	e.Strs(s.Order)
	e.Strs(s.Notes)
	c := &s.Counters
	for _, v := range [...]int{c.CollisionChecksElided, c.EmptiesChecksElided, c.ThunksAvoided, c.ThunkedDefs, c.LoopsFused,
		c.ClaimsCertified, c.ClaimsFalsified, c.ClaimsSkipped, c.IdxClaims, c.IdxClaimsStatic} {
		e.Int(int64(v))
	}
	e.Len(len(c.SchedulesByKind))
	for _, k := range slices.Sorted(maps.Keys(c.SchedulesByKind)) {
		e.Str(k)
		e.Int(int64(c.SchedulesByKind[k]))
	}
	e.Int(int64(s.CertifiedClaims))
	e.Len(len(s.Defs))
	for i := range s.Defs {
		d := &s.Defs[i]
		e.Str(d.Name)
		e.Str(d.SourceArray)
		e.Bool(d.InPlace)
		e.Bool(d.CopyUpdate)
		for _, v := range [...]int{d.Checks.CollisionChecks, d.Checks.BoundsChecks, d.Checks.DefinedChecks, d.Checks.EmptiesSweeps} {
			e.Int(int64(v))
		}
		e.Bool(d.IR != nil)
		if d.IR != nil {
			ir, err := d.IR.MarshalBinary()
			if err != nil {
				return nil, err
			}
			e.Bytes(ir)
		}
	}
	return e.Buf, nil
}

// UnmarshalBinary decodes what MarshalBinary wrote, replacing s.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := wire.NewDecoder(data)
	if d.Byte() != snapshotVersion {
		return fmt.Errorf("core: snapshot is not in encoding version %d", snapshotVersion)
	}
	out := Snapshot{Result: d.Str()}
	if n := d.Len(); n > 0 {
		out.Env = make(map[string]int64, n)
		for range n {
			k := d.Str()
			out.Env[k] = d.Int()
		}
	}
	out.Order, out.Notes = d.Strs(), d.Strs()
	c := &out.Counters
	for _, v := range [...]*int{&c.CollisionChecksElided, &c.EmptiesChecksElided, &c.ThunksAvoided, &c.ThunkedDefs, &c.LoopsFused,
		&c.ClaimsCertified, &c.ClaimsFalsified, &c.ClaimsSkipped, &c.IdxClaims, &c.IdxClaimsStatic} {
		*v = int(d.Int())
	}
	if n := d.Len(); n > 0 {
		c.SchedulesByKind = make(map[string]int, n)
		for range n {
			k := d.Str()
			c.SchedulesByKind[k] = int(d.Int())
		}
	}
	out.CertifiedClaims = int(d.Int())
	if n := d.Len(); n > 0 {
		out.Defs = make([]SnapshotDef, n)
		for i := range out.Defs {
			def := &out.Defs[i]
			def.Name, def.SourceArray = d.Str(), d.Str()
			def.InPlace, def.CopyUpdate = d.Bool(), d.Bool()
			for _, v := range [...]*int{&def.Checks.CollisionChecks, &def.Checks.BoundsChecks, &def.Checks.DefinedChecks, &def.Checks.EmptiesSweeps} {
				*v = int(d.Int())
			}
			if d.Bool() {
				def.IR = &loopir.Program{}
				if err := def.IR.UnmarshalBinary(d.Bytes()); err != nil {
					return err
				}
			}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	*s = out
	return nil
}

// RestoreSnapshot rebuilds a runnable Program from its durable form
// under the original request options (the caller guarantees the match
// — in the cache, options are part of the content address). The only
// work performed is closure compilation of the stored IR; the restored
// program's Stats charge it all to the "load" phase, with every
// compile phase at zero — the restart-warmth contract.
func RestoreSnapshot(s *Snapshot, opts Options) (*Program, error) {
	t0 := time.Now()
	rep := metrics.NewCompileReport()
	rep.Counters = s.Counters
	p := &Program{
		Env:    s.Env,
		Defs:   map[string]*CompiledDef{},
		Order:  s.Order,
		Result: s.Result,
		Notes:  s.Notes,
		Stats:  rep,
	}
	// The restored certificate: the claims were proved by the original
	// compilation; the count rides along so the tier gate (uncertified
	// programs never tier up) sees a passing audit.
	p.Certs = certify.NewReport()
	p.Certs.CertifiedCount = s.CertifiedClaims
	for i := range s.Defs {
		d := &s.Defs[i]
		if d.IR == nil {
			return nil, fmt.Errorf("core: snapshot of %s has no IR", d.Name)
		}
		ex, err := loopir.Compile(d.IR)
		if err != nil {
			return nil, fmt.Errorf("core: restoring %s: %w", d.Name, err)
		}
		ex.SetWorkers(opts.Workers)
		p.installVerifyHook(ex, opts.VerifyStats)
		p.Defs[d.Name] = &CompiledDef{
			Def:      &lang.ArrayDef{Name: d.Name, Source: d.SourceArray, Strict: true},
			GroupIdx: -1,
			Plan:     &codegen.Plan{Program: d.IR, Exec: ex, Checks: d.Checks, InPlace: d.InPlace, CopyUpdate: d.CopyUpdate},
		}
	}
	for _, name := range s.Order {
		if p.Defs[name] == nil {
			return nil, fmt.Errorf("core: snapshot order names %s but carries no plan for it", name)
		}
	}
	if err := p.initTier(opts, rep); err != nil {
		return nil, err
	}
	if opts.Stream {
		// The stream pipeline is closures, not data: rebuild it from
		// the restored IR. A forged snapshot cannot smuggle an illegal
		// window geometry in — the legality analysis re-derives it
		// here from scratch (and rejection just means materialized
		// fallback, same as at compile time).
		if err := p.initStream(rep, opts.Workers); err != nil {
			return nil, err
		}
	}
	rep.AddPhase(metrics.PhaseLoad, time.Since(t0))
	return p, nil
}
