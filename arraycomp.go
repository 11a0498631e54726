// Package arraycomp is an optimizing compiler and runtime for
// Haskell-style array comprehensions, reproducing Anderson & Hudak,
// "Compilation of Haskell Array Comprehensions for Scientific
// Computing" (PLDI 1990).
//
// Programs are written in the paper's surface syntax — monolithic
// `array` comprehensions (including nested `[* … *]` comprehensions),
// `accumArray`, recursive `letrec*` bindings, and semi-monolithic
// `bigupd` updates — and compiled, per binding of their scalar
// parameters, through subscript analysis (GCD, Banerjee, and exact
// dependence tests), direction-vector dependence graphs, static
// thunkless scheduling, and node splitting for in-place updates.
// Definitions that defeat static scheduling fall back to the general
// non-strict thunked representation.
//
// Quick start:
//
//	prog, err := arraycomp.Compile(
//	    `a = array (1,n) ([ 1 := 1.0 ] ++ [ i := a!(i-1) * 2.0 | i <- [2..n] ])`,
//	    arraycomp.Params{"n": 10}, nil)
//	if err != nil { … }
//	out, err := prog.Run(nil)
//	fmt.Println(out.At(10)) // 512
package arraycomp

import (
	"fmt"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
)

// Params binds the scalar parameters (array extents such as n, m) a
// program is compiled against; the paper's analysis assumes statically
// known loop bounds, so compilation is per binding.
type Params = map[string]int64

// Array is a strict, fully evaluated array of float64 elements with
// Haskell-style inclusive bounds.
type Array = runtime.Strict

// Bounds describes an array's index space.
type Bounds = runtime.Bounds

// NewArray1 allocates a zero-filled 1-D array with inclusive bounds
// [lo..hi].
func NewArray1(lo, hi int64) *Array {
	return runtime.NewStrict(runtime.NewBounds1(lo, hi))
}

// NewArray2 allocates a zero-filled 2-D array with inclusive bounds
// [lo1..hi1]×[lo2..hi2].
func NewArray2(lo1, lo2, hi1, hi2 int64) *Array {
	return runtime.NewStrict(runtime.NewBounds2(lo1, lo2, hi1, hi2))
}

// InputBounds declares the index space of a free input array (one the
// program reads but does not define).
type InputBounds struct {
	Lo, Hi []int64
}

// Options tunes compilation.
type Options struct {
	// ForceThunked compiles every definition with the general
	// non-strict thunked representation — the naive baseline the
	// paper's optimizations are measured against.
	ForceThunked bool
	// ExactBudget bounds each exact dependence test's search
	// (0 selects a generous default).
	ExactBudget int
	// Parallel executes dependence-free loops concurrently across CPUs
	// (the paper's section 10 vectorization/parallelization extension).
	Parallel bool
	// Inputs declares bounds for free input arrays.
	Inputs map[string]InputBounds
}

// Program is a compiled array program, runnable any number of times.
type Program struct {
	p *core.Program
}

// Compile parses and compiles an array program under a parameter
// binding. See the package example and the examples/ directory for the
// surface syntax.
func Compile(src string, params Params, opts *Options) (*Program, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	copts := core.Options{
		ExactBudget:  o.ExactBudget,
		ForceThunked: o.ForceThunked,
		Parallel:     o.Parallel,
	}
	if len(o.Inputs) > 0 {
		copts.InputBounds = map[string]analysis.ArrayBounds{}
		for name, b := range o.Inputs {
			copts.InputBounds[name] = analysis.ArrayBounds{Lo: b.Lo, Hi: b.Hi}
		}
	}
	p, err := core.Compile(src, params, copts)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Run executes the program. inputs supplies every free input array;
// they are never mutated. The result is the program's result array.
func (p *Program) Run(inputs map[string]*Array) (*Array, error) {
	return p.p.Run(inputs)
}

// Report returns a human-readable compilation report: per definition
// the dependence graph, the collision and empties verdicts, the chosen
// schedule, and the runtime checks that could not be elided.
func (p *Program) Report() string {
	return p.p.Report()
}

// Mode reports how the named definition was compiled: "thunkless",
// "in-place" (a bigupd of an array nothing reads afterwards, updated
// in place with node splitting), "copy-update" (a bigupd of a caller's
// input or of an array read later: the plan copies it into the result
// and reads old values from the kept source), "thunked", or
// "thunked-group".
func (p *Program) Mode(def string) (string, error) {
	cd, ok := p.p.Defs[def]
	if !ok {
		return "", fmt.Errorf("arraycomp: no definition %q", def)
	}
	return cd.Mode(), nil
}

// Definitions lists the program's array definitions in evaluation
// order.
func (p *Program) Definitions() []string {
	return append([]string(nil), p.p.Order...)
}

// Notes returns the compilation decisions (schedule fallbacks, node
// splitting tiers, check elisions) in human-readable form.
func (p *Program) Notes() []string {
	return append([]string(nil), p.p.Notes...)
}
