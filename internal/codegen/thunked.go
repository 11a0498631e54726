package codegen

import (
	"fmt"
	"maps"
	"slices"

	"arraycomp/internal/analysis"
	"arraycomp/internal/lang"
	"arraycomp/internal/runtime"
)

// ThunkedPlan evaluates one definition with the general (expensive)
// representations: non-strict thunked arrays for monolithic
// definitions, eager fold with a snapshot for bigupd, eager
// accumulation for accumArray. It is both the fallback when no safe
// static schedule exists and the reference semantics the compiled
// plans are differential-tested against.
type ThunkedPlan struct {
	res *analysis.Result
}

// NewThunkedPlan wraps an analysis result for thunked evaluation.
func NewThunkedPlan(res *analysis.Result) *ThunkedPlan {
	return &ThunkedPlan{res: res}
}

// instance is one clause instance discovered by tree enumeration.
type instance struct {
	cl   *analysis.FlatClause
	s    scope
	subs []int64
}

// enumerate walks the normalized tree, binding generators and
// evaluating guards, and yields clause instances in list order.
func (p *ThunkedPlan) enumerate(ev *evaluator, visit func(inst instance) error) error {
	var walk func(nodes []*analysis.TreeNode, s scope) error
	walk = func(nodes []*analysis.TreeNode, s scope) error {
		for _, n := range nodes {
			ns := s.withLets(n.Lets)
			ok := true
			for _, g := range n.Guards {
				v, err := ev.evalBool(g, ns)
				if err != nil {
					return err
				}
				if !v {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if n.IsLoop() {
				l := n.Loop
				for t := int64(1); t <= l.Trip(); t++ {
					inner := scope{ints: copyInts(ns.ints), lets: ns.lets}
					inner.ints[l.Var] = l.ValueAt(t)
					if err := walk(n.Children, inner); err != nil {
						return err
					}
				}
				continue
			}
			cl := n.Clause
			subs := make([]int64, len(cl.Clause.Subs))
			for i, se := range cl.Clause.Subs {
				v, err := ev.evalInt(se, ns)
				if err != nil {
					return err
				}
				subs[i] = v
			}
			if err := visit(instance{cl: cl, s: ns, subs: subs}); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(p.res.Roots, scope{ints: map[string]int64{}})
}

func copyInts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Run evaluates the definition. inputs must supply every external
// array and, for bigupd, the source array (which is not modified: the
// thunked path is the persistent baseline).
func (p *ThunkedPlan) Run(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	switch p.res.Def.Kind {
	case lang.Monolithic:
		return p.runMonolithic(inputs)
	case lang.Accumulated:
		return p.runAccum(inputs)
	case lang.BigUpd:
		return p.runBigupd(inputs)
	}
	return nil, fmt.Errorf("codegen: unknown definition kind %v", p.res.Def.Kind)
}

func strictAccessor(a *runtime.Strict) func([]int64) (float64, error) {
	return func(subs []int64) (float64, error) {
		off, err := a.B.LinearChecked(subs)
		if err != nil {
			return 0, err
		}
		return a.Data[off], nil
	}
}

func (p *ThunkedPlan) baseEvaluator(inputs map[string]*runtime.Strict) (*evaluator, error) {
	ev := &evaluator{
		params: p.res.Env,
		arrays: map[string]func([]int64) (float64, error){},
	}
	for _, name := range slices.Sorted(maps.Keys(p.res.ExternalReads)) {
		in, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("codegen: thunked run missing input array %q", name)
		}
		ev.arrays[name] = strictAccessor(in)
	}
	return ev, nil
}

func (p *ThunkedPlan) bounds() runtime.Bounds {
	return boundsToRuntime(p.res.Bounds)
}

func (p *ThunkedPlan) runMonolithic(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	ev, err := p.baseEvaluator(inputs)
	if err != nil {
		return nil, err
	}
	arr := runtime.NewNonStrict(p.bounds())
	ev.arrays[p.res.Def.Name] = func(subs []int64) (float64, error) {
		return arr.At(subs...)
	}
	err = p.enumerate(ev, func(inst instance) error {
		cl, s := inst.cl, inst.s
		return arr.Define(inst.subs, func() (float64, error) {
			return ev.evalFloat(cl.Clause.Value, s)
		})
	})
	if err != nil {
		return nil, err
	}
	// letrec* strict context: force every element.
	return arr.ForceElements()
}

func (p *ThunkedPlan) runAccum(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	ev, err := p.baseEvaluator(inputs)
	if err != nil {
		return nil, err
	}
	comb, ok := runtime.Combiner(p.res.Def.Accum.Combine)
	if !ok {
		return nil, fmt.Errorf("codegen: unknown combining function %q", p.res.Def.Accum.Combine)
	}
	initEv := &evaluator{params: p.res.Env}
	init, err := initEv.evalFloat(p.res.Def.Accum.Init, scope{})
	if err != nil {
		return nil, err
	}
	acc := runtime.NewAccum(p.bounds(), comb, init)
	err = p.enumerate(ev, func(inst instance) error {
		if refersTo(inst.cl, p.res.Def.Name) {
			return fmt.Errorf("codegen: accumArray %s may not read itself", p.res.Def.Name)
		}
		v, err := ev.evalFloat(inst.cl.Clause.Value, inst.s)
		if err != nil {
			return err
		}
		return acc.Add(inst.subs, v)
	})
	if err != nil {
		return nil, err
	}
	return acc.Freeze(), nil
}

func refersTo(cl *analysis.FlatClause, array string) bool {
	for _, rd := range cl.Reads {
		if rd.Ix.Array == array {
			return true
		}
	}
	return false
}

func (p *ThunkedPlan) runBigupd(inputs map[string]*runtime.Strict) (*runtime.Strict, error) {
	ev, err := p.baseEvaluator(inputs)
	if err != nil {
		return nil, err
	}
	src, ok := inputs[p.res.Def.Source]
	if !ok {
		return nil, fmt.Errorf("codegen: thunked bigupd missing source array %q", p.res.Def.Source)
	}
	orig := src.Clone()   // the old contents every `source` read sees
	result := src.Clone() // the evolving fold state
	ev.arrays[p.res.Def.Source] = strictAccessor(orig)
	ev.arrays[p.res.Def.Name] = strictAccessor(result)
	err = p.enumerate(ev, func(inst instance) error {
		v, err := ev.evalFloat(inst.cl.Clause.Value, inst.s)
		if err != nil {
			return err
		}
		off, err := result.B.LinearChecked(inst.subs)
		if err != nil {
			return err
		}
		result.Data[off] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// RunThunkedGroup evaluates a set of mutually recursive monolithic
// definitions together: each array is represented non-strictly and the
// thunks may force elements of any array in the group (the paper's
// letrec* with multiple bindings). All arrays are then forced.
func RunThunkedGroup(group []*analysis.Result, inputs map[string]*runtime.Strict) (map[string]*runtime.Strict, error) {
	arrays := map[string]*runtime.NonStrict{}
	groupNames := map[string]bool{}
	for _, res := range group {
		groupNames[res.Def.Name] = true
	}
	evs := make([]*evaluator, len(group))
	plans := make([]*ThunkedPlan, len(group))
	for i, res := range group {
		if res.Def.Kind != lang.Monolithic {
			return nil, fmt.Errorf("codegen: %s: only monolithic arrays may be mutually recursive", res.Def.Name)
		}
		plans[i] = NewThunkedPlan(res)
		ev := &evaluator{params: res.Env, arrays: map[string]func([]int64) (float64, error){}}
		for _, name := range slices.Sorted(maps.Keys(res.ExternalReads)) {
			if groupNames[name] {
				continue // wired below as a group member
			}
			in, ok := inputs[name]
			if !ok {
				return nil, fmt.Errorf("codegen: thunked group run missing input array %q", name)
			}
			ev.arrays[name] = strictAccessor(in)
		}
		arrays[res.Def.Name] = runtime.NewNonStrict(plans[i].bounds())
		evs[i] = ev
	}
	// Wire every group member's accessor into every evaluator (the
	// definitions may reference each other in any direction).
	for _, ev := range evs {
		for name, arr := range arrays {
			arr := arr
			ev.arrays[name] = func(subs []int64) (float64, error) {
				return arr.At(subs...)
			}
		}
	}
	for i, res := range group {
		ev := evs[i]
		arr := arrays[res.Def.Name]
		err := plans[i].enumerate(ev, func(inst instance) error {
			cl, s := inst.cl, inst.s
			return arr.Define(inst.subs, func() (float64, error) {
				return ev.evalFloat(cl.Clause.Value, s)
			})
		})
		if err != nil {
			return nil, err
		}
	}
	out := map[string]*runtime.Strict{}
	for name, arr := range arrays {
		s, err := arr.ForceElements()
		if err != nil {
			return nil, fmt.Errorf("codegen: forcing %s: %w", name, err)
		}
		out[name] = s
	}
	return out, nil
}
