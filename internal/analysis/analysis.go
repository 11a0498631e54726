package analysis

import (
	"fmt"

	"arraycomp/internal/affine"
	"arraycomp/internal/depgraph"
	"arraycomp/internal/deptest"
	"arraycomp/internal/lang"
)

// ArrayBounds are concrete per-dimension bounds of an array under the
// current parameter binding.
type ArrayBounds struct {
	Lo, Hi []int64
}

// Rank returns the dimension count.
func (b ArrayBounds) Rank() int { return len(b.Lo) }

// Size returns the element count.
func (b ArrayBounds) Size() int64 {
	if b.Rank() == 0 {
		return 0
	}
	n := int64(1)
	for d := range b.Lo {
		e := b.Hi[d] - b.Lo[d] + 1
		if e < 0 {
			e = 0
		}
		n *= e
	}
	return n
}

// EvalBounds evaluates a definition's declared bounds under env.
func EvalBounds(def *lang.ArrayDef, env map[string]int64) (ArrayBounds, error) {
	var out ArrayBounds
	for _, b := range def.Bounds {
		lo, err := affine.EvalInt(b.Lo, env)
		if err != nil {
			return ArrayBounds{}, fmt.Errorf("bounds of %s: %w", def.Name, err)
		}
		hi, err := affine.EvalInt(b.Hi, env)
		if err != nil {
			return ArrayBounds{}, fmt.Errorf("bounds of %s: %w", def.Name, err)
		}
		out.Lo = append(out.Lo, lo)
		out.Hi = append(out.Hi, hi)
	}
	return out, nil
}

// Verdict is a three-valued static finding.
type Verdict uint8

const (
	// No: the property (collision, empties, …) cannot occur.
	No Verdict = iota
	// Maybe: the property may occur; runtime checks are required.
	Maybe
	// Yes: the property certainly occurs; compile-time error territory.
	Yes
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case No:
		return "no"
	case Maybe:
		return "maybe"
	case Yes:
		return "yes"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Options tunes the analysis.
type Options struct {
	// ExactBudget is the node budget per exact dependence test.
	ExactBudget int
	// NoLinearize disables the §6 linearization refinement for
	// multi-dimensional subscripts (ablation); by default pairs whose
	// references are provably in bounds are additionally tested
	// against the row-major linearized subscript.
	NoLinearize bool
}

func (o Options) budget() int {
	if o.ExactBudget > 0 {
		return o.ExactBudget
	}
	return deptest.DefaultExactBudget
}

// Result is the complete analysis of one array definition under one
// parameter binding.
type Result struct {
	Def    *lang.ArrayDef
	Env    map[string]int64
	Bounds ArrayBounds

	// Roots is the normalized comprehension tree (children of a
	// virtual root); Clauses the flattened s/v clauses in source order.
	Roots   []*TreeNode
	Clauses []*FlatClause

	// Graph is the dependence graph: vertex i is Clauses[i]; edges
	// carry kind + direction vectors over the endpoints' shared loops.
	Graph *depgraph.Graph

	// Collision is the write-collision verdict (section 7);
	// CollisionDetail explains a Yes/Maybe.
	Collision       Verdict
	CollisionDetail string

	// NoEmpties reports that every element provably receives exactly
	// one definition (section 4), so definedness checks are elided.
	NoEmpties bool
	// EmptiesDetail explains why NoEmpties failed, if it did.
	EmptiesDetail string

	// WriteInBounds[i] reports that clause i's writes are provably
	// within the array bounds (bounds checks elided).
	WriteInBounds []bool
	// ReadInBounds reports per read reference that its subscripts are
	// provably within the *read* array's bounds.
	ReadInBounds map[*ReadRef]bool

	// ExternalReads are arrays (other than the one being defined, and
	// for bigupd other than the source) the definition reads.
	ExternalReads map[string]bool

	// AntiDeps records, for bigupd definitions, each anti dependence
	// with the read reference it originates from — the code generator
	// needs this to decide node splitting per read.
	AntiDeps []AntiDep

	// linearize enables the §6 linearization refinement.
	linearize bool
	// budget is the exact-test budget the analysis ran with, kept so
	// certification can replay the pair walk with identical options.
	budget int
	// external keeps the caller's external-bounds map for the same
	// reason (read in-bounds certification needs the read arrays'
	// bounds).
	external map[string]ArrayBounds

	// SelfBottom warns that some element provably depends on itself
	// (an all-'=' definite self flow edge): the element is ⊥.
	SelfBottom bool

	// Cond is the claim-assumed re-analysis for subscripted-subscript
	// definitions (nil when no indirect pattern was recognized): its
	// verdicts hold conditionally on index-array property claims,
	// discharged statically or by the runtime verifier.
	Cond *CondResult

	Diagnostics []string
}

// Analyze runs the full analysis for one definition. selfBounds are
// the bounds of the array being defined (for bigupd: of the source
// array); external maps other visible array names to their bounds,
// used for read in-bounds proofs.
func Analyze(def *lang.ArrayDef, env map[string]int64, selfBounds ArrayBounds, external map[string]ArrayBounds, opts Options) (*Result, error) {
	res := &Result{
		Def:           def,
		Env:           env,
		Bounds:        selfBounds,
		ReadInBounds:  map[*ReadRef]bool{},
		ExternalReads: map[string]bool{},
	}
	arrays := map[string]bool{def.Name: true}
	if def.Source != "" {
		arrays[def.Source] = true
	}
	for name := range external {
		arrays[name] = true
	}
	roots, clauses, err := Flatten(def, env, arrays, &res.Diagnostics)
	if err != nil {
		return nil, err
	}
	res.Roots = roots
	res.Clauses = clauses

	// The array whose elements the clauses define; for bigupd the
	// clauses update the source array.
	target := def.Name
	if def.Kind == lang.BigUpd {
		target = def.Source
	}

	// Rank checks.
	for _, cl := range clauses {
		if len(cl.Clause.Subs) != selfBounds.Rank() {
			return nil, fmt.Errorf("%s: clause writes %d subscripts, array %s has rank %d",
				cl.Label(), len(cl.Clause.Subs), target, selfBounds.Rank())
		}
	}

	res.Graph = depgraph.New(len(clauses))
	for i, cl := range clauses {
		res.Graph.Label(i, cl.Label())
	}

	budget := opts.budget()
	res.linearize = !opts.NoLinearize
	res.budget = budget
	res.external = external

	// In-bounds proofs first: they gate the linearization refinement.
	res.proveBounds(external)

	// Dependence edges. In a bigupd, reads of the *source* array see
	// the old contents (anti dependences: the read must precede the
	// kill), while reads of the *defined* name see the new contents
	// (flow dependences), which is how the paper's Gauss-Seidel/SOR
	// fragment mixes δ and δ̄ edges on the same clause.
	for _, sink := range clauses {
		for _, rd := range sink.Reads {
			switch {
			case def.Kind != lang.BigUpd && rd.Ix.Array == target:
				if err := res.addFlowEdges(sink, rd, budget); err != nil {
					return nil, err
				}
			case def.Kind == lang.BigUpd && rd.Ix.Array == def.Source:
				if err := res.addAntiEdges(sink, rd, budget); err != nil {
					return nil, err
				}
			case def.Kind == lang.BigUpd && rd.Ix.Array == def.Name:
				if err := res.addFlowEdges(sink, rd, budget); err != nil {
					return nil, err
				}
			default:
				res.ExternalReads[rd.Ix.Array] = true
			}
		}
	}

	// Output dependences / collisions.
	if err := res.analyzeWrites(budget); err != nil {
		return nil, err
	}

	// Empties.
	res.decideEmpties()

	// Property-conditional re-analysis of indirect subscripts.
	res.analyzeCond()

	return res, nil
}

// pairOpts builds the per-pair options: linearization applies when
// both references of the pair are provably within the target array's
// bounds.
func (r *Result) pairOpts(budget int, srcOK, sinkOK bool) PairOptions {
	opts := PairOptions{Budget: budget}
	if r.linearize && srcOK && sinkOK && r.Bounds.Rank() >= 2 {
		b := r.Bounds
		opts.Linearize = &b
	}
	return opts
}

// addFlowEdges adds writer→reader flow edges for one read of the
// defined array.
func (r *Result) addFlowEdges(reader *FlatClause, rd *ReadRef, budget int) error {
	for wi, writer := range r.Clauses {
		deps, err := AnalyzePairOpts(writer.WriteForms, rd.Forms, writer, reader,
			r.pairOpts(budget, r.WriteInBounds[wi], r.ReadInBounds[rd]))
		if err != nil {
			return err
		}
		for _, dep := range deps {
			if writer == reader && dep.Dir.SelfEqual() {
				// A clause instance that reads the very element it
				// writes: the element is ⊥.
				if dep.Verdict == deptest.Definite {
					r.SelfBottom = true
					r.Diagnostics = append(r.Diagnostics,
						fmt.Sprintf("%s: element provably depends on itself (⊥)", writer.Label()))
				} else {
					r.Diagnostics = append(r.Diagnostics,
						fmt.Sprintf("%s: element may depend on itself", writer.Label()))
				}
			}
			r.Graph.AddEdge(wi, reader.ID, depgraph.Flow, dep.Dir)
		}
	}
	return nil
}

// AntiDep is one anti dependence with its originating read reference.
type AntiDep struct {
	Read   *ReadRef
	Writer int // clause ID of the killing write
	Dep    PairDep
}

// addAntiEdges adds reader→writer anti edges for one read of a bigupd
// source array. (Reading the element the same instance overwrites is
// fine as long as the read is evaluated first; the loop-independent
// self anti edge carries exactly that constraint.)
func (r *Result) addAntiEdges(reader *FlatClause, rd *ReadRef, budget int) error {
	for wi, writer := range r.Clauses {
		deps, err := AnalyzePairOpts(rd.Forms, writer.WriteForms, reader, writer,
			r.pairOpts(budget, r.ReadInBounds[rd], r.WriteInBounds[wi]))
		if err != nil {
			return err
		}
		for _, dep := range deps {
			r.Graph.AddEdge(reader.ID, wi, depgraph.Anti, dep.Dir)
			r.AntiDeps = append(r.AntiDeps, AntiDep{Read: rd, Writer: wi, Dep: dep})
		}
	}
	return nil
}

// analyzeWrites decides the write-collision verdict and, where the
// definition's semantics require it (accumArray with a non-commutative
// combiner, bigupd), adds order-preserving output edges.
func (r *Result) analyzeWrites(budget int) error {
	verdict := No
	detail := ""
	orderMatters := r.Def.Kind == lang.BigUpd ||
		(r.Def.Kind == lang.Accumulated && !r.Def.Accum.Commutative())
	for i, a := range r.Clauses {
		for j := i; j < len(r.Clauses); j++ {
			b := r.Clauses[j]
			deps, err := AnalyzePairOpts(a.WriteForms, b.WriteForms, a, b,
				r.pairOpts(budget, r.WriteInBounds[i], r.WriteInBounds[j]))
			if err != nil {
				return err
			}
			for _, dep := range deps {
				if i == j && dep.Dir.SelfEqual() {
					continue // an instance trivially "collides" with itself
				}
				if i == j && dep.Dir.LeadingDirection() == deptest.DirGreater {
					// The symmetric twin of a (<) collision between the
					// same pair; count once.
					continue
				}
				switch dep.Verdict {
				case deptest.Definite:
					if verdict != Yes {
						verdict = Yes
						detail = fmt.Sprintf("%s and %s definitely write the same element (direction %s)", a.Label(), b.Label(), dep.Dir)
					}
				default:
					if verdict == No {
						verdict = Maybe
						detail = fmt.Sprintf("%s and %s may write the same element (direction %s)", a.Label(), b.Label(), dep.Dir)
					}
				}
				if orderMatters {
					r.addOutputEdges(i, j, dep.Dir)
				}
			}
		}
	}
	r.Collision = verdict
	r.CollisionDetail = detail
	return nil
}

// addOutputEdges preserves the list order of one colliding write pair
// of clauses i ≤ j: the edge's source is the clause whose instance
// comes first in list order. Within one iteration of the shared loops
// clause i's instance comes first, and so it does when the vector's
// leading component is (<). A leading (>) puts clause j's instance in
// an earlier iteration, so the edge runs j → i with the reversed
// vector; a leading * admits both, so both edges are added. Self pairs
// reach here led by (<) or *, and one edge covers both orders.
func (r *Result) addOutputEdges(i, j int, dir deptest.Vector) {
	lead := dir.LeadingDirection()
	if i == j || lead != deptest.DirGreater {
		r.Graph.AddEdge(i, j, depgraph.Output, dir)
	}
	if i != j && (lead == deptest.DirGreater || lead == deptest.DirAny) {
		r.Graph.AddEdge(j, i, depgraph.Output, dir.Reverse())
	}
}

// proveBounds computes per-reference in-bounds proofs.
func (r *Result) proveBounds(external map[string]ArrayBounds) {
	target := r.Def.Name
	if r.Def.Kind == lang.BigUpd {
		target = r.Def.Source
	}
	boundsOf := func(name string) (ArrayBounds, bool) {
		if name == target || name == r.Def.Name {
			return r.Bounds, true
		}
		b, ok := external[name]
		return b, ok
	}
	r.WriteInBounds = make([]bool, len(r.Clauses))
	for i, cl := range r.Clauses {
		r.WriteInBounds[i] = r.provedInBounds(cl.WriteForms, cl.WriteAffine, cl, r.Bounds)
		if !r.WriteInBounds[i] {
			r.Diagnostics = append(r.Diagnostics,
				fmt.Sprintf("%s: writes not provably in bounds; bounds checks compiled", cl.Label()))
		}
		for _, rd := range cl.Reads {
			b, ok := boundsOf(rd.Ix.Array)
			proved := ok && r.provedInBounds(rd.Forms, rd.Affine, cl, b)
			r.ReadInBounds[rd] = proved
		}
	}
}

func (r *Result) provedInBounds(forms []affine.Form, isAffine bool, cl *FlatClause, b ArrayBounds) bool {
	if !isAffine || len(forms) != b.Rank() {
		return false
	}
	if cl.Guarded {
		// Guards only shrink the iteration space, so the unguarded
		// range proof remains sound (if the full range fits, the
		// guarded range fits).
		_ = cl
	}
	for d, form := range forms {
		iv, err := FormRange(form, cl)
		if err != nil {
			return false
		}
		if iv.Lo < b.Lo[d] || iv.Hi > b.Hi[d] {
			return false
		}
	}
	return true
}

// decideEmpties applies the paper's three conditions: no collisions,
// no out-of-bounds definitions, and pair count equal to the array
// size — together they force the written subscripts to be a
// permutation of the index space.
func (r *Result) decideEmpties() {
	if r.Def.Kind != lang.Monolithic {
		// accumArray fills empties with the default; bigupd updates an
		// existing array. Neither needs the proof.
		r.NoEmpties = true
		return
	}
	if r.Collision != No {
		r.EmptiesDetail = "write collisions not excluded"
		return
	}
	var count int64
	for i, cl := range r.Clauses {
		if cl.Guarded {
			r.EmptiesDetail = fmt.Sprintf("%s is guarded; instance count not static", cl.Label())
			return
		}
		if !r.WriteInBounds[i] {
			r.EmptiesDetail = fmt.Sprintf("%s not provably in bounds", cl.Label())
			return
		}
		count += cl.Instances
	}
	if count != r.Bounds.Size() {
		r.EmptiesDetail = fmt.Sprintf("%d subscript/value pairs for %d elements", count, r.Bounds.Size())
		return
	}
	r.NoEmpties = true
}
