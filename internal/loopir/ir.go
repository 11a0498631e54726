// Package loopir defines the imperative loop-nest intermediate
// representation that the paper's scheduler targets — DO loops with an
// explicit direction, element assignments, scalar and array
// temporaries, and optional runtime checks — together with an executor
// that compiles the IR to Go closures and runs it over strict float64
// arrays.
//
// By the time a program reaches this IR, every scalar parameter has
// been folded to a constant (the analysis is performed per parameter
// binding), so loop bounds, strides and subscript coefficients are all
// concrete integers. The only runtime variables are the loop indices
// and declared float temporaries.
package loopir

import (
	"fmt"

	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
)

// Role says how an array participates in a compiled program.
type Role uint8

const (
	// RoleIn is an input array supplied by the caller (read-only).
	RoleIn Role = iota
	// RoleOut is the result array, allocated (or, for in-place updates,
	// aliased to an input) by the executor.
	RoleOut
	// RoleTemp is a scratch array introduced by node splitting.
	RoleTemp
	// RoleInOut is an input array updated in place and returned (the
	// single-threaded bigupd case).
	RoleInOut
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleIn:
		return "in"
	case RoleOut:
		return "out"
	case RoleTemp:
		return "temp"
	case RoleInOut:
		return "inout"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// ArrayDecl declares an array used by a program.
type ArrayDecl struct {
	Name string
	B    runtime.Bounds
	Role Role
	// TrackDefs requests a definedness bitmap for this array, used when
	// collision or empties checks could not be discharged statically.
	TrackDefs bool
}

// Program is a compiled-form imperative program: declarations plus a
// statement list.
type Program struct {
	Name    string
	Arrays  []ArrayDecl
	Scalars []string // float scalar temporaries (node splitting)
	// AccumOp names the combining function of the accumulating stores
	// (Assign.HasAccum): "+", "*", "max", "min", "right" or "left".
	AccumOp string
	Stmts   []Stmt
}

// Decl returns the declaration of the named array, or nil.
func (p *Program) Decl(name string) *ArrayDecl {
	for i := range p.Arrays {
		if p.Arrays[i].Name == name {
			return &p.Arrays[i]
		}
	}
	return nil
}

// --- statements ---

// Stmt is an IR statement.
type Stmt interface{ stmtNode() }

// Loop is a DO loop: Var runs From, From+Step, … while it has not
// passed To (Step may be negative — the scheduled loop direction).
type Loop struct {
	Var  string
	From int64
	To   int64
	Step int64
	// Parallel marks a loop whose instances carry no dependences and
	// may execute concurrently (the paper's section 10 extension). The
	// code generator only sets this when the body touches no shared
	// mutable state besides disjoint array elements. Like Doacross,
	// the flag alone never changes execution, in the interpreter or in
	// emitted Go: only a Par schedule the planner attaches does.
	Parallel bool
	// Doacross marks a loop that carries dependences but whose pass
	// direction is consistent with them: the optimizer may still find a
	// doacross schedule (pipelined wavefront bands over 2-D nests)
	// after verifying the concrete dependence distances. The flag
	// alone never changes execution — only a Par schedule attached by
	// the optimizer does.
	Doacross bool
	// Par is the concrete parallel schedule: chosen by the optimizer's
	// planning pass only after the distance-vector legality analysis
	// and the trip/work cost model both pass, or, for an aligned shard,
	// by lowering under runtime-verified index-array claims. The
	// executor and the Go emitter consume it. Nil means sequential
	// execution in both.
	Par *ParSchedule
	// Inds are induction registers introduced by the optimizer's
	// strength-reduction pass: each is set to Init at loop entry and
	// advanced by Step after every iteration, incrementally maintaining
	// the row-major offset of the affine accesses that reference it
	// (via Assign.Off / ARef.Off).
	Inds []Ind
	// Sten is guard splitting's record (see stencil.go): whether the
	// loop is a boundary strip, and the replay records certification
	// checks (original range, resolved guard). Nil for loops no split
	// produced.
	Sten *StencilInfo
	Body []Stmt
}

// StencilInfo marks a loop created by the guard-splitting pass. The
// clones of one split share a replay record ID and remember the
// original iteration range plus the guard condition that was resolved
// to a constant over each clone's subrange. Nested guards split a
// clone again, so one loop can carry several records (one per split it
// descends from). CertifySplits re-checks both facts per record group
// (exact disjoint coverage, guard constancy) independently of the pass
// that claimed them. The schedule dump renders it as
// `[stencil interior]` or `[stencil boundary]`.
type StencilInfo struct {
	// Boundary marks a split-off strip that kept the guarded arm
	// (the thin region around the interior).
	Boundary bool
	// Splits are the replay records of every guard split this loop
	// descends from, outermost first.
	Splits []SplitRecord
}

// SplitRecord is the audit trail of one guard split, attached to every
// clone the split produced (and inherited by their sub-clones).
type SplitRecord struct {
	// ID groups the clones of one split.
	ID int
	// OrigFrom / OrigTo are the split source loop's full range; the
	// clones carrying this ID must tile it exactly.
	OrigFrom, OrigTo int64
	// Guard is the condition the splitter resolved over the clone's
	// range, and GuardVal the constant value it proved there.
	Guard    BExpr
	GuardVal bool
}

// String renders the dump form: "stencil interior" or
// "stencil boundary".
func (s *StencilInfo) String() string {
	if s.Boundary {
		return "stencil boundary"
	}
	return "stencil interior"
}

// ParKind selects a parallel execution shape. There are two: a shard
// deals contiguous chunks of a loop's iterations to workers, and a
// wavefront pipelines the tiles of a 2-D nest whose rows depend on
// earlier rows. Deleted kinds keep their numbers reserved, so a stored
// plan never decodes as another kind.
type ParKind uint8

const (
	// ParShard splits a loop's iterations into contiguous chunks, one
	// per worker, each running in sequential order. On a 2-D nest the
	// outer loop is sharded: every conflict lies within one outer
	// iteration, so whole rows (prefix and inner loop) go to one
	// worker. With ParSchedule.AlignOn set, chunk boundaries are
	// aligned to runs of equal write subscripts (see AlignOn).
	ParShard ParKind = iota + 1
	// 2 named a block-cyclic schedule of full-width row bands: a shard
	// dealt in pieces.
	_
	// ParWavefront executes the TileI×TileJ tiles of a 2-D nest whose
	// carried distance vectors are all component-wise non-negative as
	// a pipeline of row bands: a tile runs once the tile above it and
	// the tile to its left have finished.
	ParWavefront
	// 4 named a residue-class chains schedule, deleted because it lost
	// to sequential execution at every measured size.
	_
	// 5 named the aligned shard, now a ParShard with AlignOn set.
	_
)

// String names the schedule kind.
func (k ParKind) String() string {
	switch k {
	case ParShard:
		return "shard"
	case ParWavefront:
		return "wavefront"
	}
	return fmt.Sprintf("ParKind(%d)", uint8(k))
}

// ParSchedule is the optimizer-chosen parallel schedule of a loop (see
// Loop.Par). A ParWavefront loop, and a ParShard loop with an inner
// loop, must be a 2-D nest: the annotated outer loop, optional prefix
// statements (executed once per outer iteration, before the row's
// inner loop), and the inner loop as the last body statement.
type ParSchedule struct {
	Kind ParKind
	// TileI, TileJ are the cache tile extents (ParWavefront).
	TileI, TileJ int64
	// AlignOn, when set on a 1-D ParShard loop, is its write subscript,
	// verified at run time to be non-decreasing over the iteration
	// space (typically an indirect idx!(i) read). A chunk boundary is
	// advanced past any run of equal values, so equal subscripts never
	// straddle workers: each worker owns a disjoint element set and
	// every element's contributions keep their sequential order, which
	// makes a commutative accumulation bitwise identical to sequential
	// execution. It references the loop variable only.
	AlignOn IntExpr
}

// String renders the schedule for dumps.
func (s *ParSchedule) String() string {
	switch {
	case s.Kind == ParWavefront:
		return fmt.Sprintf("%s %dx%d", s.Kind, s.TileI, s.TileJ)
	case s.AlignOn != nil:
		return fmt.Sprintf("%s aligned on %s", s.Kind, IntExprString(s.AlignOn))
	}
	return s.Kind.String()
}

// ScheduleKind names a loop's execution shape for reporting: the Par
// schedule's kind ("shard" or "wavefront") when one is attached, else
// "sequential". The Parallel and Doacross marks
// alone never change execution, so they do not count.
func ScheduleKind(l *Loop) string {
	if l.Par != nil {
		return l.Par.Kind.String()
	}
	return "sequential"
}

// Ind is one induction register of a strength-reduced loop. Init is an
// integer expression over the enclosing loop variables (the "row base"
// for inner loops of multi-dimensional nests), evaluated once per loop
// entry; Step is the constant per-iteration advance.
type Ind struct {
	Name string
	Init IntExpr
	Step int64
}

// If executes Then or Else depending on Cond.
type If struct {
	Cond BExpr
	Then []Stmt
	Else []Stmt
}

// Assign stores Rhs into Array at the subscript tuple.
type Assign struct {
	Array string
	Subs  []IntExpr
	Rhs   VExpr
	// CheckBounds compiles a range check (out of range ⇒ runtime error).
	// When false the compiler proved the subscripts in range and the
	// store goes straight to the linear offset.
	CheckBounds bool
	// CheckCollision compiles a definedness test against the array's
	// bitmap (second write ⇒ runtime error). Requires TrackDefs.
	CheckCollision bool
	// HasAccum folds Rhs into the element with the combining function
	// Program.AccumOp names instead of storing it (accumArray).
	HasAccum bool
	// Off, when non-nil, is the strength-reduced row-major offset of the
	// store — an affine form over induction registers (Loop.Inds) that
	// replaces the per-element subscript flattening. Only ever set by
	// the optimizer on accesses with CheckBounds == false; Subs are
	// retained for diagnostics and dependence reasoning.
	Off IntExpr
	// NoTrack suppresses the definedness-bitmap update for a store to a
	// TrackDefs array. Set only on the claim-verified fast branch of a
	// dual lowering, whose claims prove the writes collision-free and
	// complete; the sibling checked branch keeps tracking and owns the
	// CheckFull sweep.
	NoTrack bool
}

// SetScalar assigns a float scalar temporary.
type SetScalar struct {
	Name string
	Rhs  VExpr
}

// CopyArray copies Src's contents into Dst (bounds must match).
type CopyArray struct {
	Dst, Src string
}

// CheckFull verifies that every element of the array's definedness
// bitmap is set (the runtime empties check). Requires TrackDefs.
type CheckFull struct {
	Array string
}

// Fail raises a runtime error unconditionally; compiled for writes the
// exact test proved to always collide.
type Fail struct {
	Msg string
}

// Fill sets every element of the array to a constant (accumArray
// initialization).
type Fill struct {
	Array string
	Value float64
}

func (*Loop) stmtNode()      {}
func (*If) stmtNode()        {}
func (*Assign) stmtNode()    {}
func (*SetScalar) stmtNode() {}
func (*CopyArray) stmtNode() {}
func (*CheckFull) stmtNode() {}
func (*Fail) stmtNode()      {}
func (*Fill) stmtNode()      {}

// --- integer expressions (subscripts, guard operands) ---

// IntExpr is an integer expression over loop variables.
type IntExpr interface{ intExprNode() }

// ILin is the affine fast path: Const + Σ Coeff·var.
type ILin struct {
	Const int64
	Terms []ITerm
}

// ITerm is one linear term.
type ITerm struct {
	Var   string
	Coeff int64
}

// IVar reads a loop variable.
type IVar struct{ Name string }

// IConst is an integer literal.
type IConst struct{ Value int64 }

// IBin is a non-affine integer operation (div, mod, or arithmetic that
// did not fold).
type IBin struct {
	Op   byte // '+', '-', '*', '/', '%'
	L, R IntExpr
}

// IIdx reads an element of an index array in integer position — the
// subscripted-subscript form `a!(idx!(i))`. The element must hold an
// integral value; a fractional element is a runtime error. CheckBounds
// range-checks the inner subscripts (elided on the claim-verified fast
// path, where a range claim on the array already covers them).
type IIdx struct {
	Array       string
	Subs        []IntExpr
	CheckBounds bool
}

func (*ILin) intExprNode()   {}
func (*IVar) intExprNode()   {}
func (*IConst) intExprNode() {}
func (*IBin) intExprNode()   {}
func (*IIdx) intExprNode()   {}

// --- float value expressions ---

// VExpr is a float64-valued expression.
type VExpr interface{ vexprNode() }

// VConst is a float literal.
type VConst struct{ Value float64 }

// VFromInt converts an integer expression to float (e.g. `i*i` as an
// element value).
type VFromInt struct{ X IntExpr }

// VScalar reads a float scalar temporary.
type VScalar struct{ Name string }

// ARef reads Array at the subscript tuple. CheckDefined additionally
// consults the array's definedness bitmap (reading an empty is an
// error); CheckBounds range-checks.
type ARef struct {
	Array        string
	Subs         []IntExpr
	CheckBounds  bool
	CheckDefined bool
	// Off mirrors Assign.Off: the strength-reduced linear offset of the
	// read, set by the optimizer only when CheckBounds is false.
	Off IntExpr
}

// VBin is a float binary operation.
type VBin struct {
	Op   byte // '+', '-', '*', '/'
	L, R VExpr
}

// VNeg negates.
type VNeg struct{ X VExpr }

// VCall invokes a builtin scalar function (abs, min, max, sqrt, exp,
// log, sin, cos, pow).
type VCall struct {
	Fn   string
	Args []VExpr
}

// VCond selects between two values.
type VCond struct {
	C    BExpr
	T, E VExpr
}

func (*VConst) vexprNode()   {}
func (*VFromInt) vexprNode() {}
func (*VScalar) vexprNode()  {}
func (*ARef) vexprNode()     {}
func (*VBin) vexprNode()     {}
func (*VNeg) vexprNode()     {}
func (*VCall) vexprNode()    {}
func (*VCond) vexprNode()    {}

// --- boolean expressions ---

// BExpr is a boolean expression (guards, conditionals).
type BExpr interface{ bexprNode() }

// BCmpInt compares two integer expressions.
type BCmpInt struct {
	Op   string // "==", "/=", "<", "<=", ">", ">="
	L, R IntExpr
}

// BCmpFloat compares two float expressions.
type BCmpFloat struct {
	Op   string
	L, R VExpr
}

// BAnd, BOr, BNot combine booleans.
type BAnd struct{ L, R BExpr }

// BOr is disjunction.
type BOr struct{ L, R BExpr }

// BNot is negation.
type BNot struct{ X BExpr }

// BConst is a boolean literal (folded guards).
type BConst struct{ Value bool }

// BVerify is the runtime index-array property verifier: it runs one
// O(n) pass over the named input array checking every claim
// (integrality, range, monotonicity, injectivity) and yields true only
// when all hold. It guards the claim-conditional fast branch of a dual
// lowering — `If{Cond: BVerify, Then: parallel unchecked, Else:
// sequential checked}` — so a violating index array can only ever
// route execution to the safe path. The executor reports each verdict
// through the exec's verify hook for metrics.
type BVerify struct {
	Array  string
	Claims idxprop.Claims
}

func (*BCmpInt) bexprNode()   {}
func (*BCmpFloat) bexprNode() {}
func (*BAnd) bexprNode()      {}
func (*BOr) bexprNode()       {}
func (*BNot) bexprNode()      {}
func (*BConst) bexprNode()    {}
func (*BVerify) bexprNode()   {}
