package loopir

import (
	"fmt"

	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
	"arraycomp/internal/wire"
)

// This file makes the loop IR durable: a compiled Program is pure data
// (every scalar parameter was folded during analysis, so bounds,
// strides, and subscript coefficients are concrete integers), which is
// what lets a fleet persist compiled plans to disk and reload them in
// another process without re-running any compile phase. The IR's
// statement/expression slots are interfaces, so the encoding
// (internal/wire, one tag byte per node) tags every node with its kind.
// The tree is not left to encoding/gob: a gob stream carries, and its
// decoder compiles, a type description for each of the ~28 node types,
// and that set-up dominated a disk restore. An accumulating store is
// plain data too (Assign.HasAccum names no closure; the compiler
// resolves Program.AccumOp), so a decoded Program compiles as it is.
//
// Every field of every node is encoded; TestCodecRoundTripsEveryField
// sets them all, so a field added to a node type without a codec change
// fails it. Zero-length slices decode as nil.

// codecVersion leads every encoded Program; a Program in any other
// version is refused.
const codecVersion = 1

// Node tags, one space per interface; 0 is a nil slot.
const (
	tagLoop byte = iota + 1
	tagIf
	tagAssign
	tagSetScalar
	tagCopyArray
	tagCheckFull
	tagFail
	tagFill
)

const (
	tagILin byte = iota + 1
	tagIVar
	tagIConst
	tagIBin
	tagIIdx
)

const (
	tagVConst byte = iota + 1
	tagVFromInt
	tagVScalar
	tagARef
	tagVBin
	tagVNeg
	tagVCall
	tagVCond
)

const (
	tagBCmpInt byte = iota + 1
	tagBCmpFloat
	tagBAnd
	tagBOr
	tagBNot
	tagBConst
	tagBVerify
)

// MarshalBinary encodes p; UnmarshalBinary is its inverse.
func (p *Program) MarshalBinary() ([]byte, error) {
	e := &wire.Encoder{Buf: []byte{codecVersion}}
	e.Str(p.Name)
	e.Len(len(p.Arrays))
	for _, a := range p.Arrays {
		e.Str(a.Name)
		e.Ints(a.B.Lo)
		e.Ints(a.B.Hi)
		e.Byte(byte(a.Role))
		e.Bool(a.TrackDefs)
	}
	e.Strs(p.Scalars)
	e.Str(p.AccumOp)
	encStmts(e, p.Stmts)
	return e.Buf, nil
}

// UnmarshalBinary decodes a Program MarshalBinary encoded, replacing
// p's contents.
func (p *Program) UnmarshalBinary(data []byte) error {
	d := wire.NewDecoder(data)
	if d.Byte() != codecVersion {
		return fmt.Errorf("loopir: encoded program is not in codec version %d", codecVersion)
	}
	q := Program{Name: d.Str()}
	if n := d.Len(); n > 0 {
		q.Arrays = make([]ArrayDecl, n)
		for i := range q.Arrays {
			a := &q.Arrays[i]
			a.Name = d.Str()
			a.B = runtime.Bounds{Lo: d.Ints(), Hi: d.Ints()}
			a.Role = Role(d.Byte())
			a.TrackDefs = d.Bool()
		}
	}
	q.Scalars = d.Strs()
	q.AccumOp = d.Str()
	q.Stmts = decStmts(d)
	if err := d.Err(); err != nil {
		return err
	}
	*p = q
	return nil
}

func encStmts(e *wire.Encoder, ss []Stmt) {
	e.Len(len(ss))
	for _, s := range ss {
		encStmt(e, s)
	}
}

func encStmt(e *wire.Encoder, s Stmt) {
	switch x := s.(type) {
	case nil:
		e.Byte(0)
	case *Loop:
		e.Byte(tagLoop)
		e.Str(x.Var)
		e.Int(x.From)
		e.Int(x.To)
		e.Int(x.Step)
		e.Bool(x.Parallel)
		e.Bool(x.Doacross)
		e.Bool(x.Par != nil)
		if x.Par != nil {
			e.Byte(byte(x.Par.Kind))
			e.Int(x.Par.TileI)
			e.Int(x.Par.TileJ)
			encIntExpr(e, x.Par.AlignOn)
		}
		e.Len(len(x.Inds))
		for _, ind := range x.Inds {
			e.Str(ind.Name)
			encIntExpr(e, ind.Init)
			e.Int(ind.Step)
		}
		e.Bool(x.Sten != nil)
		if st := x.Sten; st != nil {
			e.Bool(st.Boundary)
			e.Len(len(st.Splits))
			for _, sp := range st.Splits {
				e.Int(int64(sp.ID))
				e.Int(sp.OrigFrom)
				e.Int(sp.OrigTo)
				encBoolExpr(e, sp.Guard)
				e.Bool(sp.GuardVal)
			}
		}
		encStmts(e, x.Body)
	case *If:
		e.Byte(tagIf)
		encBoolExpr(e, x.Cond)
		encStmts(e, x.Then)
		encStmts(e, x.Else)
	case *Assign:
		e.Byte(tagAssign)
		e.Str(x.Array)
		encIntExprs(e, x.Subs)
		encValExpr(e, x.Rhs)
		e.Bool(x.CheckBounds)
		e.Bool(x.CheckCollision)
		e.Bool(x.HasAccum)
		encIntExpr(e, x.Off)
		e.Bool(x.NoTrack)
	case *SetScalar:
		e.Byte(tagSetScalar)
		e.Str(x.Name)
		encValExpr(e, x.Rhs)
	case *CopyArray:
		e.Byte(tagCopyArray)
		e.Str(x.Dst)
		e.Str(x.Src)
	case *CheckFull:
		e.Byte(tagCheckFull)
		e.Str(x.Array)
	case *Fail:
		e.Byte(tagFail)
		e.Str(x.Msg)
	case *Fill:
		e.Byte(tagFill)
		e.Str(x.Array)
		e.Float(x.Value)
	default:
		panic(fmt.Sprintf("loopir: no encoding for statement %T", s))
	}
}

func encIntExprs(e *wire.Encoder, xs []IntExpr) {
	e.Len(len(xs))
	for _, x := range xs {
		encIntExpr(e, x)
	}
}

func encIntExpr(e *wire.Encoder, x IntExpr) {
	switch x := x.(type) {
	case nil:
		e.Byte(0)
	case *ILin:
		e.Byte(tagILin)
		e.Int(x.Const)
		e.Len(len(x.Terms))
		for _, t := range x.Terms {
			e.Str(t.Var)
			e.Int(t.Coeff)
		}
	case *IVar:
		e.Byte(tagIVar)
		e.Str(x.Name)
	case *IConst:
		e.Byte(tagIConst)
		e.Int(x.Value)
	case *IBin:
		e.Byte(tagIBin)
		e.Byte(x.Op)
		encIntExpr(e, x.L)
		encIntExpr(e, x.R)
	case *IIdx:
		e.Byte(tagIIdx)
		e.Str(x.Array)
		encIntExprs(e, x.Subs)
		e.Bool(x.CheckBounds)
	default:
		panic(fmt.Sprintf("loopir: no encoding for integer expression %T", x))
	}
}

func encValExpr(e *wire.Encoder, x VExpr) {
	switch x := x.(type) {
	case nil:
		e.Byte(0)
	case *VConst:
		e.Byte(tagVConst)
		e.Float(x.Value)
	case *VFromInt:
		e.Byte(tagVFromInt)
		encIntExpr(e, x.X)
	case *VScalar:
		e.Byte(tagVScalar)
		e.Str(x.Name)
	case *ARef:
		e.Byte(tagARef)
		e.Str(x.Array)
		encIntExprs(e, x.Subs)
		e.Bool(x.CheckBounds)
		e.Bool(x.CheckDefined)
		encIntExpr(e, x.Off)
	case *VBin:
		e.Byte(tagVBin)
		e.Byte(x.Op)
		encValExpr(e, x.L)
		encValExpr(e, x.R)
	case *VNeg:
		e.Byte(tagVNeg)
		encValExpr(e, x.X)
	case *VCall:
		e.Byte(tagVCall)
		e.Str(x.Fn)
		e.Len(len(x.Args))
		for _, a := range x.Args {
			encValExpr(e, a)
		}
	case *VCond:
		e.Byte(tagVCond)
		encBoolExpr(e, x.C)
		encValExpr(e, x.T)
		encValExpr(e, x.E)
	default:
		panic(fmt.Sprintf("loopir: no encoding for value expression %T", x))
	}
}

func encBoolExpr(e *wire.Encoder, x BExpr) {
	switch x := x.(type) {
	case nil:
		e.Byte(0)
	case *BCmpInt:
		e.Byte(tagBCmpInt)
		e.Str(x.Op)
		encIntExpr(e, x.L)
		encIntExpr(e, x.R)
	case *BCmpFloat:
		e.Byte(tagBCmpFloat)
		e.Str(x.Op)
		encValExpr(e, x.L)
		encValExpr(e, x.R)
	case *BAnd:
		e.Byte(tagBAnd)
		encBoolExpr(e, x.L)
		encBoolExpr(e, x.R)
	case *BOr:
		e.Byte(tagBOr)
		encBoolExpr(e, x.L)
		encBoolExpr(e, x.R)
	case *BNot:
		e.Byte(tagBNot)
		encBoolExpr(e, x.X)
	case *BConst:
		e.Byte(tagBConst)
		e.Bool(x.Value)
	case *BVerify:
		e.Byte(tagBVerify)
		e.Str(x.Array)
		e.Len(len(x.Claims))
		for _, c := range x.Claims {
			e.Str(c.Array)
			e.Byte(byte(c.Kind))
			e.Int(c.Lo)
			e.Int(c.Hi)
			e.Bool(c.Static)
		}
	default:
		panic(fmt.Sprintf("loopir: no encoding for boolean expression %T", x))
	}
}

func decStmts(d *wire.Decoder) []Stmt {
	n := d.Len()
	if n == 0 {
		return nil
	}
	ss := make([]Stmt, n)
	for i := range ss {
		ss[i] = decStmt(d)
	}
	return ss
}

func decStmt(d *wire.Decoder) Stmt {
	if !d.Enter() {
		return nil
	}
	defer d.Leave()
	switch tag := d.Byte(); tag {
	case 0:
		return nil
	case tagLoop:
		x := &Loop{Var: d.Str(), From: d.Int(), To: d.Int(), Step: d.Int()}
		x.Parallel, x.Doacross = d.Bool(), d.Bool()
		if d.Bool() {
			x.Par = &ParSchedule{Kind: ParKind(d.Byte()), TileI: d.Int(), TileJ: d.Int(), AlignOn: decIntExpr(d)}
		}
		if n := d.Len(); n > 0 {
			x.Inds = make([]Ind, n)
			for i := range x.Inds {
				x.Inds[i] = Ind{Name: d.Str(), Init: decIntExpr(d), Step: d.Int()}
			}
		}
		if d.Bool() {
			st := &StencilInfo{Boundary: d.Bool()}
			if n := d.Len(); n > 0 {
				st.Splits = make([]SplitRecord, n)
				for i := range st.Splits {
					st.Splits[i] = SplitRecord{ID: int(d.Int()), OrigFrom: d.Int(), OrigTo: d.Int(), Guard: decBoolExpr(d), GuardVal: d.Bool()}
				}
			}
			x.Sten = st
		}
		x.Body = decStmts(d)
		return x
	case tagIf:
		return &If{Cond: decBoolExpr(d), Then: decStmts(d), Else: decStmts(d)}
	case tagAssign:
		x := &Assign{Array: d.Str(), Subs: decIntExprs(d), Rhs: decValExpr(d)}
		x.CheckBounds, x.CheckCollision, x.HasAccum = d.Bool(), d.Bool(), d.Bool()
		x.Off, x.NoTrack = decIntExpr(d), d.Bool()
		return x
	case tagSetScalar:
		return &SetScalar{Name: d.Str(), Rhs: decValExpr(d)}
	case tagCopyArray:
		return &CopyArray{Dst: d.Str(), Src: d.Str()}
	case tagCheckFull:
		return &CheckFull{Array: d.Str()}
	case tagFail:
		return &Fail{Msg: d.Str()}
	case tagFill:
		return &Fill{Array: d.Str(), Value: d.Float()}
	default:
		d.Fail(fmt.Sprintf("statement tag %d", tag))
		return nil
	}
}

func decIntExprs(d *wire.Decoder) []IntExpr {
	n := d.Len()
	if n == 0 {
		return nil
	}
	xs := make([]IntExpr, n)
	for i := range xs {
		xs[i] = decIntExpr(d)
	}
	return xs
}

func decIntExpr(d *wire.Decoder) IntExpr {
	if !d.Enter() {
		return nil
	}
	defer d.Leave()
	switch tag := d.Byte(); tag {
	case 0:
		return nil
	case tagILin:
		x := &ILin{Const: d.Int()}
		if n := d.Len(); n > 0 {
			x.Terms = make([]ITerm, n)
			for i := range x.Terms {
				x.Terms[i] = ITerm{Var: d.Str(), Coeff: d.Int()}
			}
		}
		return x
	case tagIVar:
		return &IVar{Name: d.Str()}
	case tagIConst:
		return &IConst{Value: d.Int()}
	case tagIBin:
		return &IBin{Op: d.Byte(), L: decIntExpr(d), R: decIntExpr(d)}
	case tagIIdx:
		return &IIdx{Array: d.Str(), Subs: decIntExprs(d), CheckBounds: d.Bool()}
	default:
		d.Fail(fmt.Sprintf("integer expression tag %d", tag))
		return nil
	}
}

func decValExpr(d *wire.Decoder) VExpr {
	if !d.Enter() {
		return nil
	}
	defer d.Leave()
	switch tag := d.Byte(); tag {
	case 0:
		return nil
	case tagVConst:
		return &VConst{Value: d.Float()}
	case tagVFromInt:
		return &VFromInt{X: decIntExpr(d)}
	case tagVScalar:
		return &VScalar{Name: d.Str()}
	case tagARef:
		x := &ARef{Array: d.Str(), Subs: decIntExprs(d)}
		x.CheckBounds, x.CheckDefined = d.Bool(), d.Bool()
		x.Off = decIntExpr(d)
		return x
	case tagVBin:
		return &VBin{Op: d.Byte(), L: decValExpr(d), R: decValExpr(d)}
	case tagVNeg:
		return &VNeg{X: decValExpr(d)}
	case tagVCall:
		x := &VCall{Fn: d.Str()}
		if n := d.Len(); n > 0 {
			x.Args = make([]VExpr, n)
			for i := range x.Args {
				x.Args[i] = decValExpr(d)
			}
		}
		return x
	case tagVCond:
		return &VCond{C: decBoolExpr(d), T: decValExpr(d), E: decValExpr(d)}
	default:
		d.Fail(fmt.Sprintf("value expression tag %d", tag))
		return nil
	}
}

func decBoolExpr(d *wire.Decoder) BExpr {
	if !d.Enter() {
		return nil
	}
	defer d.Leave()
	switch tag := d.Byte(); tag {
	case 0:
		return nil
	case tagBCmpInt:
		return &BCmpInt{Op: d.Str(), L: decIntExpr(d), R: decIntExpr(d)}
	case tagBCmpFloat:
		return &BCmpFloat{Op: d.Str(), L: decValExpr(d), R: decValExpr(d)}
	case tagBAnd:
		return &BAnd{L: decBoolExpr(d), R: decBoolExpr(d)}
	case tagBOr:
		return &BOr{L: decBoolExpr(d), R: decBoolExpr(d)}
	case tagBNot:
		return &BNot{X: decBoolExpr(d)}
	case tagBConst:
		return &BConst{Value: d.Bool()}
	case tagBVerify:
		x := &BVerify{Array: d.Str()}
		if n := d.Len(); n > 0 {
			x.Claims = make(idxprop.Claims, n)
			for i := range x.Claims {
				x.Claims[i] = idxprop.Claim{Array: d.Str(), Kind: idxprop.Kind(d.Byte()), Lo: d.Int(), Hi: d.Int(), Static: d.Bool()}
			}
		}
		return x
	default:
		d.Fail(fmt.Sprintf("boolean expression tag %d", tag))
		return nil
	}
}

// Per-node byte charges for Size. They are deliberately coarse — the
// point is a deterministic, monotone measure of how much memory a
// cached plan actually holds (loop nests, schedules, subscript trees),
// so the cache's byte cap tracks plan complexity instead of source
// length alone.
const (
	sizeStmt  = 96 // statement node incl. slice headers
	sizeExpr  = 48 // expression node
	sizeTerm  = 24 // one ILin term
	sizeDecl  = 112
	sizeSched = 64 // ParSchedule / StencilInfo / SplitRecord / Ind
)

// Size estimates the retained bytes of a compiled IR program by
// walking every statement and expression. Deterministic for a given
// program, and strictly larger for larger plans.
func Size(p *Program) int64 {
	if p == nil {
		return 0
	}
	n := int64(128) + int64(len(p.Name)+len(p.AccumOp))
	for i := range p.Arrays {
		n += sizeDecl + int64(len(p.Arrays[i].Name)) + 16*int64(len(p.Arrays[i].B.Lo))
	}
	for _, s := range p.Scalars {
		n += 16 + int64(len(s))
	}
	n += sizeStmtList(p.Stmts)
	return n
}

func sizeStmtList(stmts []Stmt) int64 {
	var n int64
	for _, s := range stmts {
		n += sizeStmt
		switch x := s.(type) {
		case *Loop:
			for i := range x.Inds {
				n += sizeSched + sizeExprInt(x.Inds[i].Init)
			}
			if x.Par != nil {
				n += sizeSched + sizeExprInt(x.Par.AlignOn)
			}
			if x.Sten != nil {
				n += sizeSched
				for i := range x.Sten.Splits {
					n += sizeSched + sizeExprBool(x.Sten.Splits[i].Guard)
				}
			}
			n += sizeStmtList(x.Body)
		case *If:
			n += sizeExprBool(x.Cond)
			n += sizeStmtList(x.Then)
			n += sizeStmtList(x.Else)
		case *Assign:
			for _, sub := range x.Subs {
				n += sizeExprInt(sub)
			}
			n += sizeExprVal(x.Rhs) + sizeExprInt(x.Off)
		case *SetScalar:
			n += sizeExprVal(x.Rhs)
		case *Fill, *CopyArray, *CheckFull, *Fail:
			// flat nodes; the sizeStmt charge covers them
		}
	}
	return n
}

func sizeExprInt(e IntExpr) int64 {
	switch x := e.(type) {
	case nil:
		return 0
	case *ILin:
		return sizeExpr + sizeTerm*int64(len(x.Terms))
	case *IBin:
		return sizeExpr + sizeExprInt(x.L) + sizeExprInt(x.R)
	case *IIdx:
		n := int64(sizeExpr) + int64(len(x.Array))
		for _, sub := range x.Subs {
			n += sizeExprInt(sub)
		}
		return n
	default:
		return sizeExpr
	}
}

func sizeExprVal(e VExpr) int64 {
	switch x := e.(type) {
	case nil:
		return 0
	case *VFromInt:
		return sizeExpr + sizeExprInt(x.X)
	case *ARef:
		n := int64(sizeExpr) + sizeExprInt(x.Off)
		for _, sub := range x.Subs {
			n += sizeExprInt(sub)
		}
		return n
	case *VBin:
		return sizeExpr + sizeExprVal(x.L) + sizeExprVal(x.R)
	case *VNeg:
		return sizeExpr + sizeExprVal(x.X)
	case *VCall:
		n := int64(sizeExpr)
		for _, a := range x.Args {
			n += sizeExprVal(a)
		}
		return n
	case *VCond:
		return sizeExpr + sizeExprBool(x.C) + sizeExprVal(x.T) + sizeExprVal(x.E)
	default:
		return sizeExpr
	}
}

func sizeExprBool(e BExpr) int64 {
	switch x := e.(type) {
	case nil:
		return 0
	case *BCmpInt:
		return sizeExpr + sizeExprInt(x.L) + sizeExprInt(x.R)
	case *BCmpFloat:
		return sizeExpr + sizeExprVal(x.L) + sizeExprVal(x.R)
	case *BAnd:
		return sizeExpr + sizeExprBool(x.L) + sizeExprBool(x.R)
	case *BOr:
		return sizeExpr + sizeExprBool(x.L) + sizeExprBool(x.R)
	case *BNot:
		return sizeExpr + sizeExprBool(x.X)
	default:
		return sizeExpr
	}
}
