package loopir

import (
	"fmt"
	"strings"
)

// Dump renders the program as indented pseudo-code, stable across runs,
// for diagnostics and golden tests.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, d := range p.Arrays {
		fmt.Fprintf(&b, "  array %s %s %s", d.Name, d.B, d.Role)
		if d.TrackDefs {
			b.WriteString(" trackdefs")
		}
		b.WriteByte('\n')
	}
	for _, s := range p.Scalars {
		fmt.Fprintf(&b, "  scalar %s\n", s)
	}
	writeStmts(&b, p.Stmts, 1)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func writeStmts(b *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		writeStmt(b, s, depth)
	}
}

func writeStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch x := s.(type) {
	case *Loop:
		dir := "forward"
		if x.Step < 0 {
			dir = "backward"
		}
		if x.Parallel {
			dir += ", parallel"
		} else if x.Doacross {
			dir += ", doacross"
		}
		if x.Par != nil {
			dir += " [" + x.Par.String() + "]"
		}
		if x.Sten != nil {
			dir += " [" + x.Sten.String() + "]"
		}
		fmt.Fprintf(b, "do %s = %d, %d, %d  -- %s\n", x.Var, x.From, x.To, x.Step, dir)
		for _, ind := range x.Inds {
			indent(b, depth+1)
			fmt.Fprintf(b, "ind %s = %s step %d\n", ind.Name, IntExprString(ind.Init), ind.Step)
		}
		writeStmts(b, x.Body, depth+1)
	case *If:
		fmt.Fprintf(b, "if %s then\n", BExprString(x.Cond))
		writeStmts(b, x.Then, depth+1)
		if len(x.Else) > 0 {
			indent(b, depth)
			b.WriteString("else\n")
			writeStmts(b, x.Else, depth+1)
		}
	case *Assign:
		fmt.Fprintf(b, "%s[%s]%s %s %s", x.Array, subsString(x.Subs), offString(x.Off), assignOp(x), VExprString(x.Rhs))
		var notes []string
		if x.CheckBounds {
			notes = append(notes, "bounds-checked")
		}
		if x.CheckCollision {
			notes = append(notes, "collision-checked")
		}
		if len(notes) > 0 {
			fmt.Fprintf(b, "  -- %s", strings.Join(notes, ", "))
		}
		b.WriteByte('\n')
	case *SetScalar:
		fmt.Fprintf(b, "%s := %s\n", x.Name, VExprString(x.Rhs))
	case *CopyArray:
		fmt.Fprintf(b, "copy %s <- %s\n", x.Dst, x.Src)
	case *CheckFull:
		fmt.Fprintf(b, "check-full %s\n", x.Array)
	case *Fail:
		fmt.Fprintf(b, "fail %q\n", x.Msg)
	case *Fill:
		fmt.Fprintf(b, "fill %s := %v\n", x.Array, x.Value)
	default:
		fmt.Fprintf(b, "?stmt %T\n", s)
	}
}

func assignOp(x *Assign) string {
	if x.HasAccum {
		return "accum:="
	}
	return ":="
}

// offString renders a strength-reduced offset annotation ("@{o$1+2}"),
// or nothing when the access still uses plain subscript arithmetic.
func offString(off IntExpr) string {
	if off == nil {
		return ""
	}
	return fmt.Sprintf("@{%s}", IntExprString(off))
}

func subsString(subs []IntExpr) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = IntExprString(s)
	}
	return strings.Join(parts, ",")
}

// IntExprString renders an integer expression.
func IntExprString(e IntExpr) string {
	switch x := e.(type) {
	case *IConst:
		return fmt.Sprint(x.Value)
	case *IVar:
		return x.Name
	case *ILin:
		var b strings.Builder
		wrote := false
		if x.Const != 0 || len(x.Terms) == 0 {
			fmt.Fprintf(&b, "%d", x.Const)
			wrote = true
		}
		for _, t := range x.Terms {
			c := t.Coeff
			if wrote {
				if c < 0 {
					b.WriteString("-")
					c = -c
				} else {
					b.WriteString("+")
				}
			} else if c < 0 {
				b.WriteString("-")
				c = -c
			}
			if c != 1 {
				fmt.Fprintf(&b, "%d*", c)
			}
			b.WriteString(t.Var)
			wrote = true
		}
		return b.String()
	case *IIdx:
		s := fmt.Sprintf("%s[%s]", x.Array, subsString(x.Subs))
		if x.CheckBounds {
			s += "!"
		}
		return s
	case *IBin:
		return fmt.Sprintf("(%s %c %s)", IntExprString(x.L), x.Op, IntExprString(x.R))
	}
	return fmt.Sprintf("?int %T", e)
}

// VExprString renders a float expression.
func VExprString(e VExpr) string {
	switch x := e.(type) {
	case *VConst:
		return fmt.Sprint(x.Value)
	case *VFromInt:
		return fmt.Sprintf("float(%s)", IntExprString(x.X))
	case *VScalar:
		return x.Name
	case *ARef:
		s := fmt.Sprintf("%s[%s]%s", x.Array, subsString(x.Subs), offString(x.Off))
		if x.CheckDefined {
			s += "?"
		}
		return s
	case *VBin:
		return fmt.Sprintf("(%s %c %s)", VExprString(x.L), x.Op, VExprString(x.R))
	case *VNeg:
		return fmt.Sprintf("(-%s)", VExprString(x.X))
	case *VCall:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = VExprString(a)
		}
		return fmt.Sprintf("%s(%s)", x.Fn, strings.Join(parts, ", "))
	case *VCond:
		return fmt.Sprintf("(if %s then %s else %s)", BExprString(x.C), VExprString(x.T), VExprString(x.E))
	}
	return fmt.Sprintf("?val %T", e)
}

// BExprString renders a boolean expression.
func BExprString(e BExpr) string {
	switch x := e.(type) {
	case *BConst:
		return fmt.Sprint(x.Value)
	case *BCmpInt:
		return fmt.Sprintf("%s %s %s", IntExprString(x.L), x.Op, IntExprString(x.R))
	case *BCmpFloat:
		return fmt.Sprintf("%s %s %s", VExprString(x.L), x.Op, VExprString(x.R))
	case *BAnd:
		return fmt.Sprintf("(%s && %s)", BExprString(x.L), BExprString(x.R))
	case *BOr:
		return fmt.Sprintf("(%s || %s)", BExprString(x.L), BExprString(x.R))
	case *BNot:
		return fmt.Sprintf("not (%s)", BExprString(x.X))
	case *BVerify:
		return fmt.Sprintf("verify %s %s", x.Array, x.Claims)
	}
	return fmt.Sprintf("?bool %T", e)
}
