package loopir

// SetGenericRows makes later compiles give every loop the generic row
// form (on) or the strongest form (off), returning the old setting.
func SetGenericRows(on bool) bool {
	old := genericRows
	genericRows = on
	return old
}

// RowForms compiles the row kernel of every loop of p, for a stream
// stage when stage is set, and returns their forms in Inspect order:
// "strip" or "generic".
func RowForms(p *Program, stage bool) []string {
	c := newCompiler(p)
	c.stage = stage
	var forms []string
	Inspect(p.Stmts, func(n any) bool {
		if x, ok := n.(*Loop); ok {
			forms = append(forms, map[bool]string{false: "generic", true: "strip"}[c.rowFor(x).strip])
		}
		return true
	})
	return forms
}
