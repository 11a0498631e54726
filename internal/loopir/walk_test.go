package loopir_test

import (
	"reflect"
	"slices"
	"testing"

	"arraycomp/internal/loopir"
)

// evalOrder lists, for a node type whose children are not evaluated in
// field order, its fields in evaluation order. Fields it leaves out
// come after, in field order.
var evalOrder = map[reflect.Type][]string{
	reflect.TypeFor[loopir.Assign](): {"Subs", "Off", "Rhs"},
}

// reachable appends every node reachable from v through a field, in
// evaluation order, pre-order.
func reachable(v reflect.Value, out []any) []any {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return out
		}
		if _, isNode := nodeTypes[v.Type()]; isNode {
			out = append(out, v.Interface())
		}
		return reachable(v.Elem(), out)
	case reflect.Pointer:
		if !v.IsNil() {
			out = reachable(v.Elem(), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = reachable(v.Index(i), out)
		}
	case reflect.Struct:
		var order []int
		for _, name := range evalOrder[v.Type()] {
			f, _ := v.Type().FieldByName(name)
			order = append(order, f.Index[0])
		}
		for i := range v.NumField() {
			if !slices.Contains(order, i) {
				order = append(order, i)
			}
		}
		for _, i := range order {
			out = reachable(v.Field(i), out)
		}
	}
	return out
}

// TestWalkCoversEveryField: on a program in which every field of every
// node type is set, Inspect visits every node reachable through a field
// exactly once, in evaluation order; an identity Rewrite returns the
// tree itself; and a Rewrite that copies every node returns a
// deep-equal tree sharing no node with the original. A node type or a
// node field the traversal misses fails this test.
func TestWalkCoversEveryField(t *testing.T) {
	f := &filler{built: map[reflect.Type]int{}}
	p := &loopir.Program{}
	f.fill(reflect.ValueOf(p).Elem(), 0)
	want := reachable(reflect.ValueOf(p.Stmts), nil)
	var got []any
	loopir.Inspect(p.Stmts, func(n any) bool {
		got = append(got, n)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Inspect visited %d nodes, %d are reachable", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d: Inspect gave a %T, evaluation order has a %T", i, got[i], want[i])
		}
	}

	same := loopir.Rewrite(p.Stmts, func(n any) any { return n })
	if &same[0] != &p.Stmts[0] {
		t.Fatal("an identity Rewrite copied the statement list")
	}

	copied := loopir.Rewrite(p.Stmts, func(n any) any {
		v := reflect.ValueOf(n).Elem()
		c := reflect.New(v.Type())
		c.Elem().Set(v)
		return c.Interface()
	})
	if !reflect.DeepEqual(copied, p.Stmts) {
		t.Fatal("a copying Rewrite changed the tree")
	}
	orig := map[any]bool{}
	for _, n := range want {
		orig[n] = true
	}
	for _, n := range reachable(reflect.ValueOf(copied), nil) {
		if orig[n] {
			t.Fatalf("a copying Rewrite kept the original %T", n)
		}
	}
}
