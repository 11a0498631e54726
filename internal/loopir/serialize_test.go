package loopir_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/loopir"
	"arraycomp/internal/wire"
)

// nodeTypes lists every concrete node type of each IR interface.
var nodeTypes = map[reflect.Type][]reflect.Type{
	reflect.TypeFor[loopir.Stmt](): {
		reflect.TypeFor[loopir.Loop](), reflect.TypeFor[loopir.If](), reflect.TypeFor[loopir.Assign](),
		reflect.TypeFor[loopir.SetScalar](), reflect.TypeFor[loopir.CopyArray](), reflect.TypeFor[loopir.CheckFull](),
		reflect.TypeFor[loopir.Fail](), reflect.TypeFor[loopir.Fill](),
	},
	reflect.TypeFor[loopir.IntExpr](): {
		reflect.TypeFor[loopir.ILin](), reflect.TypeFor[loopir.IVar](), reflect.TypeFor[loopir.IConst](),
		reflect.TypeFor[loopir.IBin](), reflect.TypeFor[loopir.IIdx](),
	},
	reflect.TypeFor[loopir.VExpr](): {
		reflect.TypeFor[loopir.VConst](), reflect.TypeFor[loopir.VFromInt](), reflect.TypeFor[loopir.VScalar](),
		reflect.TypeFor[loopir.ARef](), reflect.TypeFor[loopir.VBin](), reflect.TypeFor[loopir.VNeg](),
		reflect.TypeFor[loopir.VCall](), reflect.TypeFor[loopir.VCond](),
	},
	reflect.TypeFor[loopir.BExpr](): {
		reflect.TypeFor[loopir.BCmpInt](), reflect.TypeFor[loopir.BCmpFloat](), reflect.TypeFor[loopir.BAnd](),
		reflect.TypeFor[loopir.BOr](), reflect.TypeFor[loopir.BNot](), reflect.TypeFor[loopir.BConst](),
		reflect.TypeFor[loopir.BVerify](),
	},
}

// filler builds IR values with every field set to a distinct nonzero
// value, drawing each interface slot's node type in rotation and every
// slice of nodes with one element per node type.
// fillDepth is the nesting below which filler varies node types.
const fillDepth = 5

type filler struct {
	n     int64
	built map[reflect.Type]int
}

func (f *filler) fill(v reflect.Value, depth int) {
	f.n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(f.n * 1_000_003) // multi-byte varints, both signs
		if f.n%2 == 0 {
			v.SetInt(-v.Int())
		}
	case reflect.Uint8:
		v.SetUint(uint64(1 + f.n%200))
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), depth)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), depth)
		}
	case reflect.Slice:
		n := 2
		if impls, ok := nodeTypes[v.Type().Elem()]; ok && depth < fillDepth {
			n = len(impls)
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i), depth+1)
		}
	case reflect.Interface:
		impls := nodeTypes[v.Type()]
		var t reflect.Type
		if depth < fillDepth {
			// The node type built least often so far, so every one
			// gets built.
			for _, c := range impls {
				if t == nil || f.built[c] < f.built[t] {
					t = c
				}
			}
		} else {
			// Deep slots take the first node type without node fields,
			// so the tree stays finite.
			for _, c := range impls {
				if !hasNodeField(c) {
					t = c
					break
				}
			}
		}
		f.built[t]++
		p := reflect.New(t)
		f.fill(p.Elem(), depth+1)
		v.Set(p)
	default:
		panic(fmt.Sprintf("filler: unhandled kind %s", v.Kind()))
	}
}

func hasNodeField(t reflect.Type) bool {
	for i := 0; i < t.NumField(); i++ {
		ft := t.Field(i).Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if _, ok := nodeTypes[ft]; ok {
			return true
		}
	}
	return false
}

// TestCodecRoundTripsEveryField: a program in which every field of
// every node type is set decodes to a deep-equal copy, and encodes
// again to the same bytes. A field added to a node type without a codec
// change comes back zero and fails the comparison.
func TestCodecRoundTripsEveryField(t *testing.T) {
	f := &filler{built: map[reflect.Type]int{}}
	p := &loopir.Program{}
	f.fill(reflect.ValueOf(p).Elem(), 0)
	for _, impls := range nodeTypes {
		for _, c := range impls {
			if f.built[c] == 0 {
				t.Fatalf("filler never built a %s", c)
			}
		}
	}
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q loopir.Program
	if err := q.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &q) {
		t.Fatalf("round trip differs:\n%s\nwant\n%s", q.Dump(), p.Dump())
	}
	again, _ := q.MarshalBinary()
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding the decoded program gives other bytes")
	}
}

// TestCodecRoundTripsCorpus: every optimized definition of gencomp
// programs and of the executor workloads dumps the same after a round
// trip, and its accumulating stores get their combiners back.
func TestCodecRoundTripsCorpus(t *testing.T) {
	var progs []*core.Program
	for seed := uint64(1); seed <= 100; seed++ {
		g := gencomp.Generate(seed, gencomp.Config{AccumWeight: 250})
		if p, err := core.CompileProgram(g.Prog, g.Params, core.Options{InputBounds: g.Inputs, Parallel: true, Workers: 4}); err == nil {
			progs = append(progs, p)
		}
	}
	for _, c := range optWorkloads() {
		p, err := core.Compile(c.src, c.params, core.Options{Parallel: true, Workers: 4, InputBounds: boundsOf(c.inputs)})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	defs := 0
	for _, p := range progs {
		for _, name := range p.Order {
			d := p.Defs[name]
			if d.Plan == nil {
				continue
			}
			defs++
			data, err := d.Plan.Program.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var q loopir.Program
			if err := q.UnmarshalBinary(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := q.Dump(), d.Plan.Program.Dump(); got != want {
				t.Fatalf("%s: round trip dumps\n%s\nwant\n%s", name, got, want)
			}
		}
	}
	if defs < 100 {
		t.Fatalf("only %d definitions round-tripped", defs)
	}
}

// TestCodecRejectsMalformed: every truncation, trailing bytes, an
// unknown tag and nesting beyond the bound decode to an error, never a
// panic or a partial program.
func TestCodecRejectsMalformed(t *testing.T) {
	f := &filler{built: map[reflect.Type]int{}}
	p := &loopir.Program{}
	f.fill(reflect.ValueOf(p).Elem(), 0)
	data, _ := p.MarshalBinary()
	for n := 0; n < len(data); n++ {
		q := loopir.Program{Name: "untouched"}
		if err := q.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("prefix of %d of %d bytes decoded", n, len(data))
		}
		if q.Name != "untouched" {
			t.Fatalf("prefix of %d bytes changed the program", n)
		}
	}
	var q loopir.Program
	if err := q.UnmarshalBinary(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// Version 1, empty name, no arrays or scalars, empty AccumOp, one
	// statement with an unknown tag.
	if err := q.UnmarshalBinary([]byte{1, 0, 0, 0, 0, 1, 99}); err == nil {
		t.Fatal("unknown statement tag decoded")
	}
	// One SetScalar whose value is 1<<17 nested negations.
	deep := []byte{1, 0, 0, 0, 0, 1, 4, 0}
	deep = append(deep, bytes.Repeat([]byte{6}, 1<<17)...)
	deep = append(deep, 0)
	var err error
	if err = q.UnmarshalBinary(deep); err == nil {
		t.Fatal("nesting beyond the bound decoded")
	}
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("deep nesting: %v", err)
	}
}
