package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/loopir"
	"arraycomp/internal/metrics"
	"arraycomp/internal/runtime"
)

// roundtrip certifies, compiles, snapshots, encodes, decodes, and
// restores src, then checks the restored program's output is bitwise
// identical to the original's and that it paid zero compile-phase time.
func roundtrip(t *testing.T, src string, params map[string]int64, opts Options, inputs map[string]*runtime.Strict) *Program {
	t.Helper()
	opts.Certify = true
	p := compile(t, src, params, opts)
	want, err := p.Run(inputs)
	if err != nil {
		t.Fatalf("original run: %v\n%s", err, p.Report())
	}

	s, err := p.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v\n%s", err, p.Report())
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec := &Snapshot{}
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	r, err := RestoreSnapshot(dec, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	got, err := r.Run(inputs)
	if err != nil {
		t.Fatalf("restored run: %v\n%s", err, r.Report())
	}
	if !got.EqualWithin(want, 0) {
		t.Fatalf("restored program output differs bitwise from original\n%s", r.Report())
	}
	for _, ph := range metrics.CompilePhases {
		if d := r.Stats.Phases[ph]; d != 0 {
			t.Errorf("restored program charged %v to compile phase %q; must be zero", d, ph)
		}
	}
	if r.Certs == nil || r.Certs.CertifiedCount != p.Certs.CertifiedCount {
		t.Errorf("restored certificate lost: got %+v, want %d certified claims", r.Certs, p.Certs.CertifiedCount)
	}
	return r
}

func TestSnapshotRoundtripSquares(t *testing.T) {
	r := roundtrip(t, `sq = array (1,n) [ i := i*i | i <- [1..n] ]`,
		map[string]int64{"n": 64}, Options{}, nil)
	if _, ok := r.Stats.Phases[metrics.PhaseLoad]; !ok {
		t.Error("restored program must charge the load phase")
	}
}

func TestSnapshotRoundtripWavefront(t *testing.T) {
	src := `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
	     | i <- [2..n], j <- [2..n] ])`
	roundtrip(t, src, map[string]int64{"n": 16}, Options{}, nil)
}

func TestSnapshotRoundtripWavefrontParallel(t *testing.T) {
	src := `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
	     | i <- [2..n], j <- [2..n] ])`
	roundtrip(t, src, map[string]int64{"n": 24}, Options{Parallel: true, Workers: 3}, nil)
}

func TestSnapshotRoundtripAccumArray(t *testing.T) {
	// An accumulating store is the HasAccum marker plus the program's
	// AccumOp, which the restored compile resolves. The 'right'
	// combiner is order-sensitive, so a silently dropped accumulation
	// (plain store semantics) would still "work" for (+) histograms —
	// exercise both.
	roundtrip(t, `h = accumArray (+) 0.0 (0,9) [ (3*i) mod 10 := 1.0 | i <- [1..n] ]`,
		map[string]int64{"n": 30}, Options{}, nil)
	roundtrip(t, `h = accumArray right 0.0 (1,n)
	  ([ i := 1.0 | i <- [1..n] ] ++ [ i := 2.0 | i <- [1..n] ])`,
		map[string]int64{"n": 5}, Options{}, nil)
}

func TestSnapshotRoundtripInPlace(t *testing.T) {
	src := `param n;
	a2 = bigupd a
	  [* [ (i,j) := 0.25 * (a2!(i-1,j) + a2!(i,j-1) + a!(i+1,j) + a!(i,j+1)) ]
	   | i <- [2..n-1], j <- [2..n-1] *]`
	n := int64(12)
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)}}
	in := makeMatrix(n, n, func(i, j int64) float64 { return float64((i*3+j*5)%7) + 0.25 })
	orig := in.Clone()
	roundtrip(t, src, map[string]int64{"n": n}, opts, map[string]*runtime.Strict{"a": in})
	// The restored in-place plan must still clone the caller's input.
	if !in.EqualWithin(orig, 0) {
		t.Error("restored in-place plan mutated the caller's input")
	}
}

func TestSnapshotRoundtripMultiDef(t *testing.T) {
	src := `letrec*
	  b = array (1,n) [ i := 2.0 * i | i <- [1..n] ];
	  c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];
	  d = array (1,n) [ i := c!i * b!i | i <- [1..n] ]
	in d`
	roundtrip(t, src, map[string]int64{"n": 20}, Options{}, nil)
}

func TestSnapshotRefusesUncertified(t *testing.T) {
	p := compile(t, `sq = array (1,n) [ i := i*i | i <- [1..n] ]`,
		map[string]int64{"n": 8}, Options{})
	if _, err := p.Snapshot(); err == nil || !strings.Contains(err.Error(), "uncertified") {
		t.Fatalf("snapshot of uncertified program: err = %v, want uncertified refusal", err)
	}
}

func TestSnapshotRefusesThunked(t *testing.T) {
	src := `param n;
	a = array (1,2*n)
	  [* [ i := if i >= n - 1 then 1.0 else a!(n+i+2) + 1.0 ] ++
	     [ n + i := if i == 1 then 1.0 else a!(i-1) + 1.0 ]
	   | i <- [1..n] *]`
	p := compile(t, src, map[string]int64{"n": 6}, Options{Certify: true})
	if p.Defs["a"].Mode() != "thunked" {
		t.Fatalf("precondition: mode = %s, want thunked", p.Defs["a"].Mode())
	}
	if _, err := p.Snapshot(); err == nil || !strings.Contains(err.Error(), "thunkless") {
		t.Fatalf("snapshot of thunked program: err = %v, want thunkless refusal", err)
	}
}

func TestSnapshotCorruptAccumMarker(t *testing.T) {
	// A decoded snapshot whose accumulating store lost its combiner name
	// must refuse to restore rather than run with plain-store semantics.
	p := compile(t, `h = accumArray (+) 0.0 (0,9) [ i mod 10 := 1.0 | i <- [1..n] ]`,
		map[string]int64{"n": 10}, Options{Certify: true})
	s, err := p.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec := &Snapshot{}
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range dec.Defs {
		dec.Defs[i].IR.AccumOp = ""
	}
	if _, err := RestoreSnapshot(dec, Options{}); err == nil || !strings.Contains(err.Error(), "AccumOp") {
		t.Fatalf("restore with dropped combiner: err = %v, want AccumOp error", err)
	}
}

// TestSnapshotCodecRoundTripsEveryField: a snapshot with every field
// set to a distinct nonzero value (the IR a real certified plan)
// decodes to a deep-equal copy. A field added to Snapshot, SnapshotDef,
// metrics.Counters or codegen.CheckCounts without a codec change comes
// back zero and fails the comparison.
func TestSnapshotCodecRoundTripsEveryField(t *testing.T) {
	p := compile(t, "a = array (1,n) [ i := 2.0 * i | i <- [1..n] ]", map[string]int64{"n": 8}, Options{Certify: true})
	// The IR as the codec gives it back (zero-length slices are nil),
	// so the comparison below sees only the snapshot's own fields.
	enc, err := p.Defs["a"].Plan.Program.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ir := &loopir.Program{}
	if err := ir.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(n * 1_000_003)
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Pointer:
			v.Set(reflect.ValueOf(ir))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				fill(v.Index(i))
			}
		case reflect.Map:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < 3; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k)
				fill(e)
				v.SetMapIndex(k, e)
			}
		default:
			t.Fatalf("unhandled kind %s", v.Kind())
		}
	}
	s := &Snapshot{}
	fill(reflect.ValueOf(s).Elem())
	enc, err = s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := &Snapshot{}
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, dec) {
		t.Fatalf("round trip differs:\n%+v\nwant\n%+v", dec, s)
	}
}
