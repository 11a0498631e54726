// Package wire is the byte-level encoding the durable compile artifacts
// share (the loop IR and the disk cache's snapshots): unsigned and
// zigzag varints, length-prefixed strings, IEEE-754 bits for floats,
// and one byte for booleans. Nothing in it describes types; each
// artifact writes and reads its fields in a fixed order, so decoding
// costs no set-up per stream.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is the error every malformed encoding wraps.
var ErrMalformed = errors.New("wire: malformed encoding")

// MaxDepth bounds the nesting a decoder follows (see Decoder.Enter),
// so a damaged byte string cannot recurse without limit.
const MaxDepth = 1 << 16

// Encoder appends encoded values to Buf.
type Encoder struct{ Buf []byte }

func (e *Encoder) Byte(b byte)   { e.Buf = append(e.Buf, b) }
func (e *Encoder) Uint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Encoder) Int(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Encoder) Float(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Len writes a length.
func (e *Encoder) Len(n int) { e.Uint(uint64(n)) }

func (e *Encoder) Str(s string) {
	e.Len(len(s))
	e.Buf = append(e.Buf, s...)
}

func (e *Encoder) Bytes(b []byte) {
	e.Len(len(b))
	e.Buf = append(e.Buf, b...)
}

func (e *Encoder) Ints(vs []int64) {
	e.Len(len(vs))
	for _, v := range vs {
		e.Int(v)
	}
}

func (e *Encoder) Strs(ss []string) {
	e.Len(len(ss))
	for _, s := range ss {
		e.Str(s)
	}
}

// Decoder reads what an Encoder wrote. The first malformation records
// an error and empties the input, so every later read returns a zero
// value and callers check Err once, at the end.
type Decoder struct {
	buf   []byte
	err   error
	depth int
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Fail records a malformation (the first one wins).
func (d *Decoder) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
	d.buf = nil
}

// Err returns the first malformation, or, when the input was read
// cleanly, an error if bytes are left over.
func (d *Decoder) Err() error {
	if d.err == nil && len(d.buf) > 0 {
		d.Fail(fmt.Sprintf("%d trailing bytes", len(d.buf)))
	}
	return d.err
}

func (d *Decoder) Byte() byte {
	if len(d.buf) == 0 {
		d.Fail("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail("bad boolean")
	return false
}

func (d *Decoder) Uint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *Decoder) Int() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Len reads a length. Every counted item takes at least one byte, so a
// length beyond the bytes left is malformed (and never allocated).
func (d *Decoder) Len() int {
	n := d.Uint()
	if n > uint64(len(d.buf)) {
		d.Fail("length exceeds the encoding")
		return 0
	}
	return int(n)
}

func (d *Decoder) Float() float64 {
	if len(d.buf) < 8 {
		d.Fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *Decoder) Str() string { return string(d.Bytes()) }

// Bytes returns the next length-prefixed byte string, aliasing the
// input.
func (d *Decoder) Bytes() []byte {
	n := d.Len()
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Ints reads an int64 slice; an empty one decodes as nil.
func (d *Decoder) Ints() []int64 {
	n := d.Len()
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// Strs reads a string slice; an empty one decodes as nil.
func (d *Decoder) Strs() []string {
	n := d.Len()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.Str()
	}
	return ss
}

// Enter and Leave bracket one level of nesting; Enter reports false
// (and records a malformation) past MaxDepth or after an earlier one.
func (d *Decoder) Enter() bool {
	if d.depth++; d.depth > MaxDepth {
		d.Fail("nesting too deep")
	}
	return d.err == nil
}

func (d *Decoder) Leave() { d.depth-- }
