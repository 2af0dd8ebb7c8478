package wire

import (
	"encoding/binary"
	"math"

	"treeaa/internal/sim"
)

// Reader is the one cursor every decoder reads a body through — this
// package's, and the frame headers of internal/transport and
// internal/overlay. It keeps the first error and reads nothing after it:
// every later read returns the zero value, so a decoder reads all its fields
// and checks one error at the end. Every error it keeps wraps ErrMalformed.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first error the reader kept, or nil.
func (r *Reader) Err() error { return r.err }

// End returns Err, or an error if bytes are left unread: a body is read
// whole.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Fail keeps a malformed error unless the reader holds one already. It is
// the cold path of every read, kept out of line so that the reads inline.
//
//go:noinline
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err, r.b = malformed(format, args...), nil
	}
}

// errShort and errID are the errors of the reads a vector entry makes, kept
// without a call so those reads inline.
var (
	errShort = malformed("truncated")
	errID    = malformed("id out of range")
)

// keep keeps err, if it is the first.
func (r *Reader) keep(err error) {
	if r.err == nil && err != nil {
		r.err, r.b = err, nil
	}
}

// Rest returns the unread bytes and consumes them.
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = nil
	return b
}

// Bytes returns the next n bytes, aliasing the buffer.
func (r *Reader) Bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.keep(errShort)
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.keep(errShort)
		return 0
	}
	x := r.b[0]
	r.b = r.b[1:]
	return x
}

// Flag reads a flag byte: bit 0 is the flag, every other bit must be clear.
func (r *Reader) Flag() bool {
	f := r.Byte()
	if f&^0x01 != 0 {
		r.Fail("unknown flags %#x", f)
	}
	return f == 0x01
}

// Uvarint reads a canonical uvarint; a non-minimal encoding is an error.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.Fail("bad uvarint")
		return 0
	case n != sim.UvarintLen(x):
		r.Fail("non-minimal uvarint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// U32 reads a fixed big-endian u32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.keep(errShort)
		return 0
	}
	x := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return x
}

// U64 reads a fixed big-endian u64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.keep(errShort)
		return 0
	}
	x := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// ID reads a party or vertex id: a u32 of at most MaxIDValue.
func (r *Reader) ID() int {
	x := r.U32()
	if x > MaxIDValue {
		r.keep(errID)
		return 0
	}
	return int(x)
}

// Float reads a float64 from its IEEE-754 bits.
func (r *Reader) Float() float64 { return math.Float64frombits(r.U64()) }

// Str reads a string: uvarint length, then the raw bytes.
func (r *Reader) Str() string { return string(r.prefixed()) }

// Iter reads an iteration (or t, or a round count): a uvarint of at most
// MaxInt32.
func (r *Reader) Iter() int {
	x := r.Uvarint()
	if x > math.MaxInt32 {
		r.Fail("iteration %d out of range", x)
		return 0
	}
	return int(x)
}

// Round reads a round number: a uvarint in [1, MaxInt32].
func (r *Reader) Round() int {
	x := r.Uvarint()
	if x == 0 || x > math.MaxInt32 {
		r.Fail("round %d out of range", x)
		return 0
	}
	return int(x)
}

// Count reads a message or byte counter: a uvarint of at most 2^62, so
// counters fit an int64 with room to sum across seats.
func (r *Reader) Count() int {
	x := r.Uvarint()
	if x > maxCount {
		r.Fail("counter %d out of range", x)
		return 0
	}
	return int(x)
}

// prefixed reads uvarint(len) | len bytes, len at most maxLen.
func (r *Reader) prefixed() []byte {
	n := r.Uvarint()
	if n > maxLen {
		r.Fail("length %d exceeds limit", n)
		return nil
	}
	return r.Bytes(n)
}

// count reads a list's uvarint count, checked against the limit and against
// the buffer at size bytes per entry before anything count-sized exists.
func (r *Reader) count(size uint64) int {
	k := r.Uvarint()
	if k > maxLen || k*size > uint64(len(r.b)) {
		r.Fail("count %d exceeds buffer", k)
		return 0
	}
	return int(k)
}

// header reads version | type and returns the type.
func (r *Reader) header() byte {
	if v := r.Byte(); v != Version {
		r.Fail("version %d, want %d", v, Version)
	}
	return r.Byte()
}
