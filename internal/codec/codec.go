// Package codec provides the deterministic, versioned binary encoding
// behind the persistent artifact store's keys: netlists and mapped
// circuits encode to a canonical byte string, and the SHA-256 of a
// canonical encoding is the product's *content hash* — the identity used
// as a cache key within and across processes. Two structurally equal values always produce the same
// bytes and therefore the same hash, so a cache keyed by content hash
// deduplicates work wherever the same inputs recur, regardless of which
// process (or machine) computed them first.
//
// Encodings are self-describing only to the extent the cache needs: each
// artifact opens with its kind tag and format version, and decoding
// rejects a mismatch so a store written by an older format is treated as
// a miss, never misread. The format version of an artifact kind MUST be
// bumped whenever either the encoding or the semantics of the producing
// algorithm changes — the version is part of the hash, so a bump silently
// invalidates every stale on-disk entry.
//
// The primitives (Writer, Reader) are exported so higher layers derive
// their store keys (group results, compile results, ECO baselines) and,
// for the baseline, its payload from the same vocabulary.
package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Hash is the canonical content hash of an encoded artifact (SHA-256).
type Hash [32]byte

// Hex returns the lowercase hexadecimal form of the hash (used as the
// store's on-disk entry name).
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

func (h Hash) String() string { return h.Hex() }

// Sum returns the content hash of an encoded artifact.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// ParseHash decodes the hexadecimal form produced by Hash.Hex — the
// inverse used wherever a key crosses a text boundary (CLI flags, JSON
// request fields) and must become a store key again.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("codec: bad hash %q: %w", s, err)
	}
	if len(b) != len(h) {
		return h, fmt.Errorf("codec: hash %q has %d bytes, want %d", s, len(b), len(h))
	}
	copy(h[:], b)
	return h, nil
}

// Writer accumulates a deterministic binary encoding. All integers are
// varint-encoded, floats are their IEEE-754 bit patterns in fixed eight
// bytes, and strings and byte slices are length-prefixed — there is no
// map iteration, padding or pointer value anywhere in an encoding, which
// is what makes it canonical.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Sum returns the content hash of the accumulated encoding.
func (w *Writer) Sum() Hash { return Sum(w.buf) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Varint appends a signed varint.
func (w *Writer) Varint(x int64) { w.buf = binary.AppendVarint(w.buf, x) }

// Int appends a signed integer.
func (w *Writer) Int(x int) { w.Varint(int64(x)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float64 appends the IEEE-754 bit pattern in eight big-endian bytes.
func (w *Writer) Float64(f float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Ints appends a length-prefixed signed-integer slice.
func (w *Writer) Ints(xs []int) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Int(x)
	}
}

// Reader decodes a Writer encoding. Errors are sticky: after the first
// malformed read every subsequent read returns a zero value, and Err
// reports the failure — callers validate once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over an encoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
}

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Varint decodes a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Int decodes a signed integer.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool decodes a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("invalid bool byte %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

// Float64 decodes an eight-byte IEEE-754 bit pattern.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float64 at offset %d", r.off)
		return 0
	}
	bits := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Ints decodes a length-prefixed signed-integer slice.
func (r *Reader) Ints() []int {
	n := r.Len(1)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs
}

// Len decodes a length prefix and bounds-checks it against the remaining
// bytes, assuming each pending element occupies at least minElemBytes —
// the guard that keeps a corrupt length field from provoking a huge
// allocation before the truncation is even noticed.
func (r *Reader) Len(minElemBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.Remaining()/minElemBytes) {
		r.fail("length %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}
