// Package codec provides the deterministic, versioned binary encoding
// behind the persistent artifact store's keys: netlists and mapped
// circuits encode to a canonical byte string, and the SHA-256 of a
// canonical encoding is the product's *content hash* — the identity used
// as a cache key within and across processes. Two structurally equal
// values always produce the same bytes and therefore the same hash, so a
// cache keyed by content hash deduplicates work wherever the same inputs
// recur, regardless of which process (or machine) computed them first.
//
// The encoding is written and hashed, never read back: every stored
// payload (group results, compile results, ECO baselines) is JSON, and
// this package only derives the keys they are stored under. Each
// encoding opens with its kind tag and format version, which salt the
// hash. KindCircuit/CircuitVersion and KindNetlist/NetlistVersion
// therefore only salt content hashes, but every store key is derived
// from such a hash: bumping one moves every key and orphans every
// stored entry.
//
// Writer is exported so higher layers derive their store keys (group
// results, compile results, ECO baselines) from the same vocabulary.
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
