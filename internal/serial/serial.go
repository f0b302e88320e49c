// Package serial implements the canonical row serialization format that
// feeds SHA-256 row hashing (§3.2 of the SQL Ledger paper).
//
// The format deliberately includes column *metadata* — the number of
// non-NULL columns, and for each one its catalog ordinal, type id and
// declared length/precision/scale — alongside the value bytes. As the
// paper explains with its INT/SMALLINT example, hashing values alone would
// let an attacker tamper with table metadata and change how the stored
// bytes are interpreted without changing the hash; binding the metadata
// into the hash closes that attack.
//
// NULL values are skipped entirely (their ordinals simply do not appear),
// which is what makes adding a nullable column hash-compatible with rows
// written before the column existed (§3.5.1); explicit ordinals for the
// non-NULL columns prevent the NULL-remapping attack described there.
package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"sqlledger/internal/merkle"
	"sqlledger/internal/sqltypes"
)

// Version identifies the serialization format version and is bound into
// every serialized row.
const Version byte = 1

// OpType tags which ledger operation a serialized row version represents.
// The tag domain-separates the two hashes a row version can produce: the
// hash recorded when the version is created (insert) and the hash recorded
// when it is deleted (delete / the "before" half of an update).
type OpType byte

// Operation types.
const (
	OpInsert OpType = 1
	OpDelete OpType = 2
)

// String names the operation the way ledger views report it.
func (o OpType) String() string {
	switch o {
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	}
	return fmt.Sprintf("OP(%d)", byte(o))
}

// SkipMask marks column ordinals to exclude from serialization. The nil
// mask excludes nothing. Masks are precomputed once per table (the ledger
// core builds one for the end-transaction system columns) so the per-row
// hot path tests a bit instead of calling through a closure.
type SkipMask []uint64

// NewSkipMask builds a mask excluding the given column ordinals.
func NewSkipMask(ordinals ...int) SkipMask {
	var m SkipMask
	for _, ord := range ordinals {
		w := ord >> 6
		for len(m) <= w {
			m = append(m, 0)
		}
		m[w] |= 1 << (uint(ord) & 63)
	}
	return m
}

// Has reports whether ordinal ord is excluded.
func (m SkipMask) Has(ord int) bool {
	w := ord >> 6
	return w < len(m) && m[w]&(1<<(uint(ord)&63)) != 0
}

// SerializeRow appends the canonical serialization of row r under schema s
// to dst. skip, if non-nil, excludes columns by ordinal: the ledger core
// uses it to exclude the end-transaction system columns when computing a
// version's insert-time hash (they were NULL when the version was
// created). Columns whose value is NULL are always excluded, though a NULL
// tagged with another type than its column's marks the row mistyped, as a
// mistyped value does (versionMistyped).
//
// The encoding is produced in a single pass: a one-byte varint slot is
// reserved for the participating-column count and patched after the column
// loop (closeRow). Layout.AppendEncoded produces the same bytes from a
// stored row without decoding it; both are built from appendHeader, the
// two value emitters and closeRow, so the format has one definition.
//
// The ledger never calls this form: the write path, verification and
// receipts all serialize the stored bytes (Layout). It stays as the
// format's specification over values — the oracle FuzzHashEncoded holds
// the transcoder to — and as the benchmark's hashing kernel.
func SerializeRow(dst []byte, s *sqltypes.Schema, r sqltypes.Row, op OpType, skip SkipMask) []byte {
	start := len(dst)
	dst = append(dst, Version, byte(op), 0) // 0: the count slot
	n, typed := 0, true
	for i, v := range r {
		c := &s.Columns[i]
		if v.Null || skip.Has(i) {
			// A NULL is left out, but its tag must still be its column's.
			typed = typed && (!v.Null || v.Type == c.Type)
			continue
		}
		n++
		typed = typed && v.Type == c.Type
		dst = appendValue(appendHeader(dst, c), v)
	}
	return closeRow(dst, start, n, typed)
}

// appendHeader appends the metadata bound into the hash ahead of every
// non-NULL column: catalog ordinal, type id, declared length, precision
// and scale.
func appendHeader(dst []byte, c *sqltypes.Column) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.Ordinal))
	dst = append(dst, byte(c.Type))
	dst = binary.AppendUvarint(dst, uint64(c.Len))
	dst = binary.AppendUvarint(dst, uint64(c.Prec))
	return binary.AppendUvarint(dst, uint64(c.Scale))
}

// appendFixed appends a number — an integer, or a float's IEEE bits — as
// a length-prefixed eight big-endian bytes.
func appendFixed(dst []byte, u uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, 8), u)
}

// appendVar appends a string or binary, length-prefixed.
func appendVar[T string | []byte](dst []byte, p T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(p))), p...)
}

// appendValue appends a value the way its own type tag says.
func appendValue(dst []byte, v sqltypes.Value) []byte {
	switch {
	case v.Type == sqltypes.TypeFloat:
		return appendFixed(dst, math.Float64bits(v.F64))
	case v.Type.IsString():
		return appendVar(dst, v.Str)
	case v.Type.IsBytes():
		return appendVar(dst, v.Bytes)
	default:
		return appendFixed(dst, uint64(v.I64))
	}
}

// versionMistyped replaces Version in the serialization of a row holding a
// value, NULL or not, whose type tag is not its column's catalog type. The
// header binds
// the catalog type while the value is laid out by its tag, and two tags
// can lay a value out alike (VARCHAR and VARBINARY, INT and BIGINT), so
// without it a stored tag could be rewritten under an unchanged hash.
// Schema.Validate lets no such row be written: one found in storage was
// tampered with, and under this byte it hashes to nothing a writer ever
// recorded.
const versionMistyped = Version | 0x80

// closeRow finishes the serialization begun at dst[start:]: it marks a
// mistyped row and patches the count n of participating columns into its
// slot. Counts of 128+ columns need a wider varint and shift the payload
// right by the difference — rare, and byte-for-byte identical to the
// original two-pass encoding (pinned by TestSerializeSinglePassCompat).
func closeRow(dst []byte, start, n int, typed bool) []byte {
	if !typed {
		dst[start] = versionMistyped
	}
	countAt := start + 2
	if n < 0x80 {
		dst[countAt] = byte(n)
		return dst
	}
	var vbuf [binary.MaxVarintLen64]byte
	vn := binary.PutUvarint(vbuf[:], uint64(n))
	payloadEnd := len(dst)
	for j := 1; j < vn; j++ {
		dst = append(dst, 0)
	}
	copy(dst[countAt+vn:], dst[countAt+1:payloadEnd])
	copy(dst[countAt:], vbuf[:vn])
	return dst
}

// bufPool recycles serialization buffers: Layout.HashEncoded and HashBytes
// sit on the hot path of every ledger DML operation and block/entry hash.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// HashRow is the LEDGERHASH analogue over values: it serializes the row
// and returns its SHA-256 hash (see SerializeRow for who calls it).
// Steady-state it allocates nothing: the serialization buffer is pooled and
// the skip mask is a precomputed bitmask.
func HashRow(s *sqltypes.Schema, r sqltypes.Row, op OpType, skip SkipMask) merkle.Hash {
	bp := bufPool.Get().(*[]byte)
	buf := SerializeRow((*bp)[:0], s, r, op, skip)
	h := merkle.HashLeaf(buf)
	*bp = buf
	bufPool.Put(bp)
	return h
}

// HashBytes hashes an arbitrary canonical byte string (used for block
// headers and transaction entries, which have their own fixed layouts).
// The length-prefixed concatenation is built in a pooled buffer pre-sized
// from the summed part lengths, so no per-call allocation survives warmup.
func HashBytes(parts ...[]byte) merkle.Hash {
	total := 0
	for _, p := range parts {
		total += len(p) + binary.MaxVarintLen64
	}
	bp := bufPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	buf = buf[:0]
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	h := merkle.HashLeaf(buf)
	*bp = buf
	bufPool.Put(bp)
	return h
}
