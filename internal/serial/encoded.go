package serial

import (
	"encoding/binary"
	"fmt"

	"sqlledger/internal/merkle"
	"sqlledger/internal/sqltypes"
)

// Layout is what SerializeRow reads of a schema's columns, computed once —
// per column DDL for the write path, which keeps one on each ledger table,
// per run for verification — so that hashing a row version appends each
// column header by copy.
type Layout struct {
	types   []sqltypes.TypeID
	headers [][]byte
}

// NewLayout precomputes the layout of a table's columns as they are now:
// take a new one after column DDL.
func NewLayout(cols []sqltypes.Column) *Layout {
	l := &Layout{types: make([]sqltypes.TypeID, len(cols)), headers: make([][]byte, len(cols))}
	for i := range cols {
		l.types[i] = cols[i].Type
		l.headers[i] = appendHeader(nil, &cols[i])
	}
	return l
}

// AppendEncoded appends to dst the canonical serialization of the row that
// stored holds as sqltypes.EncodeRow bytes, without decoding it: the bytes
// SerializeRow gives for sqltypes.DecodeRowAlias(nil, stored, columns),
// transcoded value by value (FuzzHashEncoded holds the two together). A
// row narrower than the schema — stored before ADD COLUMN — reads NULL in
// the columns it lacks, which the format skips. It fails where
// sqltypes.CheckRow does, and on a row wider than the schema.
func (l *Layout) AppendEncoded(dst, stored []byte, op OpType, skip SkipMask) ([]byte, error) {
	width, pos := binary.Uvarint(stored)
	if pos <= 0 {
		return dst, fmt.Errorf("serial: bad row header")
	}
	if width > uint64(len(l.headers)) {
		return dst, fmt.Errorf("serial: row of %d values under a schema of %d columns", width, len(l.headers))
	}
	start := len(dst)
	dst = append(dst, Version, byte(op), 0) // 0: the count slot
	n, typed := 0, true
	for i := 0; i < int(width); i++ {
		if pos+2 > len(stored) {
			return dst[:start], fmt.Errorf("serial: row truncated at value %d", i)
		}
		tag, null := sqltypes.TypeID(stored[pos]), stored[pos+1] == 1
		pos += 2
		if null {
			continue
		}
		keep := !skip.Has(i)
		if keep {
			n++
			typed = typed && tag == l.types[i]
			dst = append(dst, l.headers[i]...)
		}
		// The payload: one uvarint, which by the tag's class is a length
		// with that many bytes after it, a float's bits, or an integer in
		// zigzag form (binary.Varint).
		u, sz := binary.Uvarint(stored[pos:])
		if sz <= 0 {
			return dst[:start], fmt.Errorf("serial: bad value %d", i)
		}
		pos += sz
		switch {
		case tag.IsString() || tag.IsBytes():
			if u > uint64(len(stored)-pos) {
				return dst[:start], fmt.Errorf("serial: value %d truncated", i)
			}
			if keep {
				dst = appendVar(dst, stored[pos:pos+int(u)])
			}
			pos += int(u)
		case !keep:
		case tag == sqltypes.TypeFloat:
			dst = appendFixed(dst, u)
		default:
			dst = appendFixed(dst, u>>1^-(u&1))
		}
	}
	if pos != len(stored) {
		return dst[:start], fmt.Errorf("serial: %d trailing bytes after row", len(stored)-pos)
	}
	return closeRow(dst, start, n, typed), nil
}

// HashEncoded is HashRow of a stored row: the LEDGERHASH of the version
// stored holds, computed from its bytes.
func (l *Layout) HashEncoded(stored []byte, op OpType, skip SkipMask) (merkle.Hash, error) {
	bp := bufPool.Get().(*[]byte)
	buf, err := l.AppendEncoded((*bp)[:0], stored, op, skip)
	var h merkle.Hash
	if err == nil {
		h = merkle.HashLeaf(buf)
	}
	*bp = buf
	bufPool.Put(bp)
	return h, err
}
