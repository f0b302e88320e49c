package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Self-describing binary row codec used by the WAL and snapshot files.
// Unlike the ledger serialization format in internal/serial (which is
// canonical and feeds SHA-256), this codec just needs to round-trip rows
// compactly; it carries the type of every value so that log replay does
// not depend on the catalog state at replay time.

// EncodeRow appends the binary encoding of r to dst.
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.Type))
		if v.Null {
			dst = append(dst, 1)
			continue
		}
		dst = append(dst, 0)
		switch {
		case v.Type == TypeFloat:
			dst = binary.AppendUvarint(dst, math.Float64bits(v.F64))
		case v.Type.IsString():
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		case v.Type.IsBytes():
			dst = binary.AppendUvarint(dst, uint64(len(v.Bytes)))
			dst = append(dst, v.Bytes...)
		default:
			dst = binary.AppendVarint(dst, v.I64)
		}
	}
	return dst
}

// DecodeRow decodes a row encoded by EncodeRow from b, returning the row
// and the number of bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sqltypes: bad row header")
	}
	pos := sz
	if n > uint64(len(b)) { // cheap sanity bound: a value takes >= 2 bytes
		return nil, 0, fmt.Errorf("sqltypes: row claims %d values in %d bytes", n, len(b))
	}
	r := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		if pos+2 > len(b) {
			return nil, 0, fmt.Errorf("sqltypes: row truncated at value %d", i)
		}
		t := TypeID(b[pos])
		null := b[pos+1] == 1
		pos += 2
		if null {
			r = append(r, NewNull(t))
			continue
		}
		v := Value{Type: t}
		switch {
		case t == TypeFloat:
			u, sz := binary.Uvarint(b[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("sqltypes: bad float at value %d", i)
			}
			pos += sz
			v.F64 = math.Float64frombits(u)
		case t.IsString(), t.IsBytes():
			l, sz := binary.Uvarint(b[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("sqltypes: bad length at value %d", i)
			}
			pos += sz
			if l > uint64(len(b)-pos) {
				return nil, 0, fmt.Errorf("sqltypes: value %d truncated", i)
			}
			if t.IsString() {
				v.Str = string(b[pos : pos+int(l)])
			} else {
				v.Bytes = append([]byte(nil), b[pos:pos+int(l)]...)
			}
			pos += int(l)
		default:
			x, sz := binary.Varint(b[pos:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("sqltypes: bad integer at value %d", i)
			}
			pos += sz
			v.I64 = x
		}
		r = append(r, v)
	}
	return r, pos, nil
}
