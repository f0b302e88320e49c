package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Self-describing binary row codec: the form of a row in the WAL, in
// snapshot files and in the engine's version chains, which store these
// bytes as they were logged. Unlike the ledger serialization format in
// internal/serial (which is canonical and feeds SHA-256), this codec just
// needs to round-trip rows compactly; it carries the type of every value
// so that log replay does not depend on the catalog state at replay time.

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

// EncodedRowLen returns len(EncodeRow(nil, r)), so a row that will be kept
// can be encoded into an allocation of exactly its size.
func EncodedRowLen(r Row) int {
	n := uvarintLen(uint64(len(r))) + 2*len(r)
	for _, v := range r {
		if v.Null {
			continue
		}
		switch {
		case v.Type == TypeFloat:
			n += uvarintLen(math.Float64bits(v.F64))
		case v.Type.IsString():
			n += uvarintLen(uint64(len(v.Str))) + len(v.Str)
		case v.Type.IsBytes():
			n += uvarintLen(uint64(len(v.Bytes))) + len(v.Bytes)
		default:
			n += uvarintLen(uint64(v.I64<<1) ^ uint64(v.I64>>63)) // zigzag, as AppendVarint
		}
	}
	return n
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// DecodeRow decodes a row encoded by EncodeRow from b, returning the row
// and the number of bytes consumed. The row shares no memory with b.
func DecodeRow(b []byte) (Row, int, error) {
	return decodeRow(nil, b, false, 0)
}

// DecodeRowAlias decodes the row that b holds — all of b — into dst[:0],
// which is replaced when too small, and pads it with the typed NULLs of
// pad[len(row):]: a row encoded before its table gained columns reads as
// wide as the schema is now. Strings and binaries are not copied; they
// alias b, which must never change afterwards.
func DecodeRowAlias(dst Row, b []byte, pad []Column) (Row, error) {
	r, n, err := decodeRow(dst, b, true, len(pad))
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("sqltypes: %d trailing bytes after row", len(b)-n)
	}
	for i := len(r); i < len(pad); i++ {
		r = append(r, NewNull(pad[i].Type))
	}
	return r, nil
}

// CheckRow reports whether b is exactly one well-formed row — what
// DecodeRowAlias accepts — without building it. Bytes that come from a
// file pass it once, on their way into storage.
func CheckRow(b []byte) error {
	n, pos, err := rowHeader(b)
	if err != nil {
		return err
	}
	var v Value
	for i := 0; i < n; i++ {
		if pos, err = decodeValue(&v, b, pos, i, true); err != nil {
			return err
		}
	}
	if pos != len(b) {
		return fmt.Errorf("sqltypes: %d trailing bytes after row", len(b)-pos)
	}
	return nil
}

// AppendRowPadded appends the encoded row b to dst, widened with the typed
// NULLs of cols[n:] when it holds n < len(cols) values: the bytes
// EncodeRow gives for what DecodeRowAlias(nil, b, cols) returns.
func AppendRowPadded(dst, b []byte, cols []Column) []byte {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n >= uint64(len(cols)) {
		return append(dst, b...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	dst = append(dst, b[sz:]...)
	for _, c := range cols[n:] {
		dst = append(dst, byte(c.Type), 1)
	}
	return dst
}

// SpliceBigInts returns the encoding of the row b holds with the values at
// the ordinals ords — ascending — replaced by the BIGINTs vals, widened to
// len(cols) values, in one allocation of exactly its size. It is EncodeRow
// of r = DecodeRowAlias(nil, b, cols) after r[ords[i]] = NewBigInt(vals[i]),
// byte for byte when b is as EncodeRow wrote it, without building r: every
// other value is copied as the bytes it is. The ledger core makes a history
// row this way, from the before-image's stored bytes and the two end
// columns. It fails where DecodeRowAlias does.
func SpliceBigInts(b []byte, cols []Column, ords []int, vals []int64) ([]byte, error) {
	n, hdr, err := rowHeader(b)
	if err != nil {
		return nil, err
	}
	width := max(n, len(cols))
	if len(ords) > 0 && ords[len(ords)-1] >= width {
		return nil, fmt.Errorf("sqltypes: splice at ordinal %d of a %d-column row", ords[len(ords)-1], width)
	}
	// One walk finds where the replaced values start and end, and with
	// that the size of the result.
	var few [4][2]int
	spans := few[:0]
	size := uvarintLen(uint64(width)) + len(b) - hdr + 2*(width-n)
	pos := hdr
	for i := 0; i < n; i++ {
		start := pos
		if pos, err = skipValue(b, pos, i); err != nil {
			return nil, err
		}
		if k := len(spans); k < len(ords) && ords[k] == i {
			spans = append(spans, [2]int{start, pos})
			size -= pos - start
		}
	}
	if pos != len(b) {
		return nil, fmt.Errorf("sqltypes: %d trailing bytes after row", len(b)-pos)
	}
	for k, v := range vals {
		size += 2 + uvarintLen(uint64(v<<1)^uint64(v>>63)) // zigzag, as AppendVarint
		if ords[k] >= n {
			size -= 2 // in place of a padding NULL
		}
	}
	bigInt := func(dst []byte, v int64) []byte {
		return binary.AppendVarint(append(dst, byte(TypeBigInt), 0), v)
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(width))
	from := hdr
	for k, sp := range spans {
		out = bigInt(append(out, b[from:sp[0]]...), vals[k])
		from = sp[1]
	}
	out = append(out, b[from:]...)
	k := len(spans)
	for i := n; i < width; i++ {
		if k < len(ords) && ords[k] == i {
			out = bigInt(out, vals[k])
			k++
		} else {
			out = append(out, byte(cols[i].Type), 1)
		}
	}
	return out, nil
}

// DecodeColumns decodes only the values at ordinals ords of the encoded
// row b into out (len(out) == len(ords)), aliasing b like DecodeRowAlias,
// and steps over the values between them without building them: one walk
// of the row when ords ascend, one more from its start for each that does
// not. An ordinal the row is too narrow for yields the typed NULL of cols.
func DecodeColumns(out []Value, b []byte, ords []int, cols []Column) error {
	n, start, err := rowHeader(b)
	if err != nil {
		return err
	}
	pos, i := start, 0 // the walk stands before value i
	for j, ord := range ords {
		if ord >= n {
			out[j] = NewNull(cols[ord].Type)
			continue
		}
		if ord < i {
			pos, i = start, 0
		}
		for ; i < ord; i++ {
			if pos, err = skipValue(b, pos, i); err != nil {
				return err
			}
		}
		if pos, err = decodeValue(&out[j], b, pos, i, true); err != nil {
			return err
		}
		i++
	}
	return nil
}

// skipValue returns the position after value i of a row at b[pos:],
// failing where decodeValue would.
func skipValue(b []byte, pos, i int) (int, error) {
	if pos+2 > len(b) {
		return 0, fmt.Errorf("sqltypes: row truncated at value %d", i)
	}
	t, null := TypeID(b[pos]), b[pos+1] == 1
	pos += 2
	if null {
		return pos, nil
	}
	// One uvarint whatever the type: float bits, a zigzag integer, or the
	// length of the bytes that follow.
	u, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return 0, fmt.Errorf("sqltypes: bad value %d", i)
	}
	pos += sz
	if t.IsString() || t.IsBytes() {
		if u > uint64(len(b)-pos) {
			return 0, fmt.Errorf("sqltypes: value %d truncated", i)
		}
		pos += int(u)
	}
	return pos, nil
}

// rowHeader reads the value count. Every value takes at least two bytes,
// which bounds what a decoder allocates by the length of its input
// whatever count the header claims.
func rowHeader(b []byte) (n, pos int, err error) {
	u, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("sqltypes: bad row header")
	}
	if u > uint64(len(b)-sz)/2 {
		return 0, 0, fmt.Errorf("sqltypes: row claims %d values in %d bytes", u, len(b))
	}
	return int(u), sz, nil
}

// decodeRow decodes into dst's storage when it holds the row, else into a
// new slice with room for width values.
func decodeRow(dst Row, b []byte, alias bool, width int) (Row, int, error) {
	n, pos, err := rowHeader(b)
	if err != nil {
		return nil, 0, err
	}
	if cap(dst) < n {
		dst = make(Row, n, max(n, width))
	}
	dst = dst[:n]
	for i := range dst {
		if pos, err = decodeValue(&dst[i], b, pos, i, alias); err != nil {
			return nil, 0, err
		}
	}
	return dst, pos, nil
}

// decodeValue decodes value i of a row at b[pos:] into v, returning the
// position after it.
func decodeValue(v *Value, b []byte, pos, i int, alias bool) (int, error) {
	if pos+2 > len(b) {
		return 0, fmt.Errorf("sqltypes: row truncated at value %d", i)
	}
	t := TypeID(b[pos])
	*v = Value{Type: t, Null: b[pos+1] == 1}
	pos += 2
	if v.Null {
		return pos, nil
	}
	switch {
	case t == TypeFloat:
		u, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("sqltypes: bad float at value %d", i)
		}
		pos += sz
		v.F64 = math.Float64frombits(u)
	case t.IsString(), t.IsBytes():
		l, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("sqltypes: bad length at value %d", i)
		}
		pos += sz
		if l > uint64(len(b)-pos) {
			return 0, fmt.Errorf("sqltypes: value %d truncated", i)
		}
		raw := b[pos : pos+int(l) : pos+int(l)]
		pos += int(l)
		switch {
		case !t.IsString():
			if !alias {
				raw = append([]byte(nil), raw...)
			}
			v.Bytes = raw
		case alias:
			v.Str = unsafe.String(unsafe.SliceData(raw), len(raw))
		default:
			v.Str = string(raw)
		}
	default:
		x, sz := binary.Varint(b[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("sqltypes: bad integer at value %d", i)
		}
		pos += sz
		v.I64 = x
	}
	return pos, nil
}
