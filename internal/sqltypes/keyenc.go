package sqltypes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Order-preserving ("memcomparable") key encoding. Encoded composite keys
// compare bytewise in the same order that Value.Compare orders the
// underlying values, which lets B+tree indexes store plain []byte keys.
//
// Layout per value: a one-byte tag (0x00 = NULL, 0x01 = value) followed by
// the type-specific payload:
//   - integers/decimal/datetime: 8 bytes big-endian with the sign bit
//     flipped so negative numbers sort first;
//   - float: IEEE-754 bits transformed to sort order;
//   - strings/bytes: escaped terminator encoding (0x00 -> 0x00 0xFF,
//     terminated by 0x00 0x00) so that prefixes sort correctly.
//
// NULL sorts before every non-NULL value, matching Value.Compare.

// EncodeKey appends the order-preserving encoding of the values to dst and
// returns the extended slice.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		if v.Null {
			dst = append(dst, 0x00)
			continue
		}
		dst = append(dst, 0x01)
		switch {
		case v.Type == TypeFloat:
			dst = appendUint64(dst, floatToOrdered(v.F64))
		case v.Type.IsString():
			dst = appendEscaped(dst, v.Str)
		case v.Type.IsBytes():
			dst = appendEscaped(dst, v.Bytes)
		default:
			dst = appendUint64(dst, uint64(v.I64)^(1<<63))
		}
	}
	return dst
}

// EncodeRowKey encodes the primary-key columns of row r per schema s into
// a slice whose capacity is its length: a stored row keeps its key.
func EncodeRowKey(s *Schema, r Row) []byte {
	n := 0
	for _, ord := range s.Key {
		switch v := r[ord]; {
		case v.Null:
			n++
		case v.Type.IsString():
			n += 3 + len(v.Str) + strings.Count(v.Str, "\x00")
		case v.Type.IsBytes():
			n += 3 + len(v.Bytes) + bytes.Count(v.Bytes, []byte{0})
		default:
			n += 9
		}
	}
	dst := make([]byte, 0, n)
	for _, ord := range s.Key {
		dst = EncodeKey(dst, r[ord])
	}
	return dst
}

// AppendStoredKey appends to dst EncodeKey of the values at ordinals ords
// of the encoded row b, read straight from its bytes without building a
// Value: what EncodeKey gives for the values DecodeColumns reads there, in
// one walk of the row when ords ascend. It fails where DecodeColumns does,
// and on a value that is NULL or that the row is too narrow to hold, which
// no key holds.
func AppendStoredKey(dst, b []byte, ords []int) ([]byte, error) {
	n, start, err := rowHeader(b)
	if err != nil {
		return nil, err
	}
	pos, i := start, 0 // the walk stands before value i
	for _, ord := range ords {
		if ord >= n {
			return nil, fmt.Errorf("sqltypes: the row lacks key column %d or holds NULL in it", ord)
		}
		if ord < i {
			pos, i = start, 0
		}
		for ; i < ord; i++ {
			if pos, err = skipValue(b, pos, i); err != nil {
				return nil, err
			}
		}
		t, null, u, next, err := readValue(b, pos, i)
		if err == nil && null {
			err = fmt.Errorf("sqltypes: the row lacks key column %d or holds NULL in it", ord)
		}
		if err != nil {
			return nil, err
		}
		dst = append(dst, 0x01)
		switch {
		case t.IsString() || t.IsBytes():
			dst = appendEscaped(dst, b[next-int(u):next])
		case t == TypeFloat:
			dst = appendUint64(dst, floatToOrdered(math.Float64frombits(u)))
		default:
			dst = appendUint64(dst, (u>>1^-(u&1))^(1<<63)) // zigzag, then as EncodeKey
		}
		pos, i = next, i+1
	}
	return dst, nil
}

func appendUint64(dst []byte, u uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return append(dst, b[:]...)
}

func floatToOrdered(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative: flip all bits
	}
	return u | (1 << 63) // positive: flip sign bit
}

func orderedToFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

func appendEscaped[T string | []byte](dst []byte, b T) []byte {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// DecodeKey decodes a key encoded by EncodeKey given the column types of
// its components. It is the inverse of EncodeKey and is used by index scans
// that must recover key values.
func DecodeKey(key []byte, types []TypeID) ([]Value, error) {
	out := make([]Value, 0, len(types))
	pos := 0
	for _, t := range types {
		end, null, err := keyComponent(key, pos, t)
		if err != nil {
			return nil, err
		}
		body := key[pos+1 : end]
		pos = end
		switch {
		case null:
			out = append(out, NewNull(t))
		case t == TypeFloat:
			out = append(out, NewFloat(orderedToFloat(binary.BigEndian.Uint64(body))))
		case t.IsString():
			out = append(out, Value{Type: t, Str: string(unescape(body))})
		case t.IsBytes():
			out = append(out, Value{Type: t, Bytes: unescape(body)})
		default:
			out = append(out, Value{Type: t, I64: int64(binary.BigEndian.Uint64(body) ^ (1 << 63))})
		}
	}
	if pos != len(key) {
		return nil, fmt.Errorf("sqltypes: %d trailing key bytes", len(key)-pos)
	}
	return out, nil
}

// KeyPrefixLen returns the length of the leading components of key that
// EncodeKey wrote for values of the given types, without decoding them: a
// nonclustered index entry is its columns' encoding followed by the
// clustered key, which is what remains after the prefix. A key that ends
// or breaks inside the prefix is an error.
func KeyPrefixLen(key []byte, types []TypeID) (int, error) {
	pos := 0
	for _, t := range types {
		var err error
		if pos, _, err = keyComponent(key, pos, t); err != nil {
			return 0, err
		}
	}
	return pos, nil
}

// keyComponent returns where the component of type t that starts at
// key[pos] ends, and whether it is NULL. Its body lies between its tag at
// pos and the end.
func keyComponent(key []byte, pos int, t TypeID) (end int, null bool, err error) {
	if pos >= len(key) {
		return 0, false, fmt.Errorf("sqltypes: key truncated before a %s component", t)
	}
	switch tag := key[pos]; tag {
	case 0x00:
		return pos + 1, true, nil
	case 0x01:
	default:
		return 0, false, fmt.Errorf("sqltypes: bad key tag 0x%02x", tag)
	}
	pos++
	if !t.IsString() && !t.IsBytes() { // integers, decimals, datetimes, floats
		if pos+8 > len(key) {
			return 0, false, fmt.Errorf("sqltypes: key truncated in a %s component", t)
		}
		return pos + 8, false, nil
	}
	for i := pos; i+1 < len(key); i++ {
		if key[i] != 0x00 {
			continue
		}
		switch key[i+1] {
		case 0x00:
			return i + 2, false, nil
		case 0xFF:
			i++
		default:
			return 0, false, fmt.Errorf("sqltypes: bad escape 0x00 0x%02x", key[i+1])
		}
	}
	return 0, false, fmt.Errorf("sqltypes: unterminated escaped key component")
}

// unescape returns the bytes of an escaped component's body, which ends
// in its 0x00 0x00 terminator.
func unescape(body []byte) []byte {
	out := make([]byte, 0, len(body)-2)
	for i := 0; i < len(body)-2; i++ {
		out = append(out, body[i])
		if body[i] == 0x00 {
			i++ // the 0xFF that escapes it
		}
	}
	return out
}
