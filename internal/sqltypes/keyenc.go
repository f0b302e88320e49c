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
		if pos >= len(key) {
			return nil, fmt.Errorf("sqltypes: key truncated at component %d", len(out))
		}
		tag := key[pos]
		pos++
		if tag == 0x00 {
			out = append(out, NewNull(t))
			continue
		}
		if tag != 0x01 {
			return nil, fmt.Errorf("sqltypes: bad key tag 0x%02x", tag)
		}
		switch {
		case t == TypeFloat:
			if pos+8 > len(key) {
				return nil, fmt.Errorf("sqltypes: key truncated in float")
			}
			out = append(out, NewFloat(orderedToFloat(binary.BigEndian.Uint64(key[pos:]))))
			pos += 8
		case t.IsString() || t.IsBytes():
			raw, n, err := decodeEscaped(key[pos:])
			if err != nil {
				return nil, err
			}
			pos += n
			v := Value{Type: t}
			if t.IsString() {
				v.Str = string(raw)
			} else {
				v.Bytes = raw
			}
			out = append(out, v)
		default:
			if pos+8 > len(key) {
				return nil, fmt.Errorf("sqltypes: key truncated in integer")
			}
			u := binary.BigEndian.Uint64(key[pos:])
			pos += 8
			out = append(out, Value{Type: t, I64: int64(u ^ (1 << 63))})
		}
	}
	if pos != len(key) {
		return nil, fmt.Errorf("sqltypes: %d trailing key bytes", len(key)-pos)
	}
	return out, nil
}

func decodeEscaped(b []byte) (raw []byte, n int, err error) {
	out := make([]byte, 0, len(b))
	i := 0
	for {
		if i+1 >= len(b) {
			return nil, 0, fmt.Errorf("sqltypes: unterminated escaped key component")
		}
		if b[i] == 0x00 {
			switch b[i+1] {
			case 0x00:
				return out, i + 2, nil
			case 0xFF:
				out = append(out, 0x00)
				i += 2
				continue
			default:
				return nil, 0, fmt.Errorf("sqltypes: bad escape 0x00 0x%02x", b[i+1])
			}
		}
		out = append(out, b[i])
		i++
	}
}
