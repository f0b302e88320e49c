package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randValue produces a random value of a random key-compatible type.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(7) {
	case 0:
		return NewBigInt(rng.Int63() - rng.Int63())
	case 1:
		return NewInt(int32(rng.Int31() - rng.Int31()))
	case 2:
		return NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
	case 3:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return NewVarBinary(b)
	case 4:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(128))
		}
		return NewVarChar(string(b))
	case 5:
		return NewSmallInt(int16(rng.Int31()))
	default:
		return NewNull(TypeBigInt)
	}
}

// sameKind returns a pair of random values of the same type for ordering
// checks.
func sameKindPair(rng *rand.Rand) (Value, Value) {
	for {
		a, b := randValue(rng), randValue(rng)
		if a.Type == b.Type {
			return a, b
		}
	}
}

func TestKeyEncodingPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		a, b := sameKindPair(rng)
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		cmpVals := a.Compare(b)
		cmpKeys := bytes.Compare(ka, kb)
		if sign(cmpVals) != sign(cmpKeys) {
			t.Fatalf("order broken: %v vs %v -> vals %d keys %d (%x vs %x)", a, b, cmpVals, cmpKeys, ka, kb)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompositeKeyOrder(t *testing.T) {
	// (1, "b") < (2, "a") and (1, "a") < (1, "b").
	k1 := EncodeKey(nil, NewBigInt(1), NewVarChar("b"))
	k2 := EncodeKey(nil, NewBigInt(2), NewVarChar("a"))
	k3 := EncodeKey(nil, NewBigInt(1), NewVarChar("a"))
	if bytes.Compare(k1, k2) >= 0 || bytes.Compare(k3, k1) >= 0 {
		t.Fatal("composite ordering broken")
	}
}

func TestStringPrefixOrdering(t *testing.T) {
	// "ab" < "ab\x00" < "abc": terminator escaping must keep prefix order.
	ks := [][]byte{
		EncodeKey(nil, NewVarChar("ab")),
		EncodeKey(nil, NewVarChar("ab\x00")),
		EncodeKey(nil, NewVarChar("abc")),
	}
	for i := 0; i < len(ks)-1; i++ {
		if bytes.Compare(ks[i], ks[i+1]) >= 0 {
			t.Fatalf("prefix ordering broken at %d", i)
		}
	}
}

func TestKeyRoundtripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		n := rng.Intn(4) + 1
		vals := make([]Value, n)
		types := make([]TypeID, n)
		for i := range vals {
			vals[i] = randValue(rng)
			types[i] = vals[i].Type
		}
		key := EncodeKey(nil, vals...)
		back, err := DecodeKey(key, types)
		if err != nil {
			t.Logf("decode error: %v", err)
			return false
		}
		for i := range vals {
			if !vals[i].Equal(back[i]) {
				t.Logf("value %d: %v != %v", i, vals[i], back[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatKeyOrderSpecials(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64, 1, 1e300, math.Inf(1)}
	var prev []byte
	for i, f := range vals {
		k := EncodeKey(nil, NewFloat(f))
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("float ordering broken at %v", f)
		}
		prev = k
	}
}

func TestNullSortsFirst(t *testing.T) {
	kn := EncodeKey(nil, NewNull(TypeBigInt))
	kv := EncodeKey(nil, NewBigInt(math.MinInt64))
	if bytes.Compare(kn, kv) >= 0 {
		t.Fatal("NULL must sort before the smallest value")
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, err := DecodeKey([]byte{0x01}, []TypeID{TypeBigInt}); err == nil {
		t.Error("truncated integer accepted")
	}
	if _, err := DecodeKey([]byte{0x07, 0, 0, 0, 0, 0, 0, 0, 0}, []TypeID{TypeBigInt}); err == nil {
		t.Error("bad tag accepted")
	}
	if _, err := DecodeKey([]byte{0x01, 'a'}, []TypeID{TypeVarChar}); err == nil {
		t.Error("unterminated string accepted")
	}
	good := EncodeKey(nil, NewBigInt(1))
	if _, err := DecodeKey(append(good, 0x00), []TypeID{TypeBigInt}); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeKey(good[:4], []TypeID{TypeBigInt, TypeBigInt}); err == nil {
		t.Error("missing component accepted")
	}
}

func TestRowCodecRoundtripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func() bool {
		n := rng.Intn(8)
		row := make(Row, n)
		for i := range row {
			row[i] = randValue(rng)
		}
		enc := EncodeRow(nil, row)
		back, err := DecodeRowAlias(nil, enc, nil)
		if err != nil {
			return false
		}
		return row.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRowCodecAppendsAfterPrefix(t *testing.T) {
	row := Row{NewInt(1), NewVarChar("x")}
	buf := EncodeRow([]byte{0xAA}, row)
	back, err := DecodeRowAlias(nil, buf[1:], nil)
	if err != nil || !row.Equal(back) {
		t.Fatalf("decode after prefix failed: %v", err)
	}
}

func TestRowCodecErrors(t *testing.T) {
	if _, err := DecodeRowAlias(nil, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	enc := EncodeRow(nil, Row{NewVarChar("hello")})
	if _, err := DecodeRowAlias(nil, enc[:len(enc)-2], nil); err == nil {
		t.Error("truncated string accepted")
	}
	if _, err := DecodeRowAlias(nil, []byte{200}, nil); err == nil {
		t.Error("absurd column count accepted")
	}
	// A string length of 2^63 used to wrap negative past the bounds check
	// and panic in the slice expression.
	huge := append([]byte{1, byte(TypeVarChar)}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if _, err := DecodeRowAlias(nil, huge, nil); err == nil {
		t.Error("string longer than the input accepted")
	}
}

// FuzzEncodeRowKey: a row's clustered key is exactly EncodeKey of its key
// values, in key order, in a slice with no spare capacity. The row holds
// one column more than the key, and the key lists its columns in reverse,
// so EncodeRowKey must pick them by ordinal.
func FuzzEncodeRowKey(f *testing.F) {
	f.Add(uint8(1), uint32(0), uint8(0), int64(42), 0.0, "", []byte(nil))
	f.Add(uint8(2), uint32(0x0102), uint8(0b01), int64(-1), 1.5, "a\x00b", []byte{0, 0xff, 0})
	f.Add(uint8(3), uint32(0x030201), uint8(0b100), int64(math.MinInt64), math.Inf(-1), "\x00", []byte{0})
	f.Add(uint8(4), uint32(0x00000000), uint8(0), int64(7), 0.0, "", []byte(nil)) // tpcc's order_line: four BIGINTs
	f.Add(uint8(4), uint32(0x03020100), uint8(0b1111), int64(0), math.NaN(), "x", []byte{})
	f.Add(uint8(4), uint32(0x04030201), uint8(0b0101), int64(1)<<40, -0.0, "long string with a \x00 in it, past thirty-two bytes", bytes.Repeat([]byte{0}, 40))
	types := []TypeID{TypeBigInt, TypeFloat, TypeNVarChar, TypeVarBinary, TypeInt}
	f.Fuzz(func(t *testing.T, ncols uint8, typeSel uint32, nulls uint8, i int64, fl float64, s string, b []byte) {
		k := int(ncols%4) + 1
		sch := &Schema{Columns: make([]Column, k+1)}
		row := make(Row, k+1)
		row[k] = NewBigInt(i) // not a key column
		var want []byte
		for j := k - 1; j >= 0; j-- {
			typ := types[int(typeSel>>(8*j)&0xff)%len(types)]
			v := Value{Type: typ, Null: nulls&(1<<j) != 0}
			if !v.Null {
				v.I64, v.F64, v.Str, v.Bytes = i^int64(j), fl, s, b
			}
			sch.Columns[j] = Column{Name: string(rune('a' + j)), Type: typ, Ordinal: j}
			sch.Key = append(sch.Key, j)
			row[j] = v
			want = EncodeKey(want, v)
		}
		got := EncodeRowKey(sch, row)
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeRowKey = %x, EncodeKey of the key values = %x", got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("a %d-byte key has capacity %d", len(got), cap(got))
		}
	})
}

// FuzzKeyPrefixLen: the prefix of an index entry key is exactly EncodeKey
// of its 1–4 values, whatever follows; every cut inside the prefix is an
// error; and on any bytes at all it never panics and agrees with
// DecodeKey, which succeeds on what KeyPrefixLen measures and fails where
// it fails.
func FuzzKeyPrefixLen(f *testing.F) {
	f.Add(uint8(1), uint32(0), uint8(0), int64(42), 0.0, "", []byte(nil), []byte{0x01, 0x80, 0, 0, 0, 0, 0, 0, 7})
	f.Add(uint8(2), uint32(0x0102), uint8(0b01), int64(-1), 1.5, "a\x00b", []byte{0, 0xff, 0}, []byte{0, 0})
	f.Add(uint8(3), uint32(0x030201), uint8(0b100), int64(math.MinInt64), math.Inf(-1), "\x00", []byte{0}, []byte(nil))
	f.Add(uint8(4), uint32(0x03020100), uint8(0b1111), int64(0), math.NaN(), "x", []byte{}, []byte{0x01, 0x00, 0xff})
	f.Add(uint8(4), uint32(0x04030201), uint8(0b0101), int64(1)<<40, -0.0, "long string with a \x00 in it", bytes.Repeat([]byte{0}, 40), []byte{0x02})
	types := []TypeID{TypeBigInt, TypeFloat, TypeNVarChar, TypeVarBinary, TypeInt}
	f.Fuzz(func(t *testing.T, ncols uint8, typeSel uint32, nulls uint8, i int64, fl float64, s string, b, suffix []byte) {
		k := int(ncols%4) + 1
		typs := make([]TypeID, k)
		var prefix []byte
		for j := range typs {
			typs[j] = types[int(typeSel>>(8*j)&0xff)%len(types)]
			v := Value{Type: typs[j], Null: nulls&(1<<j) != 0}
			if !v.Null {
				v.I64, v.F64, v.Str, v.Bytes = i^int64(j), fl, s, b
			}
			prefix = EncodeKey(prefix, v)
		}
		key := append(append([]byte(nil), prefix...), suffix...)
		if n, err := KeyPrefixLen(key, typs); err != nil || n != len(prefix) {
			t.Fatalf("KeyPrefixLen(%x) = %d, %v; the values encode to %d bytes", key, n, err, len(prefix))
		}
		for cut := 0; cut < len(prefix); cut++ {
			if n, err := KeyPrefixLen(prefix[:cut], typs); err == nil {
				t.Fatalf("KeyPrefixLen of %x, cut at %d of %d, = %d with no error", prefix, cut, len(prefix), n)
			}
		}
		// Garbage: the suffix read as a whole key.
		n, err := KeyPrefixLen(suffix, typs)
		if err != nil {
			if _, derr := DecodeKey(suffix, typs); derr == nil {
				t.Fatalf("KeyPrefixLen(%x) fails (%v) where DecodeKey succeeds", suffix, err)
			}
			return
		}
		if n > len(suffix) {
			t.Fatalf("KeyPrefixLen(%x) = %d, past the key's end", suffix, n)
		}
		if _, derr := DecodeKey(suffix[:n], typs); derr != nil {
			t.Fatalf("KeyPrefixLen(%x) = %d, but DecodeKey of that prefix fails: %v", suffix, n, derr)
		}
	})
}
