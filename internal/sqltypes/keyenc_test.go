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
		back, used, err := DecodeRow(enc)
		if err != nil || used != len(enc) {
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
	back, used, err := DecodeRow(buf[1:])
	if err != nil || used != len(buf)-1 || !row.Equal(back) {
		t.Fatalf("decode after prefix failed: %v", err)
	}
}

func TestRowCodecErrors(t *testing.T) {
	if _, _, err := DecodeRow(nil); err == nil {
		t.Error("empty input accepted")
	}
	enc := EncodeRow(nil, Row{NewVarChar("hello")})
	if _, _, err := DecodeRow(enc[:len(enc)-2]); err == nil {
		t.Error("truncated string accepted")
	}
	if _, _, err := DecodeRow([]byte{200}); err == nil {
		t.Error("absurd column count accepted")
	}
	// A string length of 2^63 used to wrap negative past the bounds check
	// and panic in the slice expression.
	huge := append([]byte{1, byte(TypeVarChar), 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if _, _, err := DecodeRow(huge); err == nil {
		t.Error("string longer than the input accepted")
	}
}
