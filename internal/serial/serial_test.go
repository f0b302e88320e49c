package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"sqlledger/internal/sqltypes"
)

func twoColSchema(t1, t2 sqltypes.TypeID) *sqltypes.Schema {
	return sqltypes.MustSchema([]sqltypes.Column{
		{Name: "Column1", Type: t1, Nullable: true},
		{Name: "Column2", Type: t2, Nullable: true},
	})
}

// TestMetadataAttackDetected reproduces the paper's §3.2 example: a table
// with Column1 INT and Column2 SMALLINT where the attacker redeclares the
// types. Hashing values alone would not change; hashing with metadata must.
func TestMetadataAttackDetected(t *testing.T) {
	honest := twoColSchema(sqltypes.TypeInt, sqltypes.TypeSmallInt)
	tampered := twoColSchema(sqltypes.TypeSmallInt, sqltypes.TypeInt)
	row1 := sqltypes.Row{sqltypes.NewInt(0x12), sqltypes.NewSmallInt(0x34)}
	row2 := sqltypes.Row{sqltypes.NewSmallInt(0x12), sqltypes.NewInt(0x34)}
	h1 := HashRow(honest, row1, OpInsert, nil)
	h2 := HashRow(tampered, row2, OpInsert, nil)
	if h1 == h2 {
		t.Fatal("type-swap attack produced the same hash")
	}
}

func TestDeclaredLengthAffectsHash(t *testing.T) {
	a := sqltypes.MustSchema([]sqltypes.Column{sqltypes.VarCol("c", sqltypes.TypeVarChar, 10)})
	b := sqltypes.MustSchema([]sqltypes.Column{sqltypes.VarCol("c", sqltypes.TypeVarChar, 20)})
	row := sqltypes.Row{sqltypes.NewVarChar("x")}
	if HashRow(a, row, OpInsert, nil) == HashRow(b, row, OpInsert, nil) {
		t.Fatal("declared length not bound into hash")
	}
}

func TestDecimalPrecisionScaleAffectsHash(t *testing.T) {
	a := sqltypes.MustSchema([]sqltypes.Column{sqltypes.DecimalCol("c", 10, 2)})
	b := sqltypes.MustSchema([]sqltypes.Column{sqltypes.DecimalCol("c", 10, 3)})
	row := sqltypes.Row{sqltypes.NewDecimal(12345)}
	if HashRow(a, row, OpInsert, nil) == HashRow(b, row, OpInsert, nil) {
		t.Fatal("decimal scale not bound into hash")
	}
}

// TestNullSkipAddColumnCompatibility checks §3.5.1: a row hashed before a
// nullable column existed hashes identically afterwards (NULL for the new
// column), so old digests stay valid.
func TestNullSkipAddColumnCompatibility(t *testing.T) {
	before := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeBigInt),
		sqltypes.Col("b", sqltypes.TypeVarChar),
	})
	after := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeBigInt),
		sqltypes.Col("b", sqltypes.TypeVarChar),
		sqltypes.NullableCol("c", sqltypes.TypeInt),
	})
	rowBefore := sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewVarChar("x")}
	rowAfter := sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewVarChar("x"), sqltypes.NewNull(sqltypes.TypeInt)}
	if HashRow(before, rowBefore, OpInsert, nil) != HashRow(after, rowAfter, OpInsert, nil) {
		t.Fatal("adding a nullable column changed existing row hashes")
	}
}

// TestNullRemapAttackDetected checks the attack §3.5.1 warns about: an
// attacker cannot shift a value from one nullable column to another,
// because ordinals of non-NULL columns are serialized.
func TestNullRemapAttackDetected(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.NullableCol("a", sqltypes.TypeInt),
		sqltypes.NullableCol("b", sqltypes.TypeInt),
	})
	r1 := sqltypes.Row{sqltypes.NewInt(7), sqltypes.NewNull(sqltypes.TypeInt)}
	r2 := sqltypes.Row{sqltypes.NewNull(sqltypes.TypeInt), sqltypes.NewInt(7)}
	if HashRow(s, r1, OpInsert, nil) == HashRow(s, r2, OpInsert, nil) {
		t.Fatal("NULL remap attack produced the same hash")
	}
}

func TestOpTypeDomainSeparation(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{sqltypes.Col("a", sqltypes.TypeInt)})
	r := sqltypes.Row{sqltypes.NewInt(1)}
	if HashRow(s, r, OpInsert, nil) == HashRow(s, r, OpDelete, nil) {
		t.Fatal("insert and delete hashes must differ")
	}
}

func TestSkipMask(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeInt),
		sqltypes.NullableCol("end_tx", sqltypes.TypeBigInt),
	})
	withEnd := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewBigInt(99)}
	withoutEnd := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewNull(sqltypes.TypeBigInt)}
	skip := NewSkipMask(1)
	// Hash of the populated row with column 1 skipped must equal the hash
	// of the row where it was NULL — the history-table recomputation case.
	if HashRow(s, withEnd, OpInsert, skip) != HashRow(s, withoutEnd, OpInsert, nil) {
		t.Fatal("skip mask does not reproduce the pre-delete hash")
	}
	if HashRow(s, withEnd, OpInsert, nil) == HashRow(s, withoutEnd, OpInsert, nil) {
		t.Fatal("end column should affect the unskipped hash")
	}
}

func TestSkipMaskBits(t *testing.T) {
	m := NewSkipMask(0, 63, 64, 130)
	for _, ord := range []int{0, 63, 64, 130} {
		if !m.Has(ord) {
			t.Fatalf("ordinal %d should be set", ord)
		}
	}
	for _, ord := range []int{1, 62, 65, 129, 131, 1000} {
		if m.Has(ord) {
			t.Fatalf("ordinal %d should not be set", ord)
		}
	}
	var none SkipMask
	if none.Has(0) || none.Has(64) {
		t.Fatal("nil mask must exclude nothing")
	}
}

// referenceSerializeRow is the original two-pass encoding (count columns,
// then serialize). The single-pass encoder must stay byte-for-byte
// compatible with it: existing digests and receipts depend on these bytes.
func referenceSerializeRow(dst []byte, s *sqltypes.Schema, r sqltypes.Row, op OpType, skip SkipMask) []byte {
	dst = append(dst, Version, byte(op))
	n := 0
	for i, v := range r {
		if v.Null || skip.Has(i) {
			continue
		}
		n++
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for i, v := range r {
		if v.Null || skip.Has(i) {
			continue
		}
		c := s.Columns[i]
		dst = binary.AppendUvarint(dst, uint64(c.Ordinal))
		dst = append(dst, byte(c.Type))
		dst = binary.AppendUvarint(dst, uint64(c.Len))
		dst = binary.AppendUvarint(dst, uint64(c.Prec))
		dst = binary.AppendUvarint(dst, uint64(c.Scale))
		dst = appendValue(dst, v)
	}
	return dst
}

func TestSerializeSinglePassCompat(t *testing.T) {
	// Wide schema so the participating-column count crosses the one-byte
	// varint boundary (128+) and exercises the payload slide.
	for _, ncols := range []int{0, 1, 2, 5, 127, 128, 129, 200, 300} {
		cols := make([]sqltypes.Column, ncols)
		row := make(sqltypes.Row, ncols)
		for i := range cols {
			switch i % 3 {
			case 0:
				cols[i] = sqltypes.NullableCol(fmt.Sprintf("c%d", i), sqltypes.TypeBigInt)
				row[i] = sqltypes.NewBigInt(int64(i * 17))
			case 1:
				cols[i] = sqltypes.NullableCol(fmt.Sprintf("c%d", i), sqltypes.TypeVarChar)
				row[i] = sqltypes.NewVarChar(fmt.Sprintf("value-%d", i))
			default:
				cols[i] = sqltypes.NullableCol(fmt.Sprintf("c%d", i), sqltypes.TypeFloat)
				row[i] = sqltypes.NewFloat(float64(i) * 1.5)
			}
			if i%7 == 3 {
				row[i] = sqltypes.NewNull(cols[i].Type)
			}
		}
		s := sqltypes.MustSchema(cols)
		for _, skip := range []SkipMask{nil, NewSkipMask(0), NewSkipMask(1, 64, 129)} {
			got := SerializeRow(nil, s, row, OpInsert, skip)
			want := referenceSerializeRow(nil, s, row, OpInsert, skip)
			if !bytes.Equal(got, want) {
				t.Fatalf("ncols=%d skip=%v: single-pass encoding diverged\n got %x\nwant %x", ncols, skip, got, want)
			}
			// Appending onto a non-empty dst must also match.
			prefix := []byte{0xde, 0xad}
			got = SerializeRow(prefix, s, row, OpDelete, skip)
			want = referenceSerializeRow(prefix, s, row, OpDelete, skip)
			if !bytes.Equal(got, want) {
				t.Fatalf("ncols=%d skip=%v: single-pass encoding diverged with prefix", ncols, skip)
			}
		}
	}
}

// The allocation gates below pin the zero-allocation ingest path
// (ISSUE 5): HashRow and HashBytes must not allocate once the buffer pool
// is warm. The race detector instruments allocations, so the gates only
// run race-free (see race_off_test.go / race_on_test.go).
func TestHashRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("payload", sqltypes.TypeVarChar),
		sqltypes.NullableCol("end_tx", sqltypes.TypeBigInt),
	})
	r := sqltypes.Row{
		sqltypes.NewBigInt(42),
		sqltypes.NewVarChar("some moderately sized payload string"),
		sqltypes.NewBigInt(7),
	}
	skip := NewSkipMask(2)
	HashRow(s, r, OpInsert, skip) // warm the pool
	if n := testing.AllocsPerRun(100, func() {
		HashRow(s, r, OpInsert, skip)
	}); n > 1 {
		t.Fatalf("HashRow allocates %.1f times per call, want <= 1", n)
	}
}

func TestHashBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	a, b, c := []byte("block-header"), make([]byte, 32), make([]byte, 64)
	HashBytes(a, b, c) // warm the pool
	if n := testing.AllocsPerRun(100, func() {
		HashBytes(a, b, c)
	}); n > 1 {
		t.Fatalf("HashBytes allocates %.1f times per call, want <= 1", n)
	}
}

func TestSerializeDeterministic(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeBigInt),
		sqltypes.Col("b", sqltypes.TypeFloat),
		sqltypes.Col("c", sqltypes.TypeVarBinary),
		sqltypes.Col("d", sqltypes.TypeDateTime),
	})
	r := sqltypes.Row{
		sqltypes.NewBigInt(-5),
		sqltypes.NewFloat(3.14),
		sqltypes.NewVarBinary([]byte{1, 2, 3}),
		sqltypes.Value{Type: sqltypes.TypeDateTime, I64: 1234567890},
	}
	a := SerializeRow(nil, s, r, OpInsert, nil)
	b := SerializeRow(nil, s, r, OpInsert, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("serialization not deterministic")
	}
	if a[0] != Version {
		t.Fatal("missing version byte")
	}
}

func TestValueChangesChangeHash(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeBigInt),
		sqltypes.Col("b", sqltypes.TypeNVarChar),
	})
	base := HashRow(s, sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewNVarChar("x")}, OpInsert, nil)
	if HashRow(s, sqltypes.Row{sqltypes.NewBigInt(2), sqltypes.NewNVarChar("x")}, OpInsert, nil) == base {
		t.Fatal("integer change not reflected")
	}
	if HashRow(s, sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewNVarChar("y")}, OpInsert, nil) == base {
		t.Fatal("string change not reflected")
	}
}

func TestHashBytesBoundaries(t *testing.T) {
	// Length-prefixing must prevent boundary-shifting collisions.
	if HashBytes([]byte("ab"), []byte("c")) == HashBytes([]byte("a"), []byte("bc")) {
		t.Fatal("HashBytes boundary collision")
	}
	if HashBytes() == HashBytes([]byte{}) {
		t.Fatal("zero-part and one-empty-part must differ")
	}
}

func TestOpTypeString(t *testing.T) {
	if OpInsert.String() != "INSERT" || OpDelete.String() != "DELETE" {
		t.Fatal("op names wrong")
	}
	if OpType(9).String() != "OP(9)" {
		t.Fatal("unknown op rendering wrong")
	}
}

// bench260B is the benchmark's row: a key and 240 bytes of filler.
func bench260B() (*sqltypes.Schema, sqltypes.Row) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("id", sqltypes.TypeBigInt),
		sqltypes.Col("filler", sqltypes.TypeVarChar),
	})
	return s, sqltypes.Row{sqltypes.NewBigInt(12345), sqltypes.NewVarChar(strings.Repeat("a", 240))}
}

func BenchmarkHashRow260B(b *testing.B) {
	s, r := bench260B()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashRow(s, r, OpInsert, nil)
	}
}
