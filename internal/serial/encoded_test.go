package serial

import (
	"bytes"
	"fmt"
	"testing"

	"sqlledger/internal/sqltypes"
)

// ledgerRow is a row as a ledger table stores it: user columns, then the
// four hidden ones, the end pair NULL while the version is live.
func ledgerRow(name string, balance, startTx, startSeq int64, end ...int64) sqltypes.Row {
	r := sqltypes.Row{
		sqltypes.NewNVarChar(name), sqltypes.NewBigInt(balance),
		sqltypes.NewBigInt(startTx), sqltypes.NewBigInt(startSeq),
		sqltypes.NewNull(sqltypes.TypeBigInt), sqltypes.NewNull(sqltypes.TypeBigInt),
	}
	if len(end) == 2 {
		r[4], r[5] = sqltypes.NewBigInt(end[0]), sqltypes.NewBigInt(end[1])
	}
	return r
}

// everyTypeRow holds one value of every type id, a NULL, and one of a type
// id the catalog does not know.
func everyTypeRow() sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewBit(true), {Type: sqltypes.TypeTinyInt, I64: 200}, sqltypes.NewSmallInt(-7),
		sqltypes.NewInt(1 << 20), sqltypes.NewBigInt(-1 << 40), sqltypes.NewFloat(-2.5),
		sqltypes.NewDecimal(123456), {Type: sqltypes.TypeChar, Str: "ab"}, sqltypes.NewVarChar(""),
		sqltypes.NewNVarChar("héllo"), {Type: sqltypes.TypeBinary, Bytes: []byte{0, 1}},
		sqltypes.NewVarBinary(nil), {Type: sqltypes.TypeDateTime, I64: 1_700_000_000_000_000_000},
		{Type: sqltypes.TypeUniqueID, Bytes: bytes.Repeat([]byte{0xab}, 16)},
		sqltypes.NewNull(sqltypes.TypeVarChar), {Type: 200, I64: 9},
	}
}

// wideRow has n BIGINT values, every seventh NULL: past 127 of them the
// column count takes a two-byte varint.
func wideRow(n int) sqltypes.Row {
	r := make(sqltypes.Row, n)
	for i := range r {
		r[i] = sqltypes.NewBigInt(int64(i) * 1001)
		if i%7 == 6 {
			r[i] = sqltypes.NewNull(sqltypes.TypeBigInt)
		}
	}
	return r
}

// encodedSeeds are stored rows of the shapes verification meets: the live
// and ended versions TestByteIdentityWithParent's history writes, every
// type, and a 130-column row.
func encodedSeeds() [][]byte {
	var seeds [][]byte
	for _, r := range []sqltypes.Row{
		ledgerRow("acct-0000", 0, 2, 0), ledgerRow("acct-0041", 41, 6, 37, 9, 1),
		everyTypeRow(), wideRow(130), {},
	} {
		seeds = append(seeds, sqltypes.EncodeRow(nil, r))
	}
	return seeds
}

// checkEncoded holds the two entry points of the one format together: for
// stored bytes that are a row, under a schema at least as wide derived
// from seed — each column typed as the value stored in it or, now and
// then, as something else; some dropped; up to 3 columns the row predates
// — AppendEncoded is SerializeRow of the decoded, padded row and
// HashEncoded its HashRow, for both operations and for no mask, the end
// columns' mask and one of seed's choosing. Bytes that are no row, and
// rows wider than the schema, must fail.
func checkEncoded(t *testing.T, stored []byte, seed uint64) {
	t.Helper()
	row, err := sqltypes.DecodeRowAlias(nil, stored, nil)
	if err != nil {
		if _, err := NewLayout(make([]sqltypes.Column, 200)).HashEncoded(stored, OpInsert, nil); err == nil {
			t.Fatalf("CheckRow rejects %x, HashEncoded hashes it", stored)
		}
		return
	}
	bits := seed
	next := func(n uint64) uint64 {
		v := bits % n
		bits = bits/n*6364136223846793005 + 1442695040888963407
		return v
	}
	cols := make([]sqltypes.Column, len(row)+int(next(4)))
	for i := range cols {
		c := sqltypes.Column{Name: fmt.Sprintf("c%d", i), Ordinal: i, Type: sqltypes.TypeBigInt, Nullable: true}
		if i < len(row) {
			c.Type = row[i].Type
		}
		switch next(8) {
		case 0:
			c.Type = sqltypes.TypeID(next(16)) // most likely not the stored tag
		case 1:
			c.Dropped = true
		case 2:
			c.Len, c.Prec, c.Scale = int(next(300)), int(next(40)), int(next(20))
		}
		cols[i] = c
	}
	schema, layout := &sqltypes.Schema{Columns: cols}, NewLayout(cols)
	padded, err := sqltypes.DecodeRowAlias(nil, stored, cols)
	if err != nil {
		t.Fatal(err)
	}
	masks := []SkipMask{nil, NewSkipMask(max(len(cols)-2, 0), max(len(cols)-1, 0)), NewSkipMask(int(next(uint64(len(cols)+1))), 0)}
	for _, op := range []OpType{OpInsert, OpDelete} {
		for _, skip := range masks {
			want := SerializeRow([]byte{0xaa}, schema, padded, op, skip)
			got, err := layout.AppendEncoded([]byte{0xaa}, stored, op, skip)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("op %v skip %v of %v under %v:\nAppendEncoded %x (%v)\nSerializeRow  %x", op, skip, padded, schema, got, err, want)
			}
			if h, err := layout.HashEncoded(stored, op, skip); err != nil || h != HashRow(schema, padded, op, skip) {
				t.Fatalf("HashEncoded = %s (%v), HashRow = %s", h, err, HashRow(schema, padded, op, skip))
			}
		}
	}
	if len(row) > 0 {
		if _, err := NewLayout(cols[:len(row)-1]).HashEncoded(stored, OpInsert, nil); err == nil {
			t.Fatalf("a row of %d values hashed under a schema of %d columns", len(row), len(row)-1)
		}
	}
}

func TestHashEncodedMatchesHashRow(t *testing.T) {
	for _, stored := range encodedSeeds() {
		for seed := uint64(0); seed < 200; seed++ {
			checkEncoded(t, stored, seed*0x9e3779b97f4a7c15)
		}
		checkEncoded(t, stored[:len(stored)/2], 1) // cut short: no row
	}
}

// FuzzHashEncoded is checkEncoded over arbitrary bytes and schemas.
func FuzzHashEncoded(f *testing.F) {
	for i, stored := range encodedSeeds() {
		f.Add(stored, uint64(i))
	}
	f.Add([]byte{1, byte(sqltypes.TypeVarChar), 0, 0x81, 0x00, 'x'}, uint64(7)) // a two-byte varint for length 1
	f.Fuzz(checkEncoded)
}

// TestMistypedValueChangesHash: a value stored under another type's tag
// that serializes alike must not hash alike, in either entry point.
func TestMistypedValueChangesHash(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("name", sqltypes.TypeVarChar), sqltypes.Col("balance", sqltypes.TypeBigInt),
	})
	layout := NewLayout(s.Columns)
	honest := sqltypes.Row{sqltypes.NewVarChar("alice"), sqltypes.NewBigInt(5)}
	for _, tampered := range []sqltypes.Row{
		{sqltypes.NewVarBinary([]byte("alice")), sqltypes.NewBigInt(5)},
		{sqltypes.NewVarChar("alice"), sqltypes.NewInt(5)},
	} {
		if HashRow(s, tampered, OpInsert, nil) == HashRow(s, honest, OpInsert, nil) {
			t.Fatalf("HashRow: %v hashes as %v", tampered, honest)
		}
		h, err := layout.HashEncoded(sqltypes.EncodeRow(nil, tampered), OpInsert, nil)
		if err != nil || h != HashRow(s, tampered, OpInsert, nil) || h == HashRow(s, honest, OpInsert, nil) {
			t.Fatalf("HashEncoded: %v hashes to %s (%v)", tampered, h, err)
		}
	}
}

// TestHashEncodedAllocs: hashing a stored row allocates nothing.
func TestHashEncodedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	s, r := bench260B()
	layout, stored := NewLayout(s.Columns), sqltypes.EncodeRow(nil, r)
	layout.HashEncoded(stored, OpInsert, nil) // warm the pool
	if n := testing.AllocsPerRun(100, func() { layout.HashEncoded(stored, OpInsert, nil) }); n > 0 {
		t.Fatalf("HashEncoded allocates %.1f times per call", n)
	}
}

func BenchmarkHashEncoded260B(b *testing.B) {
	s, r := bench260B()
	layout, stored := NewLayout(s.Columns), sqltypes.EncodeRow(nil, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		layout.HashEncoded(stored, OpInsert, nil)
	}
}
