package sqltypes_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"
	"time"

	. "sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

func codecRow() Row {
	return Row{
		NewBigInt(-42),
		NewNVarChar("naïve"),
		NewNull(TypeFloat),
		NewFloat(math.Inf(-1)),
		NewVarBinary([]byte{0, 1, 0xff}),
		NewVarChar(""),
		NewBinary(nil),
		NewDateTime(time.Unix(1_700_000_000, 5)),
		{Type: TypeUniqueID, Bytes: []byte{1, 2, 3, 15: 0}},
		NewBit(true),
		NewTinyInt(255),
		NewSmallInt(math.MinInt16),
		NewInt(math.MaxInt32),
		NewDecimal(math.MinInt64),
	}
}

func TestEncodedRowLen(t *testing.T) {
	rows := []Row{nil, {}, codecRow(), {NewBigInt(math.MaxInt64), NewBigInt(63), NewBigInt(64), NewBigInt(-64), NewBigInt(-65)}}
	big := make(Row, 200) // a two-byte header
	for i := range big {
		big[i] = NewVarChar(string(make([]byte, i)))
	}
	for _, r := range append(rows, big) {
		if got, want := EncodedRowLen(r), len(EncodeRow(nil, r)); got != want {
			t.Errorf("EncodedRowLen(%v) = %d, EncodeRow wrote %d bytes", r, got, want)
		}
	}
}

func TestDecodeRowVariantsAgree(t *testing.T) {
	want := codecRow()
	enc := EncodeRow(nil, want)
	aliased, err := DecodeRowAlias(nil, enc, nil)
	if err != nil || !aliased.Equal(want) {
		t.Fatalf("DecodeRowAlias = %v, %v; want %v", aliased, err, want)
	}
	if err := CheckRow(enc); err != nil {
		t.Fatalf("CheckRow: %v", err)
	}
	// The decoded row points into its input.
	for i := range enc {
		enc[i] ^= 0xff
	}
	if aliased.Equal(want) {
		t.Error("DecodeRowAlias copied its strings and binaries")
	}
}

func TestDecodeRowAliasReusesAndPads(t *testing.T) {
	cols := []Column{Col("a", TypeBigInt), Col("b", TypeNVarChar), NullableCol("c", TypeSmallInt), NullableCol("d", TypeVarBinary)}
	narrow := EncodeRow(nil, Row{NewBigInt(1), NewNVarChar("x")})
	buf := make(Row, 0, 8)
	got, err := DecodeRowAlias(buf, narrow, cols)
	if err != nil {
		t.Fatal(err)
	}
	want := Row{NewBigInt(1), NewNVarChar("x"), NewNull(TypeSmallInt), NewNull(TypeVarBinary)}
	if !got.Equal(want) {
		t.Fatalf("padded row = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("a buffer with room was not reused")
	}
	if padded := AppendRowPadded(nil, narrow, cols); !bytes.Equal(padded, EncodeRow(nil, want)) {
		t.Errorf("AppendRowPadded = %x, want the encoding of the padded row %x", padded, EncodeRow(nil, want))
	}
	// A second, shorter row decoded into the same buffer leaves nothing of
	// the first behind.
	got, err = DecodeRowAlias(got, EncodeRow(nil, Row{NewBigInt(2)}), cols[:1])
	if err != nil || !got.Equal(Row{NewBigInt(2)}) {
		t.Fatalf("reused buffer = %v, %v", got, err)
	}
	// A row as wide as the schema, or wider, goes out as it is.
	wide := EncodeRow(nil, want)
	if padded := AppendRowPadded(nil, wide, cols[:2]); !bytes.Equal(padded, wide) {
		t.Errorf("AppendRowPadded changed a row that needs no padding")
	}
	// A fresh row has room for the padding it is about to get.
	fresh, err := DecodeRowAlias(nil, narrow, cols)
	if err != nil || len(fresh) != 4 || cap(fresh) != 4 {
		t.Fatalf("fresh padded row has len %d cap %d (%v), want 4 and 4", len(fresh), cap(fresh), err)
	}
}

func TestDecodeColumns(t *testing.T) {
	cols := make([]Column, 16)
	for i := range cols {
		cols[i] = NullableCol(string(rune('a'+i)), TypeSmallInt)
	}
	row := codecRow()
	enc := EncodeRow(nil, row)
	ords := []int{4, 1, 15, 1, 0}
	out := make([]Value, len(ords))
	if err := DecodeColumns(out, enc, ords, cols); err != nil {
		t.Fatal(err)
	}
	want := Row{row[4], row[1], NewNull(TypeSmallInt), row[1], row[0]}
	if !Row(out).Equal(want) {
		t.Fatalf("DecodeColumns = %v, want %v", Row(out), want)
	}
	// The last value lies behind all the others: wherever the row is cut,
	// in a value stepped over or in the one wanted, the walk must fail.
	for cut := 0; cut < len(enc); cut++ {
		if err := DecodeColumns(out[:1], enc[:cut], []int{len(row) - 1}, cols); err == nil {
			t.Errorf("a row cut at byte %d of %d decoded its last column", cut, len(enc))
		}
	}
}

func TestDecodeRowRejectsMalformed(t *testing.T) {
	good := EncodeRow(nil, Row{NewBigInt(1), NewNVarChar("abc")})
	edit := func(i int, c byte) []byte {
		b := bytes.Clone(good)
		b[i] = c
		return b
	}
	nvarchar := []byte{byte(TypeNVarChar), 3, 'a', 'b', 'c'}
	for name, b := range map[string][]byte{
		"empty":            nil,
		"count past input": {200, 1},
		"truncated":        good[:len(good)-1],
		"trailing":         append(append([]byte(nil), good...), 0),
		"length past end":  {1, byte(TypeVarChar), 9, 'x'},
		"huge count":       binary.AppendUvarint(nil, math.MaxUint64),
		// Non-canonical: bytes EncodeRow never writes, which would read
		// as the same row as bytes it does.
		"header bit 4":         edit(1, byte(TypeBigInt)|0x10),
		"header bit 6":         edit(1, byte(TypeBigInt)|0x40),
		"header bit 5 of NULL": edit(3, byte(TypeNVarChar)|0xa0),
		"type 0":               edit(1, 0),
		"NULL of type 0":       edit(1, 0x80),
		"type past the last":   edit(1, byte(TypeUniqueID+1)),
		"two-byte count":       append([]byte{0x82, 0, byte(TypeBigInt), 2}, nvarchar...),
		"two-byte integer":     append([]byte{2, byte(TypeBigInt), 0x82, 0}, nvarchar...),
		"two-byte length":      {1, byte(TypeNVarChar), 0x83, 0, 'a', 'b', 'c'},
		"two-byte float bits":  {1, byte(TypeFloat), 0x80, 0},
		"payload of a NULL":    {1, byte(TypeFloat) | 0x80, 0},
		"undefined NULL's tag": {1, 0xff},
	} {
		if err := CheckRow(b); err == nil {
			t.Errorf("%s: CheckRow accepted %x", name, b)
		}
		if _, err := DecodeRowAlias(nil, b, nil); err == nil {
			t.Errorf("%s: DecodeRowAlias accepted %x", name, b)
		}
		if _, err := SpliceBigInts(b, nil, nil, nil); err == nil {
			t.Errorf("%s: SpliceBigInts accepted %x", name, b)
		}
	}
}

// goldenAfterImages returns the encoded rows of the INSERT records of the
// WAL's golden version-1 log (len u32 | crc u32 | type u8 | txid u64 |
// payload; the payloads did not change in version 2), each re-encoded
// with the one-byte value headers of version 5 (v4Row): rows as a real
// build logged them.
func goldenAfterImages(f *testing.F) [][]byte {
	b, err := os.ReadFile("../wal/testdata/wal_v1.golden.log")
	if err != nil {
		f.Fatal(err)
	}
	var rows [][]byte
	for len(b) >= 17 {
		plen := int(binary.LittleEndian.Uint32(b))
		if plen > len(b)-17 {
			break
		}
		if wal.RecordType(b[8]) == wal.RecInsert {
			// tableID uvarint | keyLen uvarint | key | after
			p := b[17 : 17+plen]
			_, n := binary.Uvarint(p)
			k, m := binary.Uvarint(p[n:])
			rows = append(rows, v4Row(f, p[n+m+int(k):]))
		}
		b = b[17+plen:]
	}
	if len(rows) != 6 {
		f.Fatalf("golden log yielded %d INSERT after-images, want 6", len(rows))
	}
	return rows
}

// v4Row re-encodes a row of format versions 1–4, whose values open with a
// type byte and a NULL byte of 0 or 1, with version 5's header: one byte,
// the type with bit 7 set for NULL. The payloads are the same.
func v4Row(f *testing.F, b []byte) []byte {
	n, pos := binary.Uvarint(b)
	out := binary.AppendUvarint(nil, n)
	for i := uint64(0); i < n; i++ {
		if pos+2 > len(b) || b[pos+1] > 1 {
			f.Fatalf("%x is no version-4 row", b)
		}
		t, null := TypeID(b[pos]), b[pos+1] == 1
		out = append(out, byte(t)|b[pos+1]<<7)
		if pos += 2; null {
			continue
		}
		u, sz := binary.Uvarint(b[pos:])
		end := pos + sz
		if t.IsString() || t.IsBytes() {
			end += int(u)
		}
		out, pos = append(out, b[pos:end]...), end
	}
	if err := CheckRow(out); err != nil {
		f.Fatalf("%x re-encoded as %x: %v", b, out, err)
	}
	return out
}

// FuzzDecodeRow feeds arbitrary bytes to the row decoder, through which
// every stored row passes on every read. It must never panic, never
// allocate more than a fixed multiple of what the input holds, agree with
// CheckRow and DecodeColumns, and whatever decodes must re-encode — in
// exactly EncodedRowLen bytes — to the input itself.
func FuzzDecodeRow(f *testing.F) {
	for _, row := range goldenAfterImages(f) {
		f.Add(row)
	}
	f.Add(EncodeRow(nil, codecRow()))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Add([]byte{3, byte(TypeVarChar), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{1, byte(TypeBigInt) | 0x40, 2}) // a header bit that is neither type nor NULL
	f.Add([]byte{1, 0x8f})                       // an undefined type's NULL
	f.Add([]byte{1, byte(TypeBigInt), 0x82, 0})  // an integer in two bytes that needs one
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeRowAlias(nil, data, nil)
		if checkErr := CheckRow(data); (checkErr == nil) != (err == nil) {
			t.Fatalf("CheckRow says %v, DecodeRowAlias says %v", checkErr, err)
		}
		if err != nil {
			return
		}
		// A value takes at least its header's bytes of input.
		if len(row) > len(data)/ValueHeaderLen {
			t.Fatalf("%d values decoded from %d bytes", len(row), len(data))
		}
		enc := EncodeRow(nil, row)
		if len(enc) != EncodedRowLen(row) {
			t.Fatalf("EncodedRowLen = %d, EncodeRow wrote %d bytes", EncodedRowLen(row), len(enc))
		}
		// The codec is canonical: what decodes is what EncodeRow writes.
		if !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes to %v, which encodes as %x", data, row, enc)
		}
		ords := []int{len(row) - 1, 0, len(row)}
		some := make([]Value, len(ords))
		cols := make([]Column, len(row)+1)
		if len(row) > 0 {
			if err := DecodeColumns(some, enc, ords, cols); err != nil ||
				!some[0].Equal(row[len(row)-1]) || !some[1].Equal(row[0]) || !some[2].Null {
				t.Fatalf("DecodeColumns%v of %v = %v (%v)", ords, row, some, err)
			}
		}
	})
}

// BenchmarkDecodeRowAlias is the cost a point read pays over returning a
// stored []Value: one allocation and a walk of a 17-column row. "visible"
// is the read of a ledger table — the first 13 columns of that row through
// DecodeColumns, the last four stepped over — beside "twin", the whole
// 13-column row of its regular twin: the two must cost the same.
func BenchmarkDecodeRowAlias(b *testing.B) {
	row := make(Row, 17)
	cols := make([]Column, len(row))
	for i := range row {
		row[i] = NewBigInt(int64(i) * 1000)
	}
	row[3], row[9] = NewNVarChar("OUGHTABLEPRES"), NewVarChar(string(make([]byte, 50)))
	enc := EncodeRow(nil, row)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRowAlias(nil, enc, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var buf Row
		for i := 0; i < b.N; i++ {
			buf, _ = DecodeRowAlias(buf, enc, cols)
		}
	})
	visible := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	b.Run("visible", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeColumns(make(Row, len(visible)), enc, visible, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	twin := EncodeRow(nil, row[:len(visible)])
	b.Run("twin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRowAlias(nil, twin, cols[:len(visible)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// checkSplice holds SpliceBigInts and DecodeColumns against what they
// replace, for one stored row b under a schema of width columns: the
// splice of (v0, v1) at ordinals (ord, ord+gap) must be the row decoded,
// edited and re-encoded, in an allocation of exactly its size, and the
// columns picked by mask must be those values of the decoded row. Bytes
// that are no row must fail the splice as they fail the decoder.
func checkSplice(t *testing.T, b []byte, width, ord, gap int, v0, v1 int64, mask uint64) {
	t.Helper()
	n := 0
	if u, sz := binary.Uvarint(b); sz > 0 && u <= uint64(len(b)) {
		n = int(u)
	}
	width = max(width, n) // a schema is at least as wide as any row stored under it
	cols := make([]Column, width)
	for i := range cols {
		cols[i] = NullableCol("c", TypeID(1+i%int(TypeUniqueID)))
	}
	ords := []int{ord % max(width, 1), 0}
	ords[1] = ords[0] + 1 + gap%max(width, 1)
	if ords[1] >= width {
		ords = ords[:1]
	}
	vals := []int64{v0, v1}[:len(ords)]

	full, decErr := DecodeRowAlias(nil, b, cols)
	spliced, err := SpliceBigInts(b, cols, ords, vals)
	if width == 0 {
		return
	}
	if (err == nil) != (decErr == nil) {
		t.Fatalf("DecodeRowAlias says %v, SpliceBigInts says %v", decErr, err)
	}
	// Whatever the row, a projection must not panic, and may fail only
	// where the whole decode does.
	var pick []int
	for i := 0; i < width; i++ {
		if mask&(1<<(i%64)) != 0 {
			pick = append(pick, i)
		}
	}
	some := make(Row, len(pick))
	if err := DecodeColumns(some, b, pick, cols); err != nil && decErr == nil {
		t.Fatalf("DecodeColumns%v failed on a row that decodes: %v", pick, err)
	}
	if decErr != nil {
		return
	}
	for j, o := range pick {
		if !some[j].Equal(full[o]) || some[j].Type != full[o].Type {
			t.Fatalf("DecodeColumns%v[%d] = %v, the row holds %v", pick, j, some[j], full[o])
		}
	}
	if cap(spliced) != len(spliced) {
		t.Fatalf("spliced image has len %d cap %d", len(spliced), cap(spliced))
	}
	// Byte identity is promised for rows as EncodeRow writes them; any
	// other spelling the splice accepts must still splice to the same row.
	canonical := bytes.Equal(EncodeRow(nil, full[:n]), b)
	for i, o := range ords {
		full[o] = NewBigInt(vals[i])
	}
	if want := EncodeRow(nil, full); canonical && !bytes.Equal(spliced, want) {
		t.Fatalf("splice at %v of %x\n got %x\nwant %x", ords, b, spliced, want)
	}
	back, err := DecodeRowAlias(nil, spliced, cols)
	if err != nil || !back.Equal(full) {
		t.Fatalf("spliced image decodes to %v (%v), want %v", back, err, full)
	}
}

// TestSpliceBigIntsEqualsDecodeEditEncode walks the shapes a ledger table's
// history image takes: end columns last in the row, end columns followed by
// columns added later, a row stored before an ADD COLUMN (narrower than the
// schema, with the spliced ordinals inside it and in the padding), previous
// end values NULL and set, and the extreme transaction ids.
func TestSpliceBigIntsEqualsDecodeEditEncode(t *testing.T) {
	hidden := func(endTx, endSeq Value) Row {
		return Row{NewBigInt(7), NewBigInt(1), endTx, endSeq}
	}
	null := NewNull(TypeBigInt)
	user := codecRow()[:5]
	for _, row := range []Row{
		append(user.Clone(), hidden(null, null)...),
		append(user.Clone(), hidden(NewBigInt(math.MaxInt64), NewBigInt(3))...),
		append(append(user.Clone(), hidden(null, null)...), NewNVarChar("added later"), NewNull(TypeInt)),
		append(append(user.Clone(), hidden(NewBigInt(-1), NewBigInt(0))...), NewNull(TypeNVarChar)),
		{},
	} {
		b := EncodeRow(nil, row)
		for _, width := range []int{len(row), len(row) + 1, len(row) + 3} {
			for _, vals := range [][2]int64{{0, 0}, {math.MinInt64, math.MaxInt64}, {1 << 40, -(1 << 20)}} {
				for ord := 0; ord < width; ord++ {
					checkSplice(t, b, width, ord, 0, vals[0], vals[1], 0x5555_5555_5555_5555)
					checkSplice(t, b, width, ord, 2, vals[0], vals[1], ^uint64(0))
				}
			}
		}
	}
	// Malformed bytes fail, never panic.
	good := EncodeRow(nil, append(user.Clone(), hidden(null, null)...))
	for cut := 0; cut < len(good); cut++ {
		checkSplice(t, good[:cut], 9, 7, 0, 1, 2, ^uint64(0))
	}
	checkSplice(t, append(good[:len(good):len(good)], 0), 9, 7, 0, 1, 2, 1)
}

// FuzzSpliceBigInts is checkSplice over arbitrary bytes, schema widths,
// ordinals, values and projections.
func FuzzSpliceBigInts(f *testing.F) {
	for _, row := range goldenAfterImages(f) {
		f.Add(row, uint8(0), uint8(3), uint8(0), int64(1), int64(2), uint64(0xff))
	}
	f.Add(EncodeRow(nil, codecRow()), uint8(20), uint8(12), uint8(0), int64(math.MinInt64), int64(math.MaxInt64), ^uint64(0))
	f.Add(EncodeRow(nil, codecRow()[:4]), uint8(9), uint8(6), uint8(1), int64(-1), int64(0), uint64(0x1f))
	f.Add([]byte{2, byte(TypeBigInt) | 0x20, 0x80, 0x00, byte(TypeBigInt) | 0x80}, uint8(4), uint8(0), uint8(0), int64(5), int64(6), uint64(3))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64), uint8(3), uint8(1), uint8(0), int64(0), int64(0), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, width, ord, gap uint8, v0, v1 int64, mask uint64) {
		checkSplice(t, data, int(width), int(ord), int(gap), v0, v1, mask)
	})
}
