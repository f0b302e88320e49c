package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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

// newDraw returns a source of numbers below n, all drawn from seed.
func newDraw(seed uint64) func(n uint64) uint64 {
	bits := seed
	return func(n uint64) uint64 {
		v := bits % n
		bits = bits/n*6364136223846793005 + 1442695040888963407
		return v
	}
}

// fuzzColumns derives a schema for row from next: each column typed as
// the value stored in it or, now and then, as something else; some
// dropped; up to 3 columns the row predates.
func fuzzColumns(row sqltypes.Row, next func(uint64) uint64) []sqltypes.Column {
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
	return cols
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
	next := newDraw(seed)
	cols := fuzzColumns(row, next)
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

// oracleAppendEncoded is AppendEncoded as it was before Walk: the second
// of the two walks the verification kernel used to make, kept as the
// oracle for the words of Walk's serr.
func oracleAppendEncoded(l *Layout, dst, stored []byte, op OpType, skip SkipMask) ([]byte, error) {
	width, pos := sqltypes.Uvarint(stored)
	if pos <= 0 {
		return dst, fmt.Errorf("serial: bad row header")
	}
	if width > uint64(len(l.headers)) {
		return dst, fmt.Errorf("serial: row of %d values under a schema of %d columns", width, len(l.headers))
	}
	start := len(dst)
	dst = append(dst, Version, byte(op), 0)
	n, typed := 0, true
	for i := 0; i < int(width); i++ {
		if pos+sqltypes.ValueHeaderLen > len(stored) {
			return dst[:start], fmt.Errorf("serial: row truncated at value %d", i)
		}
		tag, null, next, err := sqltypes.ValueHeader(stored, pos, i)
		if err != nil {
			return dst[:start], err
		}
		pos = next
		if null {
			typed = typed && tag == l.cols[i].Type
			continue
		}
		keep := !skip.Has(i)
		if keep {
			n++
			typed = typed && tag == l.cols[i].Type
			dst = append(dst, l.headers[i]...)
		}
		u, sz := sqltypes.Uvarint(stored[pos:])
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

// sameError reports whether two errors are both nil or say the same.
func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkWalk holds Walk to the two walks it replaces, for stored bytes that
// may be no row at all, under a schema derived from seed (fuzzColumns) and
// up to four distinct hidden ordinals below its width, in any order, and
// an insert mask of two ordinals, the most Walk takes: the hidden integers
// and err are sqltypes.DecodeColumns' values and error; asked for no side
// there is no serr; asked for both, serr is oracleAppendEncoded's error,
// which is there exactly when the row does not decode (DecodeRowAlias) or
// is wider than the schema, and otherwise the sides are SerializeRow of
// the decoded, padded row under op and skip and under OpDelete with no
// mask, and each side asked for alone is the same. A failing walk leaves
// both sides as they were.
func checkWalk(t *testing.T, stored []byte, seed uint64) {
	t.Helper()
	next := newDraw(seed)
	row, rowErr := sqltypes.DecodeRowAlias(nil, stored, nil)
	if rowErr != nil {
		// Any width will do for bytes that are no row; a header the
		// bytes cannot hold yields one.
		n, _ := binary.Uvarint(stored)
		row = make(sqltypes.Row, min(n, 8))
		for i := range row {
			row[i].Type = sqltypes.TypeID(next(16))
		}
	}
	cols := fuzzColumns(row, next)
	if len(cols) == 0 {
		return // no hidden column to read: checkEncoded's case
	}
	layout := NewLayout(cols)
	ords := []int{int(next(uint64(len(cols))))}
	for range 3 {
		if o := int(next(uint64(len(cols) + 1))); o < len(cols) {
			ords = append(ords, o)
		}
	}
	slices.Sort(ords)
	ords = slices.Compact(ords)
	if next(4) == 0 { // out of order, as DecodeColumns allows
		slices.Reverse(ords)
	}
	op, skip := OpType(1+next(2)), NewSkipMask(int(next(uint64(len(cols)+1))), int(next(uint64(len(cols)+1))))

	want := make([]sqltypes.Value, len(ords))
	wantErr := sqltypes.DecodeColumns(want, stored, ords, cols)
	check := func(hidden []int64, err error) {
		t.Helper()
		if !sameError(err, wantErr) {
			t.Fatalf("ords %v of %x: Walk err %v, DecodeColumns %v", ords, stored, err, wantErr)
		}
		for j := range ords {
			if wantErr == nil && hidden[j] != want[j].Int() {
				t.Fatalf("ords %v of %x: Walk reads %v, DecodeColumns %v", ords, stored, hidden, want)
			}
		}
	}

	hidden := make([]int64, len(ords))
	err, serr := layout.Walk(stored, ords, hidden, op, skip, nil, nil)
	check(hidden, err)
	if serr != nil {
		t.Fatalf("asked for no side, Walk of %x fails with %v", stored, serr)
	}

	ins, del := []byte{0xaa}, []byte{0xbb}
	err, serr = layout.Walk(stored, ords, hidden, op, skip, &ins, &del)
	check(hidden, err)
	if err != nil {
		if !bytes.Equal(ins, []byte{0xaa}) || !bytes.Equal(del, []byte{0xbb}) {
			t.Fatalf("a failed walk wrote %x and %x", ins, del)
		}
		return
	}
	wantIns, wantSerr := oracleAppendEncoded(layout, []byte{0xaa}, stored, op, skip)
	wantDel, _ := oracleAppendEncoded(layout, []byte{0xbb}, stored, OpDelete, nil)
	if !sameError(serr, wantSerr) {
		t.Fatalf("ords %v of %x under %d columns: Walk serr %v, two walks %v", ords, stored, len(cols), serr, wantSerr)
	}
	if (wantSerr != nil) != (rowErr != nil || len(row) > len(cols)) {
		t.Fatalf("%x: the old transcoder says %v, DecodeRowAlias %v over %d of %d columns", stored, wantSerr, rowErr, len(row), len(cols))
	}
	if wantSerr != nil {
		if !bytes.Equal(ins, []byte{0xaa}) || !bytes.Equal(del, []byte{0xbb}) {
			t.Fatalf("a walk that failed with %v wrote %x and %x", serr, ins, del)
		}
		return
	}
	padded, err := sqltypes.DecodeRowAlias(nil, stored, cols)
	if err != nil {
		t.Fatal(err)
	}
	schema := &sqltypes.Schema{Columns: cols}
	if !bytes.Equal(ins, wantIns) || !bytes.Equal(ins, SerializeRow([]byte{0xaa}, schema, padded, op, skip)) {
		t.Fatalf("insert side of %v: Walk %x, two walks %x", padded, ins, wantIns)
	}
	if !bytes.Equal(del, wantDel) || !bytes.Equal(del, SerializeRow([]byte{0xbb}, schema, padded, OpDelete, nil)) {
		t.Fatalf("delete side of %v: Walk %x, two walks %x", padded, del, wantDel)
	}
	one := []byte{0xcc}
	if err, serr := layout.Walk(stored, ords, hidden, op, skip, &one, nil); err != nil || serr != nil || !bytes.Equal(one[1:], ins[1:]) {
		t.Fatalf("insert side alone of %v: %x, %v, %v; with the delete side %x", padded, one, err, serr, ins)
	}
	check(hidden, nil)
	one = one[:1]
	if err, serr := layout.Walk(stored, ords, hidden, op, skip, nil, &one); err != nil || serr != nil || !bytes.Equal(one[1:], del[1:]) {
		t.Fatalf("delete side alone of %v: %x, %v, %v; with the insert side %x", padded, one, err, serr, del)
	}
	check(hidden, nil)
}

// walkSeeds are encodedSeeds and what can go wrong with them: each cut
// short at every length, with a byte too many, and with a hidden end
// column whose integer does not end (the tamper matrix's history row).
func walkSeeds() [][]byte {
	var seeds [][]byte
	for _, stored := range encodedSeeds() {
		seeds = append(seeds, stored, append(slices.Clip(stored), 0))
		for cut := 0; cut < len(stored) && cut < 64; cut++ {
			seeds = append(seeds, stored[:cut])
		}
	}
	ended := sqltypes.EncodeRow(nil, ledgerRow("acct-0041", 41, 6, 37, 9, 1))
	return append(seeds, append(ended[:len(ended)-1:len(ended)-1], 0xff))
}

func TestWalkMatchesTwoWalks(t *testing.T) {
	for _, stored := range walkSeeds() {
		for seed := uint64(0); seed < 60; seed++ {
			checkWalk(t, stored, seed*0x9e3779b97f4a7c15)
		}
	}
}

// FuzzHashEncoded is checkEncoded and checkWalk over arbitrary bytes and
// schemas.
func FuzzHashEncoded(f *testing.F) {
	for i, stored := range encodedSeeds() {
		f.Add(stored, uint64(i))
	}
	f.Add([]byte{1, byte(sqltypes.TypeVarChar), 0x81, 0x00, 'x'}, uint64(7)) // a two-byte varint for length 1: not canonical, refused
	for i, stored := range walkSeeds() {
		if i%7 == 0 {
			f.Add(stored, uint64(i))
		}
	}
	f.Add([]byte{1, byte(sqltypes.TypeBigInt) | 0x40, 2}, uint64(3))                                  // a header bit that is neither type nor NULL: refused
	f.Add([]byte{2, byte(sqltypes.TypeBigInt) | 0x80, byte(sqltypes.TypeVarChar), 1, 'x'}, uint64(5)) // a NULL's header byte is all of it
	f.Fuzz(func(t *testing.T, stored []byte, seed uint64) {
		checkEncoded(t, stored, seed)
		checkWalk(t, stored, seed)
	})
}

// TestMistypedValueChangesHash: a value stored under another type's tag
// that serializes alike must not hash alike, in either entry point — nor
// may a NULL, which is left out of the serialization, whether or not a
// mask leaves its column out too.
func TestMistypedValueChangesHash(t *testing.T) {
	s := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("name", sqltypes.TypeVarChar), sqltypes.NullableCol("balance", sqltypes.TypeBigInt),
	})
	layout := NewLayout(s.Columns)
	for _, skip := range []SkipMask{nil, NewSkipMask(1)} {
		honest, tampered := sqltypes.Row{sqltypes.NewVarChar("alice"), sqltypes.NewNull(sqltypes.TypeBigInt)}, sqltypes.Row{sqltypes.NewVarChar("alice"), sqltypes.NewNull(sqltypes.TypeInt)}
		h, err := layout.HashEncoded(sqltypes.EncodeRow(nil, tampered), OpInsert, skip)
		if err != nil || h != HashRow(s, tampered, OpInsert, skip) || h == HashRow(s, honest, OpInsert, skip) {
			t.Fatalf("mask %v: a NULL tagged INT hashes to %s (%v), as BIGINT to %s", skip, h, err, HashRow(s, honest, OpInsert, skip))
		}
	}
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
