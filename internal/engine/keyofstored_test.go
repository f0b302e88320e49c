package engine

import (
	"bytes"
	"testing"

	"sqlledger/internal/sqltypes"
)

// FuzzKeyOfStored: the key redo derives from a logged or snapshot image
// must be the key the writer computed from the row (KeyFor, which is
// sqltypes.EncodeRowKey). For every row DecodeRowAlias accepts, narrower
// rows than the schema included, KeyOfStored returns EncodeRowKey of the
// decoded row — appended to what dst holds — or, when a key column is
// missing or NULL, an error. No input panics. The tables have a
// one-column key, a composite key out of ordinal order, and a key at the
// end of a wide schema, which a narrow row lacks.
func FuzzKeyOfStored(f *testing.F) {
	cols := []sqltypes.Column{
		sqltypes.Col("a", sqltypes.TypeBigInt),
		sqltypes.Col("b", sqltypes.TypeNVarChar),
		sqltypes.Col("c", sqltypes.TypeVarBinary),
		sqltypes.NullableCol("d", sqltypes.TypeFloat),
		sqltypes.Col("e", sqltypes.TypeInt),
	}
	var tables []*Table
	for _, key := range [][]string{{"a"}, {"c", "a"}, {"e"}} {
		s := sqltypes.MustSchema(cols, key...)
		tables = append(tables, newTable(&TableMeta{Name: "t", Schema: s}))
	}
	full := sqltypes.Row{sqltypes.NewBigInt(-7), sqltypes.NewNVarChar("x\x00y"),
		sqltypes.NewVarBinary([]byte{0, 0xff}), sqltypes.NewFloat(2.5), sqltypes.NewInt(9)}
	for i := range tables {
		f.Add(uint8(i), sqltypes.EncodeRow(nil, full))
		f.Add(uint8(i), sqltypes.EncodeRow(nil, full[:3])) // narrower than the schema
		nullKey := append(sqltypes.Row(nil), full...)
		nullKey[0], nullKey[4] = sqltypes.NewNull(sqltypes.TypeBigInt), sqltypes.NewNull(sqltypes.TypeInt)
		f.Add(uint8(i), sqltypes.EncodeRow(nil, nullKey))
	}
	f.Add(uint8(0), []byte{0x05, 0x05, 0x00}) // claims five values, holds a truncated one
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		tab := tables[int(which)%len(tables)]
		got, err := tab.KeyOfStored([]byte("dst"), b)
		row, derr := sqltypes.DecodeRowAlias(nil, b, tab.meta.Schema.Columns)
		if derr != nil {
			return // refused or derived from the key columns alone: CheckRow refuses b before redo derives
		}
		keyless := false
		for _, ord := range tab.meta.Schema.Key {
			keyless = keyless || row[ord].Null
		}
		switch {
		case keyless && err == nil:
			t.Fatalf("row %v with a NULL key column has key %x", row, got)
		case keyless:
		case err != nil:
			t.Fatalf("row %v: %v", row, err)
		case !bytes.Equal(got, append([]byte("dst"), sqltypes.EncodeRowKey(tab.meta.Schema, row)...)):
			t.Fatalf("row %v: derived key %x, EncodeRowKey %x", row, got[3:], sqltypes.EncodeRowKey(tab.meta.Schema, row))
		}
	})
}

// BenchmarkKeyOfStored is what redo pays per keyed INSERT or UPDATE record
// to derive the key the log leaves out: a two-BIGINT key at the head of an
// eight-column row, as on tpcc's stock and order-line tables.
func BenchmarkKeyOfStored(b *testing.B) {
	cols := []sqltypes.Column{
		sqltypes.Col("w", sqltypes.TypeBigInt), sqltypes.Col("i", sqltypes.TypeBigInt),
		sqltypes.Col("qty", sqltypes.TypeInt), sqltypes.Col("dist", sqltypes.TypeChar),
		sqltypes.Col("ytd", sqltypes.TypeBigInt), sqltypes.Col("orders", sqltypes.TypeInt),
		sqltypes.Col("remote", sqltypes.TypeInt), sqltypes.Col("data", sqltypes.TypeVarChar),
	}
	tab := newTable(&TableMeta{Name: "stock", Schema: sqltypes.MustSchema(cols, "w", "i")})
	stored := sqltypes.EncodeRow(nil, sqltypes.Row{
		sqltypes.NewBigInt(2), sqltypes.NewBigInt(41_377), sqltypes.NewInt(57),
		sqltypes.NewChar("abcdefghijklmnopqrstuvwx"), sqltypes.NewBigInt(1200), sqltypes.NewInt(7),
		sqltypes.NewInt(0), sqltypes.NewVarChar("some stock data of about forty bytes ....."),
	})
	b.ReportAllocs()
	var dst []byte
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = tab.KeyOfStored(dst[:0], stored); err != nil {
			b.Fatal(err)
		}
	}
}
