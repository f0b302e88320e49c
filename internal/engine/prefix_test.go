package engine

import (
	"bytes"
	"testing"

	"sqlledger/internal/sqltypes"
)

func TestPrefixRangeBounds(t *testing.T) {
	start, end := PrefixRange(sqltypes.NewBigInt(7))
	if len(start) == 0 || end == nil {
		t.Fatalf("range = %x..%x", start, end)
	}
	if bytes.Compare(start, end) >= 0 {
		t.Fatal("start must sort before end")
	}
	// A key with the prefix sorts inside the range; the next prefix
	// value's key sorts at-or-after end.
	inside := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(7), sqltypes.NewBigInt(1))
	outside := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(8))
	if bytes.Compare(inside, start) < 0 || bytes.Compare(inside, end) >= 0 {
		t.Fatal("key with prefix outside range")
	}
	if bytes.Compare(outside, end) < 0 {
		t.Fatal("next prefix value inside range")
	}
}

func TestPrefixRangeAllFF(t *testing.T) {
	// A prefix of all 0xFF bytes has no upper bound: end == nil means
	// "scan to the maximum key".
	if end := prefixEnd([]byte{0xFF, 0xFF}); end != nil {
		t.Fatalf("end = %x, want nil", end)
	}
	if end := prefixEnd([]byte{0xFF, 0x01}); !bytes.Equal(end, []byte{0xFF, 0x02}) {
		t.Fatalf("end = %x", end)
	}
	if end := prefixEnd([]byte{0x01, 0xFF}); !bytes.Equal(end, []byte{0x02}) {
		t.Fatalf("end = %x (carry must shorten the key)", end)
	}
}

func TestScanRangeUnboundedEnd(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	for i := int64(0); i < 5; i++ {
		tx.Insert(tab, kv(i, "v"))
	}
	commit(t, db, tx)
	tx = db.Begin("u")
	defer tx.Rollback()
	start := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(3))
	n := 0
	tx.ScanRange(tab, start, nil, func(_ []byte, _ sqltypes.Row) bool {
		n++
		return true
	})
	if n != 2 {
		t.Fatalf("scanned %d rows from key 3, want 2", n)
	}
}

func TestLookupIndexPrefixMissingBaseRow(t *testing.T) {
	// An index entry whose base row was tampered away is skipped by point
	// lookups (verification invariant 5 reports the divergence).
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	ix, err := db.CreateIndex("t", "ix_v", "v")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	commit(t, db, tx)
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1))
	if err := db.TamperDeleteRow(tab, key, false /* leave the index */); err != nil {
		t.Fatal(err)
	}
	hits := 0
	tab.LookupIndexPrefix(ix, []sqltypes.Value{sqltypes.NewNVarChar("x")}, func(_ []byte, _ sqltypes.Row) bool {
		hits++
		return true
	})
	if hits != 0 {
		t.Fatalf("dangling index entry produced %d hits", hits)
	}
}

// TestIndexEntryOfAnotherTypeNamesNoRow: an index entry is split into its
// values and the clustered key by the indexed columns' types, so an entry
// built from a value of another type scans without a panic and names no
// row, whether the split fails (a 0x00 0x05 inside the BIGINT is no
// escape) or lands in the wrong place. A tamper that stores such values
// with the indexes updated, as TamperUpdateRow allows, leaves them no
// entry (EntryKeyStored); the entries they would have had are planted as
// a hand-edited index would hold them.
func TestIndexEntryOfAnotherTypeNamesNoRow(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	ix, err := db.CreateIndex("t", "ix_v", "v")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin("u")
	tx.Insert(tab, kv(1, "x"))
	tx.Insert(tab, kv(2, "y"))
	commit(t, db, tx)
	planted := map[int64]int64{1: 0x0005 << 48, 2: 7}
	for k, v := range planted {
		key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(k))
		if err := db.TamperUpdateRow(tab, key, func(r sqltypes.Row) sqltypes.Row {
			r[1] = sqltypes.NewBigInt(v)
			return r
		}, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.tree.Len(); n != 0 {
		t.Fatalf("rows whose v is a BIGINT left %d index entries", n)
	}
	for k, v := range planted {
		ix.tree.Put(append(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(v)), sqltypes.EncodeKey(nil, sqltypes.NewBigInt(k))...), struct{}{})
	}
	entries := 0
	tab.ScanIndex(ix, func(ek, ck []byte) bool {
		entries++
		if tab.Has(ck) {
			t.Errorf("entry %x names row %x", ek, ck)
		}
		return true
	})
	if entries != 2 {
		t.Fatalf("scanned %d entries, want 2", entries)
	}
}
