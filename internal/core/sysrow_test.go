package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// TestSystemRowCutIsAFinding: a ledger system-table row cut by one byte
// is no row at all. Verify reports it — a sys_ledger_blocks row as an
// invariant-2 issue naming the block, a sys_ledger_transactions row as an
// invariant-3 issue naming the transaction, a sys_ledger_views row as a
// view issue naming the table, a sys_ledger_truncations row as an
// invariant-4 issue naming the truncation — a fresh or standing auditor
// reports the same, and nothing panics.
func TestSystemRowCutIsAFinding(t *testing.T) {
	cases := []struct {
		name      string
		invariant int
		// target returns the row to cut and the detail naming it.
		target func(*testing.T, *matrixFixture) (tab *engine.Table, key []byte, want string)
		block  int64
	}{
		{"blocks", 2, func(_ *testing.T, f *matrixFixture) (*engine.Table, []byte, string) {
			return f.l.sysBlocks, blockKey(1), "block 1: its sys_ledger_blocks row does not decode"
		}, 1},
		{"transactions", 3, func(t *testing.T, f *matrixFixture) (*engine.Table, []byte, string) {
			key := f.txKeyInBlock(t, 2, nil)
			return f.l.entries.table, key, "transaction " + keyName(key) + ": its sys_ledger_transactions row does not decode"
		}, 2},
		{"views", 0, func(_ *testing.T, f *matrixFixture) (*engine.Table, []byte, string) {
			id := f.lt.ID()
			return f.l.sysViews, sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(id))),
				fmt.Sprintf("table %d: its sys_ledger_views row does not decode", id)
		}, -1},
		{"truncations", 4, func(t *testing.T, f *matrixFixture) (*engine.Table, []byte, string) {
			if err := f.l.TruncateLedger(1); err != nil {
				t.Fatal(err)
			}
			var err error
			if f.d, err = f.l.GenerateDigest(); err != nil {
				t.Fatal(err)
			}
			return f.l.truncations.table, sqltypes.EncodeKey(nil, sqltypes.NewBigInt(1)),
				"truncation 1: its sys_ledger_truncations row does not decode"
		}, -1},
	}
	for _, tc := range cases {
		for _, mode := range []string{"fresh", "standing"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				f := newMatrixFixture(t)
				var a *Auditor
				if mode == "standing" {
					a = newAuditor(t, f.l, 1)
					cycleOK(t, a)
				}
				tab, key, want := tc.target(t, f)
				f.cutStoredRow(t, tab, key)

				rep, err := f.l.Verify([]Digest{f.d}, VerifyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				named := false
				for _, i := range rep.Issues {
					named = named || (i.Invariant == tc.invariant && strings.Contains(i.Detail, want))
				}
				if rep.Ok() || !named {
					t.Fatalf("Verify does not report invariant %d %q:\n%s", tc.invariant, want, rep)
				}

				if a == nil {
					a = newAuditor(t, f.l, 1)
				}
				tr := cycleFinds(t, a)
				if tr.Invariant != tc.invariant || tr.Block != tc.block || !strings.Contains(tr.Detail, want) {
					t.Fatalf("auditor reported %+v, want invariant %d at block %d naming %q", tr, tc.invariant, tc.block, want)
				}
			})
		}
	}
}

// TestSystemRowRetaggedIntegerIsAFinding: a system integer re-tagged as
// another 8-byte type (BIGINT as DATETIME) still decodes, and .Int() reads
// the same number, so the row hashed as it did and the edit verified green.
// A system row is now held to its schema, as a write would be: Verify and
// a fresh or standing auditor each report the row, naming its block or
// transaction.
func TestSystemRowRetaggedIntegerIsAFinding(t *testing.T) {
	cases := []struct {
		name      string
		invariant int
		col       int // the BIGINT column re-tagged
		target    func(*testing.T, *matrixFixture) (tab *engine.Table, key []byte, want string)
		block     int64
	}{
		{"blocks", 2, 3, func(_ *testing.T, f *matrixFixture) (*engine.Table, []byte, string) {
			return f.l.sysBlocks, blockKey(1), "block 1: its sys_ledger_blocks row does not decode"
		}, 1},
		{"transactions", 3, 2, func(t *testing.T, f *matrixFixture) (*engine.Table, []byte, string) {
			key := f.txKeyInBlock(t, 2, nil)
			return f.l.entries.table, key, "transaction " + keyName(key) + ": its sys_ledger_transactions row does not decode"
		}, 2},
	}
	for _, tc := range cases {
		for _, mode := range []string{"fresh", "standing"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				f := newMatrixFixture(t)
				var a *Auditor
				if mode == "standing" {
					a = newAuditor(t, f.l, 1)
					cycleOK(t, a)
				}
				tab, key, want := tc.target(t, f)
				var row sqltypes.Row
				tab.ScanRangeStored(key, nil, func(_, stored []byte) bool {
					var err error
					if row, err = sqltypes.DecodeRowAlias(nil, stored, nil); err != nil {
						t.Fatal(err)
					}
					return false
				})
				if row[tc.col].Type != sqltypes.TypeBigInt {
					t.Fatalf("column %d of the row is %s, not BIGINT", tc.col, row[tc.col].Type)
				}
				row[tc.col].Type = sqltypes.TypeDateTime
				if err := f.l.Engine().TamperSetStoredRow(tab, key, sqltypes.EncodeRow(nil, row)); err != nil {
					t.Fatal(err)
				}

				rep, err := f.l.Verify([]Digest{f.d}, VerifyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				named := false
				for _, i := range rep.Issues {
					named = named || (i.Invariant == tc.invariant && strings.Contains(i.Detail, want))
				}
				if rep.Ok() || !named {
					t.Fatalf("Verify does not report invariant %d %q:\n%s", tc.invariant, want, rep)
				}

				if a == nil {
					a = newAuditor(t, f.l, 1)
				}
				tr := cycleFinds(t, a)
				if tr.Invariant != tc.invariant || tr.Block != tc.block || !strings.Contains(tr.Detail, want) {
					t.Fatalf("auditor reported %+v, want invariant %d at block %d naming %q", tr, tc.invariant, tc.block, want)
				}
			})
		}
	}
}

// TestNonCanonicalNullFlagIsAFinding: a stored ledger row whose NULL flag
// byte read 0x80 instead of 0 decoded as the same row while the codec
// took any flag but 1 for "not NULL", so the edit verified green. Since
// format version 5 the flag is bit 7 of a value's one header byte, and a
// header with a bit set that is neither the type's nor the flag — here
// bit 6 — is refused, so Verify reports the row.
func TestNonCanonicalNullFlagIsAFinding(t *testing.T) {
	f := newMatrixFixture(t)
	tab, key := f.lt.Table(), acctKey(2)
	var raw []byte
	tab.ScanRangeStored(key, nil, func(_, stored []byte) bool {
		raw = bytes.Clone(stored)
		return false
	})
	// One byte of row header (the value count), then value 0's header.
	if raw[1] != byte(sqltypes.TypeNVarChar) {
		t.Fatalf("value 0 of %x is not a non-NULL NVARCHAR", raw)
	}
	raw[1] |= 0x40
	if err := f.l.Engine().TamperSetStoredRow(tab, key, raw); err != nil {
		t.Fatal(err)
	}
	rep, err := f.l.Verify([]Digest{f.d}, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	named := false
	for _, i := range rep.Issues {
		named = named || (i.Table == "accounts" && strings.Contains(i.Detail, acctName(2)))
	}
	if rep.Ok() || !named {
		t.Fatalf("Verify does not name row %s:\n%s", acctName(2), rep)
	}
}
