package core

import (
	"bytes"
	"strings"
	"testing"

	"sqlledger/internal/engine"
)

// TestSystemRowCutIsAFinding: a sys_ledger_blocks or
// sys_ledger_transactions row cut by one byte is no row at all. Verify
// reports it as an invariant-2 or -3 issue naming the block or the
// transaction, a fresh or standing auditor reports the same, and nothing
// panics.
func TestSystemRowCutIsAFinding(t *testing.T) {
	cases := []struct {
		name      string
		invariant int
		target    func(*testing.T, *matrixFixture) (*engine.Table, []byte)
		block     int64
		detail    string
	}{
		{"blocks", 2, func(_ *testing.T, f *matrixFixture) (*engine.Table, []byte) {
			return f.l.shards[0].sysBlocks, blockKey(1)
		}, 1, "block 1: its sys_ledger_blocks row does not decode"},
		{"transactions", 3, func(t *testing.T, f *matrixFixture) (*engine.Table, []byte) {
			return f.l.shards[0].entries.table, f.txKeyInBlock(t, 2, nil)
		}, 2, ": its sys_ledger_transactions row does not decode"},
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
				tab, key := tc.target(t, f)
				want := tc.detail
				if tc.invariant == 3 {
					want = "transaction " + keyName(key) + want
				}
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

// TestNonCanonicalNullFlagIsAFinding: a stored ledger row whose NULL flag
// byte reads 0x80 instead of 0 decoded as the same row while the codec
// took any flag but 1 for "not NULL", so the edit verified green. The flag
// is 0 or 1 now, and Verify reports the row.
func TestNonCanonicalNullFlagIsAFinding(t *testing.T) {
	f := newMatrixFixture(t)
	tab, key := f.lt.Table(), acctKey(2)
	var raw []byte
	tab.ScanRangeStored(key, nil, func(_, stored []byte) bool {
		raw = bytes.Clone(stored)
		return false
	})
	// One header byte (the value count), then value 0's type tag and flag.
	if raw[2] != 0 {
		t.Fatalf("value 0 of %x is not a non-NULL value", raw)
	}
	raw[2] = 0x80
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
