package core

import (
	"strings"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// The tamper matrix: one storage-level mutation per ledger surface. It is
// the single list both the Verify tests (verify_test.go: expected
// invariants plus the golden issue lists) and the Auditor tests
// (auditor_test.go: Verify-vs-Auditor differential plus localisation) run,
// so the two can never again cover different cases.

// matrixFixture is the ledger every matrix case starts from: 3-transaction
// blocks, nine single-insert transactions, one update and one delete (so
// the history table is populated), everything drained into the system
// tables and every block closed.
type matrixFixture struct {
	l  *DB
	lt *LedgerTable
	d0 Digest // taken after the nine inserts
	d  Digest // covers the whole fixture
}

func newMatrixFixture(t *testing.T) *matrixFixture {
	t.Helper()
	l := openTestLedger(t, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d0 := seedAccounts(t, l, lt, 9)
	tx := l.Begin("u")
	if err := tx.Update(lt, account(acctName(0), 777)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = l.Begin("u")
	if err := tx.Delete(lt, sqltypes.NewNVarChar(acctName(1))); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := l.Checkpoint(); err != nil { // entries into sys_ledger_transactions
		t.Fatal(err)
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return &matrixFixture{l: l, lt: lt, d0: d0, d: d}
}

func acctKey(i int) []byte { return sqltypes.EncodeKey(nil, sqltypes.NewNVarChar(acctName(i))) }

// tamperRow rewrites one stored row in place.
func (f *matrixFixture) tamperRow(t *testing.T, tab *engine.Table, key []byte, indexes bool, mutate func(sqltypes.Row) sqltypes.Row) {
	t.Helper()
	if err := f.l.Engine().TamperUpdateRow(tab, key, mutate, indexes); err != nil {
		t.Fatal(err)
	}
}

func (f *matrixFixture) deleteRow(t *testing.T, tab *engine.Table, key []byte) {
	t.Helper()
	if err := f.l.Engine().TamperDeleteRow(tab, key, true); err != nil {
		t.Fatal(err)
	}
}

// cutStoredRow drops the last byte of the row stored under key.
func (f *matrixFixture) cutStoredRow(t *testing.T, tab *engine.Table, key []byte) {
	t.Helper()
	var raw []byte
	tab.ScanRangeStored(key, nil, func(_, stored []byte) bool {
		raw = stored[:len(stored)-1]
		return false
	})
	if err := f.l.Engine().TamperSetStoredRow(tab, key, raw); err != nil {
		t.Fatal(err)
	}
}

// flipByte returns a mutation flipping the last byte of binary column col.
func flipByte(col int) func(sqltypes.Row) sqltypes.Row {
	return func(r sqltypes.Row) sqltypes.Row {
		b := append([]byte(nil), r[col].Bytes...)
		b[len(b)-1] ^= 0xFF
		r[col].Bytes = b
		return r
	}
}

// txKeyInBlock returns the key of the first sys_ledger_transactions row at
// or after block b that pred accepts (nil = any).
func (f *matrixFixture) txKeyInBlock(t *testing.T, b int64, pred func(sqltypes.Row) bool) []byte {
	t.Helper()
	var key []byte
	f.l.entries.table.Scan(func(k []byte, r sqltypes.Row) bool {
		if r[1].Int() >= b && (pred == nil || pred(r)) {
			key = append([]byte(nil), k...)
			return false
		}
		return true
	})
	if key == nil {
		t.Fatalf("no transaction entry at or after block %d", b)
	}
	return key
}

func (f *matrixFixture) balanceIndex(t *testing.T, table string) *engine.Index {
	t.Helper()
	ix, err := f.l.Engine().CreateIndex(table, "ix_balance", "balance")
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func firstIndexEntry(tab *engine.Table, ix *engine.Index) []byte {
	var entryKey []byte
	tab.ScanIndex(ix, func(ek, _ []byte) bool {
		entryKey = append([]byte(nil), ek...)
		return false
	})
	return entryKey
}

// orphanRow is an accounts row version whose transaction ids are in no
// ledger entry; history rows also carry the end columns.
func orphanRow(history bool) sqltypes.Row {
	full := sqltypes.Row{
		sqltypes.NewNVarChar("mallory"), sqltypes.NewBigInt(1 << 50),
		sqltypes.NewBigInt(999999), sqltypes.NewBigInt(1),
		sqltypes.NewNull(sqltypes.TypeBigInt), sqltypes.NewNull(sqltypes.TypeBigInt),
	}
	if history {
		full[4], full[5] = sqltypes.NewBigInt(999999), sqltypes.NewBigInt(2)
	}
	return full
}

// tamperCase is one row of the matrix.
type tamperCase struct {
	name string
	// tamper mutates the fixture and returns the digests Verify runs with.
	tamper func(t *testing.T, f *matrixFixture) []Digest
	// want lists the invariants Verify must flag (0 = the unnumbered view
	// check). Empty means the run must stay Ok, warnings allowed.
	want []int
	// digestOnly marks a fault in the digest input rather than in the
	// database: the Auditor takes no digests and must stay green.
	digestOnly bool
	// localised checks what the Auditor's bisection pinned (nil: only the
	// differential assertions apply).
	localised func(t *testing.T, f *matrixFixture, rep *TamperReport)
}

var tamperMatrix = []tamperCase{
	{
		name:   "clean",
		tamper: func(t *testing.T, f *matrixFixture) []Digest { return []Digest{f.d0, f.d} },
	},

	// --- Invariant 1: digests vs blocks ---
	{
		name: "digest block rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			// The chain head: nothing links to it, so only the digest (and
			// the count it now contradicts) can tell.
			f.tamperRow(t, f.l.sysBlocks, blockKey(int64(f.d.BlockID)), true, func(r sqltypes.Row) sqltypes.Row {
				r[3] = sqltypes.NewBigInt(r[3].Int() + 1) // transaction_count
				return r
			})
			return []Digest{f.d}
		},
		want: []int{1, 3},
	},
	{
		name: "digest for a missing block",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.d.BlockID += 10
			return []Digest{f.d}
		},
		want:       []int{1},
		digestOnly: true,
	},
	{
		name: "digest hash unparsable",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.d.Hash = "not-hex"
			return []Digest{f.d}
		},
		want:       []int{1},
		digestOnly: true,
	},
	{
		name: "digest for a truncated block",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			if err := f.l.TruncateLedger(f.d0.BlockID + 1); err != nil {
				t.Fatal(err)
			}
			return []Digest{f.d0}
		},
		digestOnly: true,
	},
	{
		name: "digest from another incarnation",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.d.Incarnation++
			f.d.BlockID += 10
			return []Digest{f.d}
		},
		digestOnly: true,
	},

	// --- Invariant 2: block chain ---
	{
		name: "block root rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.l.sysBlocks, blockKey(1), true, flipByte(2))
			return nil
		},
		want: []int{2, 3},
	},
	{
		name: "block gap",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.deleteRow(t, f.l.sysBlocks, blockKey(1))
			return nil
		},
		want: []int{2, 3},
	},
	{
		name: "first block missing",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.deleteRow(t, f.l.sysBlocks, blockKey(0))
			return nil
		},
		want: []int{2},
	},

	// --- Invariant 3: block transaction roots ---
	{
		name: "block count mismatch",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.l.sysBlocks, blockKey(1), true, func(r sqltypes.Row) sqltypes.Row {
				r[3] = sqltypes.NewBigInt(r[3].Int() + 1) // transaction_count
				return r
			})
			return nil
		},
		want: []int{3},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Block != 1 {
				t.Fatalf("localized %v, want block 1", rep)
			}
		},
	},
	{
		name: "entry principal rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.l.entries.table, f.txKeyInBlock(t, 0, nil), true, func(r sqltypes.Row) sqltypes.Row {
				r[4] = sqltypes.NewNVarChar("mallory")
				return r
			})
			return nil
		},
		want: []int{3},
	},
	{
		name: "entry deleted",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			// A seed transaction: its row version is orphaned too.
			f.deleteRow(t, f.l.entries.table, f.txKeyInBlock(t, 2, nil))
			return nil
		},
		want: []int{3, 4},
	},
	{
		name: "entry ordinal rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			key := f.txKeyInBlock(t, 2, func(r sqltypes.Row) bool { return r[2].Int() == 1 })
			f.tamperRow(t, f.l.entries.table, key, true, func(r sqltypes.Row) sqltypes.Row {
				r[2] = sqltypes.NewBigInt(7) // ordinal_in_block: 0, 2, 7
				return r
			})
			return nil
		},
		want: []int{3},
	},
	{
		name: "entry table root rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			// A seed transaction (block >= 2) touched only the accounts
			// table, so the bisection must name both tx and table.
			f.tamperRow(t, f.l.entries.table, f.txKeyInBlock(t, 2, nil), true, flipByte(5))
			return nil
		},
		want: []int{3, 4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			var txID uint64
			f.l.entries.table.Scan(func(_ []byte, r sqltypes.Row) bool {
				if r[1].Int() >= 2 {
					txID = uint64(r[0].Int())
					return false
				}
				return true
			})
			if rep.TxID != txID || rep.Table != f.lt.Name() {
				t.Fatalf("localized %v, want tx %d in %s", rep, txID, f.lt.Name())
			}
		},
	},

	// --- Invariant 4: table row versions ---
	{
		name: "base row rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.lt.Table(), acctKey(2), true, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewBigInt(1_000_000)
				return r
			})
			return nil
		},
		want: []int{4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != f.lt.Name() || rep.TxID == 0 {
				t.Fatalf("localized %v, want a transaction in %s", rep, f.lt.Name())
			}
			// The seed transaction wrote exactly one row, so the bisection
			// can name it.
			if !strings.Contains(rep.Key, acctName(2)) {
				t.Fatalf("report did not name the damaged row %s: %v", acctName(2), rep)
			}
		},
	},
	{
		name: "history row rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.lt.History(), firstKeyOf(t, f.lt.History()), true, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewBigInt(42) // rewrite the historical balance
				return r
			})
			return nil
		},
		want: []int{4},
	},
	{
		name: "history row deleted",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.deleteRow(t, f.lt.History(), firstKeyOf(t, f.lt.History()))
			return nil
		},
		want: []int{4},
	},
	{
		name: "base row deleted",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.deleteRow(t, f.lt.Table(), acctKey(2))
			return nil
		},
		want: []int{4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != f.lt.Name() || !strings.Contains(rep.Detail, "no row versions remain") {
				t.Fatalf("localized %v, want completeness failure in %s", rep, f.lt.Name())
			}
		},
	},
	{
		name: "orphan base row",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			if _, err := f.l.Engine().TamperInsertRow(f.lt.Table(), orphanRow(false), true); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		want: []int{4},
	},
	{
		name: "orphan history row",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			if _, err := f.l.Engine().TamperInsertRow(f.lt.History(), orphanRow(true), true); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		want: []int{4},
	},
	{
		// The §3.2 attack: flip a column's declared type without touching
		// values.
		name: "column type swapped",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			if err := f.l.Engine().TamperColumnType(f.lt.Table(), "balance", sqltypes.TypeInt); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		want: []int{4},
	},

	// A value's stored type tag rewritten to one that lays the same value
	// out alike: every read of the row now returns another type, under
	// what used to be an unchanged hash.
	{
		name: "base row type tag rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.lt.Table(), acctKey(2), true, func(r sqltypes.Row) sqltypes.Row {
				r[0] = sqltypes.NewVarBinary([]byte(r[0].Str)) // name: NVARCHAR -> VARBINARY
				return r
			})
			return nil
		},
		want: []int{4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != f.lt.Name() || rep.TxID == 0 || !strings.Contains(rep.Key, acctName(2)) {
				t.Fatalf("localized %v, want the transaction and row %s in %s", rep, acctName(2), f.lt.Name())
			}
		},
	},
	{
		name: "history row type tag rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.tamperRow(t, f.lt.History(), firstKeyOf(t, f.lt.History()), true, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewInt(int32(r[1].Int())) // balance: BIGINT -> INT
				return r
			})
			return nil
		},
		want: []int{4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != f.lt.Name() || rep.TxID == 0 {
				t.Fatalf("localized %v, want a transaction in %s", rep, f.lt.Name())
			}
		},
	},
	// Stored bytes that are no row at all: a finding, not a panic.
	{
		name: "base row bytes cut short",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.cutStoredRow(t, f.lt.Table(), acctKey(2))
			return nil
		},
		want: []int{4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != f.lt.Name() || !strings.Contains(rep.Detail, acctName(2)) {
				t.Fatalf("localized %v, want row %s of %s", rep, acctName(2), f.lt.Name())
			}
		},
	},
	{
		name: "history row bytes cut short",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.cutStoredRow(t, f.lt.History(), firstKeyOf(t, f.lt.History()))
			return nil
		},
		want: []int{4},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != f.lt.History().Name() {
				t.Fatalf("localized %v, want a row of %s", rep, f.lt.History().Name())
			}
		},
	},

	// --- Invariant 5: nonclustered indexes ---
	{
		name: "base row rewritten, index stale",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.balanceIndex(t, "accounts")
			f.tamperRow(t, f.lt.Table(), acctKey(2), false /* leave indexes stale */, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewBigInt(31337)
				return r
			})
			return nil
		},
		want: []int{4, 5},
	},
	{
		name: "index entry repointed",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			ix := f.balanceIndex(t, "accounts")
			entry := firstIndexEntry(f.lt.Table(), ix)
			if err := f.l.Engine().TamperIndexEntry(f.lt.Table(), ix, entry, []byte{0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		want: []int{5},
		localised: func(t *testing.T, f *matrixFixture, rep *TamperReport) {
			if rep.Table != "accounts" || rep.Key == "" {
				t.Fatalf("localized %v, want an index entry in accounts", rep)
			}
		},
	},
	{
		name: "history index entry repointed",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			ix := f.balanceIndex(t, f.lt.History().Name())
			entry := firstIndexEntry(f.lt.History(), ix)
			if err := f.l.Engine().TamperIndexEntry(f.lt.History(), ix, entry, []byte{0xbe, 0xef}); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		want: []int{5},
	},

	// --- Ledger-view definitions ---
	{
		name: "view definition rewritten",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			// sys_ledger_views is keyed by a BIGINT table id, which
			// encodes like a block id.
			f.tamperRow(t, f.l.sysViews, blockKey(int64(f.lt.ID())), true, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewNVarChar("CREATE VIEW accounts_ledger AS SELECT 'fooled you'")
				return r
			})
			return nil
		},
		want: []int{0},
	},
	{
		name: "view definition deleted",
		tamper: func(t *testing.T, f *matrixFixture) []Digest {
			f.deleteRow(t, f.l.sysViews, blockKey(int64(f.lt.ID())))
			return nil
		},
		want: []int{0},
	},
}
