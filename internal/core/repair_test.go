package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// makeBackup checkpoints the database and opens an independent copy of
// its directory as the "restored backup" (§3.7 assumes earlier backups
// can be restored and verified).
func makeBackup(t *testing.T, l *DB, blockSize uint32) *DB {
	t.Helper()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src := l.edb.Dir()
	dst := filepath.Join(t.TempDir(), "backup")
	copyDir(t, src, dst)
	return openLedgerAt(t, dst, blockSize)
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(src, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mkdirAll(dst); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := readFile(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFile(filepath.Join(dst, filepath.Base(e)), b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepairFromBackup(t *testing.T) {
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 6)
	// Create some history too.
	tx := l.Begin("u")
	if err := tx.Update(lt, account(acctName(0), 777)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	d2, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	digests := []Digest{d, d2}
	backup := makeBackup(t, l, 4)
	verifyOK(t, backup, digests)

	// The attack: modify a row, inject a row, delete a history row, and
	// overwrite a block header.
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(31337)
		return r
	}, true)
	l.Engine().TamperInsertRow(lt.Table(), sqltypes.Row{
		sqltypes.NewNVarChar("mallory"), sqltypes.NewBigInt(1),
		sqltypes.NewBigInt(999), sqltypes.NewBigInt(1),
		sqltypes.NewNull(sqltypes.TypeBigInt), sqltypes.NewNull(sqltypes.TypeBigInt),
	}, true)
	hKey := firstKeyOf(t, lt.History())
	l.Engine().TamperDeleteRow(lt.History(), hKey, true)
	bKey := firstKeyOf(t, l.sysBlocks)
	l.Engine().TamperUpdateRow(l.sysBlocks, bKey, func(r sqltypes.Row) sqltypes.Row {
		r[3] = sqltypes.NewBigInt(r[3].Int() + 7)
		return r
	}, true)
	verifyFails(t, l, digests, 0)

	// Dry run reports without fixing.
	rep, err := RepairFromBackup(l, backup, digests, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Actions) < 4 {
		t.Fatalf("dry run found %d actions, want >= 4:\n%s", len(rep.Actions), rep)
	}
	verifyFails(t, l, digests, 0) // still broken

	// Real repair restores everything the digests cover.
	rep, err = RepairFromBackup(l, backup, digests, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BackupVerified || len(rep.Actions) < 4 {
		t.Fatalf("repair report:\n%s", rep)
	}
	verifyOK(t, l, digests)

	// Repair is idempotent: a second run finds nothing.
	rep, err = RepairFromBackup(l, backup, digests, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Actions) != 0 {
		t.Fatalf("second repair found %d actions:\n%s", len(rep.Actions), rep)
	}
}

// TestRepairRestoresBytesThatAreNoRow: rows whose stored bytes are no row
// at all, which a decoding read panics on and TamperUpdateRow refuses — one
// overwritten, one injected and then overwritten — are reported by a dry
// run, and a real run restores the one from the backup's bytes and removes
// the other, index entries included, so the digests verify again.
func TestRepairRestoresBytesThatAreNoRow(t *testing.T) {
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	if _, err := l.Engine().CreateIndex("accounts", "ix_balance", "balance"); err != nil {
		t.Fatal(err)
	}
	digests := []Digest{seedAccounts(t, l, lt, 6)}
	backup := makeBackup(t, l, 4)

	key := firstKeyOf(t, lt.Table())
	injected, err := l.Engine().TamperInsertRow(lt.Table(), sqltypes.Row{
		sqltypes.NewNVarChar("mallory"), sqltypes.NewBigInt(1),
		sqltypes.NewBigInt(999), sqltypes.NewBigInt(1),
		sqltypes.NewNull(sqltypes.TypeBigInt), sqltypes.NewNull(sqltypes.TypeBigInt),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{key, injected} {
		if err := l.Engine().TamperSetStoredRow(lt.Table(), k, []byte{9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	verifyFails(t, l, digests, 4)
	if err := l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row { return r }, true); err == nil {
		t.Fatal("TamperUpdateRow edited a row whose bytes are no row")
	}

	want := map[string]string{fmt.Sprintf("%x", key): "restored", fmt.Sprintf("%x", injected): "removed"}
	for _, dryRun := range []bool{true, false} {
		rep, err := RepairFromBackup(l, backup, digests, dryRun)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, a := range rep.Actions {
			got[a.Key] = a.Kind
		}
		if !maps.Equal(got, want) {
			t.Fatalf("dry run %v: repair report\n%s\nwant %v", dryRun, rep, want)
		}
		if dryRun {
			verifyFails(t, l, digests, 4)
		}
	}
	verifyOK(t, l, digests)
	rt := l.BeginReadOnly()
	defer rt.Close()
	if row, ok, err := rt.Get(lt, sqltypes.NewNVarChar(acctName(0))); err != nil || !ok || row[0].Str != acctName(0) {
		t.Fatalf("restored row reads %v, %v, %v", row, ok, err)
	}
}

func TestRepairRefusesTamperedBackup(t *testing.T) {
	l := openTestLedger(t, 4)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 3)
	backup := makeBackup(t, l, 4)
	// Tamper the BACKUP: repairing from it must be refused.
	bLT, err := backup.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	key := firstKeyOf(t, bLT.Table())
	backup.Engine().TamperUpdateRow(bLT.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(666)
		return r
	}, true)
	if _, err := RepairFromBackup(l, backup, []Digest{d}, false); err == nil {
		t.Fatal("repair accepted a tampered backup")
	}
}

func mkdirAll(p string) error            { return os.MkdirAll(p, 0o755) }
func readFile(p string) ([]byte, error)  { return os.ReadFile(p) }
func writeFile(p string, b []byte) error { return os.WriteFile(p, b, 0o644) }
