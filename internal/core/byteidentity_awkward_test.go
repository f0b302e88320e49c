package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// Pinned at commit ef01f6f, the last one whose ledger DML decoded the
// before-image, edited it as []Value and re-encoded it: the three scripted
// histories below — the cases in which the history image is not simply the
// stored bytes with two values changed — must keep producing these bytes.
// The WAL and snapshot pins were re-captured when the log header grew to
// 16 bytes to carry the create time (format version 3), which changed the
// header bytes and moved every LSN, and so every snapshot file name, by 8.
// The snapshot pin was re-captured again when a snapshot became a file of
// the WAL's format (snap-<lsn>.log), holding the same catalog and rows.
// The three WAL and snapshot pins were re-captured for format version 4,
// whose keyed INSERT and UPDATE records and snapshot rows carry no key and
// whose COMMIT records do not repeat a ledger entry's transaction id, time
// and user; the digest and stored-row pins did not move. Format version 5
// gives each value of a row one header byte instead of two, which changes
// every row's bytes: the WAL, snapshot and stored-row pins were re-captured
// for it only after the stored-row semantics pins — what the rows say
// (storedSemanticsSHA), captured from commit 32ff229's version-4 rows —
// gave the same sums on version 5. The digest pin did not move.
const (
	pinAwkwardWALSHA     = "c243b7551721e288ed7cc53089954d3c9c78ae975ff2c9299890aea5764e7d36"
	pinAwkwardSnapSHA    = "4bf376eba8ddcd1807adec6c829cc746f2a5787cd64a3e52c0177e9b145647f4"
	pinAwkwardDigestSHA  = "8428b2f79657882f246a3fb641bf519ff7176ad1086ff103c5a5d0877440de61"
	pinAwkwardStoredSHA  = "2caab0390e268a0ef23f7a5000ae3471f5ca71ee5cdc29ab151a1aebed4ee490"
	pinTruncateWALSHA    = "73cffec062589967ec05cdcb0516c2ca937fd9190173c1fc39686c9ce25fe0bd"
	pinTruncateStoredSHA = "fba86c6b6153200199e66c670de6bcc073ec32df11a3860877bc4817ad2c2ef6"

	pinAwkwardStoredSemanticsSHA  = "f6c789d7a80e2a2b60e85caa5899178bf6302a70612912921b8328b7565c5e74"
	pinTruncateStoredSemanticsSHA = "9336318cec5fbe4c908b3712f99a498ef663c9f98f01de84f0492ae6f2a4265b"
)

// storedSHA hashes what a ledger table and its history table store: every
// key and every stored row, as the bytes they are.
func storedSHA(lt *LedgerTable) string {
	h := sha256.New()
	for _, t := range []*engine.Table{lt.Table(), lt.History()} {
		t.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
			var n [8]byte
			binary.BigEndian.PutUint32(n[:4], uint32(len(key)))
			binary.BigEndian.PutUint32(n[4:], uint32(len(stored)))
			h.Write(n[:])
			h.Write(key)
			h.Write(stored)
			return true
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storedSemanticsSHA is storedSHA over what each stored row says
// (rowSemantics) rather than its bytes: a change of the row codec alone
// leaves it as it was.
func storedSemanticsSHA(t *testing.T, lt *LedgerTable) string {
	h := sha256.New()
	for _, tab := range []*engine.Table{lt.Table(), lt.History()} {
		tab.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
			row := rowSemantics(t, stored)
			var n [8]byte
			binary.BigEndian.PutUint32(n[:4], uint32(len(key)))
			binary.BigEndian.PutUint32(n[4:], uint32(len(row)))
			h.Write(n[:])
			h.Write(key)
			h.Write(row)
			return true
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkPins(t *testing.T, pins []struct{ what, got, want string }) {
	t.Helper()
	for _, c := range pins {
		if c.got != c.want {
			t.Errorf("%s SHA-256 = %s, pinned %s", c.what, c.got, c.want)
		}
	}
}

// TestByteIdentityAwkwardCases extends TestByteIdentityWithParent's script
// with the DML whose history image takes more than a copy of the stored
// bytes: update and delete of rows stored before an ADD COLUMN (the image
// is padded to the schema's width), updates after a DROP COLUMN, update
// then delete of the transaction's own insert (the before-image comes from
// the overlay), a RollbackTo across updates, and rows whose previous end
// columns are not the last values of the stored row.
func TestByteIdentityAwkwardCases(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Name: "awkward", BlockSize: 1000, Clock: logicalClock()})
	must(err)
	defer l.Close()
	items, err := l.CreateLedgerTable("items", wideSchema(), engine.LedgerUpdateable)
	must(err)
	_, err = l.Engine().CreateIndex("items", "ix_items_owner", "owner")
	must(err)

	tx := l.Begin("alice")
	for id := int64(1); id <= 9; id++ {
		must(tx.Insert(items, wideRow(id, "alice")))
	}
	mustCommit(t, tx)

	must(l.AddColumn(items, sqltypes.NullableCol("note", sqltypes.TypeNVarChar)))
	note := sqltypes.NewNVarChar
	noNote := sqltypes.NewNull(sqltypes.TypeNVarChar)
	tx = l.Begin("bob")
	must(tx.Update(items, wideRow(1, "bob", note("was narrow")))) // before-image stored before ADD COLUMN
	must(tx.Delete(items, sqltypes.NewBigInt(2)))                 // likewise, deleted
	must(tx.Update(items, wideRow(3, "bob", noNote)))
	must(tx.Update(items, wideRow(3, "bob-twice", note("own update")))) // before-image in the overlay, wide
	mustCommit(t, tx)
	_, err = l.GenerateDigest()
	must(err)

	must(l.DropColumn(items, "score"))
	// "score" is gone from the visible row: id, owner, tag, qty, note.
	visible := func(id int64, owner string, note sqltypes.Value) sqltypes.Row {
		w := wideRow(id, owner)
		return sqltypes.Row{w[0], w[1], w[3], w[4], note}
	}
	tx = l.Begin("carol")
	must(tx.Update(items, visible(4, "carol", note("narrow, after drop")))) // narrow before-image with a dropped column
	must(tx.Update(items, visible(1, "carol", noNote)))                     // wide before-image with a dropped column
	must(tx.Insert(items, visible(20, "carol", note("own insert"))))
	must(tx.Update(items, visible(20, "carol-2", noNote)))
	must(tx.Delete(items, sqltypes.NewBigInt(20))) // update then delete of the transaction's own insert
	mustCommit(t, tx)

	must(l.AddColumn(items, sqltypes.NullableCol("grade", sqltypes.TypeSmallInt)))
	// Visible row now: id, owner, tag, qty, note, grade — and every row
	// stored so far has its end columns followed by a later-added column.
	graded := func(id int64, owner string, note sqltypes.Value, grade int16) sqltypes.Row {
		return append(visible(id, owner, note), sqltypes.NewSmallInt(grade))
	}
	tx = l.Begin("dave")
	must(tx.Update(items, graded(5, "dave", noNote, 1)))
	sp := tx.Savepoint()
	must(tx.Update(items, graded(6, "dave", note("rolled back"), 2)))
	must(tx.Update(items, graded(5, "dave-again", noNote, 3)))
	must(tx.Delete(items, sqltypes.NewBigInt(7)))
	must(tx.RollbackTo(sp))
	must(tx.Update(items, graded(6, "dave", note("kept"), 4)))
	must(tx.Update(items, graded(5, "dave-kept", noNote, 5))) // own update survives the rollback as before-image
	mustCommit(t, tx)

	must(l.Checkpoint())
	tx = l.Begin("erin")
	must(tx.Update(items, graded(1, "erin", note("thrice"), 6))) // end columns mid-row in the before-image
	must(tx.Delete(items, sqltypes.NewBigInt(8)))                // narrow row, two ADD COLUMNs and a DROP later
	must(tx.Delete(items, sqltypes.NewBigInt(6)))
	mustCommit(t, tx)
	must(l.Checkpoint())
	digest, err := l.GenerateDigest()
	must(err)
	verifyOK(t, l, []Digest{digest})
	for _, p := range []int{1, 2, 8} {
		rep, err := l.Verify([]Digest{digest}, VerifyOptions{Parallelism: p})
		must(err)
		if !rep.Ok() {
			t.Fatalf("Verify at parallelism %d:\n%s", p, rep)
		}
	}

	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	walSHA, checkpoints := walFramesSHA(t, filepath.Join(dir, "wal.log"), false)
	if checkpoints != 2 {
		t.Fatalf("expected 2 checkpoint frames, found %d", checkpoints)
	}
	checkPins(t, []struct{ what, got, want string }{
		{"WAL", walSHA, pinAwkwardWALSHA},
		{"snapshots", snapshotsSHA(t, dir), pinAwkwardSnapSHA},
		{"digest", sum(digest.JSON()), pinAwkwardDigestSHA},
		{"stored rows", storedSHA(items), pinAwkwardStoredSHA},
		{"stored row semantics", storedSemanticsSHA(t, items), pinAwkwardStoredSemanticsSHA},
	})
}

// TestByteIdentityTruncationRefresh pins what TruncateLedger's refreshRow
// writes: the refreshed versions of rows stored before and after an ADD
// COLUMN, in the log and in storage. The log's last frame is the
// truncation record, which carries a wall-clock reading, and is left out.
func TestByteIdentityTruncationRefresh(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Name: "truncate", BlockSize: 1000, Clock: logicalClock()})
	must(err)
	defer l.Close()
	items, err := l.CreateLedgerTable("items", wideSchema(), engine.LedgerUpdateable)
	must(err)
	block := func(fn func(tx *Tx)) Digest { // one transaction per block
		tx := l.Begin("u")
		fn(tx)
		mustCommit(t, tx)
		d, err := l.GenerateDigest()
		must(err)
		return d
	}
	block(func(tx *Tx) {
		for id := int64(1); id <= 6; id++ {
			must(tx.Insert(items, wideRow(id, "old")))
		}
	})
	must(l.AddColumn(items, sqltypes.NullableCol("note", sqltypes.TypeNVarChar)))
	old := block(func(tx *Tx) {
		must(tx.Insert(items, wideRow(7, "old-wide", sqltypes.NewNVarChar("wide"))))
		must(tx.Update(items, wideRow(2, "old-updated", sqltypes.NewNull(sqltypes.TypeNVarChar))))
		must(tx.Delete(items, sqltypes.NewBigInt(3)))
	})
	block(func(tx *Tx) { // its history row outlives the transaction that created it
		must(tx.Update(items, wideRow(4, "kept", sqltypes.NewNVarChar("above the cut"))))
	})
	must(l.TruncateLedger(old.BlockID + 1)) // refreshes rows 1, 5, 6 (narrow), 2 and 7 (wide)

	walSHA, _ := walFramesSHA(t, filepath.Join(dir, "wal.log"), true)
	stored, semantics := storedSHA(items), storedSemanticsSHA(t, items)
	digest, err := l.GenerateDigest()
	must(err)
	verifyOK(t, l, []Digest{digest})
	checkPins(t, []struct{ what, got, want string }{
		{"WAL before the truncation record", walSHA, pinTruncateWALSHA},
		{"stored rows", stored, pinTruncateStoredSHA},
		{"stored row semantics", semantics, pinTruncateStoredSemanticsSHA},
	})
}
