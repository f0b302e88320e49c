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
const (
	pinAwkwardWALSHA     = "52f94bd821eb21fc8d96a484fa39d2ca1013b7b5279c72e63445148819894ff7"
	pinAwkwardSnapSHA    = "544b7faf29cde282f14827fde01453e9dc4cb516d77a054b352eca7cc7543455"
	pinAwkwardDigestSHA  = "8428b2f79657882f246a3fb641bf519ff7176ad1086ff103c5a5d0877440de61"
	pinAwkwardStoredSHA  = "13db777fc5d75a32aa171d0375d2985bb473052da1016dc78cfd926208276ef5"
	pinTwoShardWAL0SHA   = "e79865f0dd8fd96eeaa9c9706fe27fa85561fb434e44c8ed3ce54cd965c426e3"
	pinTwoShardWAL1SHA   = "79923161043ef5bd82d54a3ca475585a1bb445d76c06ea3ec8bb88045ef25eb6"
	pinTwoShardRoot      = "0a9ae2bc33e9355293f7025cdce072526e7cb52ebcd9ba36f4f24f60c129dcca"
	pinTruncateWALSHA    = "c93a6d79c12457b8add59e3d8395bfe1f0d9e93f0116be58b639d0b96e7020ce"
	pinTruncateStoredSHA = "0166da5a16d732d5d51cea66c7d4cbcebd7e106bf3ded27cd3663778e12e1369"
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
	})
}

// TestByteIdentityTwoPhaseUpdate runs updates and a delete through 2PC
// participants — the before-images found by each shard's own transaction,
// one of them stored before an ADD COLUMN — and pins each shard's log and
// the super-root.
func TestByteIdentityTwoPhaseUpdate(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Name: "identity2", Shards: 2, BlockSize: 1000, Clock: logicalClock()})
	must(err)
	defer s.Close()
	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	must(err)
	name := func(i int) string { return acctNo(i).Str }
	tx := s.Begin("loader")
	for i := 0; i < 12; i++ {
		must(tx.Insert(st, acct(name(i), int64(i))))
	}
	must(tx.Commit())
	must(s.AddColumn(st, sqltypes.NullableCol("memo", sqltypes.TypeNVarChar)))
	a, b := 0, 1
	for st.ShardOf(acctNo(b)) == st.ShardOf(acctNo(a)) {
		b++
	}
	c := b + 1
	for st.ShardOf(acctNo(c)) != st.ShardOf(acctNo(a)) {
		c++
	}
	memo := func(r sqltypes.Row, m string) sqltypes.Row { return append(r, sqltypes.NewNVarChar(m)) }
	tx = s.Begin("bob")
	must(tx.Update(st, memo(acct(name(a), 1000), "debit")))
	must(tx.Update(st, memo(acct(name(b), 2000), "credit")))
	must(tx.Update(st, memo(acct(name(a), 900), "fee"))) // the participant's own update as before-image
	must(tx.Delete(st, acctNo(c)))
	must(tx.Commit())
	sb, err := s.CloseSuperBlock()
	must(err)

	wal0, _ := walFramesSHA(t, filepath.Join(dir, "shard-000", "wal.log"), false)
	wal1, _ := walFramesSHA(t, filepath.Join(dir, "shard-001", "wal.log"), false)
	checkPins(t, []struct{ what, got, want string }{
		{"shard 0 WAL", wal0, pinTwoShardWAL0SHA},
		{"shard 1 WAL", wal1, pinTwoShardWAL1SHA},
		{"2-shard super-root", sb.Root, pinTwoShardRoot},
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
	stored := storedSHA(items)
	digest, err := l.GenerateDigest()
	must(err)
	verifyOK(t, l, []Digest{digest})
	checkPins(t, []struct{ what, got, want string }{
		{"WAL before the truncation record", walSHA, pinTruncateWALSHA},
		{"stored rows", stored, pinTruncateStoredSHA},
	})
}
