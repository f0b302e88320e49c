package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sqlledger/internal/merkle"
	"sqlledger/internal/sqltypes"
)

func openTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, SyncBuffered)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func readAll(t *testing.T, path string) []Record {
	t.Helper()
	r, err := NewReader(path, 0, -1)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	defer r.Close()
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		out = append(out, rec)
	}
}

func TestAppendAndRead(t *testing.T) {
	l, path := openTestLog(t)
	lsn1, err := l.Append(RecInsert, 7, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(RecCommit, 7, []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 >= lsn2 {
		t.Fatalf("LSNs not increasing: %d %d", lsn1, lsn2)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, path)
	if len(recs) != 2 {
		t.Fatalf("read %d records", len(recs))
	}
	if recs[0].Type != RecInsert || recs[0].TxID != 7 || string(recs[0].Payload) != "one" {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].LSN != lsn2 {
		t.Fatalf("record 1 LSN = %d, want %d", recs[1].LSN, lsn2)
	}
}

func TestReaderFromOffset(t *testing.T) {
	l, path := openTestLog(t)
	l.Append(RecInsert, 1, []byte("a"))
	mid, _ := l.Append(RecInsert, 2, []byte("b"))
	l.Append(RecCommit, 2, []byte("c"))
	l.Flush()
	r, err := NewReader(path, mid, l.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec, err := r.Next()
	if err != nil || rec.TxID != 2 || string(rec.Payload) != "b" {
		t.Fatalf("offset read = %+v, %v", rec, err)
	}
}

// TestReadFrame reads frames by LSN from the user-space buffer (SyncNone
// keeps them there) and from the file, and refuses an LSN that is not a
// frame of the log.
func TestReadFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []int64
	for tx := uint64(1); tx <= 3; tx++ {
		lsn, err := l.AppendBatch([]Record{{Type: RecInsert, TxID: tx, Payload: []byte{byte(tx)}}, {Type: RecCommit, TxID: tx}})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	check := func(where string) {
		t.Helper()
		for i, lsn := range lsns {
			recs, err := l.ReadFrame(lsn)
			if err != nil || len(recs) != 2 || recs[0].TxID != uint64(i+1) || recs[0].LSN != lsn ||
				recs[0].Payload[0] != byte(i+1) || recs[1].Type != RecCommit {
				t.Fatalf("%s: frame %d at %d: %v, %v", where, i, lsn, recs, err)
			}
		}
		if _, err := l.ReadFrame(lsns[1] + 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: LSN inside a frame: %v, want ErrCorrupt", where, err)
		}
		if _, err := l.ReadFrame(l.Size()); err == nil {
			t.Fatalf("%s: LSN at the end of the log read a frame", where)
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() != HeaderLen {
		t.Fatalf("frames reached the file under SyncNone: %v, %v", st.Size(), err)
	}
	check("buffered")
	l.Close()
	if l, err = Open(path, SyncNone); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check("written")
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	l, path := openTestLog(t)
	l.Append(RecCommit, 1, []byte("good"))
	l.Flush()
	goodSize := l.Size()
	l.Close()
	// Simulate a crash mid-append: write half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x01, 0x02})
	f.Close()

	l2, err := Open(path, SyncBuffered)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Size() != goodSize {
		t.Fatalf("size after reopen = %d, want %d", l2.Size(), goodSize)
	}
	// New appends land after the valid prefix and read back fine.
	l2.Append(RecCommit, 2, []byte("after"))
	l2.Flush()
	recs := readAll(t, path)
	if len(recs) != 2 || string(recs[1].Payload) != "after" {
		t.Fatalf("records after torn-tail recovery: %+v", recs)
	}
}

func TestCorruptionDetected(t *testing.T) {
	l, path := openTestLog(t)
	l.Append(RecCommit, 1, []byte("payload-payload"))
	l.Flush()
	l.Close()
	b, _ := os.ReadFile(path)
	b[len(b)-3] ^= 0xFF // flip a payload byte
	os.WriteFile(path, b, 0o644)
	r, err := NewReader(path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestAppendBatchContiguous(t *testing.T) {
	l, path := openTestLog(t)
	first, err := l.AppendBatch([]Record{
		{Type: RecInsert, TxID: 5, Payload: []byte("i1")},
		{Type: RecInsert, TxID: 5, Payload: []byte("i2")},
		{Type: RecCommit, TxID: 5, Payload: []byte("c")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != HeaderLen {
		t.Fatalf("first lsn = %d", first)
	}
	l.Flush()
	recs := readAll(t, path)
	if len(recs) != 3 || recs[2].Type != RecCommit {
		t.Fatalf("batch read: %+v", recs)
	}
}

func TestEmptyPayload(t *testing.T) {
	l, path := openTestLog(t)
	l.Append(RecAbort, 3, nil)
	l.Flush()
	recs := readAll(t, path)
	if len(recs) != 1 || len(recs[0].Payload) != 0 {
		t.Fatalf("empty payload roundtrip: %+v", recs)
	}
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncNone, SyncBuffered, SyncFull} {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(RecCommit, 1, []byte("x")); err != nil {
			t.Fatalf("mode %d append: %v", mode, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("mode %d close: %v", mode, err)
		}
		l2, err := Open(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		if l2.Size() == 0 {
			t.Fatalf("mode %d lost the record", mode)
		}
		l2.Close()
	}
}

func TestRecordTypeString(t *testing.T) {
	names := map[RecordType]string{
		RecordType(1): "REC(1)", RecInsert: "INSERT", RecDelete: "DELETE",
		RecUpdate: "UPDATE", RecCommit: "COMMIT", RecAbort: "ABORT",
		RecCheckpoint: "CHECKPOINT", RecDDL: "DDL", RecPrepare: "PREPARE", RecordType(99): "REC(99)",
	}
	for rt, want := range names {
		if rt.String() != want {
			t.Errorf("%d.String() = %q, want %q", rt, rt.String(), want)
		}
	}
}

// --- payload codecs -----------------------------------------------------

func sampleEntry() *LedgerEntry {
	var h1, h2 merkle.Hash
	h1[0], h2[31] = 0xAB, 0xCD
	return &LedgerEntry{
		TxID: 42, BlockID: 3, Ordinal: 17, CommitTS: 1234567890123,
		User: "alice", Roots: []TableRoot{{TableID: 9, Root: h1}, {TableID: 12, Root: h2}},
	}
}

func TestCommitPayloadRoundtrip(t *testing.T) {
	p := CommitPayload{CommitTS: 999, User: "bob", Entry: sampleEntry()}
	back, err := DecodeCommit(EncodeCommit(p))
	if err != nil {
		t.Fatal(err)
	}
	if back.CommitTS != p.CommitTS || back.User != p.User {
		t.Fatalf("roundtrip = %+v", back)
	}
	e, want := back.Entry, p.Entry
	if e.TxID != want.TxID || e.BlockID != want.BlockID || e.Ordinal != want.Ordinal ||
		e.CommitTS != want.CommitTS || e.User != want.User || len(e.Roots) != 2 ||
		e.Roots[0] != want.Roots[0] || e.Roots[1] != want.Roots[1] {
		t.Fatalf("entry roundtrip = %+v", e)
	}
}

func TestCommitPayloadWithoutEntry(t *testing.T) {
	back, err := DecodeCommit(EncodeCommit(CommitPayload{CommitTS: 5, User: "u"}))
	if err != nil || back.Entry != nil {
		t.Fatalf("no-entry roundtrip: %+v, %v", back, err)
	}
}

func TestCommitPayloadErrors(t *testing.T) {
	enc := EncodeCommit(CommitPayload{CommitTS: 5, User: "u", Entry: sampleEntry()})
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeCommit(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeCommit(append(enc, 0xEE)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDMLPayloadRoundtrip(t *testing.T) {
	after := sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewVarChar("new")}
	cases := []struct {
		typ RecordType
		p   DMLPayload
	}{
		{RecInsert, DMLPayload{TableID: 4, Key: []byte{1, 2}, After: after}},
		{RecDelete, DMLPayload{TableID: 4, Key: []byte{1, 2}}},
		{RecUpdate, DMLPayload{TableID: 4, Key: []byte{1, 2}, After: after}},
	}
	for _, c := range cases {
		back, err := DecodeDML(c.typ, EncodeDML(c.typ, c.p))
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		if back.TableID != c.p.TableID || string(back.Key) != string(c.p.Key) {
			t.Fatalf("%s header roundtrip: %+v", c.typ, back)
		}
		if (c.p.After == nil) != (back.After == nil) {
			t.Fatalf("%s row presence: %+v", c.typ, back)
		}
		if c.p.After != nil && !back.After.Equal(c.p.After) {
			t.Fatalf("%s after mismatch", c.typ)
		}
	}
	if _, err := DecodeDML(RecCommit, nil); err == nil {
		t.Fatal("non-DML record accepted")
	}
}

func TestCheckpointAndDDLRoundtrip(t *testing.T) {
	cp, err := DecodeCheckpoint(EncodeCheckpoint(CheckpointPayload{SnapshotLSN: 12345, WallTS: 67890}))
	if err != nil || cp.SnapshotLSN != 12345 || cp.WallTS != 67890 {
		t.Fatalf("checkpoint roundtrip: %+v, %v", cp, err)
	}
	dp, err := DecodeDDL(EncodeDDL(DDLPayload{Kind: "create_table", Body: []byte(`{"x":1}`)}))
	if err != nil || dp.Kind != "create_table" || string(dp.Body) != `{"x":1}` {
		t.Fatalf("ddl roundtrip: %+v, %v", dp, err)
	}
}

func TestEntryClone(t *testing.T) {
	e := sampleEntry()
	c := e.Clone()
	c.Roots[0].TableID = 99
	if e.Roots[0].TableID == 99 {
		t.Fatal("Clone shares roots")
	}
	var nilE *LedgerEntry
	if nilE.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}
