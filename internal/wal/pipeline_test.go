package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"sqlledger/internal/sqltypes"
)

// writePipelineLog appends n committed single-insert transactions and
// returns the log path plus the flushed size.
func writePipelineLog(t *testing.T, n int) (string, int64) {
	t.Helper()
	l, path := openTestLog(t)
	for i := 0; i < n; i++ {
		tx := uint64(i + 1)
		key := []byte(fmt.Sprintf("key-%06d", i))
		row := sqltypes.Row{sqltypes.NewBigInt(int64(i))}
		if _, err := l.Append(RecInsert, tx, EncodeDML(RecInsert, DMLPayload{TableID: 1, Key: key, After: row})); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(RecCommit, tx, EncodeCommit(CommitPayload{CommitTS: int64(i + 1), User: "t"})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	return path, l.Size()
}

func drainPipelined(t *testing.T, path string, end int64, workers int) []DecodedRecord {
	t.Helper()
	p, err := NewPipelinedReader(path, 0, end, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var out []DecodedRecord
	for {
		rec, err := p.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("next (workers=%d): %v", workers, err)
		}
		out = append(out, rec)
	}
}

// TestPipelinedReaderMatchesSerial proves the read-ahead delivers the
// exact record sequence of the serial path, payloads included, for enough
// records to span many batches.
func TestPipelinedReaderMatchesSerial(t *testing.T) {
	const n = 3000 // ~23 batches of 256 at 2 records/tx
	path, end := writePipelineLog(t, n)
	serial := drainPipelined(t, path, end, 1)
	if len(serial) != 2*n {
		t.Fatalf("serial read %d records, want %d", len(serial), 2*n)
	}
	for _, workers := range []int{2, 4, 8} {
		par := drainPipelined(t, path, end, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d read %d records, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			s, p := serial[i], par[i]
			if s.LSN != p.LSN || s.Type != p.Type || s.TxID != p.TxID {
				t.Fatalf("workers=%d record %d header mismatch: %+v vs %+v", workers, i, s.Record, p.Record)
			}
			switch s.Type {
			case RecInsert:
				if string(p.DML.Key) != string(s.DML.Key) || p.DML.After == nil {
					t.Fatalf("workers=%d record %d DML mismatch", workers, i)
				}
			case RecCommit:
				if p.Commit == nil || p.Commit.CommitTS != s.Commit.CommitTS {
					t.Fatalf("workers=%d record %d commit mismatch", workers, i)
				}
			}
		}
	}
}

// drainUntilError reads the log at path with the given worker count and
// returns how many records came before the first error, and that error.
func drainUntilError(t *testing.T, path string, end int64, workers int) (int, error) {
	t.Helper()
	p, err := NewPipelinedReader(path, 0, end, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for seen := 0; ; seen++ {
		if _, err := p.Next(); err != nil {
			return seen, err
		}
	}
}

// TestPipelinedReaderDecodeError proves a payload that fails to decode,
// or a frame that fails its CRC, surfaces as an error at its log position
// after every earlier record was delivered intact — also when the bad
// record opens, closes or follows a read-ahead batch, or sits inside one.
func TestPipelinedReaderDecodeError(t *testing.T) {
	for _, good := range []int{0, pipelineBatchRecords - 1, pipelineBatchRecords, pipelineBatchRecords + 1, 700} {
		l, path := openTestLog(t)
		for i := 0; i < good; i++ {
			l.Append(RecInsert, uint64(i+1), EncodeDML(RecInsert, DMLPayload{TableID: 1, Key: []byte("k"), After: sqltypes.Row{sqltypes.NewBigInt(1)}}))
		}
		// A commit payload that is valid WAL framing but garbage to DecodeCommit.
		l.Append(RecCommit, uint64(good+1), []byte{0xff})
		l.Append(RecCommit, uint64(good+2), EncodeCommit(CommitPayload{CommitTS: 1, User: "t"}))
		l.Flush()
		_, want := DecodeCommit(uint64(good+1), []byte{0xff})
		for _, workers := range []int{1, 2, 4} {
			seen, err := drainUntilError(t, path, l.Size(), workers)
			if seen != good || err == nil || err.Error() != want.Error() {
				t.Fatalf("good=%d workers=%d: %d records, then %v; want %d, then %v", good, workers, seen, err, good, want)
			}
		}
	}

	// A bit flip in the last byte of one frame inside the second batch.
	path, end := writePipelineLog(t, 400)
	var lsns []int64
	for _, rec := range drainPipelined(t, path, end, 1) {
		lsns = append(lsns, rec.LSN)
	}
	const bad = pipelineBatchRecords + 44
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[lsns[bad+1]-1] ^= 0x10
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		seen, err := drainUntilError(t, path, end, workers)
		if seen != bad || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("crc: workers=%d: %d records, then %v; want %d, then %v", workers, seen, err, bad, ErrCorrupt)
		}
	}
}

// TestPipelinedReaderEarlyClose proves Close mid-scan shuts the pipeline
// down without deadlocking or leaking the file handle.
func TestPipelinedReaderEarlyClose(t *testing.T) {
	path, end := writePipelineLog(t, 4000)
	p, err := NewPipelinedReader(path, 0, end, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatalf("remove after close: %v", err)
	}
}
