package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sqlledger/internal/obs"
)

// openTestLogMode opens a log on a registry of its own, so a test can read
// the counters the committer and the log record.
func openTestLogMode(t *testing.T, mode SyncMode) (*Log, string, *obs.Registry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, mode)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg)
	t.Cleanup(func() { l.Close() })
	return l, path, reg
}

// commitBatch builds a tiny DML+COMMIT batch tagged with txID.
func commitBatch(txID uint64) []Record {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], txID)
	return []Record{
		{Type: RecInsert, TxID: txID, Payload: p[:]},
		{Type: RecCommit, TxID: txID, Payload: p[:]},
	}
}

// groupCounts reads the committer's three counters and the log's fsyncs.
func groupCounts(reg *obs.Registry) (commits, groups, records, fsyncs int64) {
	return reg.Counter(obs.WALGroupCommits).Value(), reg.Counter(obs.WALGroups).Value(),
		reg.Counter(obs.WALGroupRecords).Value(), reg.Counter(obs.WALFsyncTotal).Value()
}

// TestGroupCommitOneGroupForEverythingQueued: N commits queued before
// anyone waits are one group — one AppendGroup, one fsync — written by the
// first waiter on its own goroutine, in enqueue order; the other tickets
// are already done when their owners come to wait.
func TestGroupCommitOneGroupForEverythingQueued(t *testing.T) {
	l, path, reg := openTestLogMode(t, SyncFull)
	g := NewGroupCommitter(l)
	const n = 16
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = g.Enqueue(commitBatch(uint64(i)))
	}
	if size := l.Size(); size != HeaderLen {
		t.Fatalf("log grew to %d before any Wait", size)
	}
	recs := func() []Record { return readAll(t, path) }
	for i, tk := range tickets {
		lsn, err := tk.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if i == 0 {
			if got := len(recs()); got != 2*n {
				t.Fatalf("first Wait left %d records in the log, want all %d", got, 2*n)
			}
		}
		if want := recs()[2*i]; lsn != want.LSN || want.TxID != uint64(i) {
			t.Fatalf("ticket %d: LSN %d, log has tx %d at %d", i, lsn, want.TxID, want.LSN)
		}
		if _, _, size, nrec := tk.GroupTimings(); size != n || nrec != 2*n {
			t.Fatalf("ticket %d: group of %d commits / %d records, want %d / %d", i, size, nrec, n, 2*n)
		}
	}
	if c, gr, r, f := groupCounts(reg); c != n || gr != 1 || r != 2*n || f != 1 {
		t.Fatalf("commits/groups/records/fsyncs = %d/%d/%d/%d, want %d/1/%d/1", c, gr, r, f, n, 2*n)
	}
}

// pipeLog returns a log that writes into a pipe nobody reads until the test
// does: a frame larger than the pipe's capacity holds its flush open for as
// long as the test likes.
func pipeLog(t *testing.T) (*Log, *os.File, *obs.Registry) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l := &Log{f: w, size: HeaderLen, mode: SyncBuffered, m: bindLogMetrics(reg)}
	t.Cleanup(func() { l.Close(); r.Close() })
	return l, r, reg
}

// bigBatch is a commit whose frame cannot fit in a pipe buffer.
func bigBatch(txID uint64) []Record {
	return []Record{
		{Type: RecInsert, TxID: txID, Payload: make([]byte, spillBytes)},
		{Type: RecCommit, TxID: txID},
	}
}

func frameSize(t *testing.T, recs []Record) int64 {
	t.Helper()
	b, err := appendFrame(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// TestGroupCommitHandoff holds a flush open and checks the handoff: commits
// that arrive meanwhile form the next group, exactly one of them flushes
// it, and the commit that was already durable returns at the broadcast
// without waiting for that next flush.
func TestGroupCommitHandoff(t *testing.T) {
	l, pipe, reg := pipeLog(t)
	g := NewGroupCommitter(l)
	type result struct {
		lsn int64
		err error
	}
	wait := func(tk *Ticket) chan result {
		ch := make(chan result, 1)
		go func() {
			lsn, err := tk.Wait()
			ch <- result{lsn, err}
		}()
		return ch
	}
	skip := func(n int64) {
		t.Helper()
		if _, err := io.CopyN(io.Discard, pipe, n); err != nil {
			t.Fatal(err)
		}
	}

	first := g.Enqueue(bigBatch(1))
	firstDone := wait(first)
	skip(1) // a byte has come through: the first flush is in flight, and stuck

	later := []*Ticket{g.Enqueue(bigBatch(2)), g.Enqueue(commitBatch(3)), g.Enqueue(commitBatch(4))}
	laterDone := make([]chan result, len(later))
	for i, tk := range later {
		laterDone[i] = wait(tk)
	}

	// Let exactly the first frame through. Its waiter returns although the
	// next group's flush — held open in turn by tx 2's frame — cannot have
	// finished.
	firstSize := frameSize(t, bigBatch(1))
	skip(firstSize - 1)
	if res := <-firstDone; res.err != nil || res.lsn != HeaderLen {
		t.Fatalf("first commit = (%d, %v), want LSN %d", res.lsn, res.err, HeaderLen)
	}
	for i, ch := range laterDone {
		select {
		case res := <-ch:
			t.Fatalf("later commit %d returned (%d, %v) before its group's bytes were read", i, res.lsn, res.err)
		default:
		}
	}
	if _, _, size, _ := first.GroupTimings(); size != 1 {
		t.Fatalf("first commit's group held %d commits, want 1", size)
	}

	go io.Copy(io.Discard, pipe) // ends when the cleanup closes the pipe
	wantLSN := HeaderLen + firstSize
	for i, ch := range laterDone {
		res := <-ch
		if res.err != nil || res.lsn != wantLSN {
			t.Fatalf("later commit %d = (%d, %v), want LSN %d", i, res.lsn, res.err, wantLSN)
		}
		wantLSN += frameSize(t, later[i].req.recs)
		if _, _, size, _ := later[i].GroupTimings(); size != len(later) {
			t.Fatalf("later commit %d: group of %d, want %d", i, size, len(later))
		}
	}
	if c, gr, _, _ := groupCounts(reg); c != 4 || gr != 2 {
		t.Fatalf("commits/groups = %d/%d, want 4/2", c, gr)
	}
}

// TestGroupCommitStickyErrorReachesEveryone: when the log fails, every
// member of the failing group and every commit queued behind it gets the
// error; none is acknowledged.
func TestGroupCommitStickyErrorReachesEveryone(t *testing.T) {
	l, path, _ := openTestLogMode(t, SyncFull)
	g := NewGroupCommitter(l)
	if _, err := g.Enqueue(commitBatch(1)).Wait(); err != nil {
		t.Fatal(err)
	}
	// Make the next write fail: swap in a read-only handle.
	rw := l.f
	var err error
	if l.f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	rw.Close()

	group := []*Ticket{g.Enqueue(commitBatch(2)), g.Enqueue(commitBatch(3))}
	_, first := group[0].Wait()
	if first == nil {
		t.Fatal("a commit was acknowledged over a failed write")
	}
	if _, err := group[1].Wait(); err != first {
		t.Fatalf("second member of the failing group: %v, want %v", err, first)
	}
	// Commits behind the failing group, from several goroutines.
	var wg sync.WaitGroup
	for i := uint64(4); i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Enqueue(commitBatch(i)).Wait(); err != first {
				t.Errorf("commit %d behind the failure: %v, want %v", i, err, first)
			}
		}()
	}
	wg.Wait()
	if recs := readAll(t, path); len(recs) != 2 || recs[0].TxID != 1 {
		t.Fatalf("log after the failure holds %+v", recs)
	}
}

// TestGroupCommitOrderMatchesEnqueue pins the ordering invariant the
// engine depends on: batches land in the log in enqueue order, whoever
// flushes them and however they group.
func TestGroupCommitOrderMatchesEnqueue(t *testing.T) {
	l, path, reg := openTestLogMode(t, SyncBuffered)
	g := NewGroupCommitter(l)
	const n = 400
	tickets := make([]*Ticket, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := uint64(0)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Sequence + enqueue under one lock, as the engine does
				// under commitMu.
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				id := next
				next++
				tk := g.Enqueue(commitBatch(id))
				mu.Unlock()
				if _, err := tk.Wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				tickets[id] = tk
			}
		}()
	}
	wg.Wait()
	recs := readAll(t, path)
	if len(recs) != 2*n {
		t.Fatalf("got %d records, want %d", len(recs), 2*n)
	}
	for i, rec := range recs {
		wantTx := uint64(i / 2)
		if rec.TxID != wantTx {
			t.Fatalf("record %d: txID %d, want %d (log order != enqueue order)", i, rec.TxID, wantTx)
		}
	}
	// Ticket LSNs must agree with where the batches actually landed.
	for id, tk := range tickets {
		lsn, _ := tk.Wait()
		if lsn != recs[2*id].LSN {
			t.Fatalf("tx %d: ticket LSN %d, log LSN %d", id, lsn, recs[2*id].LSN)
		}
	}
	if c, gr, r, _ := groupCounts(reg); c != n || r != 2*n || gr < 1 || gr > n {
		t.Fatalf("commits/groups/records = %d/%d/%d, want %d commits, %d records, 1..%d groups", c, gr, r, n, 2*n, n)
	}
}

// TestGroupCommitSyncModes runs the committer under every SyncMode and
// checks the records read back intact. A commit that arrives alone is a
// group of one: as many flushes as commits.
func TestGroupCommitSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncNone, SyncBuffered, SyncFull} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			l, path, reg := openTestLogMode(t, mode)
			g := NewGroupCommitter(l)
			for i := 0; i < 10; i++ {
				if _, err := g.Enqueue(commitBatch(uint64(i))).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if c, gr, _, f := groupCounts(reg); c != 10 || gr != 10 || (mode == SyncFull) != (f == 10) {
				t.Fatalf("commits/groups/fsyncs = %d/%d/%d", c, gr, f)
			}
			if err := l.Close(); err != nil { // SyncNone buffers until close
				t.Fatal(err)
			}
			if got := len(readAll(t, path)); got != 20 {
				t.Fatalf("read back %d records, want 20", got)
			}
		})
	}
}

// TestGroupCommitClose: Close rejects later enqueues; a commit queued
// before it is still written by its owner's Wait.
func TestGroupCommitClose(t *testing.T) {
	l, path, _ := openTestLogMode(t, SyncBuffered)
	g := NewGroupCommitter(l)
	tk := g.Enqueue(commitBatch(1))
	g.Close()
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("commit queued before close: %v", err)
	}
	if _, err := g.Enqueue(commitBatch(2)).Wait(); err != ErrCommitterClosed {
		t.Fatalf("enqueue after close: err = %v, want ErrCommitterClosed", err)
	}
	g.Close() // idempotent
	if got := len(readAll(t, path)); got != 2 {
		t.Fatalf("read back %d records, want 2", got)
	}
}
