package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// A snapshot is a file in the WAL's format, snap-<lsn>.log, that reads as
// one transaction committing at the cut: the log's header (with its create
// time), a DDL record holding the catalog JSON, INSERT frames of at most
// snapshotScanChunk rows in ascending (table id, key) order, and a last
// COMMIT whose CommitTS is the cut. Checkpoint appends the CHECKPOINT
// record that names the snapshot first, at the snapshot's LSN, and after
// the rename keeps only it and the newest snapshot before it. Restart
// replays a snapshot through redo like the log it was cut from, and only
// while it belongs to the log as it stands (loadSnapshotFile); one that
// fails a check is skipped, and recovery falls back to the next older one,
// then to replay from the start of the log, which is kept whole.

const (
	// snapshotScanChunk is how many version chains a checkpoint scan
	// visits per table-lock acquisition; between chunks the lock is
	// released so committers on the same table make progress while the
	// snapshot streams.
	snapshotScanChunk = 1024

	// snapName is the name of the snapshot whose redo starts at an LSN;
	// the fixed width makes name order LSN order.
	snapName = "snap-%016x.log"
)

// Checkpoint appends a CHECKPOINT record and writes a transaction-
// consistent snapshot at its LSN (§3.3.2), returning that LSN. It keeps the
// new snapshot and the newest one before it, the fallback should the new
// one not load, and deletes the older ones: restore needs only the WAL,
// which is kept whole.
//
// The checkpoint is non-quiescing: the global quiesce lock is held only
// long enough to drain the ledger queue and pin a consistent cut — the
// CHECKPOINT record's WAL position and the matching commit timestamp.
// The snapshot itself then streams from the MVCC version chains at the
// cut timestamp while writers keep committing; transactions that commit
// during the write get timestamps above the cut and WAL positions after
// snapLSN, so replay re-applies exactly them.
func (db *DB) Checkpoint() (int64, error) {
	db.checkpointMu.Lock()
	defer db.checkpointMu.Unlock()
	start := time.Now()

	quiesceStart := time.Now()
	db.quiesce.Lock()
	if db.closed {
		db.quiesce.Unlock()
		return 0, ErrClosed
	}
	if db.opts.Hook != nil {
		// Drained queue rows are applied at LastCommitTS, i.e. exactly at
		// the cut, so the snapshot captures them.
		db.opts.Hook.BeforeSnapshot()
	}
	db.mu.RLock()
	catJSON, catErr := db.cat.marshal()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	if catErr != nil {
		db.quiesce.Unlock()
		return 0, catErr
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].meta.ID < tables[j].meta.ID })
	// Under full quiescence nothing is in flight: every commit at or
	// below cutTS is applied, and everything after will log past the
	// CHECKPOINT record, whose frame is the one at snapLSN.
	snapLSN, cutTS := db.log.Size(), db.lastCommitTS.Load()
	if _, err := db.log.Append(wal.RecCheckpoint, 0, wal.EncodeCheckpoint(wal.CheckpointPayload{
		SnapshotLSN: snapLSN,
		WallTS:      time.Now().UnixNano(),
	})); err != nil {
		db.quiesce.Unlock()
		return 0, err
	}
	// Pin the cut in the snapshot registry so version GC cannot reclaim
	// the versions the stream is about to read.
	db.snapMu.Lock()
	pinID := db.nextSnapID
	db.nextSnapID++
	db.snaps[pinID] = cutTS
	db.snapMu.Unlock()
	db.quiesce.Unlock()
	quiesced := time.Since(quiesceStart)
	db.obs.Histogram(obs.CheckpointQuiesceSeconds, nil).Observe(quiesced.Seconds())

	defer func() {
		db.snapMu.Lock()
		delete(db.snaps, pinID)
		db.snapMu.Unlock()
	}()
	if db.snapshotWriteHook != nil {
		db.snapshotWriteHook()
	}
	if err := db.writeSnapshot(snapLSN, cutTS, catJSON, tables); err != nil {
		return 0, err
	}
	if err := dropOldSnapshots(db.opts.Dir, snapLSN); err != nil {
		return 0, fmt.Errorf("engine: snapshot retention: %w", err)
	}
	db.obs.Events().Info(obs.EventWALCheckpoint, "snapshot_lsn", snapLSN,
		"quiesce_seconds", quiesced.Seconds(), "duration_seconds", time.Since(start).Seconds())
	return snapLSN, nil
}

// snapshots lists the snapshots in dir, oldest first: Glob sorts, and
// name order is LSN order. (Glob fails only on a malformed pattern.)
func snapshots(dir string) (paths []string, lsns []int64) {
	matches, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
	for _, p := range matches {
		var lsn int64
		if _, err := fmt.Sscanf(filepath.Base(p), snapName, &lsn); err == nil {
			paths, lsns = append(paths, p), append(lsns, lsn)
		}
	}
	return paths, lsns
}

// dropOldSnapshots deletes the snapshots in dir older than the newest one
// below lsn, which stays as the fallback for the snapshot at lsn.
func dropOldSnapshots(dir string, lsn int64) error {
	paths, lsns := snapshots(dir)
	prev := 0
	for i, l := range lsns {
		if l < lsn {
			prev = i
		}
	}
	for _, p := range paths[:prev] {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// snapshotTableAt encodes one table's rows as visible at cutTS into INSERT
// frames of at most snapshotScanChunk rows, releasing the table lock
// between chunks so concurrent committers are never blocked for the
// duration of the scan. A row goes out as the bytes it is stored as; one
// stored before an ADD COLUMN is widened on the way, so the file holds
// what it would if every row had been written after it. Like the log, it
// holds a heap row's row id and no key for a keyed row. Bytes that are no
// row (sqltypes.CheckRow), and a keyed row whose bytes do not give the key
// it is stored under, fail the snapshot, naming the table and the key:
// only an edit of storage makes either, and the file would move the row to
// another key or fail to load, leaving restart to replay the log over it.
func snapshotTableAt(t *Table, cutTS int64) (frames []byte, err error) {
	var payloads, resume, derived []byte
	var recs []wal.Record
	for {
		visited := 0
		payloads, recs = payloads[:0], recs[:0]
		t.mu.RLock()
		t.rows.AscendRange(resume, nil, func(k []byte, c *versionChain) bool {
			if visited >= snapshotScanChunk {
				// Resume strictly after the last visited key next round.
				return false
			}
			visited++
			resume = append(append(resume[:0], k...), 0x00)
			if row, ok := c.at(cutTS); ok {
				// payloads may outgrow the array a record points into; that
				// array is not written again, so the record stays valid.
				start := len(payloads)
				if err = sqltypes.CheckRow(row); err == nil && !t.meta.Heap {
					if derived, err = t.KeyOfStored(derived[:0], row); err == nil && !bytes.Equal(derived, k) {
						err = fmt.Errorf("it holds key %x", derived)
					}
				}
				if err != nil {
					err = fmt.Errorf("engine: snapshot of table %s: the row under key %x: %w", t.meta.Name, k, err)
					return false
				}
				img := wal.DMLImage{TableID: t.meta.ID}
				if t.meta.Heap {
					img.Key = k
				}
				payloads = wal.AppendDMLImage(payloads, img)
				payloads = sqltypes.AppendRowPadded(payloads, row, t.meta.Schema.Columns)
				recs = append(recs, wal.Record{Type: wal.RecInsert, Payload: payloads[start:]})
			}
			return true
		})
		t.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			if frames, err = wal.AppendFrame(frames, recs); err != nil {
				return nil, err
			}
		}
		if visited < snapshotScanChunk {
			return frames, nil
		}
	}
}

// writeSnapshot writes the snapshot whose redo starts at lsn: the header,
// the catalog, the INSERT frames per-table workers encode from the MVCC
// cut at cutTS, and the COMMIT at the cut.
func (db *DB) writeSnapshot(lsn, cutTS int64, catJSON []byte, tables []*Table) error {
	catalog := wal.Record{Type: wal.RecDDL, Payload: wal.EncodeDDL(wal.DDLPayload{Kind: "catalog", Body: catJSON})}
	commit := wal.Record{Type: wal.RecCommit, Payload: wal.EncodeCommit(wal.CommitPayload{CommitTS: cutTS})}
	// parts[i] and errs[i] belong together; the header cannot fail.
	parts := make([][]byte, len(tables)+3)
	errs := make([]error, len(parts))
	parts[0] = wal.AppendHeader(nil, db.log.CreateTime())
	parts[1], errs[1] = wal.AppendFrame(nil, []wal.Record{catalog})
	forEach(len(tables), db.recoveryWorkers(), func(i int) {
		parts[2+i], errs[2+i] = snapshotTableAt(tables[i], cutTS)
	})
	parts[len(parts)-1], errs[len(parts)-1] = wal.AppendFrame(nil, []wal.Record{commit})
	err := errors.Join(errs...)
	if err == nil {
		err = wal.WriteFileAtomic(filepath.Join(db.opts.Dir, fmt.Sprintf(snapName, lsn)), 0o644, parts...)
	}
	if err != nil {
		return fmt.Errorf("engine: snapshot write: %w", err)
	}
	return nil
}

// forEach calls fn(i) for every i in [0, n) on up to workers goroutines.
func forEach(n, workers int, fn func(i int)) {
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// loadLatestSnapshot replays the newest snapshot that belongs to the log
// and passes its checks into a redo of its own, returning the redo and
// the LSN the log replays from (0 when starting empty). A snapshot that
// does not is reported, what it installed is reset, and the next older
// one is tried.
func (db *DB) loadLatestSnapshot() (*redo, int64) {
	paths, lsns := snapshots(db.opts.Dir)
	for i := len(paths) - 1; i >= 0; i-- {
		rd := newRedo(db)
		err := db.loadSnapshotFile(paths[i], lsns[i], rd)
		if err == nil {
			return rd, lsns[i]
		}
		// Replay from an older snapshot covers the gap.
		db.obs.Events().Warn(obs.EventSnapshotSkipped, "file", paths[i], "reason", err.Error())
		db.cat, db.tables = newCatalog(), make(map[uint32]*Table)
		db.lastCommitTS.Store(0)
	}
	return newRedo(db), 0
}

// loadSnapshotFile replays the snapshot at path, whose redo starts at lsn,
// into rd if it belongs to the log as it stands: its header carries the
// log's create time, and the log's frame at lsn is the CHECKPOINT record
// that names it.
func (db *DB) loadSnapshotFile(path string, lsn int64, rd *redo) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r, createTime, err := wal.NewBytesReader(raw)
	if err != nil {
		return err
	}
	if createTime != db.log.CreateTime() {
		return fmt.Errorf("engine: snapshot of another incarnation: created %d, the log %d", createTime, db.log.CreateTime())
	}
	recs, err := db.log.ReadFrame(lsn) // fails on an LSN past the log's valid end
	var p wal.CheckpointPayload
	if err == nil && len(recs) == 1 && recs[0].Type == wal.RecCheckpoint {
		p, err = wal.DecodeCheckpoint(recs[0].Payload)
	}
	if err != nil || p.SnapshotLSN != lsn {
		return fmt.Errorf("engine: the log's frame at snapshot LSN %d is not its CHECKPOINT record (%v)", lsn, err)
	}
	return db.loadSnapshot(r, rd)
}

// loadSnapshot replays the snapshot r reads into rd as redo replays a log:
// the catalog record installs the catalog, and the INSERTs are one write
// set that rd.applyTx applies at the COMMIT's timestamp, the cut. An
// insider may have rewritten the file under valid CRCs, so its shape is
// checked: the catalog first, then only INSERTs of its tables, in
// ascending table id order and strictly ascending key order within a
// table (the order install bulk-loads them in), each a well-formed row
// (wal.DecodeDMLImage) that logs its key as the log does (resolveKey), and
// the COMMIT last. On an error db holds a part of the snapshot, which the
// caller resets.
func (db *DB) loadSnapshot(r *wal.Reader, rd *redo) error {
	rec, err := r.Next()
	if err == nil && rec.Type != wal.RecDDL {
		err = fmt.Errorf("engine: snapshot starts with a %s record, not the catalog", rec.Type)
	}
	var ddl wal.DDLPayload
	if err == nil {
		ddl, err = wal.DecodeDDL(rec.Payload)
	}
	if err == nil {
		err = db.installCatalog(ddl.Body)
	}
	if err != nil {
		return err
	}

	var ops []writeOp
	var keys []byte // the keys derived for ops, which alias it
	var t *Table    // the table whose rows are being read, n of them so far
	n := 0
	for {
		if rec, err = r.Next(); err == io.EOF {
			return errors.New("engine: snapshot ends before its COMMIT record")
		} else if err != nil {
			return err
		}
		if rec.Type == wal.RecCommit {
			break
		}
		if rec.Type != wal.RecInsert {
			return fmt.Errorf("engine: snapshot holds a row record of type %s", rec.Type)
		}
		// The table id leads the payload, truncated as DecodeDMLImage does.
		id64, _ := binary.Uvarint(rec.Payload)
		if id := uint32(id64); t == nil || id != t.meta.ID {
			if t != nil && id < t.meta.ID {
				return fmt.Errorf("engine: snapshot rows of table %d out of table order", id)
			} else if t, n = db.tables[id], 0; t == nil {
				return fmt.Errorf("engine: snapshot has rows for unknown table %d", id)
			}
		}
		m, err := wal.DecodeDMLImage(wal.RecInsert, rec.Payload)
		op := writeOp{typ: wal.RecInsert, tableID: m.TableID, key: m.Key, after: m.After}
		if err == nil {
			keys, err = resolveKey(t, &op, keys)
		}
		if err != nil {
			return fmt.Errorf("engine: snapshot row %d of table %s at LSN %d: %w", n, t.meta.Name, rec.LSN, err)
		}
		if n > 0 && bytes.Compare(op.key, ops[len(ops)-1].key) <= 0 {
			return fmt.Errorf("engine: snapshot rows of table %s: row %d at LSN %d is not in key order", t.meta.Name, n, rec.LSN)
		}
		ops = append(ops, op)
		n++
	}
	cut, err := wal.DecodeCommit(rec.TxID, rec.Payload)
	if err != nil {
		return err
	}
	if _, err := r.Next(); err != io.EOF {
		return errors.Join(errors.New("engine: snapshot has a record after its COMMIT"), err)
	}
	db.lastCommitTS.Store(cut.CommitTS)
	return rd.applyTx(cut.CommitTS, ops)
}
