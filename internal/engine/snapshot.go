package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sqlledger/internal/btree"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Snapshot file layout (all integers little-endian): per-table sections
// with an offset index, written and loaded by per-table workers.
//
//	magic "SQLLSNP2"
//	u64 cutTS
//	section catalog-JSON
//	section ledger-state (always empty: written for the layout, stepped over)
//	u32 tableCount, then per table:
//	    u32 tableID, u64 rowCount, u64 offset, u64 length, u32 sectionCRC32C
//	u32 CRC32C of the header (everything before it)
//	table sections at the recorded absolute offsets, each a row stream in
//	strictly ascending key order:
//	    per row: section key, section row
//
// where section = u32 length + bytes. The per-section CRCs let the loader
// verify tables in parallel and localize corruption; a snapshot that
// fails any check is skipped and recovery falls back to the next older
// one. Snapshots are written to a temp file and renamed into place, so a
// crash mid-checkpoint leaves the previous snapshot intact.

const (
	snapMagic = "SQLLSNP2"

	// checkpointPreparedWait bounds how long Checkpoint waits for
	// outstanding prepared 2PC transactions to resolve before refusing.
	// The prepare→decide window is normally microseconds, so a short wait
	// turns most would-be refusals into successes without stalling the
	// caller behind a crashed coordinator.
	checkpointPreparedWait = 250 * time.Millisecond

	// snapshotScanChunk is how many version chains a checkpoint scan
	// visits per table-lock acquisition; between chunks the lock is
	// released so committers on the same table make progress while the
	// snapshot streams.
	snapshotScanChunk = 1024
)

// Checkpoint writes a transaction-consistent snapshot and appends a
// CHECKPOINT record (§3.3.2), returning the LSN the snapshot covers. Old
// snapshots and the WAL are retained to support point-in-time restore.
//
// The checkpoint is non-quiescing: the global quiesce lock is held only
// long enough to drain the ledger queue and pin a consistent cut — the
// (flushed) WAL position and the matching commit timestamp. The snapshot
// itself then streams from the MVCC version chains at the cut timestamp
// while writers keep committing; transactions that commit during the
// write get timestamps above the cut and WAL positions after snapLSN, so
// replay re-applies exactly them.
func (db *DB) Checkpoint() (int64, error) {
	db.checkpointMu.Lock()
	defer db.checkpointMu.Unlock()
	start := time.Now()

	// A prepared-but-undecided transaction lives only in the WAL: a
	// snapshot taken now would move the redo start past its PREPARE and
	// DML records and lose it. Give the coordinator a bounded window to
	// decide, then refuse rather than wait forever.
	if db.preparedCount.Load() > 0 {
		deadline := time.Now().Add(checkpointPreparedWait)
		for db.preparedCount.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	quiesceStart := time.Now()
	db.quiesce.Lock()
	if db.closed {
		db.quiesce.Unlock()
		return 0, ErrClosed
	}
	if n := db.preparedCount.Load(); n > 0 {
		db.quiesce.Unlock()
		return 0, fmt.Errorf("engine: checkpoint refused: %d prepared transaction(s) outstanding", n)
	}
	if db.opts.Hook != nil {
		// Drained queue rows are applied at LastCommitTS, i.e. exactly at
		// the cut, so the snapshot captures them.
		db.opts.Hook.BeforeSnapshot()
	}
	if err := db.log.Flush(); err != nil {
		db.quiesce.Unlock()
		return 0, err
	}
	snapLSN := db.log.Size()
	// Under full quiescence nothing is in flight: every commit at or
	// below cutTS is applied, and everything after will log past snapLSN.
	cutTS := db.lastCommitTS.Load()
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

	// The checkpoint record itself is appended like any other writer:
	// under the read side of quiesce, after re-checking for close.
	db.quiesce.RLock()
	if db.closed {
		db.quiesce.RUnlock()
		return 0, ErrClosed
	}
	_, err := db.log.Append(wal.RecCheckpoint, 0, wal.EncodeCheckpoint(wal.CheckpointPayload{
		SnapshotLSN: snapLSN,
		WallTS:      time.Now().UnixNano(),
	}))
	if err == nil {
		err = db.log.Flush()
	}
	db.quiesce.RUnlock()
	if err != nil {
		return 0, err
	}
	db.obs.Histogram(obs.CheckpointSeconds, nil).ObserveSince(start)
	db.obs.Events().Info(obs.EventWALCheckpoint, "snapshot_lsn", snapLSN,
		"quiesce_seconds", quiesced.Seconds(), "duration_seconds", time.Since(start).Seconds())
	return snapLSN, nil
}

func snapPath(dir string, lsn int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", lsn))
}

var castagnoliSnap = crc32.MakeTable(crc32.Castagnoli)

// appendSection appends b as a section: its u32 length, then b.
func appendSection(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// snapshotTableAt encodes one table's row stream as visible at cutTS,
// releasing the table lock between chunks so concurrent committers are
// never blocked for the duration of the scan. Returns the encoded
// section and the number of rows it holds. A row goes out as the bytes it
// is stored as; one stored before an ADD COLUMN is widened on the way, so
// the file holds what it would if every row had been written after it.
func snapshotTableAt(t *Table, cutTS int64) ([]byte, uint64) {
	var buf []byte
	var rows uint64
	var resume []byte
	for {
		visited := 0
		t.mu.RLock()
		t.rows.AscendRange(resume, nil, func(k []byte, c *versionChain) bool {
			if visited >= snapshotScanChunk {
				// Resume strictly after the last visited key next round.
				return false
			}
			visited++
			resume = append(append(resume[:0], k...), 0x00)
			if row, ok := c.at(cutTS); ok {
				buf = appendSection(buf, k)
				lenAt := len(buf)
				buf = sqltypes.AppendRowPadded(append(buf, 0, 0, 0, 0), row, t.meta.Schema.Columns)
				binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
				rows++
			}
			return true
		})
		t.mu.RUnlock()
		if visited < snapshotScanChunk {
			return buf, rows
		}
	}
}

// snapSection is one encoded per-table section headed for the file.
type snapSection struct {
	id   uint32
	rows uint64
	data []byte
	crc  uint32
}

// writeSnapshot writes the snapshot file: table sections encoded by
// per-table workers from the MVCC cut at cutTS, then laid out behind an
// offset index with per-section CRCs.
func (db *DB) writeSnapshot(lsn, cutTS int64, catJSON []byte, tables []*Table) error {
	secs := make([]snapSection, len(tables))
	forEach(len(tables), db.recoveryWorkers(), func(i int) {
		data, rows := snapshotTableAt(tables[i], cutTS)
		secs[i] = snapSection{id: tables[i].meta.ID, rows: rows, data: data, crc: crc32.Checksum(data, castagnoliSnap)}
	})

	le := binary.LittleEndian
	hdr := le.AppendUint64([]byte(snapMagic), uint64(cutTS))
	hdr = appendSection(hdr, catJSON)
	hdr = appendSection(hdr, nil) // ledger state
	hdr = le.AppendUint32(hdr, uint32(len(secs)))
	offset := uint64(len(hdr) + 32*len(secs) + 4)
	for _, s := range secs {
		hdr = le.AppendUint32(hdr, s.id)
		hdr = le.AppendUint64(hdr, s.rows)
		hdr = le.AppendUint64(hdr, offset)
		hdr = le.AppendUint64(hdr, uint64(len(s.data)))
		hdr = le.AppendUint32(hdr, s.crc)
		offset += uint64(len(s.data))
	}
	hdr = le.AppendUint32(hdr, crc32.Checksum(hdr, castagnoliSnap))

	tmp := snapPath(db.opts.Dir, lsn) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("engine: snapshot create: %w", err)
	}
	defer func() {
		f.Close()
		os.Remove(tmp)
	}()
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	for _, s := range secs {
		if _, err := f.Write(s.data); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, snapPath(db.opts.Dir, lsn))
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

// loadLatestSnapshot finds and loads the newest valid snapshot, returning
// the LSN recovery should replay from (0 when starting empty). A snapshot
// that fails to load is reported and skipped for the next older one.
func (db *DB) loadLatestSnapshot() (int64, error) {
	matches, err := filepath.Glob(filepath.Join(db.opts.Dir, "snap-*.snap"))
	if err != nil {
		return 0, err
	}
	// Glob sorts, and the LSN in a name is fixed-width hex: newest last.
	for i := len(matches) - 1; i >= 0; i-- {
		var lsn int64
		if _, err := fmt.Sscanf(filepath.Base(matches[i]), "snap-%016x.snap", &lsn); err != nil {
			continue
		}
		raw, err := os.ReadFile(matches[i])
		if err == nil {
			err = db.loadSnapshot(matches[i], raw)
		}
		if err != nil {
			// Replay from an older snapshot covers the gap.
			db.obs.Events().Warn(obs.EventSnapshotSkipped, "file", matches[i], "reason", err.Error())
			continue
		}
		return lsn, nil
	}
	// No usable snapshot: start from an empty catalog.
	db.cat = newCatalog()
	db.tables = make(map[uint32]*Table)
	return 0, nil
}

// snapReader reads a snapshot buffer front to back, bounds checking every
// read. The first failure sticks: later reads return nil and err names
// what was being read.
type snapReader struct {
	b    []byte
	pos  int
	what string
	err  error
}

func (r *snapReader) next(n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.b)-r.pos) {
		r.err = fmt.Errorf("engine: snapshot %s truncated", r.what)
	}
	if r.err != nil {
		return nil
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b
}

// uint reads an n-byte little-endian integer.
func (r *snapReader) uint(n int) (v uint64) {
	for i, c := range r.next(n) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

// section reads a u32 length and that many bytes.
func (r *snapReader) section() []byte { return r.next(int(r.uint(4))) }

// loadSnapshot validates and loads the snapshot raw read from path: header
// CRC first, then per-table workers each verify their section CRC, decode
// the row stream into a freshly built table and rebuild its indexes. db is
// changed only once everything has validated, so a failure leaves it ready
// to try an older snapshot.
func (db *DB) loadSnapshot(path string, raw []byte) error {
	r := &snapReader{b: raw, what: "header of " + path}
	if string(r.next(len(snapMagic))) != snapMagic {
		return fmt.Errorf("engine: bad snapshot header in %s", path)
	}
	cutTS := int64(r.uint(8))
	catJSON := r.section()
	r.section() // ledger state, always empty
	nTables := int(r.uint(4))
	index := r.next(nTables * 32)
	headerLen := r.pos
	if crc := r.uint(4); r.err != nil {
		return r.err
	} else if crc32.Checksum(raw[:headerLen], castagnoliSnap) != uint32(crc) {
		return fmt.Errorf("engine: snapshot header CRC mismatch in %s", path)
	}
	cat, err := unmarshalCatalog(catJSON)
	if err != nil {
		return fmt.Errorf("%w in %s", err, path)
	}
	tables := make(map[uint32]*Table, len(cat.Tables))
	for id, meta := range cat.Tables {
		tables[id] = newTable(meta)
	}

	// The writer lays sections out in table-id order; a table listed twice
	// would be loaded by two workers at once.
	for i := 32; i < len(index); i += 32 {
		if binary.LittleEndian.Uint32(index[i:]) <= binary.LittleEndian.Uint32(index[i-32:]) {
			return fmt.Errorf("engine: snapshot index out of table order in %s", path)
		}
	}
	errs := make([]error, nTables)
	forEach(nTables, db.recoveryWorkers(), func(i int) {
		ent := index[i*32 : i*32+32]
		id := binary.LittleEndian.Uint32(ent[0:4])
		off, ln := binary.LittleEndian.Uint64(ent[12:20]), binary.LittleEndian.Uint64(ent[20:28])
		t, ok := tables[id]
		switch {
		case !ok:
			errs[i] = fmt.Errorf("engine: snapshot has rows for unknown table %d in %s", id, path)
		case off > uint64(len(raw)) || ln > uint64(len(raw))-off:
			errs[i] = fmt.Errorf("engine: snapshot section out of bounds for table %d in %s", id, path)
		case crc32.Checksum(raw[off:off+ln], castagnoliSnap) != binary.LittleEndian.Uint32(ent[28:32]):
			errs[i] = fmt.Errorf("engine: snapshot section CRC mismatch for table %d in %s", id, path)
		default:
			errs[i] = loadTableSection(t, raw[off:off+ln], binary.LittleEndian.Uint64(ent[4:12]))
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// Rebuild nonclustered indexes from base data; unmarshalCatalog checked
	// that each names a table and columns inside its schema.
	for _, im := range cat.Indexes {
		t := tables[im.TableID]
		ix := &Index{meta: im}
		t.buildIndexLocked(ix)
		t.indexes = append(t.indexes, ix)
	}
	loaded := 0
	for _, t := range tables {
		loaded += t.liveRows
	}
	db.cat = cat
	db.tables = tables
	db.lastCommitTS.Store(cutTS)
	db.m.versionsLive.Set(float64(loaded))
	return nil
}

// loadTableSection loads one row stream into a fresh table. The stream must
// hold rows keys in strictly ascending order — the clustered btree
// bulk-loads it in O(n), and is undefined on any other order — and each row
// is checked and then stored as the bytes the file holds, in an allocation
// of its own (a slice of the file's buffer would keep the whole file alive
// for as long as any one of its rows is).
func loadTableSection(t *Table, data []byte, rows uint64) error {
	// Every row takes at least its two length prefixes.
	if rows > uint64(len(data))/8 {
		return fmt.Errorf("engine: snapshot section for table %s claims %d rows in %d bytes", t.meta.Name, rows, len(data))
	}
	keys := make([][]byte, 0, rows)
	chains := make([]*versionChain, 0, rows)
	r := &snapReader{b: data, what: "section for table " + t.meta.Name}
	for j := uint64(0); j < rows; j++ {
		key, rowb := r.section(), r.section()
		if r.err != nil {
			return r.err
		}
		if j > 0 && bytes.Compare(key, keys[j-1]) <= 0 {
			return fmt.Errorf("engine: snapshot section for table %s: row %d is not in key order", t.meta.Name, j)
		}
		if err := sqltypes.CheckRow(rowb); err != nil {
			return err
		}
		// Snapshot rows load as a single version at timestamp 0, visible
		// to every snapshot read.
		keys = append(keys, bytes.Clone(key))
		chains = append(chains, newChain(0, bytes.Clone(rowb)))
	}
	if r.pos != len(data) {
		return fmt.Errorf("engine: snapshot section has %d trailing bytes for table %s", len(data)-r.pos, t.meta.Name)
	}
	t.rows = btree.BuildSorted(keys, chains)
	t.liveRows = len(keys)
	for _, k := range keys {
		t.noteRIDLocked(k)
	}
	return nil
}
