package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// Snapshot file layouts (all integers little-endian).
//
// v1 ("SQLLSNP1") — serial, whole-file checksum:
//
//	magic "SQLLSNP1"
//	u64 lastCommitTS
//	section catalog-JSON
//	section ledger-state-blob
//	u32 tableCount, then per table:
//	    u32 tableID, u64 rowCount, then per row: section key, section row
//	u32 CRC32C of everything before it
//
// v2 ("SQLLSNP2") — per-table sections with an offset index, written and
// loaded by per-table workers:
//
//	magic "SQLLSNP2"
//	u64 cutTS
//	section catalog-JSON
//	section ledger-state-blob
//	u32 tableCount, then per table:
//	    u32 tableID, u64 rowCount, u64 offset, u64 length, u32 sectionCRC32C
//	u32 CRC32C of the header (everything before it)
//	table sections at the recorded absolute offsets, each a row stream:
//	    per row: section key, section row
//
// where section = u32 length + bytes. The per-section CRCs let the loader
// verify tables in parallel and localize corruption; a snapshot that
// fails any check is skipped and recovery falls back to the next older
// one. Snapshots are written to a temp file and renamed into place, so a
// crash mid-checkpoint leaves the previous snapshot intact.

const (
	snapMagicV1 = "SQLLSNP1"
	snapMagicV2 = "SQLLSNP2"

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
	var blob []byte
	if db.opts.Hook != nil {
		blob = db.opts.Hook.StateBlob()
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
	if err := db.writeSnapshotV2(snapLSN, cutTS, blob, catJSON, tables); err != nil {
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

type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoliSnap, p)
	return cw.w.Write(p)
}

var castagnoliSnap = crc32.MakeTable(crc32.Castagnoli)

func writeSection(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// appendSection is writeSection into a byte slice.
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

// snapSection is one encoded per-table section headed for the v2 file.
type snapSection struct {
	id   uint32
	rows uint64
	data []byte
	crc  uint32
}

// writeSnapshotV2 writes the v2 snapshot file: table sections encoded by
// per-table workers from the MVCC cut at cutTS, then laid out behind an
// offset index with per-section CRCs.
func (db *DB) writeSnapshotV2(lsn, cutTS int64, ledgerBlob, catJSON []byte, tables []*Table) error {
	secs := make([]snapSection, len(tables))
	workers := db.recoveryWorkers()
	if workers > len(tables) {
		workers = len(tables)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, len(tables))
	for i := range tables {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tables[i]
				data, rows := snapshotTableAt(t, cutTS)
				secs[i] = snapSection{
					id:   t.meta.ID,
					rows: rows,
					data: data,
					crc:  crc32.Checksum(data, castagnoliSnap),
				}
			}
		}()
	}
	wg.Wait()

	headerLen := len(snapMagicV2) + 8 + // magic, cutTS
		4 + len(catJSON) + 4 + len(ledgerBlob) + // sections
		4 + len(secs)*(4+8+8+8+4) + // count + index entries
		4 // header CRC
	tmp := snapPath(db.opts.Dir, lsn) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("engine: snapshot create: %w", err)
	}
	defer func() {
		f.Close()
		os.Remove(tmp)
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write([]byte(snapMagicV2)); err != nil {
		return err
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(cutTS))
	if _, err := cw.Write(u64[:]); err != nil {
		return err
	}
	if err := writeSection(cw, catJSON); err != nil {
		return err
	}
	if err := writeSection(cw, ledgerBlob); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(secs)))
	if _, err := cw.Write(u32[:]); err != nil {
		return err
	}
	offset := uint64(headerLen)
	for _, s := range secs {
		var ent [32]byte
		binary.LittleEndian.PutUint32(ent[0:4], s.id)
		binary.LittleEndian.PutUint64(ent[4:12], s.rows)
		binary.LittleEndian.PutUint64(ent[12:20], offset)
		binary.LittleEndian.PutUint64(ent[20:28], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(ent[28:32], s.crc)
		if _, err := cw.Write(ent[:]); err != nil {
			return err
		}
		offset += uint64(len(s.data))
	}
	binary.LittleEndian.PutUint32(u32[:], cw.crc)
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	for _, s := range secs {
		if _, err := bw.Write(s.data); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, snapPath(db.opts.Dir, lsn))
}

// loadLatestSnapshot finds and loads the newest valid snapshot, returning
// the LSN recovery should replay from (0 when starting empty). A corrupt
// newest snapshot falls back to the next older one.
func (db *DB) loadLatestSnapshot() (int64, error) {
	matches, err := filepath.Glob(filepath.Join(db.opts.Dir, "snap-*.snap"))
	if err != nil {
		return 0, err
	}
	type cand struct {
		path string
		lsn  int64
	}
	var cands []cand
	for _, m := range matches {
		var lsn int64
		if _, err := fmt.Sscanf(filepath.Base(m), "snap-%016x.snap", &lsn); err == nil {
			cands = append(cands, cand{m, lsn})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lsn > cands[j].lsn })
	for _, c := range cands {
		if err := db.loadSnapshot(c.path); err != nil {
			// Fall back to an older snapshot; replay covers the gap.
			continue
		}
		return c.lsn, nil
	}
	// No usable snapshot: start from an empty catalog.
	db.cat = newCatalog()
	db.tables = make(map[uint32]*Table)
	if db.opts.Hook != nil {
		if err := db.opts.Hook.LoadState(nil); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func readSection(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// loadSnapshot dispatches on the snapshot magic; both loaders mutate db
// only after the whole file validated, so a failure leaves the database
// ready to try an older snapshot.
func (db *DB) loadSnapshot(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch {
	case len(raw) >= len(snapMagicV2) && string(raw[:len(snapMagicV2)]) == snapMagicV2:
		return db.loadSnapshotV2(path, raw)
	case len(raw) >= len(snapMagicV1) && string(raw[:len(snapMagicV1)]) == snapMagicV1:
		return db.loadSnapshotV1(path, raw)
	default:
		return fmt.Errorf("engine: bad snapshot header in %s", path)
	}
}

func (db *DB) loadSnapshotV1(path string, raw []byte) error {
	if len(raw) < len(snapMagicV1)+12 {
		return fmt.Errorf("engine: bad snapshot header in %s", path)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoliSnap) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("engine: snapshot CRC mismatch in %s", path)
	}
	r := bufio.NewReader(bytes.NewReader(body[len(snapMagicV1):]))
	var tsBuf [8]byte
	if _, err := io.ReadFull(r, tsBuf[:]); err != nil {
		return err
	}
	lastTS := int64(binary.LittleEndian.Uint64(tsBuf[:]))
	catJSON, err := readSection(r)
	if err != nil {
		return err
	}
	blob, err := readSection(r)
	if err != nil {
		return err
	}
	cat, err := unmarshalCatalog(catJSON)
	if err != nil {
		return err
	}
	tables := make(map[uint32]*Table, len(cat.Tables))
	for id, meta := range cat.Tables {
		tables[id] = newTable(meta)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return err
	}
	nTables := binary.LittleEndian.Uint32(cnt[:])
	loaded := 0
	for i := uint32(0); i < nTables; i++ {
		var hdr [12]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		id := binary.LittleEndian.Uint32(hdr[0:4])
		rows := binary.LittleEndian.Uint64(hdr[4:12])
		t, ok := tables[id]
		if !ok {
			return fmt.Errorf("engine: snapshot has rows for unknown table %d", id)
		}
		for j := uint64(0); j < rows; j++ {
			key, err := readSection(r)
			if err != nil {
				return err
			}
			rowb, err := readSection(r)
			if err != nil {
				return err
			}
			if err := sqltypes.CheckRow(rowb); err != nil {
				return err
			}
			// Snapshot rows load as a single version at timestamp 0,
			// visible to every snapshot read.
			t.loadRowLocked(key, rowb)
			loaded++
		}
	}
	// Rebuild nonclustered indexes from base data.
	for _, im := range cat.Indexes {
		t, ok := tables[im.TableID]
		if !ok {
			return fmt.Errorf("engine: index %d references unknown table %d", im.ID, im.TableID)
		}
		ix := &Index{meta: im}
		t.buildIndexLocked(ix)
		t.indexes = append(t.indexes, ix)
	}
	if db.opts.Hook != nil {
		if err := db.opts.Hook.LoadState(blob); err != nil {
			return err
		}
	}
	db.cat = cat
	db.tables = tables
	db.lastCommitTS.Store(lastTS)
	db.m.versionsLive.Set(float64(loaded))
	return nil
}

// loadSnapshotV2 validates and loads a v2 snapshot: header CRC first,
// then per-table workers each verify their section CRC, decode the row
// stream into a freshly built table (btree.BuildSorted — rows were
// written in key order), and rebuild its indexes.
func (db *DB) loadSnapshotV2(path string, raw []byte) error {
	pos := len(snapMagicV2)
	if len(raw) < pos+8 {
		return fmt.Errorf("engine: bad snapshot header in %s", path)
	}
	cutTS := int64(binary.LittleEndian.Uint64(raw[pos : pos+8]))
	pos += 8
	takeSection := func() ([]byte, error) {
		if pos+4 > len(raw) {
			return nil, fmt.Errorf("engine: snapshot truncated in %s", path)
		}
		n := int(binary.LittleEndian.Uint32(raw[pos : pos+4]))
		pos += 4
		if pos+n > len(raw) {
			return nil, fmt.Errorf("engine: snapshot truncated in %s", path)
		}
		b := raw[pos : pos+n]
		pos += n
		return b, nil
	}
	catJSON, err := takeSection()
	if err != nil {
		return err
	}
	blob, err := takeSection()
	if err != nil {
		return err
	}
	if pos+4 > len(raw) {
		return fmt.Errorf("engine: snapshot truncated in %s", path)
	}
	nTables := int(binary.LittleEndian.Uint32(raw[pos : pos+4]))
	pos += 4
	type secRef struct {
		id      uint32
		rows    uint64
		off, ln uint64
		crc     uint32
	}
	if pos+nTables*32+4 > len(raw) {
		return fmt.Errorf("engine: snapshot truncated in %s", path)
	}
	refs := make([]secRef, nTables)
	for i := range refs {
		ent := raw[pos : pos+32]
		refs[i] = secRef{
			id:   binary.LittleEndian.Uint32(ent[0:4]),
			rows: binary.LittleEndian.Uint64(ent[4:12]),
			off:  binary.LittleEndian.Uint64(ent[12:20]),
			ln:   binary.LittleEndian.Uint64(ent[20:28]),
			crc:  binary.LittleEndian.Uint32(ent[28:32]),
		}
		pos += 32
	}
	if crc32.Checksum(raw[:pos], castagnoliSnap) != binary.LittleEndian.Uint32(raw[pos:pos+4]) {
		return fmt.Errorf("engine: snapshot header CRC mismatch in %s", path)
	}
	cat, err := unmarshalCatalog(catJSON)
	if err != nil {
		return err
	}
	tables := make(map[uint32]*Table, len(cat.Tables))
	for id, meta := range cat.Tables {
		tables[id] = newTable(meta)
	}

	workers := db.recoveryWorkers()
	if workers > nTables {
		workers = nTables
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, nTables)
	loadedPer := make([]int, nTables)
	var wg sync.WaitGroup
	next := make(chan int, nTables)
	for i := 0; i < nTables; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ref := refs[i]
				t, ok := tables[ref.id]
				if !ok {
					errs[i] = fmt.Errorf("engine: snapshot has rows for unknown table %d", ref.id)
					continue
				}
				end := ref.off + ref.ln
				if ref.off > uint64(len(raw)) || end > uint64(len(raw)) || ref.off > end {
					errs[i] = fmt.Errorf("engine: snapshot section out of bounds for table %d", ref.id)
					continue
				}
				data := raw[ref.off:end]
				if crc32.Checksum(data, castagnoliSnap) != ref.crc {
					errs[i] = fmt.Errorf("engine: snapshot section CRC mismatch for table %d in %s", ref.id, path)
					continue
				}
				errs[i] = loadTableSection(t, data, ref.rows)
				loadedPer[i] = int(ref.rows)
			}
		}()
	}
	wg.Wait()
	loaded := 0
	for i, e := range errs {
		if e != nil {
			return e
		}
		loaded += loadedPer[i]
	}
	// Rebuild nonclustered indexes from base data.
	for _, im := range cat.Indexes {
		t, ok := tables[im.TableID]
		if !ok {
			return fmt.Errorf("engine: index %d references unknown table %d", im.ID, im.TableID)
		}
		ix := &Index{meta: im}
		t.buildIndexLocked(ix)
		t.indexes = append(t.indexes, ix)
	}
	if db.opts.Hook != nil {
		if err := db.opts.Hook.LoadState(blob); err != nil {
			return err
		}
	}
	db.cat = cat
	db.tables = tables
	db.lastCommitTS.Store(cutTS)
	db.m.versionsLive.Set(float64(loaded))
	return nil
}

// loadTableSection loads one v2 row stream into a fresh table. Rows were
// streamed in key order, so the clustered btree bulk-loads in O(n); each
// is checked and then stored as the bytes the file holds, in an
// allocation of its own (a slice of the file's buffer would keep the whole
// file alive for as long as any one of its rows is).
func loadTableSection(t *Table, data []byte, rows uint64) error {
	keys := make([][]byte, 0, rows)
	chains := make([]*versionChain, 0, rows)
	pos := 0
	take := func() ([]byte, error) {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("engine: snapshot section truncated for table %s", t.meta.Name)
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return nil, fmt.Errorf("engine: snapshot section truncated for table %s", t.meta.Name)
		}
		b := data[pos : pos+n]
		pos += n
		return b, nil
	}
	for j := uint64(0); j < rows; j++ {
		key, err := take()
		if err != nil {
			return err
		}
		rowb, err := take()
		if err != nil {
			return err
		}
		if err := sqltypes.CheckRow(rowb); err != nil {
			return err
		}
		// Snapshot rows load as a single version at timestamp 0, visible
		// to every snapshot read.
		keys = append(keys, bytes.Clone(key))
		chains = append(chains, newChain(0, bytes.Clone(rowb)))
	}
	if pos != len(data) {
		return fmt.Errorf("engine: snapshot section has %d trailing bytes for table %s", len(data)-pos, t.meta.Name)
	}
	t.rows = btree.BuildSorted(keys, chains)
	t.liveRows = len(keys)
	for _, k := range keys {
		t.noteRIDLocked(k)
	}
	return nil
}
