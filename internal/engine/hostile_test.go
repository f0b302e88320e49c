package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// Recovery inputs are attacker inputs: an insider can rewrite the log or a
// snapshot and recompute every checksum. These tests feed Open such bytes —
// log records and snapshot files whose CRCs are valid — and require an
// error or a fallback, never a panic and never a table that answers wrong.

// hostileBase creates table t (k BIGINT key, v NVARCHAR) with index ix_v
// and rows 1..3, and table u with rows 1..2, checkpointed, plus row 4 of t
// after the checkpoint, and closes the database.
func hostileBase(t *testing.T) (dir string, tab *Table) {
	t.Helper()
	dir = t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab = mustCreate(t, db, "t", kvSchema())
	if _, err := db.CreateIndex("t", "ix_v", "v"); err != nil {
		t.Fatal(err)
	}
	u := mustCreate(t, db, "u", kvSchema())
	tx := db.Begin("u")
	for k := int64(1); k <= 3; k++ {
		tx.Insert(tab, kv(k, fmt.Sprintf("v%d", k)))
		if k <= 2 {
			tx.Insert(u, kv(k, "u"))
		}
	}
	commit(t, db, tx)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin("u")
	tx.Insert(tab, kv(4, "v4"))
	commit(t, db, tx)
	return dir, tab
}

// appendFrame appends recs to the log in dir as one frame, every checksum
// valid, and returns its LSN.
func appendFrame(t *testing.T, dir string, recs ...wal.Record) int64 {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, walFileName), wal.SyncBuffered)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendBatch(recs)
	if err == nil {
		err = l.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// requireOpenFails opens dir at 1 and at 4 recovery workers: each
// must return an error containing want and leave every file as it was.
func requireOpenFails(t *testing.T, dir, want string) {
	t.Helper()
	before := dirFiles(t, dir)
	for _, workers := range []int{1, 4} {
		db, err := Open(Options{Dir: dir, RecoveryWorkers: workers})
		if err == nil {
			db.Close()
			t.Fatalf("workers=%d: Open succeeded, want an error naming %q", workers, want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: Open error %q does not name %q", workers, err, want)
		}
		if !maps.Equal(dirFiles(t, dir), before) {
			t.Fatalf("workers=%d: failed Open modified the directory", workers)
		}
	}
}

// TestHostileDDLRecords: a DDL record redo would have to trust — no
// metadata, an unknown table, an index column outside the schema, a kind
// redo does not know (no build writes drop_index any more), a payload that
// does not decode — fails Open with an error naming the record.
func TestHostileDDLRecords(t *testing.T) {
	for _, c := range []struct {
		name, kind string
		body       func(tab *Table) []byte
	}{
		{"create_table without meta", "create_table", func(*Table) []byte { return []byte(`{"Kind":"create_table"}`) }},
		{"alter of an unknown table", "alter_table", func(*Table) []byte {
			return ddlOp{Kind: "alter_table", Meta: &TableMeta{ID: 99, Name: "x", Schema: kvSchema()}}.marshal()
		}},
		{"index on column 99", "create_index", func(tab *Table) []byte {
			return ddlOp{Kind: "create_index", Index: &IndexMeta{ID: 7, Name: "ix_bad", TableID: tab.ID(), Cols: []int{99}}}.marshal()
		}},
		{"index on a missing table", "create_index", func(*Table) []byte {
			return ddlOp{Kind: "create_index", Index: &IndexMeta{ID: 7, Name: "ix_bad", TableID: 99, Cols: []int{1}}}.marshal()
		}},
		{"alter of a table's key", "alter_table", func(tab *Table) []byte {
			m := tab.Meta()
			m.Schema = m.Schema.Clone()
			m.Schema.Key = []int{1}
			return ddlOp{Kind: "alter_table", Meta: &m}.marshal()
		}},
		{"drop of an unknown index", "drop_index", func(tab *Table) []byte {
			return ddlOp{Kind: "drop_index", Index: &IndexMeta{ID: 42, Name: "ix_none", TableID: tab.ID(), Cols: []int{1}}}.marshal()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, tab := hostileBase(t)
			lsn := appendFrame(t, dir, wal.Record{Type: wal.RecDDL,
				Payload: wal.EncodeDDL(wal.DDLPayload{Kind: c.kind, Body: c.body(tab)})})
			requireOpenFails(t, dir, fmt.Sprintf("%s record at LSN %d", c.kind, lsn))
		})
	}
	t.Run("payload that does not decode", func(t *testing.T) {
		dir, _ := hostileBase(t)
		lsn := appendFrame(t, dir, wal.Record{Type: wal.RecDDL, Payload: []byte{100}})
		requireOpenFails(t, dir, fmt.Sprintf("ddl record at LSN %d", lsn))
	})
}

// TestHostileRedoDML: a committed frame whose DML cannot apply — a
// duplicate key, an update or delete of a missing key, a write to an
// unknown table — fails Open with an error naming the table.
func TestHostileRedoDML(t *testing.T) {
	key := func(k int64) []byte { return sqltypes.EncodeKey(nil, sqltypes.NewBigInt(k)) }
	row := func(k int64) []byte { return sqltypes.EncodeRow(nil, kv(k, "hostile")) }
	for _, c := range []struct {
		name string
		typ  wal.RecordType
		tid  uint32 // 0: table t
		key  int64
		want string
	}{
		{"insert of a snapshot row's key", wal.RecInsert, 0, 1, "table t"},
		{"insert of a replayed row's key", wal.RecInsert, 0, 4, "table t"},
		{"update of a missing key", wal.RecUpdate, 0, 99, "table t"},
		{"delete of a missing key", wal.RecDelete, 0, 99, "table t"},
		{"insert into an unknown table", wal.RecInsert, 99, 5, "table 99"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, tab := hostileBase(t)
			tid := c.tid
			if tid == 0 {
				tid = tab.ID()
			}
			img := wal.DMLImage{TableID: tid, Key: key(c.key)}
			if c.typ != wal.RecDelete {
				img.Key, img.After = nil, row(c.key) // the image holds a keyed row's key
			}
			const txID = 1 << 40
			appendFrame(t, dir,
				wal.Record{Type: c.typ, TxID: txID, Payload: wal.AppendDMLImage(nil, img)},
				wal.Record{Type: wal.RecCommit, TxID: txID, Payload: wal.EncodeCommit(wal.CommitPayload{CommitTS: 1 << 62, User: "insider"})})
			requireOpenFails(t, dir, c.want)
		})
	}
}

// TestHostileLoggedKeys: the log holds a keyed row's key only in its
// after-image, and a heap row's id and every deleted key only as the key.
// A committed frame that logs a key where the image holds it, logs none
// where it must, or carries an image with no key — a key column missing or
// NULL — fails Open with an error naming the table and the frame's LSN,
// and every file is left byte for byte as it was.
func TestHostileLoggedKeys(t *testing.T) {
	rid := binary.BigEndian.AppendUint64(nil, 1<<40)
	keyOf := func(k int64) []byte { return sqltypes.EncodeKey(nil, sqltypes.NewBigInt(k)) }
	row := func(r sqltypes.Row) []byte { return sqltypes.EncodeRow(nil, r) }
	for _, c := range []struct {
		name, table string
		typ         wal.RecordType
		key, after  []byte
		want        string
	}{
		{"keyed insert that logs its key", "t", wal.RecInsert, keyOf(5), row(kv(5, "x")), "logs a key"},
		{"keyed update that logs its key", "t", wal.RecUpdate, keyOf(4), row(kv(4, "x")), "logs a key"},
		{"delete without a key", "t", wal.RecDelete, nil, nil, "logs no key"},
		{"heap insert without a row id", "h", wal.RecInsert, nil, row(sqltypes.Row{sqltypes.NewNVarChar("x")}), "logs no key"},
		{"heap update without a row id", "h", wal.RecUpdate, nil, row(sqltypes.Row{sqltypes.NewNVarChar("x")}), "logs no key"},
		{"heap delete without a row id", "h", wal.RecDelete, nil, nil, "logs no key"},
		{"heap insert with a row id", "h", wal.RecInsert, rid, row(sqltypes.Row{sqltypes.NewNVarChar("x")}), ""},
		{"image without the key column", "t", wal.RecInsert, nil, row(sqltypes.Row{}), "lacks key column 0"},
		{"image with a NULL key", "t", wal.RecInsert, nil, row(sqltypes.Row{sqltypes.NewNull(sqltypes.TypeBigInt), sqltypes.NewNVarChar("x")}), "holds NULL"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, _ := hostileBase(t)
			db := openDBAt(t, dir)
			mustCreate(t, db, "h", sqltypes.MustSchema([]sqltypes.Column{sqltypes.Col("v", sqltypes.TypeNVarChar)}))
			tab, _ := db.Table(c.table)
			db.Close()
			const txID = 1 << 40
			lsn := appendFrame(t, dir,
				wal.Record{Type: c.typ, TxID: txID, Payload: wal.AppendDMLImage(nil, wal.DMLImage{TableID: tab.ID(), Key: c.key, After: c.after})},
				wal.Record{Type: wal.RecCommit, TxID: txID, Payload: wal.EncodeCommit(wal.CommitPayload{CommitTS: 1 << 62, User: "insider"})})
			if c.want == "" { // the well-formed control
				openDBAt(t, dir)
				return
			}
			for _, want := range []string{c.want, "table " + c.table, fmt.Sprintf("at LSN %d", lsn)} {
				requireOpenFails(t, dir, want)
			}
		})
	}
}

// TestTableKeyNeverChanges: a keyed row's key is derived from its image by
// the key's ordinals, so the catalog refuses to change them, or to turn a
// keyed table into a heap.
func TestTableKeyNeverChanges(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	for want, mutate := range map[string]func(m *TableMeta){
		"cannot change": func(m *TableMeta) { m.Schema.Key = []int{1} },
		"is a heap":     func(m *TableMeta) { m.Heap = true },
	} {
		err := db.AlterTableMeta(tab.ID(), func(m *TableMeta) error { mutate(m); return nil })
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("AlterTableMeta = %v, want an error naming %q", err, want)
		}
	}
	if got := tab.Meta(); got.Heap || !slices.Equal(got.Schema.Key, []int{0}) {
		t.Fatalf("table meta after refused alters: %+v", got)
	}
}

// TestHostileSnapshotDuplicateKey: a snapshot holds a keyed row without
// its key, so a row rewritten to the image of the row before it derives
// that row's key again. The snapshot is refused, naming the table and the
// LSN of the row's frame, replay of the log restores the state, and no
// file changes.
func TestHostileSnapshotDuplicateKey(t *testing.T) {
	dir, _ := hostileBase(t)
	db := openDBAt(t, dir)
	want := dumpState(t, db)
	db.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	hdr, frames := snapshotFrames(raw)
	recs := frameRecords(frames[1]) // t's rows 1..3
	if len(recs[0]) != len(recs[1]) {
		t.Fatalf("row records of %d and %d bytes", len(recs[0]), len(recs[1]))
	}
	copy(recs[1], recs[0])
	if err := os.WriteFile(snaps[0], resealSnapshot(bytes.Join(append([][]byte{hdr}, frames...), nil)), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	db = openDBAt(t, dir)
	if got := dumpState(t, db); got != want {
		t.Fatalf("state after fallback:\n%s\nwant:\n%s", got, want)
	}
	lsn := int64(len(hdr) + len(frames[0]))
	ev := db.obs.Events().RecentOfType(obs.EventSnapshotSkipped, 10)
	db.Close()
	if len(ev) != 1 || !strings.Contains(fmt.Sprint(ev[0].Attrs[1].Value), fmt.Sprintf("table t: row 1 at LSN %d is not in key order", lsn)) {
		t.Fatalf("skip events %+v, want one naming table t and LSN %d", ev, lsn)
	}
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Fatal("opening over a refused snapshot modified the directory")
	}
}

// writeHostileSnapshot takes a checkpoint of db and rewrites its snapshot
// with the tables of db under the catalog edit leaves, every CRC valid,
// and returns its path.
func writeHostileSnapshot(t *testing.T, db *DB, edit func(c *catalog)) string {
	t.Helper()
	b, err := db.cat.marshal()
	if err != nil {
		t.Fatal(err)
	}
	c := newCatalog() // a deep copy, unchecked
	if err := json.Unmarshal(b, c); err != nil {
		t.Fatal(err)
	}
	edit(c)
	if b, err = json.Marshal(c); err != nil {
		t.Fatal(err)
	}
	lsn, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.writeSnapshot(lsn, db.LastCommitTS(), b, db.Tables()); err != nil {
		t.Fatal(err)
	}
	return snapPath(db, lsn)
}

func snapPath(db *DB, lsn int64) string {
	return filepath.Join(db.Dir(), fmt.Sprintf(snapName, lsn))
}

// TestHostileCatalogSnapshot: a snapshot whose catalog carries the defects
// of the hostile DDL records, under valid CRCs, is skipped with a warning
// naming the file and the check that refused it, and replay restores the
// state.
func TestHostileCatalogSnapshot(t *testing.T) {
	for _, c := range []struct {
		name, reason string
		edit         func(c *catalog, tid, ixid uint32)
	}{
		{"table without meta", "table without metadata", func(c *catalog, tid, _ uint32) { c.Tables[tid] = nil }},
		{"table without schema", "table without metadata or schema", func(c *catalog, tid, _ uint32) { c.Tables[tid].Schema = nil }},
		{"table filed under another id", "table 99 filed under id", func(c *catalog, tid, _ uint32) { c.Tables[tid].ID = 99 }},
		{"key on column 99", "key of table", func(c *catalog, tid, _ uint32) { c.Tables[tid].Schema.Key = []int{99} }},
		{"heap with a key", "is a heap true with 1 key columns", func(c *catalog, tid, _ uint32) { c.Tables[tid].Heap = true }},
		{"index on column 99", "names a column outside the schema", func(c *catalog, _, ixid uint32) { c.Indexes[ixid].Cols = []int{99} }},
		{"index on a missing table", "names unknown table 99", func(c *catalog, _, ixid uint32) { c.Indexes[ixid].TableID = 99 }},
		{"index filed under another id", "index 42 filed under id", func(c *catalog, _, ixid uint32) { c.Indexes[ixid].ID = 42 }},
		{"table id at the allocator", "(next id 1)", func(c *catalog, _, _ uint32) { c.NextTableID = 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, _ := hostileBase(t)
			db := openDBAt(t, dir)
			want := dumpState(t, db)
			tab, _ := db.Table("t")
			path := writeHostileSnapshot(t, db, func(cat *catalog) { c.edit(cat, tab.ID(), tab.Indexes()[0].meta.ID) })
			db.Close()

			for _, workers := range []int{1, 4} {
				db, err := Open(Options{Dir: dir, RecoveryWorkers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := dumpState(t, db)
				skipped := db.obs.Events().RecentOfType(obs.EventSnapshotSkipped, 10)
				db.Close()
				if got != want {
					t.Fatalf("workers=%d: state after fallback:\n%s\nwant:\n%s", workers, got, want)
				}
				if len(skipped) != 1 || fmt.Sprint(skipped[0].Attrs[0].Value) != path ||
					!strings.Contains(fmt.Sprint(skipped[0].Attrs[1].Value), c.reason) {
					t.Fatalf("workers=%d: skip events %+v, want one naming %s for %q", workers, skipped, path, c.reason)
				}
			}
		})
	}
}

// TestHostileSnapshotSections: a snapshot whose frames are rewritten under
// recomputed CRCs — rows swapped out of key order (a bulk-loaded tree over
// them would miss keys its scan returns), tables out of order (two workers
// would load one table at once), a row record that is no INSERT, a file
// cut at a frame boundary before its COMMIT, a frame after the COMMIT — is
// skipped with the reason, and replay restores every key.
func TestHostileSnapshotSections(t *testing.T) {
	// The frames of hostileBase's snapshot: the catalog, t's three rows,
	// u's two rows and the COMMIT.
	for _, c := range []struct {
		name, reason string
		edit         func(hdr []byte, frames [][]byte) []byte
	}{
		{"rows out of key order", "not in key order", func(hdr []byte, frames [][]byte) []byte {
			recs := frameRecords(frames[1])
			both := recs[0][:len(recs[0])+len(recs[1])]
			copy(both, append(bytes.Clone(recs[1]), recs[0]...))
			return bytes.Join(append([][]byte{hdr}, frames...), nil)
		}},
		{"tables out of order", "out of table order", func(hdr []byte, frames [][]byte) []byte {
			return bytes.Join([][]byte{hdr, frames[0], frames[2], frames[1], frames[3]}, nil)
		}},
		{"a row record that is no INSERT", "row record of type UPDATE", func(hdr []byte, frames [][]byte) []byte {
			frameRecords(frames[1])[0][0] = byte(wal.RecUpdate)
			return bytes.Join(append([][]byte{hdr}, frames...), nil)
		}},
		{"cut at a frame boundary", "ends before its COMMIT", func(hdr []byte, frames [][]byte) []byte {
			return bytes.Join(append([][]byte{hdr}, frames[:3]...), nil)
		}},
		{"a frame after the COMMIT", "after its COMMIT", func(hdr []byte, frames [][]byte) []byte {
			return bytes.Join(append([][]byte{hdr}, append(frames, frames[2])...), nil)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, _ := hostileBase(t)
			db := openDBAt(t, dir)
			want := dumpState(t, db)
			db.Close()
			snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.log"))
			raw, err := os.ReadFile(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			hdr, frames := snapshotFrames(raw)
			if len(frames) != 4 {
				t.Fatalf("snapshot has %d frames, want 4", len(frames))
			}
			if err := os.WriteFile(snaps[0], resealSnapshot(c.edit(hdr, frames)), 0o644); err != nil {
				t.Fatal(err)
			}
			db = openDBAt(t, dir)
			if got := dumpState(t, db); got != want {
				t.Fatalf("state after fallback:\n%s\nwant:\n%s", got, want)
			}
			if ev := db.obs.Events().RecentOfType(obs.EventSnapshotSkipped, 10); len(ev) != 1 ||
				!strings.Contains(fmt.Sprint(ev[0].Attrs[1].Value), c.reason) {
				t.Fatalf("skip events %+v, want one for %q", ev, c.reason)
			}
			checkLoaded(t, db)
		})
	}
}

// snapshotFrames splits a snapshot into its header and its whole frames,
// as slices of raw; it stops at the first frame that overruns raw.
func snapshotFrames(raw []byte) (hdr []byte, frames [][]byte) {
	if len(raw) < wal.HeaderLen {
		return raw, nil
	}
	for b := raw[wal.HeaderLen:]; len(b) >= 8; {
		n := 8 + int(binary.LittleEndian.Uint32(b))
		if n < 8 || n > len(b) {
			break
		}
		frames = append(frames, b[:n:n])
		b = b[n:]
	}
	return raw[:wal.HeaderLen], frames
}

// frameRecords returns the records of a well-formed frame (type, payload
// length and payload), as slices of it that run on to its end.
func frameRecords(frame []byte) [][]byte {
	body := frame[8:]
	_, pos := binary.Uvarint(body)
	var recs [][]byte
	for pos < len(body) {
		n, w := binary.Uvarint(body[pos+1:])
		end := pos + 1 + w + int(n)
		recs = append(recs, body[pos:end])
		pos = end
	}
	return recs
}

// resealSnapshot returns raw with the CRC of every whole frame recomputed,
// as an insider who rewrites the file would leave it.
func resealSnapshot(raw []byte) []byte {
	b := bytes.Clone(raw)
	_, frames := snapshotFrames(b)
	for _, f := range frames {
		binary.LittleEndian.PutUint32(f[4:], crc32.Checksum(f[8:], crc32.MakeTable(crc32.Castagnoli)))
	}
	return b
}

// checkLoaded holds every table of db to what a loaded snapshot promises:
// a scan in strictly ascending key order whose every key Get finds, as
// many rows as RowCount says, and index entries that each resolve to a
// live row.
func checkLoaded(t *testing.T, db *DB) {
	t.Helper()
	for _, tab := range db.Tables() {
		var keys [][]byte
		tab.Scan(func(k []byte, _ sqltypes.Row) bool {
			if n := len(keys); n > 0 && bytes.Compare(k, keys[n-1]) <= 0 {
				t.Fatalf("table %d: scan key %x after %x", tab.ID(), k, keys[n-1])
			}
			keys = append(keys, bytes.Clone(k))
			return true
		})
		if len(keys) != tab.RowCount() {
			t.Fatalf("table %d: scanned %d rows, RowCount %d", tab.ID(), len(keys), tab.RowCount())
		}
		for _, ix := range tab.Indexes() {
			tab.ScanIndex(ix, func(_, ck []byte) bool {
				keys = append(keys, bytes.Clone(ck))
				return true
			})
		}
		for _, k := range keys {
			if _, ok := tab.getAt(k, latest, nil); !ok {
				t.Fatalf("table %d: key %x is scanned or indexed but Get misses it", tab.ID(), k)
			}
		}
	}
}

// TestLoadSnapshotSeedsAreCurrent: every checked-in FuzzLoadSnapshot seed
// carries this build's format version. A seed of an older one is refused
// at the header and never reaches the check it was kept for, so a format
// change must regenerate them.
func TestLoadSnapshotSeedsAreCurrent(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzLoadSnapshot/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzLoadSnapshot seeds (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1", then the one argument: []byte("...").
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var ferr wal.ErrFormat
		if _, _, err := wal.NewBytesReader([]byte(raw)); errors.As(err, &ferr) {
			t.Errorf("%s: %v; regenerate it in format version %d", p, err, wal.FormatVersion)
		}
	}
}

// FuzzLoadSnapshot replays arbitrary bytes as a snapshot, and the same
// bytes with every frame CRC recomputed so that a mutation reaches the
// checks behind them, and installs what loadSnapshot accepts as recovery
// does: it must never panic, and whatever it accepts must pass
// checkLoaded.
// The seeds are snapshots Checkpoint wrote of a keyed table with an index,
// a heap table, rows stored before an ADD COLUMN and a dropped column.
func FuzzLoadSnapshot(f *testing.F) {
	db, err := Open(Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable(CreateTableSpec{Name: "t", Schema: kvSchema()})
	if err == nil {
		_, err = db.CreateIndex("t", "ix_v", "v")
	}
	heap, herr := db.CreateTable(CreateTableSpec{Name: "h", Schema: sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("v", sqltypes.TypeNVarChar)})})
	if err = errors.Join(err, herr); err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	step := func(alter func(m *TableMeta), rows ...sqltypes.Row) {
		if alter != nil {
			if err := db.AlterTableMeta(tab.ID(), func(m *TableMeta) error { alter(m); return nil }); err != nil {
				f.Fatal(err)
			}
		}
		tx := db.Begin("u")
		for _, r := range rows {
			tx.Insert(tab, r)
			tx.Insert(heap, sqltypes.Row{r[1]})
		}
		if _, err := db.Commit(tx); err != nil {
			f.Fatal(err)
		}
		lsn, err := db.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(snapPath(db, lsn))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	step(nil, kv(1, "a"), kv(2, "b"), kv(3, "c"))
	step(func(m *TableMeta) {
		m.Schema.Columns = append(m.Schema.Columns, sqltypes.Column{Name: "extra", Type: sqltypes.TypeInt, Nullable: true, Ordinal: 2})
	}, sqltypes.Row{sqltypes.NewBigInt(4), sqltypes.NewNVarChar("d"), sqltypes.NewInt(4)})
	step(func(m *TableMeta) { m.Schema.Columns[2].Dropped = true },
		sqltypes.Row{sqltypes.NewBigInt(5), sqltypes.NewNVarChar("e"), sqltypes.NewNull(sqltypes.TypeInt)})
	load := func(b []byte) (*DB, error) {
		probe := &DB{opts: Options{RecoveryWorkers: 2}, m: bindDBMetrics(obs.Disabled())}
		r, _, err := wal.NewBytesReader(b)
		rd := newRedo(probe)
		if err == nil {
			err = probe.loadSnapshot(r, rd)
		}
		if err == nil {
			probe.installRecovered(rd, probe.recoveryWorkers())
		}
		return probe, err
	}
	for _, raw := range seeds {
		if _, err := load(raw); err != nil {
			f.Fatalf("a snapshot Checkpoint wrote does not load: %v", err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, b := range [][]byte{raw, resealSnapshot(raw)} {
			if probe, err := load(b); err == nil {
				checkLoaded(t, probe)
			}
		}
	})
}
