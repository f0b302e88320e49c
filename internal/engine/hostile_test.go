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

// requireOpenFails opens dir with serial and with parallel replay: each
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
// metadata, an unknown table or index, an index column outside the schema,
// a payload that does not decode — fails Open with an error naming the
// record.
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
				img.After = row(c.key)
			}
			const txID = 1 << 40
			appendFrame(t, dir,
				wal.Record{Type: c.typ, TxID: txID, Payload: wal.AppendDMLImage(nil, img)},
				wal.Record{Type: wal.RecCommit, TxID: txID, Payload: wal.EncodeCommit(wal.CommitPayload{CommitTS: 1 << 62, User: "insider"})})
			requireOpenFails(t, dir, c.want)
		})
	}
}

// writeHostileSnapshot writes, as the newest snapshot of db, the tables of
// db under the catalog edit leaves, with every CRC valid, and returns its
// path.
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
	lsn := db.LogSize()
	if err := db.writeSnapshot(lsn, db.LastCommitTS(), b, db.Tables()); err != nil {
		t.Fatal(err)
	}
	return snapPath(db.Dir(), lsn)
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
				skipped := db.Obs().Events().RecentOfType(obs.EventSnapshotSkipped, 10)
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

// TestHostileSnapshotSections: a snapshot whose table index or sections
// are rewritten under recomputed CRCs — rows swapped out of key order (a
// bulk-loaded tree over them would miss keys its scan returns), a row count
// no section can hold, a table listed twice (two workers would load it at
// once) — is skipped with the reason, and replay restores every key.
func TestHostileSnapshotSections(t *testing.T) {
	for _, c := range []struct {
		name, reason string
		edit         func(index, raw []byte)
	}{
		{"rows out of key order", "not in key order", func(index, raw []byte) {
			off, ln := binary.LittleEndian.Uint64(index[12:]), binary.LittleEndian.Uint64(index[20:])
			s := &snapReader{b: raw[off : off+ln]}
			s.section()
			s.section()
			first := s.pos
			s.section()
			s.section()
			sec := raw[off : off+uint64(s.pos)]
			copy(sec, append(bytes.Clone(sec[first:]), sec[:first]...))
		}},
		{"row count beyond the section", "claims", func(index, _ []byte) {
			binary.LittleEndian.PutUint64(index[4:], 1<<40)
		}},
		{"table listed twice", "out of table order", func(index, _ []byte) {
			copy(index[32:36], index[0:4])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, _ := hostileBase(t)
			db := openDBAt(t, dir)
			want := dumpState(t, db)
			db.Close()
			snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			raw, err := os.ReadFile(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			r := &snapReader{b: raw}
			r.next(len(snapMagic))
			r.uint(8)
			r.section()
			r.section()
			c.edit(r.next(int(r.uint(4))*32), raw)
			if err := os.WriteFile(snaps[0], resealSnapshot(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			db = openDBAt(t, dir)
			if got := dumpState(t, db); got != want {
				t.Fatalf("state after fallback:\n%s\nwant:\n%s", got, want)
			}
			if ev := db.Obs().Events().RecentOfType(obs.EventSnapshotSkipped, 10); len(ev) != 1 ||
				!strings.Contains(fmt.Sprint(ev[0].Attrs[1].Value), c.reason) {
				t.Fatalf("skip events %+v, want one for %q", ev, c.reason)
			}
			checkLoaded(t, db)
		})
	}
}

// resealSnapshot returns raw with every CRC a snapshot carries recomputed
// — each section's whose bounds lie inside the file, then the header's —
// as an insider who rewrites the file would leave it.
func resealSnapshot(raw []byte) []byte {
	b := bytes.Clone(raw)
	r := &snapReader{b: b}
	r.next(len(snapMagic))
	r.uint(8)
	r.section()
	r.section()
	index := r.next(int(r.uint(4)) * 32)
	if r.err != nil || len(b)-r.pos < 4 {
		return b
	}
	for e := index; len(e) > 0; e = e[32:] {
		off, ln := binary.LittleEndian.Uint64(e[12:]), binary.LittleEndian.Uint64(e[20:])
		if off <= uint64(len(b)) && ln <= uint64(len(b))-off {
			binary.LittleEndian.PutUint32(e[28:], crc32.Checksum(b[off:off+ln], castagnoliSnap))
		}
	}
	binary.LittleEndian.PutUint32(b[r.pos:], crc32.Checksum(b[:r.pos], castagnoliSnap))
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
			if _, ok := tab.Lookup(k); !ok {
				t.Fatalf("table %d: key %x is scanned or indexed but Get misses it", tab.ID(), k)
			}
		}
	}
}

// FuzzLoadSnapshot feeds loadSnapshot arbitrary bytes, and the same bytes
// with every CRC recomputed so that a mutation reaches the checks behind
// them: it must never panic, and whatever it accepts must pass checkLoaded.
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
		raw, err := os.ReadFile(snapPath(db.Dir(), lsn))
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
	for _, raw := range seeds {
		probe := &DB{opts: Options{RecoveryWorkers: 2}, m: bindDBMetrics(obs.Disabled())}
		if err := probe.loadSnapshot("seed", raw); err != nil {
			f.Fatalf("a snapshot Checkpoint wrote does not load: %v", err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, b := range [][]byte{raw, resealSnapshot(raw)} {
			probe := &DB{opts: Options{RecoveryWorkers: 2}, m: bindDBMetrics(obs.Disabled())}
			if probe.loadSnapshot("fuzz", b) == nil {
				checkLoaded(t, probe)
			}
		}
	})
}
