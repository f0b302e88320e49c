package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzHeapRows drives a heap's row store against a model of the row ids
// it holds and each one's versions: inserts of rows of varied length, some
// longer than a page, at row ids that leave holes, above and below the
// rows held; deletes; updates, tombstones and tamper overwrites that make
// or replace versions; version GC, as a pruned dead tombstone and at
// arbitrary horizons; forced repacks; scans resumed from arbitrary keys
// and the ranges ShardBoundaries cuts for n = 1..8. After every step the
// store must hold what the model holds, scan it in the keys' byte order,
// account every page byte, have freed every chunk no row is left in, and
// every row view handed out before must still hold the bytes it held.
func FuzzHeapRows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 200, 3, 7, 4, 5, 1, 1, 2, 0, 4, 8})
	f.Add(bytes.Repeat([]byte{0, 63, 1, 0, 3, 9, 4, 7}, 40))
	f.Add(append(bytes.Repeat([]byte{0, 31}, 60), bytes.Repeat([]byte{2, 0, 1, 0, 4, 3}, 40)...))
	f.Fuzz(runHeapOps)
}

// heapTestRow returns a row of n bytes that no other timestamp's row
// equals.
func heapTestRow(ts int64, n int) []byte {
	row := make([]byte, n)
	for i := range row {
		row[i] = byte(ts*31 + int64(i))
	}
	return row
}

// heapTestLen picks a row length from arg: 0 to 300 bytes, and, where
// long is set, one byte or more past a page.
func heapTestLen(arg byte, long bool) int {
	if long {
		return heapPageMax + 1 + int(arg)
	}
	return []int{0, 1, 5, 24, 97, 300}[arg%6]
}

// runHeapOps is one FuzzHeapRows run: ops is up to 256 pairs of an
// operation byte and its argument.
func runHeapOps(t *testing.T, ops []byte) {
	var s rowStore // a heap's
	m := heapModel{rows: make(map[uint64][]rowVersion)}
	var views []heapView
	next, ts := uint64(1), int64(0)
	key := func(rid uint64) []byte { return binary.BigEndian.AppendUint64(nil, rid) }
	held := func(arg byte) (uint64, rowRef, bool) { // a held row id picked by arg
		if len(m.rids) == 0 {
			return 0, rowRef{}, false
		}
		rid := m.rids[int(arg)%len(m.rids)]
		r, ok := s.Get(key(rid))
		if !ok {
			t.Fatalf("Get(%d) finds no row the model holds", rid)
		}
		return rid, r, true
	}
	for step := 0; len(ops) >= 2 && step < 256; ops, step = ops[2:], step+1 {
		op, arg := ops[0], ops[1]
		switch op % 10 {
		case 0: // insert arg%64+1 rows: above the rows after a gap of arg%4, or into holes
			rid := next + uint64(arg%4)
			if arg >= 128 {
				rid = 1 + uint64(arg)*uint64(arg)%next
			}
			for n := int(arg%64) + 1; n > 0; n, rid = n-1, rid+1 {
				ts++
				row := heapTestRow(ts, heapTestLen(arg+byte(n), n == int(arg%64)+1 && arg%16 == 15))
				_, found := s.GetOrPut(key(rid), newChain(ts, row))
				if want := m.has(rid); found != want {
					t.Fatalf("GetOrPut(%d) found=%v, model holds it: %v", rid, found, want)
				}
				if !found {
					m.put(rid, []rowVersion{{ts, row}})
				}
				next = max(next, rid+1)
			}
		case 1: // delete a held row, or a row id that holds none
			rid, _, ok := held(arg)
			if !ok || arg%7 == 0 {
				rid = uint64(arg) % (next + 2)
			}
			s.Delete(key(rid))
			m.delete(rid)
		case 2: // delete as version GC does: a tombstone, pruned dead
			rid, r, ok := held(arg)
			if !ok {
				continue
			}
			ts++
			dead := false
			r.edit(true, func(c versionChain) versionChain {
				c.appendVersion(ts, nil)
				_, dead = c.prune(ts)
				return c
			})
			if !dead {
				t.Fatalf("row %d: a pruned tombstone is not dead", rid)
			}
			if got, ok := s.Get(key(rid)); !ok || got != r {
				t.Fatalf("row %d: a dead tombstone is no longer under its key", rid)
			}
			s.Delete(key(rid))
			m.delete(rid)
		case 3: // a scan from an arbitrary key, in batches of arg%9+1
			start := bytes.Repeat([]byte{byte(arg)}, int(arg%11))
			batch := int(arg%9) + 1
			var got [][]byte
			for from := start; ; {
				n, last := 0, []byte(nil)
				s.AscendRange(from, nil, func(k []byte, _ *versionChain) bool {
					got, n = append(got, bytes.Clone(k)), n+1 // k is valid only during the call
					last = got[len(got)-1]
					return n < batch
				})
				if n < batch {
					break
				}
				from = append(bytes.Clone(last), 0)
			}
			var want [][]byte
			for _, rid := range m.rids {
				if k := key(rid); bytes.Compare(k, start) >= 0 {
					want = append(want, k)
				}
			}
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("a scan from %x in batches of %d returned %x, want %x", start, batch, got, want)
			}
		case 4: // the ranges of ShardBoundaries(n) cover every row once
			n := int(arg%8) + 1
			bounds := s.ShardBoundaries(n)
			if len(bounds) > n-1 {
				t.Fatalf("ShardBoundaries(%d) returned %d boundaries", n, len(bounds))
			}
			var got []uint64
			for _, r := range rangesFrom(bounds) {
				s.AscendRange(r.Start, r.End, func(k []byte, _ *versionChain) bool {
					got = append(got, binary.BigEndian.Uint64(k))
					return true
				})
			}
			if !slices.Equal(got, m.rids) {
				t.Fatalf("the %d ranges of ShardBoundaries(%d) hold %v, the store %v", len(bounds)+1, n, got, m.rids)
			}
		case 5, 6: // an update, or a delete that leaves a tombstone
			rid, r, ok := held(arg)
			if !ok {
				continue
			}
			ts++
			row := []byte(nil)
			if op%10 == 5 {
				row = heapTestRow(ts, heapTestLen(arg, arg%8 == 7))
			}
			first := false
			r.edit(true, func(c versionChain) versionChain { first = c.appendVersion(ts, row); return c })
			if want := len(m.rows[rid]) == 1; first != want {
				t.Fatalf("row %d: appendVersion reports first=%v, want %v", rid, first, want)
			}
			m.rows[rid] = append(m.rows[rid], rowVersion{ts, row})
		case 7: // version GC at a horizon arg%8 behind the clock
			rid, r, ok := held(arg)
			if !ok {
				continue
			}
			horizon := ts - int64(arg%8)
			var dropped int
			var dead bool
			r.edit(false, func(c versionChain) versionChain { dropped, dead = c.prune(horizon); return c })
			vs, wantDropped, wantDead := heapModelPrune(m.rows[rid], horizon)
			if dropped != wantDropped || dead != wantDead {
				t.Fatalf("row %d: prune(%d) dropped %d, dead=%v; want %d, %v", rid, horizon, dropped, dead, wantDropped, wantDead)
			}
			m.rows[rid] = vs
			if dead {
				s.Delete(key(rid))
				m.delete(rid)
			}
		case 8: // a tamper overwrite of the newest version's row
			rid, r, ok := held(arg)
			if !ok {
				continue
			}
			row := heapTestRow(ts+int64(arg)<<32, heapTestLen(arg, arg%8 == 7))
			r.setLatestRow(row)
			m.rows[rid][len(m.rows[rid])-1].row = row
		case 9: // a forced repack of a held row's chunk
			if rid, _, ok := held(arg); ok {
				ch, _ := s.slot(rid)
				ch.repack()
			}
		}
		checkHeapRows(t, &s, &m, &views, step)
	}
}

// heapModelPrune is versionChain.prune of versions vs, oldest first: it
// keeps the newest version at or below horizon and those above it.
func heapModelPrune(vs []rowVersion, horizon int64) ([]rowVersion, int, bool) {
	keep := 0
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].ts <= horizon {
			keep = i
			break
		}
	}
	vs = vs[keep:]
	return vs, keep, len(vs) == 1 && vs[0].row == nil && vs[0].ts <= horizon
}

// heapModel is what a heap's row store should hold: its row ids in
// ascending order, and the versions of each, oldest first.
type heapModel struct {
	rids []uint64
	rows map[uint64][]rowVersion
}

func (m *heapModel) has(rid uint64) bool {
	_, ok := slices.BinarySearch(m.rids, rid)
	return ok
}

func (m *heapModel) put(rid uint64, vs []rowVersion) {
	i, _ := slices.BinarySearch(m.rids, rid)
	m.rids, m.rows[rid] = slices.Insert(m.rids, i, rid), vs
}

func (m *heapModel) delete(rid uint64) {
	if i, ok := slices.BinarySearch(m.rids, rid); ok {
		m.rids = slices.Delete(m.rids, i, i+1)
		delete(m.rows, rid)
	}
}

// heapView is a row view the store handed out, and the bytes it held.
type heapView struct{ view, want []byte }

// sameRow reports whether a and b are the same row: equal bytes, and both
// or neither a tombstone.
func sameRow(a, b []byte) bool { return (a == nil) == (b == nil) && bytes.Equal(a, b) }

// checkHeapRows checks a heap's row store against m: a full scan and Get
// both find exactly its row ids, ascending, each with its versions; every
// chunk holds as many rows as it counts, and is freed when that is none;
// its pages hold every row's bytes, with no more dead bytes than live
// ones; the rows with older versions are the ones their slots flag; and
// every view in views still holds its bytes. Some of the scan's views join
// views.
func checkHeapRows(t *testing.T, s *rowStore, m *heapModel, views *[]heapView, step int) {
	t.Helper()
	i := 0
	s.Ascend(func(k []byte, c *versionChain) bool {
		rid := binary.BigEndian.Uint64(k)
		if i >= len(m.rids) || rid != m.rids[i] {
			t.Fatalf("scan visits row %d as row %d of %v", rid, i, m.rids)
		}
		r, ok := s.Get(k)
		if !ok {
			t.Fatalf("row %d: the scan visits it, Get does not find it", rid)
		}
		if want := m.rows[rid]; !sameVersions(c, want) {
			t.Fatalf("row %d holds %+v then %+v, want %+v", rid, derefOlder(c.older), c.newest, want)
		}
		if g := r.chain(); g.newest.ts != c.newest.ts || g.older != c.older || !sameView(g.newest.row, c.newest.row) {
			t.Fatalf("row %d: Get finds %+v, the scan %+v", rid, g, *c)
		}
		if v := c.newest.row; len(v) > 0 && (len(*views) < 128 || (step+i)%7 == 0) {
			v = v[len(v)-min(len(v), 64):] // the row's tail, where the next one is appended
			if hv := (heapView{v, bytes.Clone(v)}); len(*views) < 128 {
				*views = append(*views, hv)
			} else {
				(*views)[(step*31+i)%128] = hv
			}
		}
		i++
		return true
	})
	if i != len(m.rids) {
		t.Fatalf("scan visits %d rows, the model holds %d", i, len(m.rids))
	}
	if len(s.chunks) > 0 && s.chunks[0].slots == nil {
		t.Fatalf("the directory starts with a freed chunk %d", s.base)
	}
	flagged := 0
	for j, ch := range s.chunks {
		n, live := 0, 0
		for _, p := range ch.slots {
			if p.stored() {
				n++
			}
			if p.n&heapOlder != 0 {
				flagged++
			}
			live += len(pageRow(ch.pages, p))
		}
		if n != ch.used || (ch.used == 0) != (ch.slots == nil) {
			t.Fatalf("chunk %d holds %d rows, counts %d, freed: %v", s.base+j, n, ch.used, ch.slots == nil)
		}
		if live != ch.bytes-ch.dead || (2*ch.dead >= ch.bytes && ch.dead > 0) {
			t.Fatalf("chunk %d holds %d live bytes in pages of %d bytes, %d counted dead", s.base+j, live, ch.bytes, ch.dead)
		}
	}
	if flagged != len(s.older) {
		t.Fatalf("%d slots flag older versions, %d rows have them", flagged, len(s.older))
	}
	for _, v := range *views {
		if !bytes.Equal(v.view, v.want) {
			t.Fatalf("a view handed out earlier changed from %x to %x", v.want, v.view)
		}
	}
}

// sameVersions reports whether c holds the versions want, oldest first.
func sameVersions(c *versionChain, want []rowVersion) bool {
	n := len(want) - 1
	return n >= 0 && c.newest.ts == want[n].ts && sameRow(c.newest.row, want[n].row) &&
		slices.EqualFunc(derefOlder(c.older), want[:n], func(a, b rowVersion) bool { return a.ts == b.ts && sameRow(a.row, b.row) })
}

// sameView reports whether a and b view the same bytes.
func sameView(a, b []byte) bool {
	return (a == nil) == (b == nil) && len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func derefOlder(p *[]rowVersion) []rowVersion {
	if p == nil {
		return nil
	}
	return *p
}

// TestHeapDirectoryStaysAddressable: in a chunk whose one free slot sizes
// each new page for a single row, and whose two large rows keep its dead
// bytes below half, every update of its small row adds a page. Before the
// directory outgrows what a ref can name, the chunk repacks, and every row
// and every view handed out keeps its bytes.
func TestHeapDirectoryStaysAddressable(t *testing.T) {
	const small, updates = heapPageMin/2 + 1, heapMaxPages + 64 // two small rows overfill a page sized for one
	var s rowStore
	key := func(rid uint64) []byte { return binary.BigEndian.AppendUint64(nil, rid) }
	rows := [][]byte{nil, heapTestRow(1, updates*small/2+1), heapTestRow(2, updates*small/2+1), heapTestRow(3, small)}
	for rid := uint64(1); rid <= 3; rid++ { // chunk 0's fourth slot stays free
		s.GetOrPut(key(rid), versionChain{newest: rowVersion{ts: 1, row: rows[rid]}})
	}
	r, _ := s.Get(key(3))
	view, ch := r.chain().newest.row, &s.chunks[0]
	repacks := 0
	for i := range updates {
		pages := len(ch.pages)
		rows[3] = heapTestRow(int64(4+i), small)
		r.setLatestRow(rows[3])
		if len(ch.pages) < pages {
			repacks++
		}
		if len(ch.pages) > heapMaxPages {
			t.Fatalf("update %d: the chunk has %d pages, a ref names %d", i, len(ch.pages), heapMaxPages)
		}
	}
	if repacks == 0 || ch.dead >= ch.bytes-ch.dead {
		t.Fatalf("%d repacks; %d of %d page bytes dead", repacks, ch.dead, ch.bytes)
	}
	for rid := uint64(1); rid <= 3; rid++ {
		if r, ok := s.Get(key(rid)); !ok || !bytes.Equal(r.chain().newest.row, rows[rid]) {
			t.Fatalf("row %d does not hold its bytes", rid)
		}
	}
	if !bytes.Equal(view, heapTestRow(3, small)) {
		t.Fatalf("a view handed out before the updates changed to %x", view)
	}
}

// TestHeapInsertAllocations: applying a committed insert into a heap table
// copies its row into its chunk's pages, so it allocates nothing but the
// chunks as they fill, each with its slot array and its page directory,
// and the pages: no chain object, no row of its own and no B+tree leaf.
func TestHeapInsertAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := openTestDB(t)
	db.stopVersionGC()
	tab := mustCreate(t, db, "h", footprintSchema(false))
	const batch = 8192
	// Three measurements, each after AllocsPerRun's warm-up run; the least
	// leaves out what other goroutines allocate meanwhile.
	keys := make([][]byte, 6*batch)
	for i := range keys {
		keys[i] = tab.allocRID()
	}
	row := EncodeStoredRow(footprintRow(1))
	tab.mu.Lock()
	defer tab.mu.Unlock()
	done, allocs := 0, math.Inf(1)
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			for _, key := range keys[done : done+batch] {
				if err := tab.applyInsertLocked(key, row, 1); err != nil {
					t.Fatal(err)
				}
			}
			done += batch
		}))
	}
	// The slot arrays and page directories of the full chunks the batch
	// fills, the pages its bytes fill, and 3 for the chunk it starts, the
	// page each chunk ends part full and the directory's growth.
	pages := (batch*len(row) + heapPageMax - 1) / heapPageMax
	budget := float64(2*batch/int(heapChunkMax) + pages + 3)
	t.Logf("applying %d heap inserts allocates %.0f objects, budget %.0f", batch, allocs, budget)
	if allocs > budget {
		t.Errorf("applying %d heap inserts allocates %.0f objects, budget %.0f", batch, allocs, budget)
	}
}

// TestHeapUpdateAllocations: applying an update to a row of a key-less
// table edits the row's chain by value, so the chain view stays on the
// stack, and lists the row for GC by its row id, with no copy of its key.
// Every row has been updated three times, so its superseded versions'
// slice has room for one more, and what an update may allocate is the
// pages its new row's bytes fill and the fresh pages of a repack: a few
// objects a batch, none per update.
func TestHeapUpdateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := openTestDB(t)
	db.stopVersionGC()
	tab := mustCreate(t, db, "h", footprintSchema(false))
	const batch = 4096
	keys := make([][]byte, 6*batch)
	for i := range keys {
		keys[i] = tab.allocRID()
	}
	row := EncodeStoredRow(footprintRow(1))
	tab.mu.Lock()
	defer tab.mu.Unlock()
	ts := int64(1)
	for i := range keys {
		if err := tab.applyInsertLocked(keys[i], row, ts); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		ts++
		for _, key := range keys {
			if err := tab.applyUpdateLocked(key, row, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three measurements, each after AllocsPerRun's warm-up run, each run
	// on rows of its own; the least leaves out what other goroutines
	// allocate meanwhile.
	done, allocs := 0, math.Inf(1)
	for range 3 {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			ts++
			for _, key := range keys[done : done+batch] {
				if err := tab.applyUpdateLocked(key, row, ts); err != nil {
					t.Fatal(err)
				}
			}
			done += batch
		}))
	}
	budget := float64(batch / 16)
	t.Logf("applying %d heap updates allocates %.0f objects, budget %.0f", batch, allocs, budget)
	if allocs > budget {
		t.Errorf("applying %d heap updates allocates %.0f objects, budget %.0f", batch, allocs, budget)
	}
}

// TestTamperSetStoredRowNeedsALiveRow: in a heap and in a keyed table,
// overwriting the bytes under a key that holds no row, or only a
// tombstone, is ErrNotFound and stores nothing.
func TestTamperSetStoredRowNeedsALiveRow(t *testing.T) {
	db := openTestDB(t)
	for _, keyed := range []bool{false, true} {
		tab := mustCreate(t, db, map[bool]string{false: "h", true: "k"}[keyed], footprintSchema(keyed))
		key, err := db.DirectInsert(tab, footprintRow(1))
		if err != nil {
			t.Fatal(err)
		}
		missing := binary.BigEndian.AppendUint64(nil, 99)
		if keyed {
			missing = tab.KeyFor(footprintRow(2))
		}
		tab.mu.Lock()
		err = tab.applyDeleteLocked(key, 1)
		tab.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range [][]byte{missing, key} {
			if err := db.TamperSetStoredRow(tab, k, []byte{1}); !errors.Is(err, ErrNotFound) || tab.Has(k) {
				t.Fatalf("keyed=%v: TamperSetStoredRow(%x) = %v, and the key holds a row: %v", keyed, k, err, tab.Has(k))
			}
		}
	}
}
