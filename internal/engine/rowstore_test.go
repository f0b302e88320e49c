package engine

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzHeapRows drives a heap's row store against a model of the row ids
// it holds: inserts at row ids that leave holes, above and below
// the rows held, deletes, a tombstone's version GC, scans resumed from
// arbitrary keys and the ranges ShardBoundaries cuts for n = 1..8. After
// every step the store must hold what the model holds, scan it in the keys'
// byte order and have freed every chunk no row is left in.
func FuzzHeapRows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 200, 3, 7, 4, 5, 1, 1, 2, 0, 4, 8})
	f.Add(bytes.Repeat([]byte{0, 63, 1, 0, 3, 9, 4, 7}, 40))
	f.Add(append(bytes.Repeat([]byte{0, 31}, 60), bytes.Repeat([]byte{2, 0, 1, 0, 4, 3}, 40)...))
	f.Fuzz(runHeapOps)
}

// runHeapOps is one FuzzHeapRows run: ops is up to 256 pairs of an
// operation byte and its argument.
func runHeapOps(t *testing.T, ops []byte) {
	var s rowStore // a heap's
	var m heapModel
	next, ts := uint64(1), int64(0)
	key := func(rid uint64) []byte { return binary.BigEndian.AppendUint64(nil, rid) }
	held := func(arg byte) (uint64, bool) { // a held row id picked by arg
		if len(m.rids) == 0 {
			return 0, false
		}
		return m.rids[int(arg)%len(m.rids)], true
	}
	for ops = ops[:min(len(ops), 512)]; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], ops[1]
		switch op % 5 {
		case 0: // insert arg%64+1 rows: above the rows after a gap of arg%4, or into holes
			rid := next + uint64(arg%4)
			if arg >= 128 {
				rid = 1 + uint64(arg)*uint64(arg)%next
			}
			for n := int(arg%64) + 1; n > 0; n, rid = n-1, rid+1 {
				ts++
				c, found := s.GetOrPut(key(rid), newChain(ts, []byte{byte(rid)}))
				if want := m.has(rid); found != want || (!found && c.newest.ts != ts) {
					t.Fatalf("GetOrPut(%d) found=%v, model holds it: %v", rid, found, want)
				}
				if !found {
					m.put(rid, ts)
				}
				next = max(next, rid+1)
			}
		case 1: // delete a held row, or a row id that holds none
			rid, ok := held(arg)
			if !ok || arg%7 == 0 {
				rid = uint64(arg) % (next + 2)
			}
			s.Delete(key(rid))
			m.delete(rid)
		case 2: // delete as version GC does: a tombstone, pruned dead
			rid, ok := held(arg)
			if !ok {
				continue
			}
			c, _ := s.Get(key(rid))
			ts++
			c.appendVersion(ts, nil)
			if _, dead := c.prune(ts); !dead {
				t.Fatalf("row %d: a pruned tombstone is not dead", rid)
			}
			if got, ok := s.Get(key(rid)); !ok || got != c {
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
					got, last, n = append(got, k), k, n+1
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
		}
		checkHeapRows(t, &s, &m)
	}
}

// heapModel is what a heap's row store should hold: its row ids in
// ascending order, and the timestamp of each one's newest version.
type heapModel struct {
	rids []uint64
	ts   []int64
}

func (m *heapModel) has(rid uint64) bool {
	_, ok := slices.BinarySearch(m.rids, rid)
	return ok
}

func (m *heapModel) put(rid uint64, ts int64) {
	i, _ := slices.BinarySearch(m.rids, rid)
	m.rids, m.ts = slices.Insert(m.rids, i, rid), slices.Insert(m.ts, i, ts)
}

func (m *heapModel) delete(rid uint64) {
	if i, ok := slices.BinarySearch(m.rids, rid); ok {
		m.rids, m.ts = slices.Delete(m.rids, i, i+1), slices.Delete(m.ts, i, i+1)
	}
}

// checkHeapRows checks a heap's row store against m: a full scan visits
// exactly its row ids, ascending, each with its chain, and every chunk
// holds as many rows as it counts, and is freed when that is none.
func checkHeapRows(t *testing.T, s *rowStore, m *heapModel) {
	t.Helper()
	i := 0
	s.Ascend(func(k []byte, c *versionChain) bool {
		if i >= len(m.rids) || binary.BigEndian.Uint64(k) != m.rids[i] || c.newest.ts != m.ts[i] {
			t.Fatalf("scan visits row %x (ts %d) as row %d of %v", k, c.newest.ts, i, m.rids)
		}
		if got, ok := s.Get(k); !ok || got != c {
			t.Fatalf("row %x: Get finds %p, the scan %p", k, got, c)
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
	for j, ch := range s.chunks {
		n := 0
		for i := range ch.slots {
			if ch.slots[i].stored() {
				n++
			}
		}
		if n != ch.used || (ch.used == 0) != (ch.slots == nil) {
			t.Fatalf("chunk %d holds %d rows, counts %d, freed: %v", s.base+j, n, ch.used, ch.slots == nil)
		}
	}
}

// TestHeapInsertAllocations: applying a committed insert into a heap table
// stores its chain by value in the row-id array, so it allocates nothing
// but the array's chunks as they fill: no chain object and no B+tree leaf.
func TestHeapInsertAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := openTestDB(t)
	db.stopVersionGC()
	tab := mustCreate(t, db, "h", footprintSchema(false))
	const batch = 8192
	keys := make([][]byte, 2*batch) // AllocsPerRun's warm-up run, then the measured one
	for i := range keys {
		keys[i] = tab.allocRID()
	}
	row := EncodeStoredRow(footprintRow(1))
	tab.mu.Lock()
	defer tab.mu.Unlock()
	done := 0
	allocs := testing.AllocsPerRun(1, func() {
		for _, key := range keys[done : done+batch] {
			if err := tab.applyInsertLocked(key, row, 1); err != nil {
				t.Fatal(err)
			}
		}
		done += batch
	})
	// The full chunks the batch fills, one it starts, and the directory's
	// growth.
	if budget := float64(batch/heapChunkMax + 3); allocs > budget {
		t.Errorf("applying %d heap inserts allocates %.0f objects, budget %.0f", batch, allocs, budget)
	}
}
