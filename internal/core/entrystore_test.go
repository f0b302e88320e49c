package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/wal"
)

// oracleStore is the entry store as it was before the queue was packed: a
// slice of *wal.LedgerEntry, one heap object and one roots clone per
// commit. Its reads are the plainest that answer the same questions (whole
// table scans, no index), so the packed store is checked against a model
// rather than against itself.
type oracleStore struct {
	edb   *engine.DB
	table *engine.Table
	size  uint32
	queue []*wal.LedgerEntry
	block uint64
	ord   uint32
}

func (o *oracleStore) assign(txID uint64, commitTS int64, user string, roots []wal.TableRoot) *wal.LedgerEntry {
	if o.ord >= o.size {
		o.block++
		o.ord = 0
	}
	e := &wal.LedgerEntry{TxID: txID, BlockID: o.block, Ordinal: o.ord, CommitTS: commitTS, User: user,
		Roots: slices.Clone(roots)}
	o.ord++
	o.queue = append(o.queue, e)
	return e
}

func (o *oracleStore) seal() int64 {
	if o.ord > 0 {
		o.block++
		o.ord = 0
	}
	return int64(o.block) - 1
}

func (o *oracleStore) drain() {
	for _, e := range o.queue {
		_, _ = o.edb.DirectInsert(o.table, entryToRow(e))
	}
	o.queue = nil
}

// persisted returns every entry in the table.
func (o *oracleStore) persisted() []*wal.LedgerEntry {
	var out []*wal.LedgerEntry
	o.table.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
		if e, _ := entryOf(nil, key, stored); e != nil {
			out = append(out, e)
		}
		return true
	})
	return out
}

func (o *oracleStore) restore(recovered []*wal.LedgerEntry, closedThrough int64) {
	for _, e := range recovered {
		if !o.table.Has(txKey(e.TxID)) {
			o.queue = append(o.queue, e)
		}
	}
	o.block, o.ord = uint64(closedThrough+1), 0
	for _, e := range append(o.persisted(), o.queue...) {
		b, ord := e.BlockID, e.Ordinal+1
		if ord >= o.size {
			b, ord = b+1, 0
		}
		if b > o.block || (b == o.block && ord > o.ord) {
			o.block, o.ord = b, ord
		}
	}
}

func (o *oracleStore) dropBefore(before uint64) {
	o.queue = slices.DeleteFunc(o.queue, func(e *wal.LedgerEntry) bool { return e.BlockID < before })
	for _, e := range o.persisted() {
		if e.BlockID < before {
			_ = o.edb.TamperDeleteRow(o.table, txKey(e.TxID), true)
		}
	}
}

// byTx is every entry, queued or persisted, by transaction.
func (o *oracleStore) byTx() map[uint64]*wal.LedgerEntry {
	m := make(map[uint64]*wal.LedgerEntry)
	for _, e := range append(o.persisted(), o.queue...) {
		m[e.TxID] = e
	}
	return m
}

// byBlock is every entry by block, in ordinal order.
func byBlockOf(byTx map[uint64]*wal.LedgerEntry) map[uint64][]*wal.LedgerEntry {
	m := make(map[uint64][]*wal.LedgerEntry)
	for _, e := range byTx {
		m[e.BlockID] = append(m[e.BlockID], e)
	}
	for _, es := range m {
		sort.Slice(es, func(i, j int) bool { return es[i].Ordinal < es[j].Ordinal })
	}
	return m
}

// newSysTxTable opens an engine in a fresh directory with an empty
// sys_ledger_transactions.
func newSysTxTable(t testing.TB) (*engine.DB, *engine.Table) {
	t.Helper()
	edb, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edb.Close() })
	tab, err := edb.CreateTable(engine.CreateTableSpec{Name: sysTxName, Schema: sysTxSchema, System: true})
	if err != nil {
		t.Fatal(err)
	}
	return edb, tab
}

func newTestEntryStore(t testing.TB, size uint32) *entryStore {
	t.Helper()
	edb, tab := newSysTxTable(t)
	s, err := newEntryStore(edb, tab, size)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newOracleStore(t testing.TB, size uint32) *oracleStore {
	t.Helper()
	edb, tab := newSysTxTable(t)
	return &oracleStore{edb: edb, table: tab, size: size}
}

// testRoots returns k roots whose bytes derive from seed.
func testRoots(k int, seed uint64) []wal.TableRoot {
	roots := make([]wal.TableRoot, k)
	for i := range roots {
		roots[i].TableID = uint32(seed) + uint32(i)
		for j := range roots[i].Root {
			roots[i].Root[j] = byte(seed>>(j%8)) ^ byte(i*31+j)
		}
	}
	return roots
}

func sameEntry(a, b *wal.LedgerEntry) bool {
	return a.TxID == b.TxID && a.BlockID == b.BlockID && a.Ordinal == b.Ordinal &&
		a.CommitTS == b.CommitTS && a.User == b.User && slices.Equal(a.Roots, b.Roots)
}

func sameEntries(a, b []*wal.LedgerEntry) bool {
	return slices.EqualFunc(a, b, sameEntry)
}

func entryString(e *wal.LedgerEntry) string {
	return fmt.Sprintf("{tx %d at %d.%d ts %d %s %d roots}", e.TxID, e.BlockID, e.Ordinal, e.CommitTS, e.User, len(e.Roots))
}

func entriesString(es []*wal.LedgerEntry) string {
	s := make([]string, len(es))
	for i, e := range es {
		s[i] = entryString(e)
	}
	return fmt.Sprint(s)
}

// compareWithOracle fails unless every read of s answers what o does.
func compareWithOracle(t *testing.T, step string, s *entryStore, o *oracleStore, rng *rand.Rand) {
	t.Helper()
	block, ord, queued := s.position()
	if block != o.block || ord != o.ord || queued != len(o.queue) {
		t.Fatalf("%s: position (%d, %d, %d queued), oracle (%d, %d, %d)", step, block, ord, queued, o.block, o.ord, len(o.queue))
	}
	want := o.byTx()
	wantByBlock := byBlockOf(want)
	byTx, byBlock, unreadable := s.all()
	if len(unreadable) > 0 {
		t.Fatalf("%s: all reports unreadable entries %v", step, unreadable)
	}
	if len(byTx) != len(want) {
		t.Fatalf("%s: all has %d transactions, oracle %d", step, len(byTx), len(want))
	}
	for txID, e := range want {
		if got := byTx[txID]; got == nil || !sameEntry(got, e) {
			t.Fatalf("%s: all: transaction %d is %v, oracle %s", step, txID, got, entryString(e))
		}
	}
	for b := uint64(0); b <= o.block; b++ {
		wantB := wantByBlock[b]
		got, err := s.ofBlock(b)
		if err != nil || !sameEntries(got, wantB) {
			t.Fatalf("%s: ofBlock(%d) = %s, %v; oracle %s", step, b, entriesString(got), err, entriesString(wantB))
		}
		if !sameEntries(byBlock[b], wantB) {
			t.Fatalf("%s: all's block %d = %s; oracle %s", step, b, entriesString(byBlock[b]), entriesString(wantB))
		}
	}
	// get: a random half of the transactions, then one that is not there.
	ask := make(map[uint64]*wal.LedgerEntry)
	for txID := range want {
		if rng.Intn(2) == 0 {
			ask[txID] = nil
		}
	}
	if err := s.get(ask); err != nil {
		t.Fatalf("%s: get: %v", step, err)
	}
	for txID, e := range ask {
		if !sameEntry(e, want[txID]) {
			t.Fatalf("%s: get(%d) = %s, oracle %s", step, txID, entryString(e), entryString(want[txID]))
		}
	}
	if err := s.get(map[uint64]*wal.LedgerEntry{1 << 40: nil}); err == nil {
		t.Fatalf("%s: get of a transaction never assigned succeeded", step)
	}
}

// TestEntryStoreMatchesOracle runs seeded interleavings of assign (0–6
// roots, two users), seal, drain, restore and dropBefore on the packed
// store and on the pointer queue it replaced, and compares position,
// ofBlock of every block, all and get after every step. The short runs
// stay inside one chunk; the long one fills several record and root chunks
// between drains, with one entry whose roots are longer than a chunk, and
// compares every 1 000 steps.
func TestEntryStoreMatchesOracle(t *testing.T) {
	runs := []struct {
		seed               int64
		steps, every, rare int // rare: the per-mille of steps that are not assign
	}{{1, 300, 1, 300}, {2, 300, 1, 300}, {3, 300, 1, 300}, {4, 300, 1, 300},
		{5, 300, 1, 300}, {6, 300, 1, 300}, {7, 300, 1, 300}, {8, 300, 1, 300}, {9, 20000, 1000, 1}}
	for _, run := range runs {
		t.Run(fmt.Sprint(run.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(run.seed))
			size := uint32(1 + rng.Intn(7))
			s, o := newTestEntryStore(t, size), newOracleStore(t, size)
			var history []*wal.LedgerEntry // the entries the log holds, for restore
			var cut uint64                 // the last dropBefore's
			nextTx := uint64(1)
			var recChunks, rootChunks int // the most the queue has held
			for step := 0; step < run.steps; step++ {
				var name string
				op := 100
				if rng.Intn(1000) < run.rare {
					op = rng.Intn(30)
				}
				switch {
				case op >= 30:
					k := rng.Intn(7)
					if step == run.steps/2 {
						k = chunkLen + 1
					}
					user := []string{"alice", "bob"}[rng.Intn(2)]
					roots := testRoots(k, nextTx)
					ts := int64(rng.Uint64() >> 1)
					got := s.assign(nextTx, ts, user, roots)
					want := o.assign(nextTx, ts, user, roots)
					if !sameEntry(&got, want) {
						t.Fatalf("step %d: assign = %s, oracle %s", step, entryString(&got), entryString(want))
					}
					clear(roots) // the store keeps its own copy
					history = append(history, want)
					nextTx++
					name = "assign"
				case op < 10:
					if a, b := s.seal(), o.seal(); a != b {
						t.Fatalf("step %d: seal = %d, oracle %d", step, a, b)
					}
					name = "seal"
				case op < 18:
					s.drain()
					o.drain()
					name = "drain"
				case op < 24:
					// A reopen: a new store over the same table, given the
					// entries the log would replay. One in ten is lost for
					// good, so that the queue has gaps in a block's ordinals.
					closed := int64(rng.Intn(int(o.block)+1)) - 1
					history = slices.DeleteFunc(history, func(e *wal.LedgerEntry) bool {
						return e.BlockID < cut || rng.Intn(10) == 0
					})
					recovered := slices.Clone(history)
					s2, err := newEntryStore(s.edb, s.table, size)
					if err != nil {
						t.Fatal(err)
					}
					if err := s2.restore(recovered, closed); err != nil {
						t.Fatal(err)
					}
					s = s2
					o.queue = nil
					o.restore(recovered, closed)
					name = fmt.Sprintf("restore(closed %d)", closed)
				default:
					cut = max(cut, uint64(rng.Intn(int(o.block)+1)))
					if err := s.dropBefore(cut); err != nil {
						t.Fatal(err)
					}
					o.dropBefore(cut)
					name = fmt.Sprintf("dropBefore(%d)", cut)
				}
				if step%run.every == 0 || step == run.steps-1 {
					compareWithOracle(t, fmt.Sprintf("step %d %s", step, name), s, o, rng)
				}
				recChunks, rootChunks = max(recChunks, len(s.q.recs.c)), max(rootChunks, len(s.q.roots.c))
			}
			if run.steps > chunkLen && (recChunks <= rampChunks || rootChunks <= rampChunks+1) {
				t.Fatalf("the queue held at most %d record and %d root chunks, want several", recChunks, rootChunks)
			}
		})
	}
}

// TestEntryStoreConcurrentReader: a reader's lookups run beside commits and
// drains (run it under -race). Every transaction assigned before a lookup
// begins is found, whichever side of a drain it is on.
func TestEntryStoreConcurrentReader(t *testing.T) {
	s := newTestEntryStore(t, 5)
	var last atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			txID := last.Load()
			if txID == 0 {
				continue
			}
			want := map[uint64]*wal.LedgerEntry{txID: nil}
			if err := s.get(want); err != nil {
				t.Error(err)
				return
			}
			es, err := s.ofBlock(want[txID].BlockID)
			if err != nil || !slices.ContainsFunc(es, func(e *wal.LedgerEntry) bool { return sameEntry(e, want[txID]) }) {
				t.Errorf("ofBlock(%d) lacks transaction %d: %s, %v", want[txID].BlockID, txID, entriesString(es), err)
				return
			}
			if byTx, _, _ := s.all(); byTx[txID] == nil {
				t.Errorf("all lacks transaction %d", txID)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	for txID := uint64(1); txID <= 5000; txID++ {
		s.assign(txID, int64(txID), "alice", testRoots(rng.Intn(7), txID))
		last.Store(txID)
		switch rng.Intn(1000) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
			s.seal()
		case 10:
			s.drain() // rarely, so the queue fills several chunks between drains
		}
	}
	close(stop)
	wg.Wait()
}

// liveBytesPerEntry is the live heap one queued entry costs: the heap after
// fill queues n entries, less the heap before, over n. keep holds what fill
// built until the second reading.
func liveBytesPerEntry(n int, fill func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestEntryStoreAllocs is the queue's allocation and footprint gate. Over
// 4 096 calls, assign allocates nothing but its share of a chunk: ≤ 0.01
// allocations per call, on a queue that already holds 4 096 entries, as
// one does between checkpoints. (A new queue's first calls also pay for
// its short first chunks, about ten allocations per checkpoint: the first
// 4 096 calls' figure is logged.) A queued entry holds 24 bytes, 36 per
// root and its share of the run table and of the last chunks' unused
// tails: within 32 + 36·k bytes at k roots. The footprint is taken at
// 65 536 queued entries, the size of a 12 s tpce run's queue. The pointer
// queue's figures are logged beside them.
func TestEntryStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	const block = 1000 // DefaultBlockSize
	for _, k := range []int{1, 3, 6} {
		roots := testRoots(k, 7)
		s := newTestEntryStore(t, block)
		var txID uint64
		const calls = 4096
		var allocs [2]float64 // the first calls, the next
		for i := range allocs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for j := 0; j < calls; j++ {
				txID++
				s.assign(txID, int64(txID), "alice", roots)
			}
			runtime.ReadMemStats(&m1)
			allocs[i] = float64(m1.Mallocs-m0.Mallocs) / calls
		}
		if allocs[1] > 0.01 {
			t.Errorf("k=%d: assign allocates %.4f objects per call, want ≤ 0.01", k, allocs[1])
		}

		const n = 1 << 16
		packed := liveBytesPerEntry(n, func() any {
			s := newTestEntryStore(t, block)
			for i := uint64(1); i <= n; i++ {
				s.assign(i, int64(i), "alice", roots)
			}
			return s
		})
		pointers := liveBytesPerEntry(n, func() any {
			o := &oracleStore{size: block}
			for i := uint64(1); i <= n; i++ {
				o.assign(i, int64(i), "alice", roots)
			}
			return o
		})
		bound := float64(32 + 36*k)
		t.Logf("k=%d roots: %.4f allocations per assign (%.4f over a new queue's first calls); "+
			"%.1f B per queued entry (bound %.0f), the pointer queue %.1f B", k, allocs[1], allocs[0], packed, bound, pointers)
		if packed > bound {
			t.Errorf("k=%d: a queued entry holds %.1f B of live heap, want ≤ %.0f", k, packed, bound)
		}
	}
}

// BenchmarkEntryStoreAssign prices what commit does under commitMu for the
// ledger queue: one assign with three roots (tpce's mean is 3.6), on the
// packed store and on the pointer queue it replaced. A drain every 65 536
// calls keeps the queue at a benchmark run's size.
func BenchmarkEntryStoreAssign(b *testing.B) {
	roots := testRoots(3, 7)
	b.Run("packed", func(b *testing.B) {
		s := newTestEntryStore(b, 1000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(1<<16) == 0 {
				s.reset()
			}
			s.assign(uint64(i), int64(i), "alice", roots)
		}
	})
	b.Run("pointers", func(b *testing.B) {
		o := &oracleStore{size: 1000}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%(1<<16) == 0 {
				o.queue = nil
			}
			o.assign(uint64(i), int64(i), "alice", roots)
		}
	})
}
