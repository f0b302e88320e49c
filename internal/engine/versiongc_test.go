package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// chainState renders every chain of every table — key, then each version's
// timestamp and bytes, oldest first — and its index entries, so two states
// compare as strings.
func chainState(db *DB) string {
	s, _ := fullWalkPrune(db, math.MinInt64) // prunes nothing
	return s
}

// fullWalkPrune is the sweep that walks every chain of every table: it
// renders the state that sweep leaves at horizon, as chainState does, and
// returns the number of versions it reclaims. It prunes copies; the
// chains themselves are not touched.
func fullWalkPrune(db *DB, horizon int64) (string, int) {
	var sb strings.Builder
	reclaimed := 0
	for _, tab := range db.Tables() {
		fmt.Fprintf(&sb, "table %s live=%d\n", tab.Name(), tab.RowCount())
		tab.mu.RLock()
		tab.rows.Ascend(func(k []byte, c *versionChain) bool {
			cp := &versionChain{newest: c.newest}
			if c.older != nil {
				older := slices.Clone(*c.older)
				cp.older = &older
			}
			dropped, dead := cp.prune(horizon)
			reclaimed += dropped
			if dead {
				reclaimed++
				return true
			}
			fmt.Fprintf(&sb, "  %x:", k)
			var older []rowVersion
			if cp.older != nil {
				older = *cp.older
			}
			for _, v := range append(older, cp.newest) {
				fmt.Fprintf(&sb, " %d=%x", v.ts, v.row)
			}
			sb.WriteByte('\n')
			return true
		})
		for _, ix := range tab.indexes {
			fmt.Fprintf(&sb, "  index %s\n", ix.meta.Name)
			ix.tree.Ascend(func(ek []byte, _ struct{}) bool {
				fmt.Fprintf(&sb, "    %x -> %x\n", ek, ix.clusteredKey(ek))
				return true
			})
		}
		tab.mu.RUnlock()
	}
	return sb.String(), reclaimed
}

// tableVersions counts tab's stored row versions, live and superseded: the
// per-table share of the versions_live gauge, which only the chains hold.
func tableVersions(tab *Table) int {
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	n := 0
	tab.rows.Ascend(func(_ []byte, c *versionChain) bool {
		n += c.versionCount()
		return true
	})
	return n
}

func totalVersions(db *DB) int {
	n := 0
	for _, tab := range db.Tables() {
		n += tableVersions(tab)
	}
	return n
}

// TestVersionGCMatchesFullWalk drives two tables through seeded random
// inserts, updates, deletes, re-inserts over tombstones, snapshot pins,
// tampered-away rows, checkpoints and reopens (so redo builds chains too),
// and after every sweep requires what a walk over every chain would have
// left: the same chains, the same number reclaimed, and a versions_live
// gauge equal to the versions stored.
func TestVersionGCMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { versionGCAgainstFullWalk(t, seed) })
	}
}

func versionGCAgainstFullWalk(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir, LockTimeout: 250 * time.Millisecond})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		db.stopVersionGC() // only the sweeps below run
		return db
	}
	db := open()
	defer func() { db.Close() }()
	mustCreate(t, db, "a", kvSchema())
	mustCreate(t, db, "b", kvSchema())
	if _, err := db.CreateIndex("a", "a_v", "v"); err != nil {
		t.Fatal(err)
	}
	const keys = 24
	// live[table][k] is the value of key k, absent when it holds no row.
	// A tampered-away key is in gone and never written again: the log does
	// not know it went, so redo would bring it back.
	live := map[string]map[int64]string{"a": {}, "b": {}}
	gone := map[string]map[int64]bool{"a": {}, "b": {}}
	var pins []*ReadTx

	sweep := func(step int) {
		t.Helper()
		horizon := db.gcHorizon()
		want, wantN := fullWalkPrune(db, horizon)
		if n := db.GCVersions(); n != wantN {
			t.Fatalf("step %d: sweep reclaimed %d versions, the full walk %d", step, n, wantN)
		}
		if got := chainState(db); got != want {
			t.Fatalf("step %d: chains after the sweep:\n%s\nthe full walk leaves:\n%s", step, got, want)
		}
		if g, _ := db.obs.Snapshot().GaugeValue(obs.VersionsLive); int(g) != totalVersions(db) {
			t.Fatalf("step %d: versions_live = %v, %d versions stored", step, g, totalVersions(db))
		}
	}

	for step := 0; step < 600; step++ {
		switch p := rng.Intn(100); {
		case p < 60:
			tx := db.Begin("u")
			for range 1 + rng.Intn(4) {
				name := []string{"a", "b"}[rng.Intn(2)]
				tab, _ := db.Table(name)
				k := int64(rng.Intn(keys))
				v := fmt.Sprintf("%s%d-%d", name, k, step)
				var err error
				if gone[name][k] {
					continue
				} else if _, ok := live[name][k]; !ok {
					_, err = tx.Insert(tab, kv(k, v))
					live[name][k] = v
				} else if rng.Intn(3) == 0 {
					_, err = tx.Delete(tab, sqltypes.NewBigInt(k))
					delete(live[name], k)
				} else {
					_, err = tx.Update(tab, kv(k, v))
					live[name][k] = v
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			commit(t, db, tx)
		case p < 68:
			pins = append(pins, db.BeginReadOnly())
		case p < 76:
			if len(pins) > 0 {
				i := rng.Intn(len(pins))
				pins[i].Close()
				pins = slices.Delete(pins, i, i+1)
			}
		case p < 92:
			sweep(step)
		case p < 95:
			// Take a chain — live, or a tombstone GC has not reached —
			// out of the tree behind the sweeper's back.
			name := []string{"a", "b"}[rng.Intn(2)]
			tab, _ := db.Table(name)
			k := int64(rng.Intn(keys))
			if db.TamperDeleteRow(tab, sqltypes.EncodeKey(nil, sqltypes.NewBigInt(k)), true) == nil {
				gone[name][k] = true
			}
		case p < 97:
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		default:
			for _, r := range pins {
				r.Close()
			}
			pins = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = open()
		}
	}
	for _, r := range pins {
		r.Close()
	}
	sweep(-1)
	// Nothing is pinned and nothing has committed since: every chain is
	// down to its newest version, and the lists are empty.
	for _, tab := range db.Tables() {
		if n := tableVersions(tab); n != tab.RowCount() {
			t.Errorf("table %s: %d versions for %d rows after the last sweep", tab.Name(), n, tab.RowCount())
		}
		if n := len(tab.reclaim); n != 0 {
			t.Errorf("table %s: %d chains still listed after the last sweep", tab.Name(), n)
		}
		for k, v := range live[tab.Name()] {
			if gone[tab.Name()][k] {
				continue
			}
			if row, ok := tab.getAt(sqltypes.EncodeKey(nil, sqltypes.NewBigInt(k)), latest, nil); !ok || row[1].Str != v {
				t.Errorf("table %s key %d: got %v, want %q", tab.Name(), k, row, v)
			}
		}
	}
}

// TestIdleVersionGCVisitsNothing: a sweep visits only the listed chains,
// the ones with a superseded version — none after a bulk insert, only the
// updated ones after updates, none again once they are pruned — and the
// list gives back its capacity.
func TestIdleVersionGCVisitsNothing(t *testing.T) {
	db := openTestDB(t)
	db.stopVersionGC()
	tab := mustCreate(t, db, "t", kvSchema())
	const rows = 100_000
	tx := db.Begin("u")
	for k := int64(0); k < rows; k++ {
		if _, err := tx.Insert(tab, kv(k, "v")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)
	if n := len(tab.reclaim); n != 0 {
		t.Fatalf("an insert-only table lists %d chains for GC, want 0", n)
	}
	tx = db.Begin("u")
	for k := int64(0); k < rows; k += 100 {
		if _, err := tx.Update(tab, kv(k, "w")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, db, tx)
	if n := len(tab.reclaim); n != rows/100 {
		t.Fatalf("%d updated chains, %d listed", rows/100, n)
	}
	if n := tab.gcVersions(db.gcHorizon()); n != rows/100 {
		t.Fatalf("sweep after %d updates reclaimed %d versions", rows/100, n)
	}
	if tab.reclaim != nil {
		t.Fatalf("the emptied list keeps %d chains, capacity %d", len(tab.reclaim), cap(tab.reclaim))
	}
}

// TestApplyGroupingMatchesLogOrder: a transaction that writes tables a and
// b in turn — in a, one key inserted, updated, deleted and re-inserted, with
// a savepoint rolled back in the middle, beside an update of a committed
// row — leaves the same chains, row counts and index entries as its writes
// applied one at a time in log order, and as redo replaying its log (and
// Open's sweep pruning the result).
func TestApplyGroupingMatchesLogOrder(t *testing.T) {
	k := func(n int64) sqltypes.Value { return sqltypes.NewBigInt(n) }
	setup := func(db *DB) (seed *Tx) {
		db.stopVersionGC()
		a := mustCreate(t, db, "a", kvSchema())
		b := mustCreate(t, db, "b", kvSchema())
		if _, err := db.CreateIndex("a", "a_v", "v"); err != nil {
			t.Fatal(err)
		}
		seed = db.Begin("u")
		seed.Insert(a, kv(0, "a0"))
		seed.Insert(b, kv(0, "b0"))
		return seed
	}
	write := func(db *DB) *Tx {
		a, _ := db.Table("a")
		b, _ := db.Table("b")
		tx := db.Begin("u")
		steps := []func() error{
			func() error { _, err := tx.Insert(a, kv(1, "a1")); return err },
			func() error { _, err := tx.Insert(b, kv(1, "b1")); return err },
			func() error { _, err := tx.Update(a, kv(1, "a1'")); return err },
			func() error { _, err := tx.Update(b, kv(0, "b0'")); return err },
			func() error {
				sp := tx.Savepoint()
				tx.Delete(a, k(0))
				tx.Insert(b, kv(2, "gone"))
				tx.Insert(a, kv(2, "gone"))
				return tx.RollbackTo(sp)
			},
			func() error { _, err := tx.Delete(a, k(1)); return err },
			func() error { _, err := tx.Delete(b, k(1)); return err },
			func() error { _, err := tx.Insert(a, kv(1, "a1''")); return err },
			func() error { _, err := tx.Insert(b, kv(1, "b1''")); return err },
			func() error { _, err := tx.Update(a, kv(0, "a0'")); return err },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		return tx
	}

	dir := t.TempDir()
	grouped := openDBAt(t, dir)
	seedTS, err := grouped.Commit(setup(grouped))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := grouped.Commit(write(grouped))
	if err != nil {
		t.Fatal(err)
	}
	got := chainState(grouped)

	plain := openTestDB(t)
	seed := setup(plain)
	plain.applyWrites(seed.writes, seedTS)
	seed.Rollback()
	tx := write(plain)
	for i := range tx.writes {
		plain.applyWrites(tx.writes[i:i+1], ts)
	}
	tx.Rollback()
	if want := chainState(plain); got != want {
		t.Fatalf("grouped apply left:\n%s\nlog-order apply leaves:\n%s", got, want)
	}
	for _, name := range []string{"a", "b"} {
		tab, _ := grouped.Table(name)
		if len(tab.reclaim) != 2 {
			t.Errorf("table %s lists %d chains for GC, want 2 (keys 0 and 1)", name, len(tab.reclaim))
		}
	}

	// Open sweeps what redo superseded, with nothing pinned.
	pruned, _ := fullWalkPrune(grouped, grouped.gcHorizon())
	if err := grouped.Close(); err != nil {
		t.Fatal(err)
	}
	if redone := chainState(openDBAt(t, dir)); redone != pruned {
		t.Fatalf("grouped apply, pruned, leaves:\n%s\nredo and open leave:\n%s", pruned, redone)
	}
}

// TestBackgroundVersionGCReclaims: the sweep Open starts reclaims
// superseded versions at its own pace (versionGCInterval), with no explicit
// GC call, once the snapshot that pinned them closes.
func TestBackgroundVersionGCReclaims(t *testing.T) {
	db := openTestDB(t)
	tab := mustCreate(t, db, "t", kvSchema())
	tx := db.Begin("u")
	if _, err := tx.Insert(tab, kv(1, "v0")); err != nil {
		t.Fatal(err)
	}
	commit(t, db, tx)
	pin := db.BeginReadOnly()
	for i := 0; i < 5; i++ {
		tx := db.Begin("u")
		if _, err := tx.Update(tab, kv(1, "v")); err != nil {
			t.Fatal(err)
		}
		commit(t, db, tx)
	}
	if n := tableVersions(tab); n != 6 {
		t.Fatalf("%d versions under a pinned snapshot, want 6", n)
	}
	pin.Close()
	deadline := time.Now().Add(20 * versionGCInterval)
	for tableVersions(tab) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("background GC left %d versions after %v", tableVersions(tab), 20*versionGCInterval)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
