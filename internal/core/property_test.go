package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// applyRandomOps drives a random but valid DML sequence (inserts, updates,
// deletes, savepoint rollbacks, whole-transaction rollbacks) against a
// ledger table, tracking the expected visible state in a model map.
func applyRandomOps(t *testing.T, l *DB, lt *LedgerTable, rng *rand.Rand, nTx int) map[string]int64 {
	t.Helper()
	model := make(map[string]int64)
	keys := func() []string {
		out := make([]string, 0, len(model))
		for k := range model {
			out = append(out, k)
		}
		return out
	}
	// Resume key numbering past anything this table has ever seen, so
	// repeated calls against the same table never collide.
	nextKey := 0
	bump := func(_ []byte, full sqltypes.Row) bool {
		var n int
		if _, err := fmt.Sscanf(full[0].Str, "key-%d", &n); err == nil && n > nextKey {
			nextKey = n
		}
		return true
	}
	lt.Table().Scan(bump)
	if lt.History() != nil {
		lt.History().Scan(bump)
	}
	for txi := 0; txi < nTx; txi++ {
		tx := l.Begin(fmt.Sprintf("u%d", txi%3))
		local := make(map[string]int64, len(model))
		for k, v := range model {
			local[k] = v
		}
		type snap struct {
			token int
			state map[string]int64
		}
		var snaps []snap
		nOps := rng.Intn(6) + 1
		abort := rng.Intn(10) == 0
		for op := 0; op < nOps; op++ {
			switch choice := rng.Intn(10); {
			case choice < 4: // insert
				nextKey++
				k := fmt.Sprintf("key-%04d", nextKey)
				v := rng.Int63n(10000)
				if err := tx.Insert(lt, account(k, v)); err != nil {
					t.Fatalf("insert: %v", err)
				}
				local[k] = v
			case choice < 7: // update
				ks := make([]string, 0, len(local))
				for k := range local {
					ks = append(ks, k)
				}
				if len(ks) == 0 {
					continue
				}
				k := ks[rng.Intn(len(ks))]
				v := rng.Int63n(10000)
				if err := tx.Update(lt, account(k, v)); err != nil {
					t.Fatalf("update: %v", err)
				}
				local[k] = v
			case choice < 8: // delete
				ks := make([]string, 0, len(local))
				for k := range local {
					ks = append(ks, k)
				}
				if len(ks) == 0 {
					continue
				}
				k := ks[rng.Intn(len(ks))]
				if err := tx.Delete(lt, sqltypes.NewNVarChar(k)); err != nil {
					t.Fatalf("delete: %v", err)
				}
				delete(local, k)
			case choice < 9: // savepoint
				st := make(map[string]int64, len(local))
				for k, v := range local {
					st[k] = v
				}
				snaps = append(snaps, snap{token: tx.Savepoint(), state: st})
			default: // rollback to a random savepoint
				if len(snaps) == 0 {
					continue
				}
				i := rng.Intn(len(snaps))
				if err := tx.RollbackTo(snaps[i].token); err != nil {
					t.Fatalf("rollback to savepoint: %v", err)
				}
				local = make(map[string]int64, len(snaps[i].state))
				for k, v := range snaps[i].state {
					local[k] = v
				}
				snaps = snaps[:i+1]
			}
		}
		if abort {
			tx.Rollback()
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		model = local
	}
	_ = keys
	return model
}

// TestPropertyRandomWorkloadsAlwaysVerify: whatever valid sequence of
// operations an application runs — including partial rollbacks — the
// ledger must be internally consistent and match its digests.
func TestPropertyRandomWorkloadsAlwaysVerify(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			blockSize := uint32(rng.Intn(7) + 1)
			l := openTestLedger(t, blockSize)
			lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
			model := applyRandomOps(t, l, lt, rng, 30)

			// Visible state matches the model.
			got := make(map[string]int64)
			rtx := l.Begin("check")
			rtx.Scan(lt, func(r sqltypes.Row) bool {
				got[r[0].Str] = r[1].Int()
				return true
			})
			rtx.Rollback()
			if len(got) != len(model) {
				t.Fatalf("visible rows = %d, model = %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("key %s = %d, model %d", k, got[k], v)
				}
			}
			d, err := l.GenerateDigest()
			if err != nil {
				t.Fatal(err)
			}
			verifyOK(t, l, []Digest{d})

			// And again after a crash-restart.
			dir := l.shards[0].edb.Dir()
			l.Close()
			l2 := openLedgerAt(t, dir, blockSize)
			verifyOK(t, l2, []Digest{d})
		})
	}
}

// TestPropertyAnySingleTamperIsDetected: flip one value anywhere in the
// ledger/history data and verification must fail.
func TestPropertyAnySingleTamperIsDetected(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 97))
			l := openTestLedger(t, 4)
			lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
			applyRandomOps(t, l, lt, rng, 25)
			d, err := l.GenerateDigest()
			if err != nil {
				t.Fatal(err)
			}
			verifyOK(t, l, []Digest{d})

			// Pick a random row from the ledger or history table.
			target := lt.Table()
			if rng.Intn(2) == 0 && lt.History().RowCount() > 0 {
				target = lt.History()
			}
			if target.RowCount() == 0 {
				t.Skip("no rows to tamper with")
			}
			victim := rng.Intn(target.RowCount())
			var key []byte
			i := 0
			target.Scan(func(k []byte, _ sqltypes.Row) bool {
				if i == victim {
					key = append([]byte(nil), k...)
					return false
				}
				i++
				return true
			})
			err = l.Engine().TamperUpdateRow(target, key, func(r sqltypes.Row) sqltypes.Row {
				r[1] = sqltypes.NewBigInt(r[1].Int() + 1) // minimal change
				return r
			}, true)
			if err != nil {
				t.Fatal(err)
			}
			verifyFails(t, l, []Digest{d}, 4)
		})
	}
}

// TestPropertyDigestChainAlwaysDerivable: every digest in a sequence must
// be derivable from every earlier one on an honest ledger.
func TestPropertyDigestChainAlwaysDerivable(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	l := openTestLedger(t, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	var digests []Digest
	for round := 0; round < 6; round++ {
		applyRandomOps(t, l, lt, rng, 5)
		d, err := l.GenerateDigest()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	for i := 0; i < len(digests); i++ {
		for j := i; j < len(digests); j++ {
			if err := l.VerifyDigestDerivation(digests[i], digests[j]); err != nil {
				t.Fatalf("derivation %d->%d: %v", i, j, err)
			}
		}
	}
	verifyOK(t, l, digests)
}
