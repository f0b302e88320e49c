package engine

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"sqlledger/internal/btree"
	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// Crash recovery: analysis and redo in one pass in log order, over the
// newest snapshot and then the log after it, then an install phase that
// runs parallel across tables.
//
// A snapshot replays like the log it was cut from (loadSnapshot): its
// catalog record installs empty tables, and its rows are one write set
// committing at the cut. A wal.PipelinedReader reads, checks and decodes
// the log a batch ahead of the redo loop, which sorts transactions into
// winners and losers, and applies each committed write set
// itself, in commit order, as versions stamped with its commit timestamp.
// A keyed table's chains are built in redo's private view of it, and a
// heap's straight in its row-id array; the install phase bulk-loads each
// keyed table and builds every index once, from the final rows. Redo
// decodes a row only as far as its key columns, for the key a keyed row's
// insert or update leaves out of the log (resolveKey): a version is the
// after-image's bytes as the log carried them (wal.DecodeDMLImage checked
// them), copied once, into a heap's pages or, for a keyed chain, into an
// allocation of their own, and a replayed ALTER changes only the schema
// those bytes are later read against.
//
// RecoveryWorkers = 1 runs the same code with no goroutines; larger values
// turn on the log read-ahead and set how many tables install at once.

// redoTable is replay's private view of one table: the chain of every key
// redo wrote to a keyed table, whose tree stays empty until install.
type redoTable struct {
	table *Table
	// chains indexes entries by key for op lookup; entries holds the chains,
	// each under the key that created it, in the order redo created them,
	// for the install phase.
	chains  map[string]int
	entries []redoChain
	// live counts the keys whose newest version is a row.
	live int
}

// redoChain is a chain redo built for a keyed table, under the map's copy
// of its key.
type redoChain struct {
	key   string
	chain *versionChain
}

// redo applies committed write sets in log order.
type redo struct {
	db     *DB
	tables map[uint32]*redoTable
	ops    int
	// keys holds the keys applyLogged derived for the transaction it
	// applies; nothing keeps them past it.
	keys []byte
}

func newRedo(db *DB) *redo {
	return &redo{db: db, tables: make(map[uint32]*redoTable)}
}

func (r *redo) table(tid uint32) (*redoTable, error) {
	st, ok := r.tables[tid]
	if !ok {
		r.db.mu.RLock()
		t := r.db.tables[tid]
		r.db.mu.RUnlock()
		if t == nil {
			return nil, fmt.Errorf("engine: recovery: unknown table %d", tid)
		}
		st = &redoTable{table: t, chains: make(map[string]int)}
		r.tables[tid] = st
	}
	return st, nil
}

// resolveKey sets op.key to the clustered key a logged write to t is
// under. The log holds it for a heap row and for a delete; an insert or
// update of a keyed table logs none, and its key is derived from the
// after-image (Table.KeyOfStored), appended to arena, which resolveKey
// returns. A keyed write that logs a key, a write that must log one and
// does not, and an image without a key are refused.
func resolveKey(t *Table, op *writeOp, arena []byte) ([]byte, error) {
	derive := !t.meta.Heap && op.typ != wal.RecDelete
	switch {
	case derive && len(op.key) > 0:
		return arena, fmt.Errorf("engine: %s of keyed table %s logs a key, which its after-image holds", op.typ, t.meta.Name)
	case !derive && len(op.key) == 0:
		return arena, fmt.Errorf("engine: %s of table %s logs no key", op.typ, t.meta.Name)
	case !derive:
		return arena, nil
	}
	start := len(arena)
	arena, err := t.KeyOfStored(arena, op.after)
	if err != nil {
		return arena, fmt.Errorf("engine: %s of table %s: %w", op.typ, t.meta.Name, err)
	}
	op.key = arena[start:]
	return arena, nil
}

// LoggedKey is the clustered key that a logged write of type typ to t,
// whose record holds key and after, is under: resolveKey for a reader of
// the log outside redo, such as a receipt's rebuild of a frame's trees.
func (t *Table) LoggedKey(typ wal.RecordType, key, after []byte) ([]byte, error) {
	op := writeOp{typ: typ, key: key, after: after}
	_, err := resolveKey(t, &op, nil)
	return op.key, err
}

// applyLogged resolves the keys of one committed transaction's logged ops
// and applies them at commitTS.
func (r *redo) applyLogged(commitTS int64, ops []writeOp) error {
	r.keys = r.keys[:0]
	for i := range ops {
		st, err := r.table(ops[i].tableID)
		if err != nil {
			return err
		}
		if r.keys, err = resolveKey(st.table, &ops[i], r.keys); err != nil {
			return err
		}
	}
	return r.applyTx(commitTS, ops)
}

// applyTx installs one committed transaction's ops as versions stamped
// with commitTS. Mirrors applyInsert/Delete/UpdateLocked, minus index
// maintenance (indexes are rebuilt at install) and minus locking (replay
// is the only writer, and version GC starts after it). A chain given a
// superseded version joins its table's GC list here. An op's key and
// after-image may be views of a log frame: a keyed chain keeps copies, a
// heap copies the row into its pages.
func (r *redo) applyTx(commitTS int64, ops []writeOp) error {
	for _, op := range ops {
		st, err := r.table(op.tableID)
		if err != nil {
			return err
		}
		t, ref, found := st.table, rowRef{}, false
		if t.meta.Heap {
			ref, found = t.rows.Get(op.key)
		} else {
			op.after = bytes.Clone(op.after)
			if i, ok := st.chains[string(op.key)]; ok {
				ref, found = rowRef{c: st.entries[i].chain}, true
			}
		}
		switch op.typ {
		case wal.RecInsert:
			switch {
			case found:
				if _, live := ref.latestLive(); live {
					return fmt.Errorf("%w: table %s (recovery)", ErrDuplicateKey, t.meta.Name)
				}
				t.appendVersionLocked(op.key, ref, commitTS, op.after)
			case t.meta.Heap:
				if !t.rows.fits(op.key) {
					return fmt.Errorf("engine: recovery: key %x of heap table %s is no row id it can hold", op.key, t.meta.Name)
				}
				t.rows.GetOrPut(op.key, newChain(commitTS, op.after))
				t.noteRIDLocked(op.key)
			default:
				c, k := newChain(commitTS, op.after), string(op.key)
				st.chains[k] = len(st.entries)
				st.entries = append(st.entries, redoChain{k, &c})
			}
			st.live++
		case wal.RecDelete, wal.RecUpdate:
			live := false
			if found {
				_, live = ref.latestLive()
			}
			if !live {
				return fmt.Errorf("%w: table %s (recovery)", ErrNotFound, t.meta.Name)
			}
			t.appendVersionLocked(op.key, ref, commitTS, op.after) // nil for a delete: a tombstone
			if op.typ == wal.RecDelete {
				st.live--
			}
		}
		r.ops++
	}
	return nil
}

// recoveryWorkers resolves Options.RecoveryWorkers: 0 means one per CPU.
func (db *DB) recoveryWorkers() int {
	if w := db.opts.RecoveryWorkers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// recover loads the newest snapshot and replays the WAL from its LSN,
// applying only committed transactions (redo); buffered operations of
// transactions without a COMMIT record are discarded (losers never reach
// shared storage in this engine, so no undo pass is needed).
func (db *DB) recover() error {
	start := time.Now()
	tr := db.obs.NewTrace("recovery")
	tr.SetAttr("workers", strconv.Itoa(db.recoveryWorkers()))
	err := db.recoverPhases(tr, start)
	tr.Finish(err)
	return err
}

func (db *DB) recoverPhases(tr *obs.Trace, start time.Time) error {
	phaseSnapshot := time.Now()
	rd, snapLSN := db.loadLatestSnapshot()
	db.redoFrom = snapLSN
	db.obs.Histogram(obs.RecoverySeconds, nil, obs.L("phase", "snapshot")).ObserveSince(phaseSnapshot)

	workers := db.recoveryWorkers()
	phaseReplay := time.Now()
	pr, err := wal.NewPipelinedReader(filepath.Join(db.opts.Dir, walFileName), snapLSN, db.log.Size(), workers)
	if err != nil {
		return err
	}
	defer pr.Close()

	pending := make(map[uint64][]writeOp)
	var entries []*wal.LedgerEntry
	var frames []int64 // of entries: the LSN of the frame holding the DML
	maxTx := uint64(0)
	records := 0
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("engine: recovery read: %w", err)
		}
		records++
		if rec.TxID > maxTx {
			maxTx = rec.TxID
		}
		switch rec.Type {
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			p := rec.DML
			pending[rec.TxID] = append(pending[rec.TxID], writeOp{
				typ: rec.Type, tableID: p.TableID, key: p.Key, after: p.After,
			})
		case wal.RecCommit:
			p := rec.Commit
			if err := rd.applyLogged(p.CommitTS, pending[rec.TxID]); err != nil {
				return fmt.Errorf("engine: recovery: transaction %d at LSN %d: %w", rec.TxID, rec.LSN, err)
			}
			delete(pending, rec.TxID)
			if p.CommitTS > db.lastCommitTS.Load() {
				db.lastCommitTS.Store(p.CommitTS)
			}
			if p.Entry != nil {
				entries = append(entries, p.Entry)
				frames = append(frames, rec.LSN)
			}
		case wal.RecAbort:
			delete(pending, rec.TxID)
		case wal.RecPrepare:
			return errPrepare(rec.LSN)
		case wal.RecDDL:
			p, err := wal.DecodeDDL(rec.Payload)
			if err != nil {
				return fmt.Errorf("engine: recovery: ddl record at LSN %d: %w", rec.LSN, err)
			}
			if err := db.redoDDL(p.Body); err != nil {
				return fmt.Errorf("engine: recovery: %s record at LSN %d: %w", p.Kind, rec.LSN, err)
			}
		case wal.RecCheckpoint:
			// Informational during redo.
		default:
			return fmt.Errorf("engine: recovery: unknown record type %d", rec.Type)
		}
	}
	db.obs.Histogram(obs.RecoverySeconds, nil, obs.L("phase", "replay")).ObserveSince(phaseReplay)

	// Install phase: build every table redo wrote, and its indexes.
	phaseInstall := time.Now()
	db.installRecovered(rd, workers)
	db.obs.Histogram(obs.RecoverySeconds, nil, obs.L("phase", "install")).ObserveSince(phaseInstall)
	db.m.versionsLive.Add(float64(rd.ops))

	if maxTx >= db.cat.NextTxID {
		db.cat.NextTxID = maxTx + 1
	}
	// Replay applied every committed transaction, so the applied-through
	// watermark starts flush with the last commit.
	db.appliedTS.Store(db.lastCommitTS.Load())
	if db.opts.Hook != nil {
		db.opts.Hook.Recovered(entries, frames)
	}
	if records > 0 {
		elapsed := time.Since(start)
		tr.SetAttr("records", strconv.Itoa(records))
		db.obs.Events().Info(obs.EventRecoveryReplay,
			"snapshot_lsn", snapLSN, "records", records,
			"committed_ledger_entries", len(entries), "end_lsn", db.log.Size(),
			"duration_seconds", elapsed.Seconds(),
			"records_per_sec", float64(records)/elapsed.Seconds())
	}
	return nil
}

// errPrepare is redo's answer to a PREPARE record. Only a shard of a
// multi-shard database, a layout this engine no longer opens, wrote one:
// its transaction's fate was in a coordinator's decision log, so no
// replay of the shard alone could be right.
func errPrepare(lsn int64) error {
	return fmt.Errorf("engine: recovery: PREPARE record at LSN %d: this log belongs to a shard of a multi-shard database, which is no longer supported", lsn)
}

// LedgerFramesBefore calls fn, in log order, with the ledger entry of each
// transaction committed before the snapshot Open loaded and the LSN of
// the frame holding its DML, as LedgerHook.Logged would have: what redo
// learned for the commits after that snapshot, looked up in one pass over
// the log prefix only when someone asks.
func (db *DB) LedgerFramesBefore(fn func(e *wal.LedgerEntry, frame int64)) error {
	r, err := wal.NewReader(filepath.Join(db.opts.Dir, walFileName), wal.HeaderLen, db.redoFrom)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case rec.Type == wal.RecCommit:
			p, err := wal.DecodeCommit(rec.TxID, rec.Payload)
			if err != nil {
				return err
			}
			if p.Entry != nil {
				fn(p.Entry, rec.LSN)
			}
		}
	}
}

// installRecovered builds every table redo wrote, once: a keyed table's
// tree from its chains in key order, the row count and the indexes.
// Tables are independent, so the install runs parallel across them.
func (db *DB) installRecovered(rd *redo, workers int) {
	list := make([]*redoTable, 0, len(rd.tables))
	for _, j := range rd.tables {
		list = append(list, j)
	}
	forEach(len(list), workers, func(i int) {
		j, t := list[i], list[i].table
		t.mu.Lock()
		defer t.mu.Unlock()
		if !t.meta.Heap { // redo put a heap's rows in its store
			slices.SortFunc(j.entries, func(a, b redoChain) int { return strings.Compare(a.key, b.key) })
			keys := make([][]byte, len(j.entries))
			chains := make([]*versionChain, len(j.entries))
			for i, e := range j.entries {
				// A view of the string, which BuildSorted only reads.
				keys[i], chains[i] = unsafe.Slice(unsafe.StringData(e.key), len(e.key)), e.chain
			}
			t.rows.tree = btree.BuildSorted(keys, chains)
		}
		t.liveRows = j.live
		for _, ix := range t.indexes {
			t.buildIndexLocked(ix)
		}
	})
}
