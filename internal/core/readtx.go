package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// ErrReceiptNotRequested is returned by CloseWithReceipt on a read
// transaction that was begun with BeginReadOnly rather than
// BeginReadOnlyForReceipt, so no read set was accumulated.
var ErrReceiptNotRequested = errors.New("core: read set not accumulated; begin with BeginReadOnlyForReceipt")

// ReadTx is a ledger-aware snapshot read transaction. It wraps the
// engine's MVCC read path (engine.ReadTx): reads are served from the
// newest row version at or below the pinned snapshot timestamp and never
// touch the lock table, so readers scale with client count while writers
// run 2PL + group commit undisturbed.
//
// A read decodes the visible columns of a version and steps over the
// hidden ones, so it costs what it costs on a regular table. The one reader
// that keeps whole versions is the one begun with BeginReadOnlyForReceipt:
// every version it returns goes into a read set, as the stored bytes the
// engine holds anyway — its proof needs the hidden start columns — and at
// close the read set can be turned into a ReadReceipt, an
// offline-verifiable proof that each returned row is committed ledger
// content (readreceipt.go, §5.1 extended to query results). Plain
// BeginReadOnly accumulates nothing.
//
// After Close every read fails with engine.ErrTxDone.
//
// ReadTx is not safe for concurrent use by multiple goroutines.
type ReadTx struct {
	db   *DB
	rtx  *engine.ReadTx
	done bool // Close has run

	// collect is set by BeginReadOnlyForReceipt; when false, record is a
	// no-op and CloseWithReceipt refuses.
	collect bool
	// reads is the accumulated read set: the stored bytes of each distinct
	// row version returned to the caller.
	reads []readRecord
	seen  map[readVersionKey]struct{}
}

// readRecord is one read-set entry: the ledger table, the version's stored
// bytes (immutable: kept, not copied) and the transaction that created it.
type readRecord struct {
	lt     *LedgerTable
	stored []byte
	txID   uint64
}

// readVersionKey identifies a row version for read-set deduplication: the
// creating (transaction, sequence) pair is unique per version.
type readVersionKey struct {
	tableID uint32
	txID    uint64
	seq     uint32
}

// BeginReadOnly starts a snapshot read transaction pinned at the engine's
// applied-through watermark. No read set is accumulated; end it with
// Close. Use BeginReadOnlyForReceipt when the reads must be provable.
func (db *DB) BeginReadOnly() *ReadTx { return db.beginReadOnly(false) }

// BeginReadOnlyForReceipt is BeginReadOnly with read-set accumulation:
// every distinct row version returned is kept in the read set so
// CloseWithReceipt can prove it. Callers that only want the snapshot
// should use BeginReadOnly.
func (db *DB) BeginReadOnlyForReceipt() *ReadTx { return db.beginReadOnly(true) }

func (db *DB) beginReadOnly(collect bool) *ReadTx {
	rt := &ReadTx{db: db, rtx: db.edb.BeginReadOnly(), collect: collect}
	if collect {
		rt.seen = make(map[readVersionKey]struct{})
	}
	return rt
}

// SnapshotTS returns the pinned snapshot timestamp (unix nanoseconds).
func (rt *ReadTx) SnapshotTS() int64 { return rt.rtx.TS() }

// Raw exposes the underlying engine read transaction for snapshot reads
// on regular (non-ledger) tables; those reads carry no receipt coverage.
func (rt *ReadTx) Raw() *engine.ReadTx { return rt.rtx }

// record adds a version about to be returned to the read set
// (deduplicated) and decodes its visible columns into dst's storage, as
// the engine does for the readers that keep nothing.
func (rt *ReadTx) record(lt *LedgerTable, sh *tableShape, dst sqltypes.Row, stored []byte) (sqltypes.Row, error) {
	var start [2]sqltypes.Value
	if err := sqltypes.DecodeColumns(start[:], stored, []int{lt.startTxOrd, lt.startSeqOrd}, sh.cols); err != nil {
		return nil, fmt.Errorf("core: stored row of %s: %w", lt.Name(), err)
	}
	k := readVersionKey{tableID: lt.table.ID(), txID: uint64(start[0].Int()), seq: uint32(start[1].Int())}
	if _, dup := rt.seen[k]; !dup {
		rt.seen[k] = struct{}{}
		rt.reads = append(rt.reads, readRecord{lt: lt, stored: stored, txID: k.txID})
	}
	if cap(dst) < len(sh.visible) {
		dst = make(sqltypes.Row, len(sh.visible))
	}
	dst = dst[:len(sh.visible)]
	return dst, sqltypes.DecodeColumns(dst, stored, sh.visible, sh.cols)
}

// Get returns the visible row with the given primary-key values as of the
// snapshot, decoding the visible columns only. The row is the caller's to
// keep and edit, as Tx.Get's is.
func (rt *ReadTx) Get(lt *LedgerTable, keyVals ...sqltypes.Value) (sqltypes.Row, bool, error) {
	var kb [64]byte // most keys fit, and then the lookup key stays off the heap
	key, err := lt.getKey(kb[:0], keyVals)
	if err != nil {
		return nil, false, err
	}
	sh := lt.shape.Load()
	if !rt.collect {
		return rt.rtx.GetByKey(lt.table, key, sh.visible)
	}
	stored, ok, err := rt.rtx.GetStored(lt.table, key)
	if err != nil || !ok {
		return nil, ok, err
	}
	row, err := rt.record(lt, sh, nil, stored)
	return row, err == nil, err
}

// Scan iterates the visible rows of a ledger table as of the snapshot, in
// primary-key order. The row passed to fn is valid only during the
// callback, as in Tx.Scan: Clone it to keep it.
func (rt *ReadTx) Scan(lt *LedgerTable, fn func(row sqltypes.Row) bool) error {
	return rt.scanRange(lt, nil, nil, fn)
}

// ScanPrefix iterates the visible rows whose leading primary-key columns
// equal vals as of the snapshot. The callback contract is as for Scan.
func (rt *ReadTx) ScanPrefix(lt *LedgerTable, fn func(row sqltypes.Row) bool, vals ...sqltypes.Value) error {
	start, end := engine.PrefixRange(vals...)
	return rt.scanRange(lt, start, end, fn)
}

func (rt *ReadTx) scanRange(lt *LedgerTable, start, end []byte, fn func(row sqltypes.Row) bool) error {
	sh := lt.shape.Load()
	if !rt.collect {
		return rt.rtx.ScanColumns(lt.table, sh.visible, start, end,
			func(_ []byte, row sqltypes.Row) bool { return fn(row) })
	}
	var buf sqltypes.Row
	var recErr error
	err := rt.rtx.ScanRangeStored(lt.table, start, end, func(_, stored []byte) bool {
		buf, recErr = rt.record(lt, sh, buf, stored)
		return recErr == nil && fn(buf)
	})
	if err == nil {
		err = recErr
	}
	return err
}

// ReadSetSize returns the number of distinct row versions accumulated
// toward a receipt.
func (rt *ReadTx) ReadSetSize() int { return len(rt.reads) }

// Close unpins the snapshot without producing a receipt. Idempotent.
func (rt *ReadTx) Close() {
	rt.done = true
	rt.rtx.Close()
	rt.reads = nil
	rt.seen = nil
}

// CloseWithReceipt turns the read set into an offline-verifiable
// ReadReceipt signed with priv, then closes the transaction. The snapshot
// stays pinned while the receipt is assembled, so version GC cannot
// reclaim the proven versions mid-build. The transaction must have been
// begun with BeginReadOnlyForReceipt; otherwise ErrReceiptNotRequested is
// returned (and the transaction stays open, since nothing was consumed).
func (rt *ReadTx) CloseWithReceipt(priv ed25519.PrivateKey) (ReadReceipt, error) {
	if rt.done {
		return ReadReceipt{}, engine.ErrTxDone
	}
	if !rt.collect {
		return ReadReceipt{}, ErrReceiptNotRequested
	}
	r, err := rt.db.buildReadReceipt(rt.reads, rt.rtx, priv)
	rt.Close()
	return r, err
}
