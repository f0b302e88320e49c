package core

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// Cross-shard transaction coordination. A transaction touching more than
// one shard commits with two-phase commit over the per-shard WALs: every
// participating shard durably prepares (engine.Prepare), the coordinator
// makes the commit decision durable in its own decision log, and then the
// participants are committed (engine.CommitPrepared). The protocol is
// presumed-abort: only COMMIT decisions are logged, so a prepared
// transaction found without one after a crash is aborted.
//
// The decision log is a wal.Log of its own — one COMMIT frame with an
// empty payload per committed cross-shard transaction, its gid in the
// frame's transaction id — that single-shard transactions (the common
// case under hash partitioning) never touch. Being a wal.Log, it gets the
// WAL's framing and failure rules: a torn last frame (a crash
// mid-append: a decision never acknowledged) is cut at open and its gid
// presumed aborted, and a damaged frame with data after it fails the open
// with wal.ErrCorrupt, leaving the file as it was.

// decisionLogName is the coordinator's commit-decision log, stored in the
// database's root directory next to the shard subdirectories.
const decisionLogName = "2pc.log"

// openDecisionLog opens (creating if necessary) the decision log in dir
// and replays it into the set of committed gids and the highest of them.
// Decisions reach the operating system before commit returns whatever
// the sync mode — under wal.SyncNone a decision left in a user-space
// buffer while a participant's COMMIT spilled to its shard's log would
// split the transaction at the next crash — and are fsynced under
// wal.SyncFull.
func openDecisionLog(dir string, mode wal.SyncMode, reg *obs.Registry) (dlog *wal.Log, committed map[uint64]bool, maxGid uint64, err error) {
	if mode == wal.SyncNone {
		mode = wal.SyncBuffered
	}
	path := filepath.Join(dir, decisionLogName)
	if dlog, err = wal.Open(path, mode); err != nil {
		return nil, nil, 0, err
	}
	dlog.Instrument(reg)
	r, err := wal.NewReader(path, 0, dlog.Size())
	if err != nil {
		dlog.Close()
		return nil, nil, 0, err
	}
	defer r.Close()
	committed = make(map[uint64]bool)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return dlog, committed, maxGid, nil
		}
		if err == nil && (rec.Type != wal.RecCommit || len(rec.Payload) != 0) {
			err = fmt.Errorf("%s record with a %d-byte payload for gid %d: %w", rec.Type, len(rec.Payload), rec.TxID, wal.ErrCorrupt)
		}
		if err != nil {
			dlog.Close()
			return nil, nil, 0, fmt.Errorf("core: decision log %s: %w", path, err)
		}
		committed[rec.TxID] = true
		maxGid = max(maxGid, rec.TxID)
	}
}

// resolveInDoubt finishes transactions a shard recovered in the prepared
// state: committed gids (per the coordinator's decision log) complete,
// everything else is presumed aborted. Runs single-threaded at open,
// before user traffic starts.
func (l *Shard) resolveInDoubt(committed map[uint64]bool) (maxGid uint64, err error) {
	for _, etx := range l.edb.PreparedTxs() {
		gid := etx.Gid()
		if gid > maxGid {
			maxGid = gid
		}
		if committed[gid] {
			_, err = l.edb.CommitPrepared(etx)
		} else {
			err = l.edb.AbortPrepared(etx)
		}
		if err != nil {
			return maxGid, fmt.Errorf("core: resolving in-doubt gid %d: %w", gid, err)
		}
	}
	return maxGid, nil
}

// commitRouted finishes a transaction of a multi-shard database atomically
// across every shard it touched. Read-only participants hold no ledger
// state worth a commit record and are released; one writer commits through
// its shard's ordinary pipeline, with no coordination and no decision log;
// several run two-phase commit.
func (tx *Tx) commitRouted() (int64, error) {
	var writers []int
	if !tx.route.finish(func(i int, p *Tx) {
		if p.etx.WriteCount() > 0 {
			writers = append(writers, i)
		} else {
			p.Rollback()
		}
	}) {
		return 0, engine.ErrTxDone
	}
	var ts int64
	var err error
	switch len(writers) {
	case 0:
	case 1:
		ts, err = tx.route.parts[writers[0]].CommitTS()
	default:
		ts, err = tx.commitTwoPhase(writers)
	}
	tx.trace.Finish(err)
	tx.trace = nil
	return ts, err
}

// commitTwoPhase is two-phase commit with a presumed-abort decision log.
// Phase 1 makes every participant's write set durable with its locks held;
// the decision-log append is the commit point; phase 2 runs each shard's
// commit-pipeline tail. Each leg is a span on the router's trace (the
// engine records no stage spans on the prepared path, so these are the
// trace's view of 2PC time).
func (tx *Tx) commitTwoPhase(writers []int) (int64, error) {
	r, db, tr := tx.route, tx.route.db, tx.trace
	gid := db.gid.Add(1)
	span := func(name string, start time.Time, attrs ...obs.Label) {
		tr.Record(name, 0, start, time.Since(start), attrs...)
	}
	tr.SetAttr("gid", strconv.FormatUint(gid, 10))
	tr.SetAttr("shards", strconv.Itoa(len(writers)))
	for n, i := range writers {
		start := time.Now()
		err := r.parts[i].prepare(gid)
		span(obs.SpanShardPrepare, start, obs.L("shard", strconv.Itoa(i)))
		if err != nil {
			for _, j := range writers[:n] {
				r.parts[j].abortPrepared()
			}
			for _, j := range writers[n:] {
				r.parts[j].Rollback()
			}
			return 0, fmt.Errorf("core: cross-shard prepare on shard %d: %w", i, err)
		}
	}
	if db.hookAfterPrepare != nil {
		db.hookAfterPrepare()
	}
	decideStart := time.Now()
	_, err := db.dlog.Append(wal.RecCommit, gid, nil)
	span(obs.SpanShardDecide, decideStart)
	if err != nil {
		// The decision never became durable: presumed abort.
		for _, j := range writers {
			r.parts[j].abortPrepared()
		}
		return 0, fmt.Errorf("core: cross-shard decision log: %w", err)
	}
	if db.hookAfterDecision != nil {
		db.hookAfterDecision()
	}
	var last int64
	var first error
	for _, i := range writers {
		commitStart := time.Now()
		ts, err := r.parts[i].commitPrepared()
		span(obs.SpanShardCommit, commitStart, obs.L("shard", strconv.Itoa(i)))
		if err != nil && first == nil {
			// The decision is durable; recovery will finish this shard.
			first = fmt.Errorf("core: cross-shard commit on shard %d: %w", i, err)
		}
		last = max(last, ts)
	}
	return last, first
}

// rollbackRouted abandons every participant.
func (tx *Tx) rollbackRouted() error {
	var first error
	if !tx.route.finish(func(_ int, p *Tx) {
		if err := p.Rollback(); err != nil && first == nil {
			first = err
		}
	}) {
		return nil
	}
	tx.trace.Finish(nil)
	tx.trace = nil
	return first
}
