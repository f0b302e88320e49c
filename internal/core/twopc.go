package core

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

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
// The decision log is deliberately tiny — one line per committed
// cross-shard transaction ("C <gid>") — because single-shard transactions
// (the common case under hash partitioning) bypass it entirely.

// decisionLogName is the coordinator's commit-decision log, stored in the
// database's root directory next to the shard subdirectories.
const decisionLogName = "2pc.log"

type decisionLog struct {
	mu   sync.Mutex // serializes concurrent cross-shard coordinators
	f    *os.File
	w    *bufio.Writer
	sync bool // fsync every decision (wal.SyncFull)

	committed map[uint64]bool
	maxGid    uint64
}

// openDecisionLog opens (creating if necessary) the decision log and
// replays it. A torn final line — a crash mid-write — is ignored: the
// decision was not durable, so presumed-abort applies.
func openDecisionLog(dir string, mode wal.SyncMode) (*decisionLog, error) {
	path := dir + string(os.PathSeparator) + decisionLogName
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	dl := &decisionLog{
		sync:      mode == wal.SyncFull,
		committed: make(map[uint64]bool),
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "C ")
		if !ok {
			continue // empty trailer or torn tail
		}
		gid, perr := strconv.ParseUint(rest, 10, 64)
		if perr != nil {
			continue // torn tail
		}
		dl.committed[gid] = true
		if gid > dl.maxGid {
			dl.maxGid = gid
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	dl.f = f
	dl.w = bufio.NewWriter(f)
	return dl, nil
}

// commit makes a COMMIT decision durable. Once it returns, recovery will
// commit every prepared participant of gid; before it returns, recovery
// aborts them. Concurrent cross-shard coordinators serialize here.
func (dl *decisionLog) commit(gid uint64) error {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	if _, err := fmt.Fprintf(dl.w, "C %d\n", gid); err != nil {
		return err
	}
	if err := dl.w.Flush(); err != nil {
		return err
	}
	if dl.sync {
		if err := dl.f.Sync(); err != nil {
			return err
		}
	}
	dl.committed[gid] = true
	if gid > dl.maxGid {
		dl.maxGid = gid
	}
	return nil
}

func (dl *decisionLog) Close() error {
	if dl == nil || dl.f == nil {
		return nil
	}
	dl.w.Flush()
	return dl.f.Close()
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

// ErrTxUsed is returned when a finished transaction of a multi-shard
// database is reused.
var ErrTxUsed = errors.New("core: transaction already finished")

// commitRouted finishes a transaction of a multi-shard database atomically
// across every shard it touched. Read-only participants hold no ledger
// state worth a commit record and are released; one writer commits through
// its shard's ordinary pipeline, with no coordination and no decision log;
// several run two-phase commit.
func (tx *Tx) commitRouted() (int64, error) {
	r := tx.route
	if r.done {
		return 0, ErrTxUsed
	}
	r.done = true
	var writers []int
	for i, p := range r.parts {
		if p == nil {
			continue
		}
		if p.etx.WriteCount() > 0 {
			writers = append(writers, i)
		} else {
			p.Rollback()
		}
	}
	var ts int64
	var err error
	switch len(writers) {
	case 0:
	case 1:
		ts, err = r.commitOn(writers[0], (*Tx).CommitTS)
	default:
		ts, err = tx.commitTwoPhase(writers)
	}
	tx.trace.Finish(err)
	tx.trace = nil
	return ts, err
}

// commitOn commits participant i with commit (CommitTS or commitPrepared)
// and, once it has, counts the commit and its rows for the shard: an
// aborted write never counts as ingested.
func (r *txRoute) commitOn(i int, commit func(*Tx) (int64, error)) (int64, error) {
	rows := int64(r.parts[i].etx.WriteCount())
	ts, err := commit(r.parts[i])
	if err == nil {
		r.db.m.commits[i].Inc()
		r.db.m.ingestRows[i].Add(rows)
	}
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
	db.m.crossTx.Inc()
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
	err := db.dlog.commit(gid)
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
		ts, err := r.commitOn(i, (*Tx).commitPrepared)
		span(obs.SpanShardCommit, commitStart, obs.L("shard", strconv.Itoa(i)))
		if err != nil && first == nil {
			// The decision is durable; recovery will finish this shard.
			first = fmt.Errorf("core: cross-shard commit on shard %d: %w", i, err)
		}
		last = max(last, ts)
	}
	if first == nil {
		db.obs.Events().Info(obs.EventCrossShardCommit,
			"gid", gid, "shards", strconv.Itoa(len(writers)))
	}
	return last, first
}

// rollbackRouted abandons every participant.
func (tx *Tx) rollbackRouted() error {
	r := tx.route
	if r.done {
		return nil
	}
	r.done = true
	var first error
	for _, p := range r.parts {
		if p != nil {
			if err := p.Rollback(); err != nil && first == nil {
				first = err
			}
		}
	}
	tx.trace.Finish(nil)
	tx.trace = nil
	return first
}
