package wal

import (
	"errors"
	"sync"
	"time"
)

// ErrCommitterClosed is returned to commits enqueued after Close.
var ErrCommitterClosed = errors.New("wal: group committer closed")

type commitReq struct {
	recs []Record

	// Written by the group's flusher under GroupCommitter.mu before done is
	// set; the owner reads them after Wait has seen done under the same
	// mutex. The timing fields are the group's breadcrumbs for traced
	// commits.
	done       bool
	lsn        int64
	err        error
	flushStart time.Time
	flushDur   time.Duration
	groupSize  int
	groupRecs  int
}

// Ticket is a pending group commit returned by Enqueue.
type Ticket struct {
	g   *GroupCommitter
	req *commitReq
}

// Wait blocks until the commit's write group has been appended and
// flushed per the log's SyncMode, returning the LSN of the commit's
// first record. There is no background flusher: the first waiter to find
// no flush in flight writes everything queued — its own commit and every
// commit enqueued beside it — as one group, and the others sleep until it
// is done. A waiter that wakes to find its commit was not in that group
// flushes the next one itself. A commit that arrives alone therefore
// writes its own frame on its own goroutine, and every Enqueue must be
// followed by a Wait: nothing else is certain to write the frame out.
func (t *Ticket) Wait() (int64, error) {
	g, req := t.g, t.req
	g.mu.Lock()
	for !req.done {
		if g.flushing {
			g.flushed.Wait()
		} else {
			g.flushLocked()
		}
	}
	g.mu.Unlock()
	return req.lsn, req.err
}

// GroupTimings reports, after Wait returns, where the group-commit time
// went: when the commit's group started its flush, how long the flush
// (append + fsync) took, and the group's size in commits and records.
func (t *Ticket) GroupTimings() (flushStart time.Time, flushDur time.Duration, groupSize, groupRecords int) {
	r := t.req
	return r.flushStart, r.flushDur, r.groupSize, r.groupRecs
}

// GroupCommitter batches concurrent commit appends into write groups that
// share one log flush (one fsync under SyncFull). Enqueue order equals
// log order, so a caller that sequences commits before enqueueing keeps
// its ordering invariants in the log — the engine relies on this to keep
// WAL commit-record order identical to ledger ordinal order.
type GroupCommitter struct {
	log *Log
	m   logMetrics // inherited from the log's registry at construction

	mu       sync.Mutex
	flushed  sync.Cond // broadcast when a flush ends; L is &mu
	pending  []*commitReq
	flushing bool // a waiter is inside AppendGroup with the previous pending
	closed   bool
}

// NewGroupCommitter returns a group committer over l.
func NewGroupCommitter(l *Log) *GroupCommitter {
	l.mu.Lock()
	m := l.m
	l.mu.Unlock()
	g := &GroupCommitter{log: l, m: m}
	g.flushed.L = &g.mu
	return g
}

// Enqueue queues one commit's records for group durability and returns
// immediately; the caller Waits on the ticket outside its critical
// section. Requests are written in enqueue order.
func (g *GroupCommitter) Enqueue(recs []Record) *Ticket {
	req := &commitReq{recs: recs}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		req.done, req.err = true, ErrCommitterClosed
		return &Ticket{g: g, req: req}
	}
	g.pending = append(g.pending, req)
	g.mu.Unlock()
	g.m.groupCommits.Inc()
	return &Ticket{g: g, req: req}
}

// Close makes later Enqueues fail with ErrCommitterClosed. Commits already
// queued are still written by their owners' Wait, so the log must outlive
// them. Safe to call more than once.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

// flushLocked writes everything queued as one group with a single flush
// and marks its members done. The caller holds g.mu and has seen no flush
// in flight; g.mu is released around the log write — that is when later
// commits queue up for the next group — and held again on return.
func (g *GroupCommitter) flushLocked() {
	group := g.pending
	g.pending = nil
	g.flushing = true
	g.mu.Unlock()

	batches := make([][]Record, len(group))
	nrec := 0
	for i, req := range group {
		batches[i] = req.recs
		nrec += len(req.recs)
	}
	flushStart := time.Now()
	lsns, err := g.log.AppendGroup(batches)
	flushDur := time.Since(flushStart)
	g.m.groupFlushSeconds.Observe(flushDur.Seconds())
	g.m.groups.Inc()
	g.m.groupRecords.Add(int64(nrec))
	g.m.groupSize.Observe(float64(len(group)))

	g.mu.Lock()
	for i, req := range group {
		if err == nil {
			req.lsn = lsns[i]
		}
		req.err = err
		req.flushStart = flushStart
		req.flushDur = flushDur
		req.groupSize = len(group)
		req.groupRecs = nrec
		req.done = true
	}
	g.flushing = false
	g.flushed.Broadcast()
}
