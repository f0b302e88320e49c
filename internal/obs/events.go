package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// defaultEventRing is how many events the log retains for /debug/events.
const defaultEventRing = 1024

// Canonical ledger audit event types. These are the structured record of
// the ledger doing its job — blocks closing, digests leaving the trust
// boundary, verifications running — and are what an operator greps for
// in /debug/events or a downstream slog sink.
const (
	EventBlockClosed      = "block_closed"
	EventDigestGenerated  = "digest_generated"
	EventDigestUploaded   = "digest_uploaded"
	EventIncarnation      = "incarnation_assigned"
	EventVerifyStarted    = "verify_started"
	EventVerifyFinished   = "verify_finished"
	EventVerifyIssue      = "verify_issue"
	EventRecoveryReplay   = "recovery_replayed"
	EventWALCheckpoint    = "wal_checkpoint"
	EventWALTornTail      = "wal_torn_tail_truncated"
	EventSnapshotSkipped  = "snapshot_skipped"
	EventBlobstoreError   = "blobstore_error"
	EventHealthChanged    = "health_changed"
	EventSuperBlockClosed = "superblock_closed"
	EventCrossShardCommit = "cross_shard_commit"
	EventAuditPassStart   = "audit_pass_started"
	EventAuditPassFinish  = "audit_pass_finished"
	EventTamperLocalized  = "tamper_localized"
	EventSlowQuery        = "slow_query"
)

// EventAttr is one key/value attribute of an event.
type EventAttr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Event is one structured audit record.
type Event struct {
	Seq   int64       `json:"seq"`
	Time  time.Time   `json:"time"`
	Level slog.Level  `json:"level"`
	Type  string      `json:"type"`
	Attrs []EventAttr `json:"attrs,omitempty"`
}

// EventLog is a leveled, bounded structured event log. Events land in a
// fixed-size ring (served at /debug/events) and are optionally mirrored
// to a slog.Logger for durable/external logging. Like the rest of the
// obs package it is dependency-free, safe for concurrent use, and a nil
// or disabled EventLog makes every emit a single branch.
type EventLog struct {
	on   bool
	mu   sync.Mutex
	ring []Event
	next int
	full bool
	seq  atomic.Int64
	out  atomic.Pointer[slog.Logger]
}

func newEventLog(size int, on bool) *EventLog {
	return &EventLog{ring: make([]Event, size), on: on && size > 0}
}

// SetLogger mirrors every event to lg (in addition to the ring). Pass
// nil to stop mirroring.
func (e *EventLog) SetLogger(lg *slog.Logger) {
	if e == nil {
		return
	}
	e.out.Store(lg)
}

// Enabled reports whether the log records anything.
func (e *EventLog) Enabled() bool { return e != nil && e.on }

// Info emits an informational event. kv are alternating key/value pairs.
func (e *EventLog) Info(typ string, kv ...any) { e.emit(slog.LevelInfo, typ, kv) }

// Warn emits a warning event.
func (e *EventLog) Warn(typ string, kv ...any) { e.emit(slog.LevelWarn, typ, kv) }

// Error emits an error event.
func (e *EventLog) Error(typ string, kv ...any) { e.emit(slog.LevelError, typ, kv) }

func (e *EventLog) emit(level slog.Level, typ string, kv []any) {
	if e == nil || !e.on {
		return
	}
	ev := Event{
		Seq:   e.seq.Add(1),
		Time:  time.Now(),
		Level: level,
		Type:  typ,
		Attrs: pairAttrs(kv),
	}
	e.mu.Lock()
	e.ring[e.next] = ev
	e.next++
	if e.next == len(e.ring) {
		e.next = 0
		e.full = true
	}
	e.mu.Unlock()
	if lg := e.out.Load(); lg != nil {
		lg.Log(context.Background(), level, typ, kv...)
	}
}

// pairAttrs converts alternating key/value arguments into attrs,
// following slog's convention for a dangling value.
func pairAttrs(kv []any) []EventAttr {
	if len(kv) == 0 {
		return nil
	}
	attrs := make([]EventAttr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		if i+1 >= len(kv) {
			attrs = append(attrs, EventAttr{Key: "!BADKEY", Value: kv[i]})
			break
		}
		key, ok := kv[i].(string)
		if !ok {
			key = "!BADKEY"
		}
		attrs = append(attrs, EventAttr{Key: key, Value: kv[i+1]})
	}
	return attrs
}

// Recorded returns the total number of events emitted since creation
// (including those already evicted from the ring).
func (e *EventLog) Recorded() int64 {
	if e == nil {
		return 0
	}
	return e.seq.Load()
}

// Recent returns up to the last n events, newest first. n <= 0 means
// the whole ring.
func (e *EventLog) Recent(n int) []Event {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	size := e.next
	if e.full {
		size = len(e.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := 1; i <= n; i++ {
		idx := e.next - i
		if idx < 0 {
			idx += len(e.ring)
		}
		out = append(out, e.ring[idx])
	}
	return out
}

// RecentOfType returns up to the last n events of the given type,
// newest first. n <= 0 means no limit (bounded by the ring).
func (e *EventLog) RecentOfType(typ string, n int) []Event {
	all := e.Recent(0)
	var out []Event
	for _, ev := range all {
		if ev.Type != typ {
			continue
		}
		out = append(out, ev)
		if n > 0 && len(out) == n {
			break
		}
	}
	return out
}
