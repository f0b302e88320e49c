package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical per-transaction tracing. Every transaction gets a Trace
// (a TraceID plus a tree of child spans); the layers it passes through —
// sql, engine lock/hash/WAL-encode, the WAL group committer, apply —
// each record where the time went. Retention is tail-based: the decision
// to keep a trace is made at Finish, when its duration and outcome are
// known. Slow and failed traces are always kept, each announced by a
// slow_query event carrying its ID; fast traces are kept with a small
// sampling probability so the ring always holds representative baseline
// traces too. Kept traces are reachable by ID via /debug/trace.

// Span names used on the transaction commit path. Shared constants so
// tests and the waterfall renderer agree with the instrumented layers.
const (
	SpanLockWait       = "lock_wait"       // accumulated 2PL lock acquisition waits
	SpanRowHash        = "row_hash"        // accumulated per-row ledger hashing
	SpanWALEncode      = "wal_encode"      // WAL record encoding into the commit arena
	SpanCommitSequence = "commit_sequence" // ordinal assignment + ledger entry build
	SpanCommitPublish  = "commit_publish"  // handoff to the group committer
	SpanCommitWait     = "commit_wait"     // waiting for the group's durability
	SpanWALGroupForm   = "wal_group_form"  // enqueue → group flush start (child of commit_wait)
	SpanWALFlush       = "wal_flush"       // group append + fsync (child of commit_wait)
	SpanCommitApply    = "commit_apply"    // version-chain apply + lock release
	SpanStatement      = "statement"       // one SQL statement inside the session
)

// Trace attribute keys with shared meaning.
const (
	AttrStatement = "statement" // statement fingerprint, e.g. "INSERT accounts"
	AttrTables    = "tables"    // comma-joined tables the transaction touched
	AttrRows      = "rows"      // rows touched (decimal string)
)

// TraceID identifies one trace; rendered as 16 lowercase hex digits.
// The zero ID means "no trace".
type TraceID uint64

func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return TraceID(v), nil
}

// SpanID identifies a span within its trace (index+1). The zero SpanID
// names the trace's implicit root span: passing it as a parent makes a
// top-level child, so top-level children partition the root's duration.
type SpanID int32

// maxTraceSpans bounds one trace's span count so a pathological
// transaction (a million-row batch) cannot balloon memory; overflow is
// counted and reported on the retained record instead.
const maxTraceSpans = 192

// TraceSpan is one finished span inside a trace.
type TraceSpan struct {
	ID       SpanID        `json:"id"`
	Parent   SpanID        `json:"parent"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	// Count > 1 marks an accumulator span: Duration is the sum of Count
	// contributions (e.g. every lock wait in the transaction).
	Count int64   `json:"count,omitempty"`
	Attrs []Label `json:"attrs,omitempty"`
}

// Trace is an in-flight transaction trace. All methods tolerate a nil
// receiver (tracing disabled), so instrumented code never branches on
// registry presence. A Trace is pooled: after Finish it must not be
// touched again.
type Trace struct {
	store *TraceStore
	id    TraceID
	name  string
	start time.Time

	mu      sync.Mutex
	spans   []TraceSpan
	attrs   []Label
	dropped int
}

// ID returns the trace's ID (zero for nil).
func (tr *Trace) ID() TraceID {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Start returns when the trace began.
func (tr *Trace) Start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}

// Record appends a finished span with explicit timing. parent 0 makes a
// top-level child of the root. Returns the new span's ID (0 if the
// trace is nil or full).
func (tr *Trace) Record(name string, parent SpanID, start time.Time, dur time.Duration, attrs ...Label) SpanID {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxTraceSpans {
		tr.dropped++
		return 0
	}
	id := SpanID(len(tr.spans) + 1)
	tr.spans = append(tr.spans, TraceSpan{
		ID: id, Parent: parent, Name: name, Start: start, Duration: dur, Attrs: attrs,
	})
	return id
}

// AddTimed folds one contribution into the named top-level accumulator
// span, creating it on first use. Repeated operations (per-row hashing,
// per-key lock waits) stay one span per trace instead of one per call.
func (tr *Trace) AddTimed(name string, start time.Time, dur time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.spans {
		if tr.spans[i].Count > 0 && tr.spans[i].Name == name {
			tr.spans[i].Duration += dur
			tr.spans[i].Count++
			return
		}
	}
	if len(tr.spans) >= maxTraceSpans {
		tr.dropped++
		return
	}
	id := SpanID(len(tr.spans) + 1)
	tr.spans = append(tr.spans, TraceSpan{
		ID: id, Parent: 0, Name: name, Start: start, Duration: dur, Count: 1,
	})
}

// SetAttr sets a trace-level attribute, replacing an earlier value for
// the same key (a retried statement overwrites, not duplicates).
func (tr *Trace) SetAttr(key, value string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.attrs {
		if tr.attrs[i].Key == key {
			tr.attrs[i].Value = value
			return
		}
	}
	tr.attrs = append(tr.attrs, Label{Key: key, Value: value})
}

// Attr returns the trace-level attribute for key ("" if unset).
func (tr *Trace) Attr(key string) string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, a := range tr.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Finish ends the trace, applies the tail-sampling retention decision,
// and returns the trace to the pool. The *Trace must not be used after.
func (tr *Trace) Finish(err error) {
	if tr == nil {
		return
	}
	tr.store.finish(tr, time.Since(tr.start), err)
}

// Discard ends the trace without a retention decision and without
// counting it — for a background operation that found nothing to do.
func (tr *Trace) Discard() {
	if tr != nil {
		tr.store.release(tr)
	}
}

// TraceRecord is one retained (finished) trace.
type TraceRecord struct {
	ID       string        `json:"id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	// Decision records why the trace was kept: "slow", "error" or
	// "sampled".
	Decision string      `json:"decision"`
	Err      string      `json:"err,omitempty"`
	Attrs    []Label     `json:"attrs,omitempty"`
	Spans    []TraceSpan `json:"spans"`
	Dropped  int         `json:"dropped_spans,omitempty"`
}

// defaultTraceRing is how many retained traces the store keeps: enough
// recent history to chase a slow_query event to its trace without
// unbounded growth.
const defaultTraceRing = 256

// TraceStore owns trace creation, tail-based retention and lookup. It
// hangs off a Registry; a disabled registry's store never creates
// traces.
type TraceStore struct {
	on        atomic.Bool
	slowNanos atomic.Int64  // retention threshold
	rateBits  atomic.Uint64 // float64 bits of the fast-trace sample rate
	rng       atomic.Uint64 // xorshift64 state: IDs + sampling decisions

	pool sync.Pool

	mu   sync.Mutex
	ring []*TraceRecord // retained traces, oldest overwritten first
	next int
	byID map[TraceID]*TraceRecord

	events *EventLog
}

func newTraceStore(r *Registry, on bool) *TraceStore {
	s := &TraceStore{
		ring:   make([]*TraceRecord, defaultTraceRing),
		byID:   make(map[TraceID]*TraceRecord),
		events: r.events,
	}
	s.pool.New = func() any { return &Trace{spans: make([]TraceSpan, 0, 32)} }
	s.on.Store(on)
	s.slowNanos.Store(int64(100 * time.Millisecond))
	s.rateBits.Store(math.Float64bits(0.01))
	s.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return s
}

// Enabled reports whether new traces are being created.
func (s *TraceStore) Enabled() bool { return s != nil && s.on.Load() }

// SetEnabled turns trace creation on or off at runtime. In-flight
// traces finish normally either way.
func (s *TraceStore) SetEnabled(on bool) {
	if s != nil {
		s.on.Store(on)
	}
}

// SetSlowThreshold sets the duration at or above which a finished trace
// is always retained and announced by a slow_query event. d <= 0 retains
// every trace (useful for smoke tests).
func (s *TraceStore) SetSlowThreshold(d time.Duration) {
	if s != nil {
		s.slowNanos.Store(int64(d))
	}
}

// SetSampleRate sets the probability (0..1) that a fast, successful
// trace is retained anyway.
func (s *TraceStore) SetSampleRate(p float64) {
	if s == nil {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.rateBits.Store(math.Float64bits(p))
}

func (s *TraceStore) rand64() uint64 {
	for {
		old := s.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if s.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// New starts a trace. Returns nil when tracing is off.
func (s *TraceStore) New(name string) *Trace {
	if s == nil || !s.on.Load() {
		return nil
	}
	tr := s.pool.Get().(*Trace)
	tr.store = s
	tr.id = TraceID(s.rand64() | 1)
	tr.name = name
	tr.start = time.Now()
	tr.spans = tr.spans[:0]
	tr.attrs = tr.attrs[:0]
	tr.dropped = 0
	return tr
}

func (s *TraceStore) finish(tr *Trace, dur time.Duration, err error) {
	slow := dur >= time.Duration(s.slowNanos.Load())
	var decision string
	switch {
	case err != nil:
		decision = "error"
	case slow:
		decision = "slow"
	default:
		rate := math.Float64frombits(s.rateBits.Load())
		if rate > 0 && float64(s.rand64()>>11)/(1<<53) < rate {
			decision = "sampled"
		} else {
			s.release(tr)
			return
		}
	}

	rec := &TraceRecord{
		ID:       tr.id.String(),
		Name:     tr.name,
		Start:    tr.start,
		Duration: dur,
		Decision: decision,
		Attrs:    append([]Label(nil), tr.attrs...),
		Spans:    append([]TraceSpan(nil), tr.spans...),
		Dropped:  tr.dropped,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	id := tr.id
	s.release(tr)

	s.mu.Lock()
	if old := s.ring[s.next]; old != nil {
		if oldID, perr := ParseTraceID(old.ID); perr == nil {
			delete(s.byID, oldID)
		}
	}
	s.ring[s.next] = rec
	s.next = (s.next + 1) % len(s.ring)
	s.byID[id] = rec
	s.mu.Unlock()

	if decision != "sampled" {
		// The event points at the record, which holds the rest: spans,
		// tables, rows.
		var stmt string
		for _, a := range rec.Attrs {
			if a.Key == AttrStatement {
				stmt = a.Value
			}
		}
		s.events.Warn(EventSlowQuery,
			"trace_id", rec.ID,
			"name", rec.Name,
			"duration_ms", float64(rec.Duration)/float64(time.Millisecond),
			"err", rec.Err,
			"statement", stmt,
		)
	}
}

func (s *TraceStore) release(tr *Trace) {
	tr.store = nil
	tr.id = 0
	s.pool.Put(tr)
}

// Get returns the retained trace with the given ID, if still in the
// ring.
func (s *TraceStore) Get(id TraceID) (*TraceRecord, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[id]
	return rec, ok
}

// Recent returns up to the last n retained traces, newest first.
// n <= 0 means the whole ring.
func (s *TraceStore) Recent(n int) []*TraceRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*TraceRecord, 0, len(s.ring))
	for i := 1; i <= len(s.ring); i++ {
		idx := (s.next - i + len(s.ring)) % len(s.ring)
		if s.ring[idx] == nil {
			break
		}
		out = append(out, s.ring[idx])
		if n > 0 && len(out) == n {
			break
		}
	}
	return out
}

// WriteWaterfall renders a retained trace as an indented text waterfall:
// each span's offset from the trace start, duration, and share of the
// root, children nested under parents and siblings sorted by start.
func WriteWaterfall(w io.Writer, rec *TraceRecord) {
	fmt.Fprintf(w, "trace %s %s %s decision=%s", rec.ID, rec.Name, rec.Duration.Round(time.Microsecond), rec.Decision)
	for _, a := range rec.Attrs {
		fmt.Fprintf(w, " %s=%q", a.Key, a.Value)
	}
	if rec.Err != "" {
		fmt.Fprintf(w, " err=%q", rec.Err)
	}
	fmt.Fprintln(w)

	children := make(map[SpanID][]int, len(rec.Spans))
	for i, sp := range rec.Spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	for _, idxs := range children {
		sort.Slice(idxs, func(a, b int) bool {
			return rec.Spans[idxs[a]].Start.Before(rec.Spans[idxs[b]].Start)
		})
	}
	var walk func(parent SpanID, depth int)
	walk = func(parent SpanID, depth int) {
		for _, i := range children[parent] {
			sp := rec.Spans[i]
			pct := 0.0
			if rec.Duration > 0 {
				pct = 100 * float64(sp.Duration) / float64(rec.Duration)
			}
			fmt.Fprintf(w, "%s%-16s +%-10s %-10s %5.1f%%",
				strings.Repeat("  ", depth+1), sp.Name,
				sp.Start.Sub(rec.Start).Round(time.Microsecond),
				sp.Duration.Round(time.Microsecond), pct)
			if sp.Count > 1 {
				fmt.Fprintf(w, " x%d", sp.Count)
			}
			for _, a := range sp.Attrs {
				fmt.Fprintf(w, " %s=%q", a.Key, a.Value)
			}
			fmt.Fprintln(w)
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	if rec.Dropped > 0 {
		fmt.Fprintf(w, "  (%d spans dropped past the per-trace cap)\n", rec.Dropped)
	}
}
