package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// retainedRate runs n fast (sub-threshold) successful traces through a
// fresh store seeded with seed and returns how many were retained.
func retainedRate(t *testing.T, seed uint64, rate float64, n int) int {
	t.Helper()
	r := NewRegistry()
	ts := r.Traces()
	ts.rng.Store(seed | 1)         // a fixed sampling/ID sequence
	ts.SetSlowThreshold(time.Hour) // nothing is "slow"
	ts.SetSampleRate(rate)
	for i := 0; i < n; i++ {
		tr := ts.New("tx")
		if tr == nil {
			t.Fatal("tracing unexpectedly disabled")
		}
		tr.Finish(nil)
	}
	return len(ts.Recent(0))
}

// TestTailSamplingDeterministic checks the three retention tiers: every
// slow trace is kept, every failed trace is kept, and fast successful
// traces are kept at roughly the configured sample rate — exactly
// reproducibly so under a fixed RNG seed.
func TestTailSamplingDeterministic(t *testing.T) {
	const n = 2000

	// Fast successful traces: ~1% kept, deterministic under a fixed seed.
	kept := retainedRate(t, 0xfeedface, 0.01, n)
	if again := retainedRate(t, 0xfeedface, 0.01, n); again != kept {
		t.Fatalf("same seed, different retention: %d then %d", kept, again)
	}
	// ~1% of 2000 = 20; allow generous slack but catch 0% and 100%.
	if kept < 5 || kept > 60 {
		t.Fatalf("sampled retention %d/%d traces, want ≈1%%", kept, n)
	}
	if diff := retainedRate(t, 0xdecade, 0.01, n); diff == kept {
		// Different seeds giving identical counts is possible but means
		// the test would not notice a stuck RNG; re-check with a third.
		if retainedRate(t, 0xabcdef, 0.01, n) == kept {
			t.Fatalf("retention count %d invariant across seeds: RNG stuck?", kept)
		}
	}

	// Rate 0: fast successful traces are never kept.
	if kept := retainedRate(t, 1, 0, 500); kept != 0 {
		t.Fatalf("rate 0 retained %d traces", kept)
	}

	// Threshold <= 0: everything counts as slow, 100% retained.
	r := NewRegistry()
	ts := r.Traces()
	ts.SetSlowThreshold(0)
	ts.SetSampleRate(0)
	for i := 0; i < 100; i++ {
		ts.New("tx").Finish(nil)
	}
	if got := len(ts.Recent(0)); got != 100 {
		t.Fatalf("threshold 0 retained %d/100", got)
	}
	for _, rec := range ts.Recent(0) {
		if rec.Decision != "slow" {
			t.Fatalf("decision %q, want slow", rec.Decision)
		}
	}
	if got := len(r.Events().RecentOfType(EventSlowQuery, 0)); got != 100 {
		t.Fatalf("%d/100 slow_query events", got)
	}

	// Errors are always retained, even when fast and sampling is off.
	r2 := NewRegistry()
	ts2 := r2.Traces()
	ts2.SetSlowThreshold(time.Hour)
	ts2.SetSampleRate(0)
	tr := ts2.New("tx")
	id := tr.ID()
	tr.Finish(errors.New("lock timeout"))
	rec, ok := ts2.Get(id)
	if !ok {
		t.Fatal("error trace not retained")
	}
	if rec.Decision != "error" || rec.Err != "lock timeout" {
		t.Fatalf("decision=%q err=%q", rec.Decision, rec.Err)
	}
	if ev := r2.Events().RecentOfType(EventSlowQuery, 0); len(ev) != 1 || eventAttrs(ev[0])["err"] != "lock timeout" {
		t.Fatalf("slow_query events for error trace: %+v", ev)
	}
}

// TestTraceSpansAndSlowQuery exercises span recording, accumulator
// folding, attributes, and the slow_query event: it carries only what
// the retained record holds.
func TestTraceSpansAndSlowQuery(t *testing.T) {
	r := NewRegistry()
	ts := r.Traces()
	ts.SetSlowThreshold(0)

	tr := ts.New("tx")
	id := tr.ID()
	base := tr.Start()
	// Two lock waits fold into one accumulator span.
	tr.AddTimed(SpanLockWait, base, 3*time.Millisecond)
	tr.AddTimed(SpanLockWait, base.Add(time.Millisecond), 2*time.Millisecond)
	wait := tr.Record(SpanCommitWait, 0, base.Add(5*time.Millisecond), 10*time.Millisecond)
	tr.Record(SpanWALFlush, wait, base.Add(6*time.Millisecond), 7*time.Millisecond)
	tr.SetAttr(AttrStatement, "insert accounts")
	tr.SetAttr(AttrTables, "accounts")
	tr.SetAttr(AttrRows, "4")
	tr.Finish(nil)

	rec, ok := ts.Get(id)
	if !ok {
		t.Fatal("trace not retained")
	}
	byName := map[string]TraceSpan{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	lw := byName[SpanLockWait]
	if lw.Count != 2 || lw.Duration != 5*time.Millisecond {
		t.Fatalf("lock_wait accumulator: count=%d dur=%v", lw.Count, lw.Duration)
	}
	if fl := byName[SpanWALFlush]; fl.Parent != wait {
		t.Fatalf("wal_flush parent %d, want %d", fl.Parent, wait)
	}

	ev := r.Events().RecentOfType(EventSlowQuery, 0)
	if len(ev) != 1 {
		t.Fatalf("%d slow_query events, want 1", len(ev))
	}
	attrs := eventAttrs(ev[0])
	want := map[string]any{
		"trace_id":    id.String(),
		"name":        "tx",
		"duration_ms": float64(rec.Duration) / float64(time.Millisecond),
		"err":         "",
		"statement":   "insert accounts",
	}
	if len(attrs) != len(want) {
		t.Fatalf("slow_query attrs %v, want %v", attrs, want)
	}
	for k, v := range want {
		if attrs[k] != v {
			t.Fatalf("slow_query %s = %v, want %v", k, attrs[k], v)
		}
	}

	var buf bytes.Buffer
	WriteWaterfall(&buf, rec)
	out := buf.String()
	for _, want := range []string{id.String(), SpanLockWait + " ", "x2", SpanWALFlush, `statement="insert accounts"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	// The wal_flush child must be indented one level deeper than its
	// commit_wait parent.
	var waitIndent, flushIndent int
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, SpanCommitWait) {
			waitIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, SpanWALFlush) {
			flushIndent = len(line) - len(trimmed)
		}
	}
	if flushIndent <= waitIndent {
		t.Fatalf("wal_flush indent %d not deeper than commit_wait %d:\n%s", flushIndent, waitIndent, out)
	}
}

// TestTraceNilSafety: every Trace method must tolerate the nil receiver
// tracing-off returns, and a disabled store must hand out no traces.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != 0 {
		t.Fatal("nil trace has nonzero ID")
	}
	tr.Record("x", 0, time.Now(), time.Second)
	tr.AddTimed("x", time.Now(), time.Second)
	tr.SetAttr("k", "v")
	if tr.Attr("k") != "" {
		t.Fatal("nil trace returned an attribute")
	}
	tr.Finish(nil)

	if Disabled().NewTrace("tx") != nil {
		t.Fatal("disabled registry created a trace")
	}
	var ts *TraceStore
	ts.SetEnabled(true)
	ts.SetSlowThreshold(0)
	ts.SetSampleRate(1)
	if _, ok := ts.Get(1); ok {
		t.Fatal("nil store returned a trace")
	}
	if ts.Recent(1) != nil {
		t.Fatal("nil store returned records")
	}

	// Runtime toggle: off stops new traces, on resumes.
	r := NewRegistry()
	r.Traces().SetEnabled(false)
	if r.NewTrace("tx") != nil {
		t.Fatal("disabled store created a trace")
	}
	r.Traces().SetEnabled(true)
	tr2 := r.NewTrace("tx")
	if tr2 == nil {
		t.Fatal("re-enabled store created no trace")
	}
	tr2.Finish(nil)
}

// TestTraceRingEviction: the retention ring is bounded; the oldest
// record falls out of ID lookup once overwritten.
func TestTraceRingEviction(t *testing.T) {
	r := NewRegistry()
	ts := r.Traces()
	ts.SetSlowThreshold(0)
	var first TraceID
	for i := 0; i < defaultTraceRing+10; i++ {
		tr := ts.New("tx")
		if i == 0 {
			first = tr.ID()
		}
		tr.Finish(nil)
	}
	if _, ok := ts.Get(first); ok {
		t.Fatal("evicted trace still reachable by ID")
	}
	if got := len(ts.Recent(0)); got != defaultTraceRing {
		t.Fatalf("ring holds %d records, want %d", got, defaultTraceRing)
	}
}

// eventAttrs maps an event's attributes by key.
func eventAttrs(ev Event) map[string]any {
	m := map[string]any{}
	for _, a := range ev.Attrs {
		m[a.Key] = a.Value
	}
	return m
}
