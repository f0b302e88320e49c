package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// TestCrossShardCommitOneTrace: a cross-shard 2PC commit must produce
// ONE trace — the coordinator's — whose spans cover both shards' prepare
// legs, the decision-log write, and both commit legs. The shard
// participants share the coordinator's trace rather than opening their
// own.
func TestCrossShardCommitOneTrace(t *testing.T) {
	s := openShards(t, t.TempDir(), 2)
	defer s.Close()
	ts := s.Obs().Traces()
	// Ignore setup transactions (table creation); retain only the
	// cross-shard commit under test.
	ts.SetSlowThreshold(time.Hour)
	ts.SetSampleRate(0)

	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	ts.SetSlowThreshold(0) // retain every trace from here on

	// Find one key routed to each shard so the commit is genuinely
	// cross-shard.
	keys := make([]string, s.NumShards())
	found := 0
	for i := 0; found < len(keys) && i < 10_000; i++ {
		name := fmt.Sprintf("acct-%04d", i)
		if sh := st.ShardOf(sqltypes.NewNVarChar(name)); keys[sh] == "" {
			keys[sh] = name
			found++
		}
	}
	if found != len(keys) {
		t.Fatalf("could not find keys for all %d shards", len(keys))
	}

	tx := s.Begin("teller")
	id := tx.Trace().ID()
	if id == 0 {
		t.Fatal("sharded transaction has no trace")
	}
	for i, name := range keys {
		if err := tx.Insert(st, acct(name, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Both participant transactions must observe the coordinator's trace,
	// not one of their own.
	for i, ptx := range tx.route.parts {
		if ptx == nil {
			continue
		}
		if got := ptx.Trace().ID(); got != id {
			t.Fatalf("shard %d participant trace %s, want coordinator's %s", i, got, id)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rec, ok := ts.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	prepared := map[string]bool{}
	committed := map[string]bool{}
	decided := 0
	for _, sp := range rec.Spans {
		switch sp.Name {
		case obs.SpanShardPrepare, obs.SpanShardCommit:
			var shard string
			for _, a := range sp.Attrs {
				if a.Key == "shard" {
					shard = a.Value
				}
			}
			if shard == "" {
				t.Fatalf("%s span has no shard attribute: %+v", sp.Name, sp)
			}
			if sp.Name == obs.SpanShardPrepare {
				prepared[shard] = true
			} else {
				committed[shard] = true
			}
		case obs.SpanShardDecide:
			decided++
		}
	}
	for i := 0; i < s.NumShards(); i++ {
		sh := strconv.Itoa(i)
		if !prepared[sh] {
			t.Fatalf("no shard_prepare span for shard %s (spans: %+v)", sh, rec.Spans)
		}
		if !committed[sh] {
			t.Fatalf("no shard_commit span for shard %s (spans: %+v)", sh, rec.Spans)
		}
	}
	if decided != 1 {
		t.Fatalf("%d 2pc_decide spans, want 1", decided)
	}
	if gid := attrOf(rec, "gid"); gid == "" {
		t.Fatalf("trace carries no gid attribute: %+v", rec.Attrs)
	}
	if n := attrOf(rec, "shards"); n != "2" {
		t.Fatalf("trace shards attribute %q, want 2", n)
	}

	// Exactly one trace was retained for the whole 2PC commit: the shard
	// legs did not finish traces of their own.
	if got := len(ts.Recent(0)); got != 1 {
		t.Fatalf("%d traces retained for one cross-shard commit", got)
	}
}

func attrOf(rec *obs.TraceRecord, key string) string {
	for _, a := range rec.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestSingleShardTraceStages: a routed single-shard commit takes the
// fast path and its trace must still show the engine commit stages
// (row hashing, WAL encode, durability wait) under the one trace ID.
func TestSingleShardTraceStages(t *testing.T) {
	s := openShards(t, t.TempDir(), 2)
	defer s.Close()
	ts := s.Obs().Traces()
	ts.SetSlowThreshold(0)

	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin("teller")
	id := tx.Trace().ID()
	if err := tx.Insert(st, acct("acct-0001", 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rec, ok := ts.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{obs.SpanRowHash, obs.SpanWALEncode, obs.SpanCommitSequence, obs.SpanCommitWait, obs.SpanCommitApply} {
		if !names[want] {
			t.Fatalf("single-shard trace missing %s span (have %v)", want, names)
		}
	}
	// The single-shard fast path runs no 2PC: no prepare/decide spans.
	if names[obs.SpanShardPrepare] || names[obs.SpanShardDecide] {
		t.Fatalf("single-shard commit recorded 2PC spans: %v", names)
	}
}

// TestTraceFailedCommitRetained: a commit that fails finishes its trace
// as an error at commit time (not when the caller rolls back), and the
// tail sampler always keeps error traces. The failure is forced by
// closing the database under an open transaction, so the group
// committer rejects the publish.
func TestTraceFailedCommitRetained(t *testing.T) {
	l := openLedgerAt(t, t.TempDir(), DefaultBlockSize)
	ts := l.Obs().Traces()
	ts.SetSlowThreshold(time.Hour) // only the error path may retain
	ts.SetSampleRate(0)

	lt, err := l.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin("writer")
	id := tx.Trace().ID()
	if id == 0 {
		t.Fatal("transaction has no trace")
	}
	if err := tx.Insert(lt, acct("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit against a closed database succeeded")
	}
	rec, ok := ts.Get(id)
	if !ok {
		t.Fatalf("error trace %s not retained", id)
	}
	if rec.Decision != "error" || rec.Err == "" {
		t.Fatalf("decision=%q err=%q, want error retention", rec.Decision, rec.Err)
	}
}
