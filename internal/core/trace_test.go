package core

import (
	"fmt"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
)

// TestCommitTraceStages: a commit's trace shows the engine commit stages
// (row hashing, WAL encode, durability wait) under the one trace ID.
func TestCommitTraceStages(t *testing.T) {
	s := openBank(t, t.TempDir())
	defer s.Close()
	ts := s.Obs().Traces()
	ts.SetSlowThreshold(0)

	st, err := s.CreateLedgerTable("accounts", accountsSchema(), engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin("teller")
	id := tx.Trace().ID()
	if err := tx.Insert(st, account("acct-0001", 100)); err != nil {
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
			t.Fatalf("commit trace missing %s span (have %v)", want, names)
		}
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
	if err := tx.Insert(lt, account("a", 1)); err != nil {
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

// TestVerifyTraceCoverage: a verification's root trace has a top-level
// span for loading the entries, one for the checks and one for the views,
// and under the checks a span for the chain walk and for each table's row
// versions and indexes. The top-level spans partition the root and, as
// commits' spans must, account for at least 90% of its duration.
func TestVerifyTraceCoverage(t *testing.T) {
	l := openTestLedger(t, 16)
	ts := l.Obs().Traces()
	ts.SetSlowThreshold(0) // retain every trace
	tables := []*LedgerTable{
		mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable),
		mustLedgerTable(t, l, "audit_log", engine.LedgerUpdateable),
	}
	for i := 0; i < 1500; i++ {
		tx := l.Begin("seed")
		for _, lt := range tables {
			if err := tx.Insert(lt, account(fmt.Sprintf("acct-%04d", i), int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	d, err := l.GenerateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Verify([]Digest{d}, VerifyOptions{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	var rec *obs.TraceRecord
	for _, r := range ts.Recent(0) {
		if r.Name == "verify" {
			rec = r
		}
	}
	if rec == nil {
		t.Fatal("no verify trace retained")
	}

	names := func(parent obs.SpanID) map[string]int {
		found := map[string]int{}
		for _, sp := range rec.Spans {
			if sp.Parent != parent {
				continue
			}
			name := sp.Name
			for _, a := range sp.Attrs {
				if a.Key == "table" {
					name += ":" + a.Value
				}
			}
			found[name]++
		}
		return found
	}
	checks := obs.SpanID(0)
	var accounted time.Duration
	for _, sp := range rec.Spans {
		if sp.Parent == 0 {
			accounted += sp.Duration
			if sp.Name == "checks" {
				checks = sp.ID
			}
		}
	}
	top, under := names(0), names(checks)
	for _, want := range []string{"entries", "checks", "views"} {
		if top[want] != 1 {
			t.Fatalf("verify trace has %d top-level %q spans, want 1: %v", top[want], want, top)
		}
	}
	for _, want := range []string{"chain", "row_versions:accounts", "indexes:accounts", "row_versions:audit_log", "indexes:audit_log"} {
		if under[want] != 1 {
			t.Fatalf("verify trace has %d %q spans under checks, want 1: %v", under[want], want, under)
		}
	}
	if accounted < rec.Duration*9/10 {
		t.Fatalf("top-level spans account for %v of %v (%.1f%%), want ≥90%%\nspans: %+v",
			accounted, rec.Duration, 100*float64(accounted)/float64(rec.Duration), rec.Spans)
	}
}
