package sqlledger_test

// End-to-end acceptance for the transaction tracing pipeline: a slow
// durable commit under concurrent load must yield a retained trace that
// (a) is announced by a slow_query event at /debug/events carrying its
// ID and statement, (b) resolves at /debug/trace?id= with decision slow,
// its lock wait and a non-empty waterfall, and (c) accounts for its
// time — the top-level child spans must sum to at least 90% of the root
// duration.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlledger"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestTraceEndToEnd(t *testing.T) {
	reg := sqlledger.NewMetricsRegistry()
	reg.Traces().SetSlowThreshold(40 * time.Millisecond)
	reg.Traces().SetSampleRate(0) // only slowness may retain

	db, err := sqlledger.Open(sqlledger.Options{
		Dir: t.TempDir(), Name: "trace",
		BlockSize:   sqlledger.DefaultBlockSize,
		Sync:        sqlledger.SyncFull, // the slow commit must be durable
		LockTimeout: 5 * time.Second,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := sqlledger.StartMetricsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	lt, err := db.CreateLedgerTable("t", fig8Schema(), sqlledger.Updateable)
	if err != nil {
		t.Fatal(err)
	}
	seed := db.Begin("setup")
	if err := seed.Insert(lt, fig8Row(1)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// Transaction A locks row 1 and holds it ~100ms; transaction B
	// updates the same row and spends that time in lock wait, making it
	// the slow trace under test. Meanwhile background writers commit
	// other rows, so the trace is produced under concurrent load.
	txA := db.Begin("holder")
	if err := txA.Update(lt, fig8Row(1)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin(fmt.Sprintf("bg-%d", w))
				if err := tx.Insert(lt, fig8Row(int64(1000+w*100000+i))); err != nil {
					tx.Rollback()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}

	releaseDone := make(chan error, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		releaseDone <- txA.Commit()
	}()

	txB := db.Begin("slow")
	want := txB.Trace().ID()
	if want == 0 {
		t.Fatal("transaction has no trace")
	}
	txB.Trace().SetAttr("statement", "update t")
	if err := txB.Update(lt, fig8Row(1)); err != nil {
		t.Fatalf("contended update: %v", err)
	}
	if err := txB.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-releaseDone; err != nil {
		t.Fatalf("holder commit: %v", err)
	}
	close(stop)
	wg.Wait()

	// (a) A slow_query event names the statement's trace: the on-call
	// path from a slow transaction to its waterfall.
	_, eventsBody := httpGet(t, base+"/debug/events?type=slow_query")
	var events []struct {
		Attrs []struct {
			Key   string `json:"key"`
			Value any    `json:"value"`
		} `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(eventsBody), &events); err != nil {
		t.Fatalf("events JSON: %v\n%s", err, eventsBody)
	}
	var traceID string
	for _, ev := range events {
		attrs := map[string]any{}
		for _, a := range ev.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["statement"] == "update t" {
			traceID, _ = attrs["trace_id"].(string)
		}
	}
	if traceID != want.String() {
		t.Fatalf("slow_query event for \"update t\" names trace %q, want %s:\n%s", traceID, want, eventsBody)
	}

	// (b) The event's trace ID resolves to the retained trace.
	code, body := httpGet(t, base+"/debug/trace?id="+traceID)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace?id=%s: HTTP %d: %s", traceID, code, body)
	}
	var rec sqlledger.TraceRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, body)
	}
	if rec.ID != want.String() || rec.Decision != "slow" {
		t.Fatalf("record id=%s decision=%s, want %s/slow", rec.ID, rec.Decision, want)
	}
	if rec.Duration < 40*time.Millisecond {
		t.Fatalf("slow trace lasted only %v", rec.Duration)
	}

	// (c) Time accounting: top-level children partition the root, so
	// their durations must sum to ≥90% of the root duration.
	var accounted time.Duration
	spans := map[string]sqlledger.TraceSpan{}
	for _, sp := range rec.Spans {
		spans[sp.Name] = sp
		if sp.Parent == 0 {
			accounted += sp.Duration
		}
	}
	if accounted < rec.Duration*9/10 {
		t.Fatalf("top-level spans account for %v of %v (%.1f%%), want ≥90%%\nspans: %+v",
			accounted, rec.Duration, 100*float64(accounted)/float64(rec.Duration), rec.Spans)
	}
	if _, ok := spans["commit_wait"]; !ok {
		t.Fatalf("trace missing commit_wait span: %+v", rec.Spans)
	}
	if lw := spans["lock_wait"]; lw.Duration < 40*time.Millisecond {
		t.Fatalf("lock_wait span %v, want ≥40ms", lw.Duration)
	}
	var stmt string
	for _, a := range rec.Attrs {
		if a.Key == "statement" {
			stmt = a.Value
		}
	}
	if stmt != "update t" {
		t.Fatalf("trace statement %q, want \"update t\"", stmt)
	}

	// The text waterfall renders non-empty with the dominant span.
	code, text := httpGet(t, base+"/debug/trace?id="+want.String()+"&format=text")
	if code != http.StatusOK || !strings.Contains(text, "lock_wait") {
		t.Fatalf("waterfall (HTTP %d):\n%s", code, text)
	}

	// There is no second slow-query log: the retained trace is the record.
	if code, _ := httpGet(t, base+"/debug/slow"); code != http.StatusNotFound {
		t.Fatalf("/debug/slow: HTTP %d, want 404", code)
	}
}
