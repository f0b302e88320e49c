package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServerMetricsAndTraces(t *testing.T) {
	r := NewRegistry()
	r.Counter("sqlledger_http_test_total").Add(3)
	r.Traces().SetSlowThreshold(0) // retain every trace
	tr := r.NewTrace("close_block")
	tr.SetAttr("block", "1")
	tr.Finish(nil)

	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "sqlledger_http_test_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Name != "close_block" {
		t.Fatalf("unexpected traces: %+v", traces)
	}
}

func TestServerEventsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Events().Info(EventBlockClosed, "block", 1)
	r.Events().Warn(EventVerifyIssue, "invariant", "I3")
	r.Events().Info(EventBlockClosed, "block", 2)

	srv, err := StartServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s decode: %v", path, err)
		}
	}

	var events []Event
	getJSON("/debug/events", &events)
	if len(events) != 3 || events[0].Type != EventBlockClosed || events[0].Seq != 3 {
		t.Fatalf("unexpected events: %+v", events)
	}
	var limited []Event
	getJSON("/debug/events?n=1", &limited)
	if len(limited) != 1 || limited[0].Seq != 3 {
		t.Fatalf("n=1 returned %+v", limited)
	}
	var filtered []Event
	getJSON("/debug/events?type="+EventVerifyIssue, &filtered)
	if len(filtered) != 1 || filtered[0].Type != EventVerifyIssue {
		t.Fatalf("type filter returned %+v", filtered)
	}

	// pprof must be mounted; the index page is cheap to fetch.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %q", resp.StatusCode, body)
	}
}
