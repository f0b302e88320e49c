package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// newAuditor builds an auditor with sampling at full strength so every
// cycle re-checks all cold history — the deterministic setting for
// tamper-localization tests.
func newAuditor(t *testing.T, l *DB, fraction float64) *Auditor {
	t.Helper()
	a, err := l.NewAuditor(AuditorOptions{SampleFraction: fraction})
	if err != nil {
		t.Fatalf("new auditor: %v", err)
	}
	return a
}

func cycleOK(t *testing.T, a *Auditor) AuditStatus {
	t.Helper()
	st := a.RunCycle()
	if !st.Ok {
		t.Fatalf("audit cycle found tampering on a clean ledger: %v", st.LastReport)
	}
	return st
}

func cycleFinds(t *testing.T, a *Auditor) *TamperReport {
	t.Helper()
	st := a.RunCycle()
	if st.Ok {
		t.Fatal("audit cycle missed the injected tamper")
	}
	return st.LastReport
}

// TestAuditorIncrementalWatermark checks the O(K) contract through the
// auditor's own counters: the first cycle pays for the whole chain once,
// and each later cycle checks exactly the blocks closed since the
// watermark.
func TestAuditorIncrementalWatermark(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 10) // 5 full blocks
	a := newAuditor(t, l, 0)

	st := cycleOK(t, a)
	if st.VerifiedThroughBlock != st.ChainHeadBlock {
		t.Fatalf("watermark %d should reach the head %d", st.VerifiedThroughBlock, st.ChainHeadBlock)
	}
	first := st.BlocksCheckedInc
	if first != st.ChainHeadBlock+1 {
		t.Fatalf("catch-up checked %d blocks, want %d", first, st.ChainHeadBlock+1)
	}

	// Idle cycles are free.
	st = cycleOK(t, a)
	if st.BlocksCheckedInc != first {
		t.Fatalf("idle cycle checked %d blocks", st.BlocksCheckedInc-first)
	}

	// K new blocks cost exactly K.
	head := st.ChainHeadBlock
	for i := 0; i < 4; i++ {
		tx := l.Begin("more")
		if err := tx.Insert(lt, account(fmt.Sprintf("extra-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	if _, err := l.GenerateDigest(); err != nil { // close the tail block
		t.Fatal(err)
	}
	st = cycleOK(t, a)
	if delta := st.BlocksCheckedInc - first; delta != st.ChainHeadBlock-head {
		t.Fatalf("incremental cycle checked %d blocks, want %d", delta, st.ChainHeadBlock-head)
	}
}

// TestAuditorWatermarkPersistsAcrossReopen closes and reopens the
// database: the new auditor must resume from the persisted watermark
// instead of re-verifying history.
func TestAuditorWatermarkPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 8)
	a := newAuditor(t, l, 0)
	wm := cycleOK(t, a).VerifiedThroughBlock
	if wm < 3 {
		t.Fatalf("watermark = %d, want several blocks", wm)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLedgerAt(t, dir, 2)
	a2 := newAuditor(t, l2, 0)
	if got := a2.Status().VerifiedThroughBlock; got != wm {
		t.Fatalf("reopened watermark = %d, want %d", got, wm)
	}
	st := cycleOK(t, a2)
	if st.BlocksCheckedInc != 0 {
		t.Fatalf("reopened auditor re-checked %d blocks, want 0", st.BlocksCheckedInc)
	}
}

// TestAuditorWatermarkNotTrusted tampers with the verified-through block
// AFTER it was verified: the re-anchor check must refuse the stored
// watermark and localize, instead of treating verified history as safe.
func TestAuditorWatermarkNotTrusted(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 8)
	a := newAuditor(t, l, 0)
	wm := cycleOK(t, a).VerifiedThroughBlock

	// Rewrite the watermark block's recorded transaction root.
	key := sqltypes.EncodeKey(nil, sqltypes.NewBigInt(wm))
	err := l.Engine().TamperUpdateRow(l.sysBlocks, key, func(r sqltypes.Row) sqltypes.Row {
		b := append([]byte(nil), r[2].Bytes...)
		b[0] ^= 0xFF
		r[2] = sqltypes.NewBinary(b)
		return r
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := cycleFinds(t, a)
	if rep.Mode != "watermark" {
		t.Fatalf("mode = %q, want watermark", rep.Mode)
	}
	if rep.Block != wm {
		t.Fatalf("localized block %d, want %d", rep.Block, wm)
	}
}

// TestAuditorDiscardsForeignWatermark writes an audit.json from another
// incarnation; the auditor must start from scratch, not trust it.
func TestAuditorDiscardsForeignWatermark(t *testing.T) {
	dir := t.TempDir()
	l := openLedgerAt(t, dir, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 4)

	wm := auditWatermark{DatabaseName: "test", Incarnation: l.Incarnation() + 1, VerifiedThrough: 99}
	b, _ := json.Marshal(wm)
	if err := os.WriteFile(filepath.Join(dir, auditFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	a := newAuditor(t, l, 0)
	if got := a.Status().VerifiedThroughBlock; got != -1 {
		t.Fatalf("foreign watermark was trusted: verified-through = %d", got)
	}
	cycleOK(t, a)
}

// TestAuditorTamperMatrix runs the shared tamper matrix as a
// Verify-vs-Auditor differential: on every case a full-strength auditor —
// fresh (the incremental pass meets the damage) and standing (it verified
// the ledger before the tamper, so the re-anchor or the sampled pass
// does) — must agree with Verify on whether the ledger is intact, its
// report must name an (invariant, table) Verify also reports, and the
// bisection must pin what the case says it can.
func TestAuditorTamperMatrix(t *testing.T) {
	for _, tc := range tamperMatrix {
		for _, mode := range []string{"fresh", "standing"} {
			tc, mode := tc, mode
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				f := newMatrixFixture(t)
				var a *Auditor
				if mode == "standing" {
					a = newAuditor(t, f.l, 1)
					cycleOK(t, a)
				}
				digests := tc.tamper(t, f)
				rep, err := f.l.Verify(digests, VerifyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if a == nil {
					a = newAuditor(t, f.l, 1)
				}
				st := a.RunCycle()
				if tc.digestOnly {
					if !st.Ok {
						t.Fatalf("auditor reported %v for a fault in the digest input", st.LastReport)
					}
					return
				}
				if rep.Ok() != st.Ok {
					t.Fatalf("Verify Ok=%v but Auditor Ok=%v (%v):\n%s", rep.Ok(), st.Ok, st.LastReport, rep)
				}
				if st.Ok {
					return
				}
				tr := st.LastReport
				agreed := false
				for _, i := range rep.Issues {
					if i.Invariant == tr.Invariant && i.Table == tr.Table {
						agreed = true
					}
				}
				if !agreed {
					t.Fatalf("auditor reported invariant %d in table %q (%v), which Verify does not:\n%s", tr.Invariant, tr.Table, tr, rep)
				}
				if tc.localised != nil {
					tc.localised(t, f, tr)
				}
			})
		}
	}
}

// TestAuditorStopsOnClose: closing the database stops a started audit
// loop and waits for the cycle in flight, so no cycle runs — and reports
// Ok — against a closed engine.
func TestAuditorStopsOnClose(t *testing.T) {
	l := openTestLedger(t, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 6)
	a, err := l.NewAuditor(AuditorOptions{Interval: time.Millisecond, SampleFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	waitForCycles(t, func() int64 { return a.Status().Cycles })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if st.Running {
		t.Fatal("auditor still running after Close")
	}
	time.Sleep(20 * time.Millisecond) // 20 intervals: a live loop would have cycled
	if got := a.Status().Cycles; got != st.Cycles {
		t.Fatalf("auditor ran %d cycles after Close", got-st.Cycles)
	}
}

// waitForCycles blocks until a started audit loop has completed a cycle.
func waitForCycles(t *testing.T, cycles func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cycles() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("audit loop never completed a cycle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAuditorLiveWriters runs full-strength sampling cycles concurrently
// with committing writers: snapshot pinning must prevent false tamper
// reports. Run under -race this also exercises the scan/commit
// interleavings.
func TestAuditorLiveWriters(t *testing.T) {
	l := openTestLedger(t, 5)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 10)
	a := newAuditor(t, l, 1)

	// A bounded writer keeps the ledger small enough that the
	// full-strength sampling cycles stay cheap while still overlapping
	// dozens of commits with each scan.
	const writerTxs = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writerTxs; i++ {
			tx := l.Begin("writer")
			name := acctName(i % 10)
			if i%3 == 0 {
				_ = tx.Update(lt, account(name, int64(i)))
			} else {
				_ = tx.Insert(lt, account(fmt.Sprintf("live-%d", i), int64(i)))
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if st := a.RunCycle(); !st.Ok {
			wg.Wait()
			t.Fatalf("false tamper report under live writers: %v", st.LastReport)
		}
	}
	wg.Wait()
	cycleOK(t, a)
}

// TestVerifyProgressBlockRange is the regression for partial
// verification progress: a Blocks-scoped run must still drive a
// monotone ratio ending at exactly 1.0.
func TestVerifyProgressBlockRange(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 8)

	var got []VerifyProgress
	rep, err := l.Verify(nil, VerifyOptions{
		Blocks:   &BlockRange{From: 1, To: 2},
		Progress: func(p VerifyProgress) { got = append(got, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("scoped verify failed:\n%s", rep)
	}
	if len(got) == 0 {
		t.Fatal("no progress callbacks")
	}
	prev := -1.0
	for _, p := range got {
		if p.Ratio < prev {
			t.Fatalf("progress went backwards: %v -> %v", prev, p.Ratio)
		}
		prev = p.Ratio
	}
	last := got[len(got)-1]
	if last.Ratio != 1.0 || last.Phase != "done" {
		t.Fatalf("final progress = %+v, want ratio exactly 1.0 with phase done", last)
	}
}

// TestVerifyBlockRangeScopesIssues: tampering inside the range is
// caught, tampering outside is not — the range genuinely scopes work.
func TestVerifyBlockRangeScopesIssues(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 8)
	l.Checkpoint()

	// Tamper a transaction entry in block 1.
	var victim []byte
	l.entries.table.Scan(func(k []byte, r sqltypes.Row) bool {
		if r[1].Int() == 1 {
			victim = append([]byte(nil), k...)
			return false
		}
		return true
	})
	err := l.Engine().TamperUpdateRow(l.entries.table, victim, func(r sqltypes.Row) sqltypes.Row {
		r[4] = sqltypes.NewNVarChar("mallory")
		return r
	}, true)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := l.Verify(nil, VerifyOptions{Blocks: &BlockRange{From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("out-of-range tamper should not be flagged:\n%s", rep)
	}
	rep, err = l.Verify(nil, VerifyOptions{Blocks: &BlockRange{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("in-range tamper missed")
	}
}

// TestAuditOpsSurface drives the HTTP surface end to end: /debug/audit
// reports the watermark, /healthz's audit section is the same status, and
// a localized tamper flips /healthz to 503 with the report inline.
func TestAuditOpsSurface(t *testing.T) {
	l := openTestLedger(t, 3)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	seedAccounts(t, l, lt, 6)
	a := newAuditor(t, l, 1)
	cycleOK(t, a)

	srv := httptest.NewServer(l.OpsHandler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	code, body := get("/debug/audit")
	if code != http.StatusOK {
		t.Fatalf("/debug/audit status %d", code)
	}
	var st AuditStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode /debug/audit: %v\n%s", err, body)
	}
	if !st.Ok || st.VerifiedThroughBlock < 1 {
		t.Fatalf("audit status %+v", st)
	}

	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d\n%s", code, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Audit == nil || !h.Audit.Ok || h.Audit.VerifiedThroughBlock != st.VerifiedThroughBlock || h.Audit.Cycles != st.Cycles {
		t.Fatalf("healthz audit %+v, /debug/audit %+v", h.Audit, st)
	}

	// Tamper a row, localize it, and the surface must flip.
	key := firstKeyOf(t, lt.Table())
	err := l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(666)
		return r
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	cycleFinds(t, a)

	code, body = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d after tamper, want 503\n%s", code, body)
	}
	h = Health{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Audit == nil || h.Audit.LastReport == nil || h.Audit.LastReport.Table != "accounts" || h.Audit.LastReport.Key == "" {
		t.Fatalf("/healthz did not carry the auditor's report: %+v", h.Audit)
	}
	code, body = get("/debug/audit")
	if code != http.StatusOK {
		t.Fatalf("/debug/audit status %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Ok || st.LastReport == nil || st.LastReport.Table != "accounts" || st.LastReport.Key == "" {
		t.Fatalf("/debug/audit did not name the damaged row: %+v", st.LastReport)
	}
}
