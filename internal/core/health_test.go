package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

func commitAccounts(t *testing.T, l *DB, lt *LedgerTable, names ...string) {
	t.Helper()
	for i, name := range names {
		tx := l.Begin("alice")
		if err := tx.Insert(lt, account(name, int64(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
}

// End-to-end acceptance test for the health layer: a ledger that keeps
// its digests current is healthy; one that closes blocks without
// uploading degrades at digestLagDegraded uncovered blocks and goes
// unhealthy at digestLagUnhealthy, each transition audited.
func TestHealthEndToEnd(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitAccounts(t, l, lt, "a", "b", "c", "d", "e", "f")

	store := blobstore.NewMemory()
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}

	hc := l.NewHealthChecker()
	h := hc.Check()
	l.closeMu.Lock()
	closed := l.closedThrough
	l.closeMu.Unlock()
	if closed < 0 {
		t.Fatal("no blocks closed despite block size 2")
	}
	if h.Status != HealthHealthy {
		t.Fatalf("status = %s (%v), want healthy", h.Status, h.Reasons)
	}
	if h.ChainHeight != closed+1 {
		t.Fatalf("ChainHeight = %d, want %d", h.ChainHeight, closed+1)
	}
	if h.DigestLagBlocks != 0 {
		t.Fatalf("DigestLagBlocks = %d, want 0 right after upload", h.DigestLagBlocks)
	}
	if h.LastDigestUploadBlock != closed {
		t.Fatalf("LastDigestUploadBlock = %d, want %d", h.LastDigestUploadBlock, closed)
	}
	if h.ChainHeadHash == "" || h.Incarnation == 0 || h.CheckedAt == 0 {
		t.Fatalf("incomplete health: %+v", h)
	}
	if g, ok := l.obs.Snapshot().GaugeValue(obs.HealthStatus); !ok || g != 0 {
		t.Fatalf("health gauge = %v, %v, want 0", g, ok)
	}

	// Close blocks without uploading: at each lag the status is the one
	// the bounds name, and so is the gauge.
	for i := 0; h.DigestLagBlocks < digestLagUnhealthy; i++ {
		commitAccounts(t, l, lt, fmt.Sprintf("lag-%d", i))
		if _, err := l.GenerateDigest(); err != nil { // closes the block, no upload
			t.Fatal(err)
		}
		h = hc.Check()
		want, code := HealthHealthy, 0.0
		switch {
		case h.DigestLagBlocks >= digestLagUnhealthy:
			want, code = HealthUnhealthy, 2
		case h.DigestLagBlocks >= digestLagDegraded:
			want, code = HealthDegraded, 1
		}
		if h.Status != want {
			t.Fatalf("digest lag %d: status %s (%v), want %s", h.DigestLagBlocks, h.Status, h.Reasons, want)
		}
		if want != HealthHealthy && (len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "digest lag")) {
			t.Fatalf("digest lag %d: reasons = %v", h.DigestLagBlocks, h.Reasons)
		}
		if g, _ := l.obs.Snapshot().GaugeValue(obs.HealthStatus); g != code {
			t.Fatalf("digest lag %d: health gauge = %v, want %v", h.DigestLagBlocks, g, code)
		}
	}
	// healthy -> degraded -> unhealthy: both transitions are audited.
	if changed := l.obs.Events().RecentOfType(obs.EventHealthChanged, 0); len(changed) != 2 {
		t.Fatalf("health_changed events = %d, want 2", len(changed))
	}

	// Catching up on uploads restores health.
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	if h := hc.Check(); h.Status != HealthHealthy || h.DigestLagBlocks != 0 {
		t.Fatalf("after catch-up: %+v", h)
	}
}

// A fresh database with nothing closed and nothing uploaded is healthy:
// there is nothing a digest could cover yet.
func TestHealthFreshDatabase(t *testing.T) {
	l := openTestLedger(t, 1000)
	h := l.NewHealthChecker().Check()
	if h.Status != HealthHealthy {
		t.Fatalf("fresh status = %s (%v)", h.Status, h.Reasons)
	}
	if h.ChainHeight != 0 || h.DigestLagBlocks != 0 || h.LastDigestUploadBlock != -1 {
		t.Fatalf("fresh health: %+v", h)
	}
}

func TestHealthVerifyMarks(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitAccounts(t, l, lt, "a", "b", "c", "d")
	store := blobstore.NewMemory()
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	digests, err := l.StoredDigests(store)
	if err != nil {
		t.Fatal(err)
	}

	hc := l.NewHealthChecker()
	if h := hc.Check(); h.Status != HealthHealthy || h.LastVerify != nil {
		t.Fatalf("before any verify: %+v", h)
	}
	verifyOK(t, l, digests)
	h := hc.Check()
	if h.Status != HealthHealthy {
		t.Fatalf("after verify: %s (%v)", h.Status, h.Reasons)
	}
	if h.LastVerify == nil || !h.LastVerify.Ok || h.LastVerify.Issues != 0 {
		t.Fatalf("LastVerify = %+v", h.LastVerify)
	}

	// A failed verification flips the status to unhealthy.
	key := firstKeyOf(t, lt.Table())
	l.Engine().TamperUpdateRow(lt.Table(), key, func(r sqltypes.Row) sqltypes.Row {
		r[1] = sqltypes.NewBigInt(999999)
		return r
	}, true)
	rep, err := l.Verify(digests, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("verification should fail after tampering")
	}
	h = hc.Check()
	if h.Status != HealthUnhealthy || h.LastVerify.Ok {
		t.Fatalf("after failed verify: %+v", h)
	}
	if n := len(l.obs.Events().RecentOfType(obs.EventVerifyIssue, 0)); n == 0 {
		t.Fatal("no verify_issue events after failed verification")
	}
}

// A registered auditor degrades /healthz until its first cycle completes
// and again once its last cycle is older than auditStaleCycles of its
// intervals; the next cycle restores health.
func TestHealthStaleAuditor(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitAccounts(t, l, lt, "a", "b")
	if _, err := l.UploadDigest(blobstore.NewMemory()); err != nil {
		t.Fatal(err)
	}
	a, err := l.NewAuditor(AuditorOptions{Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	hc := l.NewHealthChecker()
	wantStatus := func(want HealthState, reason string) {
		t.Helper()
		h := hc.Check()
		if h.Status != want || (reason != "" && !strings.Contains(strings.Join(h.Reasons, "; "), reason)) {
			t.Fatalf("status %s (%v), want %s with %q", h.Status, h.Reasons, want, reason)
		}
	}
	wantStatus(HealthDegraded, "auditor has not completed a cycle")
	a.RunCycle()
	wantStatus(HealthHealthy, "")
	a.mu.Lock()
	a.lastCycleAt = time.Now().Add(-(auditStaleCycles + 1) * time.Minute)
	a.mu.Unlock()
	wantStatus(HealthDegraded, "last audit cycle finished")
	a.RunCycle()
	wantStatus(HealthHealthy, "")
}

// Verification progress must be monotonically non-decreasing, cover the
// phases, and end at exactly 1.0 — with the matching gauge and audit
// event pair.
func TestVerifyProgress(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitAccounts(t, l, lt, "a", "b", "c", "d", "e", "f")
	store := blobstore.NewMemory()
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	digests, err := l.StoredDigests(store)
	if err != nil {
		t.Fatal(err)
	}

	var updates []VerifyProgress
	rep, err := l.Verify(digests, VerifyOptions{
		Parallelism: 4,
		Progress:    func(p VerifyProgress) { updates = append(updates, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verify failed:\n%s", rep)
	}
	if len(updates) < 3 {
		t.Fatalf("only %d progress updates", len(updates))
	}
	phases := map[string]bool{}
	for i, p := range updates {
		if p.Ratio < 0 || p.Ratio > 1 {
			t.Fatalf("update %d out of range: %+v", i, p)
		}
		if i > 0 && p.Ratio < updates[i-1].Ratio {
			t.Fatalf("progress went backwards at %d: %v -> %v", i, updates[i-1].Ratio, p.Ratio)
		}
		phases[p.Phase] = true
	}
	last := updates[len(updates)-1]
	if last.Ratio != 1 || last.Phase != "done" {
		t.Fatalf("final update = %+v, want ratio exactly 1.0 and phase done", last)
	}
	for _, want := range []string{"chain", "row_versions", "indexes", "views", "done"} {
		if !phases[want] {
			t.Fatalf("phase %q never reported (got %v)", want, phases)
		}
	}
	if g, ok := l.obs.Snapshot().GaugeValue(obs.VerifyProgressRatio); !ok || g != 1 {
		t.Fatalf("progress gauge = %v, %v, want 1", g, ok)
	}

	// The audit trail must hold a started/finished pair, in order.
	started := l.obs.Events().RecentOfType(obs.EventVerifyStarted, 0)
	finished := l.obs.Events().RecentOfType(obs.EventVerifyFinished, 0)
	if len(started) == 0 || len(finished) == 0 {
		t.Fatalf("verify events missing: started=%d finished=%d", len(started), len(finished))
	}
	if started[0].Seq >= finished[0].Seq {
		t.Fatalf("verify_started (seq %d) not before verify_finished (seq %d)", started[0].Seq, finished[0].Seq)
	}
}

// The full audit-event trail of a ledger session: incarnation assignment,
// block closes, digest generation and upload.
func TestAuditEventTrail(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitAccounts(t, l, lt, "a", "b", "c", "d")
	store := blobstore.NewMemory()
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}
	ev := l.obs.Events()
	for _, typ := range []string{
		obs.EventIncarnation,
		obs.EventBlockClosed,
		obs.EventDigestGenerated,
		obs.EventDigestUploaded,
	} {
		if len(ev.RecentOfType(typ, 0)) == 0 {
			t.Fatalf("no %s event recorded", typ)
		}
	}
	// block_closed events carry the block id and transaction count.
	bc := ev.RecentOfType(obs.EventBlockClosed, 1)[0]
	keys := map[string]bool{}
	for _, a := range bc.Attrs {
		keys[a.Key] = true
	}
	if !keys["block"] || !keys["transactions"] || !keys["hash"] {
		t.Fatalf("block_closed attrs = %+v", bc.Attrs)
	}
}

// The ops HTTP surface end to end: /healthz, /debug/ledger,
// /debug/events and /metrics all answer with the expected content, and
// /healthz flips to 503 when the checker reports unhealthy.
func TestOpsServerEndpoints(t *testing.T) {
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	commitAccounts(t, l, lt, "a", "b", "c", "d", "e", "f")
	store := blobstore.NewMemory()
	if _, err := l.UploadDigest(store); err != nil {
		t.Fatal(err)
	}

	srv, err := l.StartOpsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var h Health
	resp := mustGet(t, base+"/healthz", http.StatusOK)
	if err := json.Unmarshal(resp, &h); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, resp)
	}
	if h.Status != HealthHealthy || h.ChainHeight < 1 {
		t.Fatalf("healthz = %+v", h)
	}

	var dbg LedgerDebug
	resp = mustGet(t, base+"/debug/ledger", http.StatusOK)
	if err := json.Unmarshal(resp, &dbg); err != nil {
		t.Fatalf("debug/ledger JSON: %v\n%s", err, resp)
	}
	if dbg.Name != "test" || dbg.ChainHeight != h.ChainHeight {
		t.Fatalf("debug/ledger = %+v (healthz height %d)", dbg, h.ChainHeight)
	}
	var accounts *TableDebug
	for i := range dbg.Tables {
		if dbg.Tables[i].Name == "accounts" {
			accounts = &dbg.Tables[i]
		}
	}
	if accounts == nil || accounts.Rows != 6 || accounts.Kind != "updateable" {
		t.Fatalf("debug/ledger tables = %+v", dbg.Tables)
	}

	var events []obs.Event
	resp = mustGet(t, base+"/debug/events?type=digest_uploaded", http.StatusOK)
	if err := json.Unmarshal(resp, &events); err != nil {
		t.Fatalf("debug/events JSON: %v\n%s", err, resp)
	}
	if len(events) != 1 || events[0].Type != obs.EventDigestUploaded {
		t.Fatalf("debug/events = %+v", events)
	}

	metrics := string(mustGet(t, base+"/metrics", http.StatusOK))
	for _, want := range []string{
		obs.HealthStatus,
		obs.BlocksClosedTotal,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Past digestLagUnhealthy uncovered blocks, /healthz is a 503.
	for i := 0; i < 2*digestLagUnhealthy; i++ {
		commitAccounts(t, l, lt, fmt.Sprintf("lag-%d", i))
	}
	if _, err := l.GenerateDigest(); err != nil {
		t.Fatal(err)
	}
	resp = mustGet(t, base+"/healthz", http.StatusServiceUnavailable)
	if err := json.Unmarshal(resp, &h); err != nil || h.Status != HealthUnhealthy {
		t.Fatalf("unhealthy healthz = %+v err=%v", h, err)
	}
}

func mustGet(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}
