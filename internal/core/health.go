// Ledger health and debug introspection. The paper's trust story needs
// operators to *see* the ledger working — digests leaving the trust
// boundary on schedule, verification completing against the chain head —
// so the HealthChecker folds the chain position, digest lag, the last
// verification outcome and the auditor's status into one typed status
// served at /healthz, with /debug/ledger exposing the full chain/table
// snapshot.
package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sqlledger/internal/obs"
)

// HealthState is the coarse status served at /healthz.
type HealthState string

// Health states, from good to bad.
const (
	HealthHealthy   HealthState = "healthy"
	HealthDegraded  HealthState = "degraded"
	HealthUnhealthy HealthState = "unhealthy"
)

// healthCode maps a state onto the sqlledger_health_status gauge.
func healthCode(s HealthState) float64 {
	switch s {
	case HealthDegraded:
		return 1
	case HealthUnhealthy:
		return 2
	default:
		return 0
	}
}

// Health bounds. Closed blocks not yet covered by an uploaded digest are
// blocks an attacker with database access could still rewrite silently
// (§2.2): the status degrades at digestLagDegraded of them and goes
// unhealthy at digestLagUnhealthy. A ledger queue deeper than one default
// block degrades it, and so does a registered auditor whose last cycle
// finished more than auditStaleCycles of its intervals ago: the "verified
// up to block K" claim is going stale.
const (
	digestLagDegraded  = 4
	digestLagUnhealthy = 16
	maxQueueDepth      = DefaultBlockSize
	auditStaleCycles   = 10
)

// uploadMark records the most recent digest upload for health tracking.
type uploadMark struct {
	block int64 // highest uploaded block id; -1 = never
	at    time.Time
}

// verifyMark records the most recent verification outcome.
type verifyMark struct {
	done   bool
	at     time.Time
	dur    time.Duration
	ok     bool
	issues int
}

// VerifyHealth summarizes the last verification run for /healthz.
type VerifyHealth struct {
	Ok              bool    `json:"ok"`
	Issues          int     `json:"issues"`
	AgeSeconds      float64 `json:"age_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// ChainPosition is where the chain stands, as /healthz and /debug/ledger
// both serve it.
type ChainPosition struct {
	ChainHeight   int64  `json:"chain_height"` // closed blocks in sys_ledger_blocks
	ChainHeadHash string `json:"chain_head_hash,omitempty"`
	Incarnation   int64  `json:"incarnation"`
	CurrentBlock  uint64 `json:"current_block"` // block now receiving transactions
	QueueDepth    int    `json:"queue_depth"`
}

// chainPosition reads the chain's position and the current block's next
// ordinal.
func (db *DB) chainPosition() (ChainPosition, uint32) {
	db.closeMu.Lock()
	closed := db.closedThrough
	head := db.prevHash
	db.closeMu.Unlock()
	curBlock, curOrdinal, queue := db.entries.position()
	p := ChainPosition{
		ChainHeight:  closed + 1,
		Incarnation:  db.Incarnation(),
		CurrentBlock: curBlock,
		QueueDepth:   queue,
	}
	if closed >= 0 {
		p.ChainHeadHash = head.String()
	}
	return p, curOrdinal
}

// Health is the typed status served as JSON at /healthz.
type Health struct {
	Status  HealthState `json:"status"`
	Reasons []string    `json:"reasons,omitempty"`

	ChainPosition

	DigestLagBlocks            int64   `json:"digest_lag_blocks"`
	LastDigestUploadBlock      int64   `json:"last_digest_upload_block"` // -1 = never
	LastDigestUploadAgeSeconds float64 `json:"last_digest_upload_age_seconds,omitempty"`

	LastVerify *VerifyHealth `json:"last_verify,omitempty"`
	// Audit is the registered auditor's status, as /debug/audit serves it.
	Audit *AuditStatus `json:"audit,omitempty"`

	CheckedAt int64 `json:"checked_at_unix_nano"`
}

// degrade moves the status to a worse state (never back) and records why.
func (h *Health) degrade(to HealthState, reason string) {
	if to == HealthUnhealthy || h.Status == HealthHealthy {
		h.Status = to
	}
	h.Reasons = append(h.Reasons, reason)
}

// HealthChecker evaluates a database against the health bounds. Each
// Check also updates the sqlledger_health_status gauge and emits a
// health_changed event on state transitions.
type HealthChecker struct {
	db    *DB
	gauge *obs.Gauge

	mu   sync.Mutex
	prev HealthState
}

// NewHealthChecker builds a checker for this database.
func (db *DB) NewHealthChecker() *HealthChecker {
	return &HealthChecker{db: db, gauge: db.obs.Gauge(obs.HealthStatus)}
}

// Check evaluates the database's health right now.
func (hc *HealthChecker) Check() Health {
	db := hc.db
	h := hc.evaluate(time.Now())

	hc.gauge.Set(healthCode(h.Status))
	hc.mu.Lock()
	prev := hc.prev
	hc.prev = h.Status
	hc.mu.Unlock()
	if prev != "" && prev != h.Status {
		db.obs.Events().Warn(obs.EventHealthChanged,
			"from", string(prev), "to", string(h.Status), "reasons", strings.Join(h.Reasons, "; "))
	}
	return h
}

// evaluate checks the chain, the last verification and the registered
// auditor, if any, against the health bounds.
func (hc *HealthChecker) evaluate(now time.Time) Health {
	db := hc.db
	pos, _ := db.chainPosition()
	db.healthMu.Lock()
	up := db.lastUpload
	lv := db.lastVerify
	db.healthMu.Unlock()

	h := Health{
		Status:                HealthHealthy,
		ChainPosition:         pos,
		LastDigestUploadBlock: -1,
		CheckedAt:             now.UnixNano(),
	}
	if up.block >= 0 {
		h.DigestLagBlocks = pos.ChainHeight - 1 - up.block
		h.LastDigestUploadBlock = up.block
		h.LastDigestUploadAgeSeconds = now.Sub(up.at).Seconds()
	} else {
		// Never uploaded: every closed block is uncovered.
		h.DigestLagBlocks = pos.ChainHeight
	}
	if lv.done {
		h.LastVerify = &VerifyHealth{
			Ok:              lv.ok,
			Issues:          lv.issues,
			AgeSeconds:      now.Sub(lv.at).Seconds(),
			DurationSeconds: lv.dur.Seconds(),
		}
	}

	degrade := h.degrade
	switch {
	case h.DigestLagBlocks >= digestLagUnhealthy:
		degrade(HealthUnhealthy, fmt.Sprintf("digest lag %d blocks >= unhealthy bound %d", h.DigestLagBlocks, digestLagUnhealthy))
	case h.DigestLagBlocks >= digestLagDegraded:
		degrade(HealthDegraded, fmt.Sprintf("digest lag %d blocks >= degraded bound %d", h.DigestLagBlocks, digestLagDegraded))
	}
	if pos.QueueDepth > maxQueueDepth {
		degrade(HealthDegraded, fmt.Sprintf("ledger queue depth %d > %d", pos.QueueDepth, maxQueueDepth))
	}
	if lv.done && !lv.ok {
		degrade(HealthUnhealthy, fmt.Sprintf("last verification found %d issues", lv.issues))
	}
	if a := db.Auditor(); a != nil {
		st := a.Status()
		h.Audit = &st
		stale := auditStaleCycles * a.opts.Interval
		switch {
		case !st.Ok:
			degrade(HealthUnhealthy, "auditor localized tampering: "+st.LastReport.String())
		case st.Cycles == 0:
			degrade(HealthDegraded, "auditor has not completed a cycle")
		case st.AgeSeconds > stale.Seconds():
			degrade(HealthDegraded, fmt.Sprintf("last audit cycle finished %.1fs ago (max %v); verified through block %d",
				st.AgeSeconds, stale, st.VerifiedThroughBlock))
		}
	}
	return h
}

// noteDigestUploaded records a successful digest upload for health
// tracking and emits the audit event.
func (db *DB) noteDigestUploaded(d Digest, blob string) {
	db.healthMu.Lock()
	if int64(d.BlockID) > db.lastUpload.block {
		db.lastUpload = uploadMark{block: int64(d.BlockID), at: time.Now()}
	}
	db.healthMu.Unlock()
	db.obs.Events().Info(obs.EventDigestUploaded, "block", d.BlockID, "blob", blob, "hash", d.Hash)
}

// TableDebug is one ledger table in the /debug/ledger snapshot.
type TableDebug struct {
	Name        string `json:"name"`
	ID          uint32 `json:"id"`
	Kind        string `json:"kind"`
	Rows        int    `json:"rows"`
	HistoryRows int    `json:"history_rows"`
	Indexes     int    `json:"indexes"`
}

// LedgerDebug is the /debug/ledger snapshot: where the chain stands and
// how big each ledger table is.
type LedgerDebug struct {
	Name      string `json:"name"`
	BlockSize uint32 `json:"block_size"`
	ChainPosition
	CurrentOrdinal uint32       `json:"current_ordinal"`
	LastCommitTS   int64        `json:"last_commit_ts_unix_nano"`
	Tables         []TableDebug `json:"tables"`
}

// DebugInfo captures the ledger's current shape for /debug/ledger.
func (db *DB) DebugInfo() LedgerDebug {
	pos, curOrdinal := db.chainPosition()
	d := LedgerDebug{
		Name:           db.opts.Name,
		BlockSize:      db.opts.BlockSize,
		ChainPosition:  pos,
		CurrentOrdinal: curOrdinal,
		LastCommitTS:   db.edb.LastCommitTS(),
	}
	for _, lt := range db.LedgerTables() {
		td := TableDebug{
			Name:    lt.Name(),
			ID:      lt.table.ID(),
			Kind:    string(lt.Kind()),
			Rows:    lt.table.RowCount(),
			Indexes: len(lt.table.Indexes()),
		}
		if ht := lt.history; ht != nil {
			td.HistoryRows = ht.RowCount()
		}
		d.Tables = append(d.Tables, td)
	}
	sort.Slice(d.Tables, func(i, j int) bool { return d.Tables[i].Name < d.Tables[j].Name })
	return d
}

// OpsHandler returns the database's operational HTTP surface: the
// registry endpoints (/metrics, /debug/trace, /debug/events,
// /debug/pprof) plus /healthz, /debug/ledger and /debug/audit. /healthz
// answers 200 for healthy and degraded, 503 for unhealthy.
func (db *DB) OpsHandler() http.Handler {
	hc := db.NewHealthChecker()
	mux := obs.Mux(db.obs)
	serveJSON := func(path string, doc func() (v any, unhealthy bool)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			v, unhealthy := doc()
			w.Header().Set("Content-Type", "application/json")
			if unhealthy {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(v)
		})
	}
	serveJSON("/healthz", func() (any, bool) { h := hc.Check(); return h, h.Status == HealthUnhealthy })
	serveJSON("/debug/ledger", func() (any, bool) { return db.DebugInfo(), false })
	serveJSON("/debug/audit", func() (any, bool) {
		if a := db.Auditor(); a != nil {
			return a.Status(), false
		}
		return map[string]bool{"enabled": false}, false
	})
	return mux
}

// StartOpsServer serves OpsHandler on addr, e.g. "127.0.0.1:0" for an
// ephemeral port.
func (db *DB) StartOpsServer(addr string) (*obs.Server, error) {
	return obs.StartServerHandler(addr, db.OpsHandler())
}
