// Ledger health and debug introspection. The paper's trust story needs
// operators to *see* the ledger working — digests leaving the trust
// boundary on schedule, verification completing against the chain head —
// so the HealthChecker folds chain height, digest lag, queue depth and
// the last verification outcome into one typed status served at
// /healthz, with /debug/ledger exposing the full chain/table snapshot.
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

// HealthThresholds tunes when the checker reports degraded/unhealthy.
// The zero value uses the defaults noted per field.
type HealthThresholds struct {
	// DegradedDigestLag is how many closed blocks may lack an uploaded
	// digest before the status degrades (default 4). Blocks not covered
	// by a digest in immutable storage are blocks an attacker with
	// database access could still rewrite silently (§2.2).
	DegradedDigestLag int64
	// UnhealthyDigestLag is the digest lag at which the status becomes
	// unhealthy (default 16).
	UnhealthyDigestLag int64
	// MaxQueueDepth is how many ledger entries may sit in the in-memory
	// queue before the status degrades (default 100000 — one default
	// block).
	MaxQueueDepth int
	// MaxVerifyAge degrades the status when the last verification is
	// older than this (or has never run). Zero disables the check.
	MaxVerifyAge time.Duration
	// MaxVerifiedLag degrades the status when a registered auditor's
	// last completed cycle is older than this — the always-on
	// verification has fallen behind, so the "verified up to block K"
	// claim is going stale. Zero disables the check. A tamper report
	// from the auditor makes the status unhealthy regardless.
	MaxVerifiedLag time.Duration
	// MaxSuperBlockAge degrades the status when the newest signed
	// super-block is older than this (or none was ever closed): shard
	// chains are growing without the digest-of-digests pinning them. Zero
	// disables the check.
	MaxSuperBlockAge time.Duration
}

func (t HealthThresholds) withDefaults() HealthThresholds {
	if t.DegradedDigestLag <= 0 {
		t.DegradedDigestLag = 4
	}
	if t.UnhealthyDigestLag <= 0 {
		t.UnhealthyDigestLag = 16
	}
	if t.UnhealthyDigestLag < t.DegradedDigestLag {
		t.UnhealthyDigestLag = t.DegradedDigestLag
	}
	if t.MaxQueueDepth <= 0 {
		t.MaxQueueDepth = DefaultBlockSize
	}
	return t
}

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

// AuditHealth folds the always-on auditor's state into /healthz: how far
// continuous verification has advanced, how stale it is, and whether it
// has localized tampering.
type AuditHealth struct {
	VerifiedThroughBlock int64   `json:"verified_through_block"`
	LagBlocks            int64   `json:"lag_blocks"`
	AgeSeconds           float64 `json:"age_seconds"`
	Cycles               int64   `json:"cycles"`
	Ok                   bool    `json:"ok"`
	// Summary is the operator-facing one-liner, e.g.
	// "verified up to block 41, 0.8 seconds ago".
	Summary string        `json:"summary"`
	Tamper  *TamperReport `json:"tamper,omitempty"`
}

func auditHealthOf(st AuditStatus) *AuditHealth {
	ah := &AuditHealth{
		VerifiedThroughBlock: st.VerifiedThroughBlock,
		LagBlocks:            st.LagBlocks,
		AgeSeconds:           st.AgeSeconds,
		Cycles:               st.Cycles,
		Ok:                   st.Ok,
		Tamper:               st.LastReport,
	}
	switch {
	case st.LastCycleAt == 0:
		ah.Summary = "auditor has not completed a cycle"
	case st.VerifiedThroughBlock < 0:
		ah.Summary = fmt.Sprintf("no blocks closed yet; last audit cycle %.1f seconds ago", st.AgeSeconds)
	default:
		ah.Summary = fmt.Sprintf("verified up to block %d, %.1f seconds ago", st.VerifiedThroughBlock, st.AgeSeconds)
	}
	return ah
}

// SuperBlockHealth is the super-root slice of /healthz and /debug/ledger.
type SuperBlockHealth struct {
	SeqNo      uint64  `json:"seq_no"` // 0 = none closed yet
	Root       string  `json:"root,omitempty"`
	Shards     int     `json:"shards,omitempty"`
	AgeSeconds float64 `json:"age_seconds,omitempty"`
}

func (db *DB) superBlockHealth() *SuperBlockHealth {
	sb := db.LastSuperBlock()
	if sb == nil {
		return &SuperBlockHealth{}
	}
	// Age is measured on the database clock (Options.Clock when set) —
	// GeneratedAt comes from the same clock, so the two stay comparable
	// under logical clocks too.
	return &SuperBlockHealth{
		SeqNo:      sb.SeqNo,
		Root:       sb.Root,
		Shards:     sb.Shards,
		AgeSeconds: time.Duration(db.nowNanos() - sb.GeneratedAt).Seconds(),
	}
}

// Health is the typed status served as JSON at /healthz. On a multi-shard
// database it is the fold of the per-shard statuses in Shards: the worst
// state wins and every shard's reasons are listed under its name; chain
// height and queue depth are sums, the digest lag the largest.
type Health struct {
	Status  HealthState `json:"status"`
	Reasons []string    `json:"reasons,omitempty"`

	ChainHeight   int64  `json:"chain_height"` // closed blocks in sys_ledger_blocks
	ChainHeadHash string `json:"chain_head_hash,omitempty"`
	Incarnation   int64  `json:"incarnation"`
	CurrentBlock  uint64 `json:"current_block"` // block now receiving transactions
	QueueDepth    int    `json:"queue_depth"`

	DigestLagBlocks            int64   `json:"digest_lag_blocks"`
	LastDigestUploadBlock      int64   `json:"last_digest_upload_block"` // -1 = never
	LastDigestUploadAgeSeconds float64 `json:"last_digest_upload_age_seconds,omitempty"`

	LastVerify *VerifyHealth `json:"last_verify,omitempty"`
	Audit      *AuditHealth  `json:"audit,omitempty"`

	// SuperBlock is present once a super-block was closed, and always on
	// a multi-shard database; Shards is the per-shard breakdown of one.
	SuperBlock *SuperBlockHealth `json:"super_block,omitempty"`
	Shards     []Health          `json:"shards,omitempty"`

	CheckedAt int64 `json:"checked_at_unix_nano"`
}

// degrade moves the status to a worse state (never back) and records why.
func (h *Health) degrade(to HealthState, reason string) {
	if to == HealthUnhealthy || h.Status == HealthHealthy {
		h.Status = to
	}
	h.Reasons = append(h.Reasons, reason)
}

// HealthChecker evaluates a database against thresholds. Each Check
// also updates the sqlledger_health_status gauge and emits a
// health_changed event on state transitions.
type HealthChecker struct {
	db    *DB
	thr   HealthThresholds
	gauge *obs.Gauge

	mu   sync.Mutex
	prev HealthState
}

// NewHealthChecker builds a checker for this database.
func (db *DB) NewHealthChecker(thr HealthThresholds) *HealthChecker {
	return &HealthChecker{
		db:    db,
		thr:   thr.withDefaults(),
		gauge: db.obs.Gauge(obs.HealthStatus),
	}
}

// Check evaluates the database's health right now.
func (hc *HealthChecker) Check() Health {
	db := hc.db
	now := time.Now()
	var audit *AuditStatus
	if a := db.Auditor(); a != nil {
		st := a.Status()
		audit = &st
	}
	var h Health
	if len(db.shards) == 1 {
		h = hc.checkShard(db.shards[0], now, audit)
	} else {
		h = Health{Status: HealthHealthy, LastDigestUploadBlock: -1, CheckedAt: now.UnixNano()}
		for i, l := range db.shards {
			var shardAudit *AuditStatus
			if audit != nil {
				shardAudit = &audit.Shards[i]
			}
			sh := hc.checkShard(l, now, shardAudit)
			h.ChainHeight += sh.ChainHeight
			h.QueueDepth += sh.QueueDepth
			h.DigestLagBlocks = max(h.DigestLagBlocks, sh.DigestLagBlocks)
			for _, r := range sh.Reasons {
				h.degrade(sh.Status, shardDirName(i)+": "+r)
			}
			h.Shards = append(h.Shards, sh)
		}
		if audit != nil {
			h.Audit = auditHealthOf(*audit)
			if audit.HeadReport != nil { // the one report no shard's status carries
				h.degrade(HealthUnhealthy, "auditor localized tampering: "+audit.HeadReport.String())
			}
		}
	}
	if sb := db.superBlockHealth(); len(db.shards) > 1 || sb.SeqNo > 0 || hc.thr.MaxSuperBlockAge > 0 {
		h.SuperBlock = sb
		switch {
		case hc.thr.MaxSuperBlockAge <= 0:
		case sb.SeqNo == 0:
			h.degrade(HealthDegraded, "no super-block has been closed")
		case sb.AgeSeconds > hc.thr.MaxSuperBlockAge.Seconds():
			h.degrade(HealthDegraded, fmt.Sprintf("super-block %d is %.1fs old (max %v)",
				sb.SeqNo, sb.AgeSeconds, hc.thr.MaxSuperBlockAge))
		}
	}

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

// checkShard evaluates one shard's chain (and its auditor's status, if
// one is registered) against the thresholds.
func (hc *HealthChecker) checkShard(l *Shard, now time.Time, audit *AuditStatus) Health {

	l.closeMu.Lock()
	closed := l.closedThrough
	head := l.prevHash
	l.closeMu.Unlock()
	l.lmu.Lock()
	queue := len(l.queue)
	curBlock := l.curBlock
	l.lmu.Unlock()
	l.healthMu.Lock()
	up := l.lastUpload
	lv := l.lastVerify
	l.healthMu.Unlock()

	h := Health{
		Status:                HealthHealthy,
		ChainHeight:           closed + 1,
		Incarnation:           l.incarnation,
		CurrentBlock:          curBlock,
		QueueDepth:            queue,
		LastDigestUploadBlock: -1,
		CheckedAt:             now.UnixNano(),
	}
	if closed >= 0 {
		h.ChainHeadHash = head.String()
	}
	if up.block >= 0 {
		h.DigestLagBlocks = closed - up.block
		h.LastDigestUploadBlock = up.block
		h.LastDigestUploadAgeSeconds = now.Sub(up.at).Seconds()
	} else {
		// Never uploaded: every closed block is uncovered.
		h.DigestLagBlocks = closed + 1
	}
	if lv.done {
		h.LastVerify = &VerifyHealth{
			Ok:              lv.ok,
			Issues:          lv.issues,
			AgeSeconds:      now.Sub(lv.at).Seconds(),
			DurationSeconds: lv.dur.Seconds(),
		}
	}
	if audit != nil {
		h.Audit = auditHealthOf(*audit)
	}

	degrade := h.degrade
	switch {
	case h.DigestLagBlocks >= hc.thr.UnhealthyDigestLag:
		degrade(HealthUnhealthy, fmt.Sprintf("digest lag %d blocks >= unhealthy threshold %d", h.DigestLagBlocks, hc.thr.UnhealthyDigestLag))
	case h.DigestLagBlocks >= hc.thr.DegradedDigestLag:
		degrade(HealthDegraded, fmt.Sprintf("digest lag %d blocks >= degraded threshold %d", h.DigestLagBlocks, hc.thr.DegradedDigestLag))
	}
	if queue > hc.thr.MaxQueueDepth {
		degrade(HealthDegraded, fmt.Sprintf("ledger queue depth %d > %d", queue, hc.thr.MaxQueueDepth))
	}
	if lv.done && !lv.ok {
		degrade(HealthUnhealthy, fmt.Sprintf("last verification found %d issues", lv.issues))
	}
	if hc.thr.MaxVerifyAge > 0 {
		switch {
		case !lv.done:
			degrade(HealthDegraded, "no verification has run")
		case now.Sub(lv.at) > hc.thr.MaxVerifyAge:
			degrade(HealthDegraded, fmt.Sprintf("last verification is %v old (max %v)", now.Sub(lv.at).Round(time.Second), hc.thr.MaxVerifyAge))
		}
	}
	if h.Audit != nil {
		if !h.Audit.Ok {
			degrade(HealthUnhealthy, "auditor localized tampering: "+h.Audit.Tamper.String())
		}
		if hc.thr.MaxVerifiedLag > 0 {
			switch {
			case h.Audit.Cycles == 0:
				degrade(HealthDegraded, "auditor has not completed a cycle")
			case h.Audit.AgeSeconds > hc.thr.MaxVerifiedLag.Seconds():
				degrade(HealthDegraded, fmt.Sprintf("audit verification is %.1fs behind (max %v): %s",
					h.Audit.AgeSeconds, hc.thr.MaxVerifiedLag, h.Audit.Summary))
			}
		}
	}
	return h
}

// noteDigestUploaded records a successful digest upload for health
// tracking and emits the audit event.
func (l *Shard) noteDigestUploaded(d Digest, blob string) {
	l.healthMu.Lock()
	if int64(d.BlockID) > l.lastUpload.block {
		l.lastUpload = uploadMark{block: int64(d.BlockID), at: time.Now()}
	}
	l.healthMu.Unlock()
	l.obs.Events().Info(obs.EventDigestUploaded, "block", d.BlockID, "blob", blob, "hash", d.Hash)
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
// how big each ledger table is. On a multi-shard database the chain
// position is each shard's own, in Shards; the top level carries what
// adds up — chain height, queue depth, table sizes — and the latest
// commit.
type LedgerDebug struct {
	Name           string       `json:"name"`
	Incarnation    int64        `json:"incarnation"`
	BlockSize      uint32       `json:"block_size"`
	ChainHeight    int64        `json:"chain_height"`
	ChainHeadHash  string       `json:"chain_head_hash,omitempty"`
	CurrentBlock   uint64       `json:"current_block"`
	CurrentOrdinal uint32       `json:"current_ordinal"`
	QueueDepth     int          `json:"queue_depth"`
	LastCommitTS   int64        `json:"last_commit_ts_unix_nano"`
	Tables         []TableDebug `json:"tables"`

	SuperBlock *SuperBlockHealth `json:"super_block,omitempty"`
	Shards     []LedgerDebug     `json:"shards,omitempty"`
}

// DebugInfo captures the ledger's current shape for /debug/ledger.
func (db *DB) DebugInfo() LedgerDebug {
	if len(db.shards) == 1 {
		d := db.shards[0].DebugInfo()
		if sb := db.superBlockHealth(); sb.SeqNo > 0 {
			d.SuperBlock = sb
		}
		return d
	}
	d := LedgerDebug{Name: db.opts.Name, BlockSize: db.opts.BlockSize, SuperBlock: db.superBlockHealth()}
	for i, l := range db.shards {
		sd := l.DebugInfo()
		d.ChainHeight += sd.ChainHeight
		d.QueueDepth += sd.QueueDepth
		d.LastCommitTS = max(d.LastCommitTS, sd.LastCommitTS)
		for j, t := range sd.Tables { // same tables, same (name) order, on every shard
			if i == 0 {
				d.Tables = append(d.Tables, t)
			} else if j < len(d.Tables) {
				d.Tables[j].Rows += t.Rows
				d.Tables[j].HistoryRows += t.HistoryRows
			}
		}
		d.Shards = append(d.Shards, sd)
	}
	return d
}

// DebugInfo captures this shard's chain and table parts.
func (l *Shard) DebugInfo() LedgerDebug {
	l.closeMu.Lock()
	closed := l.closedThrough
	head := l.prevHash
	l.closeMu.Unlock()
	l.lmu.Lock()
	queue := len(l.queue)
	curBlock, curOrdinal := l.curBlock, l.curOrdinal
	l.lmu.Unlock()

	d := LedgerDebug{
		Name:           l.opts.Name,
		Incarnation:    l.incarnation,
		BlockSize:      l.opts.BlockSize,
		ChainHeight:    closed + 1,
		CurrentBlock:   curBlock,
		CurrentOrdinal: curOrdinal,
		QueueDepth:     queue,
		LastCommitTS:   l.edb.LastCommitTS(),
	}
	if closed >= 0 {
		d.ChainHeadHash = head.String()
	}
	for _, lt := range l.LedgerTables() {
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
// /debug/pprof) plus /healthz, /debug/ledger and /debug/audit. hc may be
// nil for a checker with default thresholds. /healthz answers 200 for
// healthy and degraded, 503 for unhealthy.
func (db *DB) OpsHandler(hc *HealthChecker) http.Handler {
	if hc == nil {
		hc = db.NewHealthChecker(HealthThresholds{})
	}
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

// StartOpsServer serves OpsHandler (with default thresholds) on addr,
// e.g. "127.0.0.1:0" for an ephemeral port.
func (db *DB) StartOpsServer(addr string) (*obs.Server, error) {
	return obs.StartServerHandler(addr, db.OpsHandler(nil))
}
