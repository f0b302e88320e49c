// The always-on auditor: continuous, incremental ledger verification.
//
// A full verification (verify.go) rescans every row version — O(N) work
// that in practice runs rarely, so integrity is only as observable as
// the last manual audit. The Auditor turns verification into a standing
// background process. It implements no check of its own: every hash is
// recomputed by the verification kernel (kernel.go), which the Auditor
// schedules with three policies:
//
//   - A persisted verified-through watermark (audit.json, written
//     atomically like superblock.json): each cycle walks only the blocks
//     closed since the watermark — the chain invariants 1-3 cost O(delta
//     blocks), not O(history), because a block's transactions are
//     fetched through the block secondary index.
//   - Optional sampling sweeps: each cycle re-checks a configurable
//     fraction of cold (already-verified) blocks — the chain walk again,
//     plus row level (invariant 4) with ONE snapshot scan per ledger
//     table, where hashing cost is proportional to the sampled rows — and
//     a round-robin slice of the index-equivalence and view checks.
//     Silent corruption of old data is caught probabilistically without
//     ever paying a full rescan.
//   - Bisection on mismatch: a block whose transactions root no longer
//     matches is re-checked at row level with clustered keys kept, so the
//     TamperReport names the transaction, table and row instead of a bare
//     "root mismatch".
//
// The watermark itself is NOT trusted: audit.json records the hash of
// the verified-through block, and every cycle re-anchors it by
// recomputing that block's hash from sys_ledger_blocks. A mismatch means
// history below the watermark changed after it was verified; the auditor
// then localizes the damage with a one-off walk of the verified prefix.
package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"sqlledger/internal/merkle"
	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// auditFile is the auditor's persisted watermark, beside the database.
const auditFile = "audit.json"

// AuditorOptions tunes an always-on auditor.
type AuditorOptions struct {
	// Interval is the background cycle period (default 1s).
	Interval time.Duration
	// SampleFraction is the fraction of cold (already verified) blocks
	// re-checked at row level per cycle, in [0, 1]. 0 disables sampling;
	// 1 re-checks every block every cycle. The same fraction drives the
	// round-robin index-equivalence and view sweep (ceil(fraction ×
	// tables) ledger tables per cycle).
	SampleFraction float64
	// SampleSeed seeds the deterministic sampling stream (default 1).
	SampleSeed uint64
}

func (o AuditorOptions) withDefaults() AuditorOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.SampleFraction < 0 {
		o.SampleFraction = 0
	}
	if o.SampleFraction > 1 {
		o.SampleFraction = 1
	}
	if o.SampleSeed == 0 {
		o.SampleSeed = 1
	}
	return o
}

// auditWatermark is the audit.json document. BlockHash re-anchors the
// watermark: the file is plain mutable state, so the auditor never
// trusts it — each cycle recomputes block VerifiedThrough's hash from
// sys_ledger_blocks and compares.
type auditWatermark struct {
	DatabaseName    string `json:"database_name"`
	Incarnation     int64  `json:"database_create_time"`
	VerifiedThrough int64  `json:"verified_through_block"` // -1 = none
	BlockHash       string `json:"block_hash,omitempty"`
	UpdatedAt       int64  `json:"updated_at_unix_nano"`
}

// AuditStatus is a point-in-time snapshot of an auditor, served at
// /debug/audit and folded into /healthz. On a multi-shard database it is
// the fold of the per-shard statuses in Shards: the lowest verified
// watermark, the tallest chain, the largest lag and the stalest cycle
// bound what "verified" means for the whole ledger; counters are sums.
type AuditStatus struct {
	Shard                int           `json:"shard"` // -1: the whole database
	Running              bool          `json:"running"`
	VerifiedThroughBlock int64         `json:"verified_through_block"`
	ChainHeadBlock       int64         `json:"chain_head_block"`
	LagBlocks            int64         `json:"lag_blocks"`
	Cycles               int64         `json:"cycles"`
	BlocksCheckedInc     int64         `json:"incremental_blocks_checked"`
	BlocksCheckedSampled int64         `json:"sampled_blocks_checked"`
	LastCycleAt          int64         `json:"last_cycle_at_unix_nano"` // 0 = never
	LastCycleSeconds     float64       `json:"last_cycle_seconds"`
	AgeSeconds           float64       `json:"age_seconds"`
	Ok                   bool          `json:"ok"`
	LastReport           *TamperReport `json:"last_report,omitempty"`
	// HeadReport is a failed super-block head pin, if any — tampering
	// localized to a shard by the signed super-root alone.
	HeadReport *TamperReport `json:"head_report,omitempty"`
	// Shards is the per-shard breakdown (multi-shard databases only).
	Shards []AuditStatus `json:"shards,omitempty"`
}

// Auditor is the database's background verification subsystem: one chain
// auditor per shard, each with its own audit.json watermark in its shard's
// directory, and — before them, every cycle — a pin of each signed head of
// the latest super-block against its shard's live chain (CheckDigest), so
// a forked or rolled-back shard is localized by shard even before
// block-level bisection. Create with NewAuditor, drive explicitly with
// RunCycle or continuously with Start/Stop. All methods are safe for
// concurrent use; cycles themselves are serialized.
type Auditor struct {
	db    *DB
	opts  AuditorOptions
	parts []*chainAuditor // index = shard

	mu         sync.Mutex
	headReport *TamperReport

	loop auditLoop
}

// chainAuditor audits one shard's chain.
type chainAuditor struct {
	l     *Shard
	opts  AuditorOptions
	shard int // -1 on a one-shard database
	path  string

	// runMu serializes cycles; mu guards the status fields below and is
	// never held across a scan.
	runMu sync.Mutex
	mu    sync.Mutex

	wm           auditWatermark
	cycles       int64
	incChecked   int64
	sampChecked  int64
	lastCycleAt  time.Time
	lastCycleDur time.Duration
	lastReport   *TamperReport

	rng      uint64
	ixCursor int

	mVerified     *obs.Gauge
	mLag          *obs.Gauge
	mCycles       *obs.Counter
	mIncBlocks    *obs.Counter
	mSampBlocks   *obs.Counter
	mCycleSeconds *obs.Histogram
}

// auditLoop is a background ticker driving audit cycles. Non-nil channels
// mean running.
type auditLoop struct {
	mu         sync.Mutex
	quit, done chan struct{}
}

// start launches the loop (idempotent): cycle runs every interval until
// stop.
func (lp *auditLoop) start(interval time.Duration, cycle func()) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.quit != nil {
		return
	}
	quit, done := make(chan struct{}), make(chan struct{})
	lp.quit, lp.done = quit, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				cycle()
			}
		}
	}()
}

// stop halts the loop and waits for a cycle in flight (idempotent).
func (lp *auditLoop) stop() {
	lp.mu.Lock()
	quit, done := lp.quit, lp.done
	lp.quit, lp.done = nil, nil
	lp.mu.Unlock()
	if quit != nil {
		close(quit)
		<-done
	}
}

func (lp *auditLoop) running() bool {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.quit != nil
}

// NewAuditor builds (and registers) the database's always-on auditor.
// The persisted watermark is loaded from audit.json in the database
// directory; a file from another database or incarnation (restore) is
// discarded and auditing restarts from block 0. The returned auditor is
// not running yet — call Start for the background loop or RunCycle to
// drive it manually.
func (db *DB) NewAuditor(opts AuditorOptions) (*Auditor, error) {
	opts = opts.withDefaults()
	a := &Auditor{db: db, opts: opts}
	for i, l := range db.shards {
		shard := i
		if len(db.shards) == 1 {
			shard = -1
		}
		ca, err := l.newChainAuditor(opts, shard)
		if err != nil {
			return nil, db.shardErr(i, err)
		}
		a.parts = append(a.parts, ca)
	}
	db.auditor.Store(a)
	return a, nil
}

// Auditor returns the registered auditor, or nil.
func (db *DB) Auditor() *Auditor { return db.auditor.Load() }

func (l *Shard) newChainAuditor(opts AuditorOptions, shard int) (*chainAuditor, error) {
	a := &chainAuditor{
		l:     l,
		opts:  opts,
		shard: shard,
		path:  filepath.Join(l.opts.Dir, auditFile),
		wm: auditWatermark{
			DatabaseName:    l.opts.Name,
			Incarnation:     l.incarnation,
			VerifiedThrough: -1,
		},
		rng: opts.SampleSeed,
	}
	var lbl []obs.Label
	if shard >= 0 {
		lbl = append(lbl, obs.L("shard", fmt.Sprintf("%03d", shard)))
	}
	reg := l.obs
	a.mVerified = reg.Gauge(obs.VerifiedThroughBlock, lbl...)
	a.mLag = reg.Gauge(obs.AuditLagSeconds, lbl...)
	a.mCycles = reg.Counter(obs.AuditCyclesTotal, lbl...)
	a.mIncBlocks = reg.Counter(obs.AuditBlocksCheckedTotal, append([]obs.Label{obs.L("mode", "incremental")}, lbl...)...)
	a.mSampBlocks = reg.Counter(obs.AuditBlocksCheckedTotal, append([]obs.Label{obs.L("mode", "sampled")}, lbl...)...)
	a.mCycleSeconds = reg.Histogram(obs.AuditCycleSeconds, nil, lbl...)

	if err := a.loadWatermark(); err != nil {
		return nil, err
	}
	a.mVerified.Set(float64(a.wm.VerifiedThrough))
	return a, nil
}

// loadWatermark reads audit.json. Corrupt or mismatched files are
// discarded (with a warning event), not trusted and not fatal: the
// re-anchor check protects against a *tampered* watermark anyway, and a
// fresh auditor simply re-verifies from the chain start.
func (a *chainAuditor) loadWatermark() error {
	b, err := os.ReadFile(a.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var wm auditWatermark
	if jerr := json.Unmarshal(b, &wm); jerr != nil {
		a.l.obs.Events().Warn(obs.EventAuditPassStart,
			"discarded_watermark", a.path, "reason", jerr.Error())
		return nil
	}
	if wm.DatabaseName != a.l.opts.Name || wm.Incarnation != a.l.incarnation {
		// Another database, or a restore started a new incarnation:
		// everything must be re-verified under the new chain.
		return nil
	}
	if wm.VerifiedThrough < -1 {
		wm.VerifiedThrough = -1
	}
	a.wm = wm
	return nil
}

// saveWatermark persists the watermark atomically.
func (a *chainAuditor) saveWatermark() error {
	b, err := json.MarshalIndent(a.wm, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(a.path, b, 0o644)
}

// writeFileAtomic replaces path with data durably: data goes to a temporary
// file, which is synced before it is renamed over path, and the directory
// is synced after the rename, so a reader — or a crash — sees the old
// document or the whole new one, never an empty or partial one. A failure
// removes the temporary file and leaves path as it was.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Status snapshots the auditor and refreshes the lag gauges.
func (a *Auditor) Status() AuditStatus {
	a.mu.Lock()
	head := a.headReport
	a.mu.Unlock()
	running := a.loop.running()
	var st AuditStatus
	if len(a.parts) == 1 {
		st = a.parts[0].status()
	} else {
		st = AuditStatus{Shard: -1, Ok: true, VerifiedThroughBlock: -1, ChainHeadBlock: -1}
		for i, p := range a.parts {
			ss := p.status()
			ss.Running = running
			if i == 0 || ss.VerifiedThroughBlock < st.VerifiedThroughBlock {
				st.VerifiedThroughBlock = ss.VerifiedThroughBlock
			}
			st.ChainHeadBlock = max(st.ChainHeadBlock, ss.ChainHeadBlock)
			st.LagBlocks = max(st.LagBlocks, ss.LagBlocks)
			st.AgeSeconds = max(st.AgeSeconds, ss.AgeSeconds)
			st.LastCycleAt = max(st.LastCycleAt, ss.LastCycleAt)
			st.LastCycleSeconds = max(st.LastCycleSeconds, ss.LastCycleSeconds)
			st.Cycles += ss.Cycles
			st.BlocksCheckedInc += ss.BlocksCheckedInc
			st.BlocksCheckedSampled += ss.BlocksCheckedSampled
			st.Ok = st.Ok && ss.Ok
			if st.LastReport == nil {
				st.LastReport = ss.LastReport
			}
			st.Shards = append(st.Shards, ss)
		}
	}
	st.Running = running
	if head != nil {
		st.HeadReport, st.LastReport, st.Ok = head, head, false
	}
	return st
}

func (a *chainAuditor) status() AuditStatus {
	a.l.closeMu.Lock()
	head := a.l.closedThrough
	a.l.closeMu.Unlock()

	a.mu.Lock()
	st := AuditStatus{
		Shard:                a.shard,
		VerifiedThroughBlock: a.wm.VerifiedThrough,
		ChainHeadBlock:       head,
		LagBlocks:            head - a.wm.VerifiedThrough,
		Cycles:               a.cycles,
		BlocksCheckedInc:     a.incChecked,
		BlocksCheckedSampled: a.sampChecked,
		Ok:                   a.lastReport == nil,
		LastReport:           a.lastReport,
		LastCycleSeconds:     a.lastCycleDur.Seconds(),
	}
	if !a.lastCycleAt.IsZero() {
		st.LastCycleAt = a.lastCycleAt.UnixNano()
		st.AgeSeconds = time.Since(a.lastCycleAt).Seconds()
	}
	a.mu.Unlock()

	if st.LastCycleAt != 0 {
		a.mLag.Set(st.AgeSeconds)
	}
	return st
}

// Start launches the background audit loop. It stops on Stop or when
// the database closes (DB.Close stops it before the engines).
func (a *Auditor) Start() {
	a.loop.start(a.opts.Interval, func() { a.RunCycle() })
}

// Stop halts the background loop and waits for a cycle in flight
// (idempotent; RunCycle stays usable).
func (a *Auditor) Stop() { a.loop.stop() }

// RunCycle executes one audit cycle synchronously — the super-block head
// pins, then every shard's chain cycle — and returns the status after it.
func (a *Auditor) RunCycle() AuditStatus {
	if sb := a.db.LastSuperBlock(); sb != nil {
		a.db.checkHeads(sb, func(h ShardHead, err error) error {
			rep := &TamperReport{
				Shard:      h.Shard,
				Invariant:  1, // a signed digest no longer matches its block
				Block:      int64(h.Digest.BlockID),
				Mode:       "superblock",
				Detail:     fmt.Sprintf("signed super-block %d head check failed: %v", sb.SeqNo, err),
				DetectedAt: time.Now().UnixNano(),
			}
			a.mu.Lock()
			changed := !rep.sameSite(a.headReport)
			a.headReport = rep
			a.mu.Unlock()
			if changed {
				a.db.obs.Events().Error(obs.EventTamperLocalized,
					"mode", rep.Mode, "shard", rep.Shard, "block", rep.Block, "detail", rep.Detail)
			}
			return nil
		})
	}
	for _, p := range a.parts {
		p.runCycle()
	}
	return a.Status()
}

// ClearReport drops the remembered tamper reports (for tests and for
// operators who repaired the database out of band).
func (a *Auditor) ClearReport() {
	a.mu.Lock()
	a.headReport = nil
	a.mu.Unlock()
	for _, p := range a.parts {
		p.mu.Lock()
		p.lastReport = nil
		p.mu.Unlock()
	}
}

// xorshift64star advances the deterministic sampling stream.
func (a *chainAuditor) rand01() float64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return float64(a.rng>>11) / float64(uint64(1)<<53)
}

// runCycle executes one cycle on the shard's chain: re-anchor the
// watermark, incrementally verify blocks closed since it, then (if
// configured) run a sampling sweep over cold history.
func (a *chainAuditor) runCycle() {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	start := time.Now()

	l := a.l
	tr := l.obs.NewTrace("audit_cycle")
	truncatedBefore, truncatedMaxTx := l.truncationInfo()
	l.closeMu.Lock()
	target := l.closedThrough
	l.closeMu.Unlock()

	a.mu.Lock()
	wmBefore := a.wm.VerifiedThrough
	a.mu.Unlock()

	var incChecked, sampChecked int64

	// Phase 0: re-anchor. The persisted watermark is untrusted; the
	// verified-through block's hash must still recompute to what the
	// auditor saw when it verified it.
	verified, anchor, report := a.reanchor(truncatedBefore)

	// Phase 1: incremental. Only blocks closed since the watermark are
	// walked — O(delta), the block index supplying each block's
	// transactions.
	if from := max(verified+1, int64(truncatedBefore)); report == nil && from <= target {
		var res chainResult
		res, report = a.walk("incremental", uint64(from), uint64(target), anchor, a.blockEntries(uint64(from), uint64(target)), truncatedBefore)
		incChecked = int64(res.blocks)
		if res.through > verified {
			verified = res.through
			a.mu.Lock()
			a.wm.VerifiedThrough = verified
			a.wm.BlockHash = res.hash.String()
			a.wm.UpdatedAt = time.Now().UnixNano()
			a.mu.Unlock()
			if err := a.saveWatermark(); err != nil {
				l.obs.Events().Warn(obs.EventAuditPassFinish, "watermark_save_error", err.Error())
			}
			a.mVerified.Set(float64(verified))
		}
	}

	// Phase 2: sampling sweep over cold history (blocks at or below the
	// watermark): chain and row level for the sampled blocks, indexes and
	// views for a round-robin slice of the tables.
	if report == nil && a.opts.SampleFraction > 0 {
		sampChecked, report = a.sampledPass(verified, truncatedBefore, truncatedMaxTx)
	}

	dur := time.Since(start)
	a.mu.Lock()
	a.cycles++
	a.incChecked += incChecked
	a.sampChecked += sampChecked
	a.lastCycleAt = time.Now()
	a.lastCycleDur = dur
	prevReport := a.lastReport
	if report != nil {
		a.lastReport = report
	}
	a.mu.Unlock()

	a.mCycles.Inc()
	a.mIncBlocks.Add(incChecked)
	a.mSampBlocks.Add(sampChecked)
	a.mCycleSeconds.Observe(dur.Seconds())
	a.mLag.Set(0)

	// Events and traces: only cycles that did work (or found damage) are
	// recorded, so an idle 1s loop does not flush the bounded rings.
	if incChecked == 0 && sampChecked == 0 && report == nil {
		tr.Discard()
	} else {
		tr.SetAttr("incremental_blocks", strconv.FormatInt(incChecked, 10))
		tr.SetAttr("sampled_blocks", strconv.FormatInt(sampChecked, 10))
		tr.SetAttr("ok", strconv.FormatBool(report == nil))
		tr.Finish(nil)
		ev := l.obs.Events()
		ev.Info(obs.EventAuditPassStart,
			"watermark", wmBefore, "target", target, "sample_fraction", a.opts.SampleFraction)
		ev.Info(obs.EventAuditPassFinish,
			"verified_through", verified, "incremental_blocks", incChecked,
			"sampled_blocks", sampChecked, "ok", report == nil,
			"duration_seconds", dur.Seconds())
	}
	if report != nil && !report.sameSite(prevReport) {
		l.obs.Events().Error(obs.EventTamperLocalized,
			"mode", report.Mode, "shard", report.Shard, "invariant", report.Invariant,
			"block", report.Block, "tx", report.TxID, "table", report.Table, "key", report.Key,
			"detail", report.Detail)
	}
}

// first is the emit callback of every audit pass: keep the first
// finding and stop the check.
func first(dst **finding) emitFn {
	return func(f finding) bool {
		*dst = &f
		return false
	}
}

// reanchor validates the persisted watermark against the live chain.
// Returns the verified-through block (-1, or the block before the
// truncation point, when the watermark had to be dropped), its recomputed
// hash as the link anchor for the incremental pass (nil when there is
// none), and a TamperReport when history below the watermark no longer
// matches.
func (a *chainAuditor) reanchor(truncatedBefore uint64) (int64, *merkle.Hash, *TamperReport) {
	a.mu.Lock()
	wm := a.wm
	a.mu.Unlock()
	if wm.VerifiedThrough < 0 {
		return -1, nil, nil
	}
	reset := func(through int64) (int64, *merkle.Hash, *TamperReport) {
		a.mu.Lock()
		a.wm.VerifiedThrough = through
		a.wm.BlockHash = ""
		a.mu.Unlock()
		return through, nil, nil
	}
	if uint64(wm.VerifiedThrough) < truncatedBefore {
		// Ledger truncation removed the watermark block; restart the
		// incremental pass at the truncation point.
		return reset(int64(truncatedBefore) - 1)
	}
	want, err := merkle.ParseHash(wm.BlockHash)
	if err != nil {
		// Unreadable stored hash: treat as no watermark rather than
		// trusting it.
		return reset(-1)
	}
	_, got, ok := a.l.closedBlock(wm.VerifiedThrough)
	if ok && got == want {
		return wm.VerifiedThrough, &got, nil
	}
	// Some block at or below the watermark changed after it was
	// verified. This is the one place the auditor pays for a walk of the
	// verified prefix — it only runs after tampering is already detected
	// — to find the first broken link or transactions root.
	through := uint64(wm.VerifiedThrough)
	if _, rep := a.walk("watermark", truncatedBefore, through, nil, a.blockEntries(truncatedBefore, through), truncatedBefore); rep != nil {
		return wm.VerifiedThrough, nil, rep
	}
	// The prefix is internally consistent yet hashes to something else:
	// the chain below the watermark was rewritten wholesale.
	return wm.VerifiedThrough, nil, a.report("watermark", finding{invariant: 2, block: wm.VerifiedThrough,
		detail: fmt.Sprintf("chain below the verification watermark was rewritten: block %d recomputes to %s, watermark recorded %s", wm.VerifiedThrough, got, want)})
}

// blockEntries fetches the entries of blocks [from, to] through the block
// index: O(their transactions), whatever the depth of history.
func (a *chainAuditor) blockEntries(from, to uint64) map[uint64][]*wal.LedgerEntry {
	entries := make(map[uint64][]*wal.LedgerEntry)
	for b := from; b <= to; b++ {
		if es := a.l.entriesOfBlock(b); len(es) > 0 {
			entries[b] = es
		}
	}
	return entries
}

// walk runs the kernel's chain check over blocks [from, to], stopping at
// the first finding. A transactions-root mismatch — an entry's
// system-table row was edited, or the recorded root itself was — is
// bisected at row level so the report names the damaged transaction, and
// row when it can be pinned, rather than just the block.
func (a *chainAuditor) walk(mode string, from, to uint64, anchor *merkle.Hash, entries map[uint64][]*wal.LedgerEntry, truncatedBefore uint64) (chainResult, *TamperReport) {
	var found *finding
	res := a.l.checkChain(chainCheck{
		blocks: &BlockRange{From: from, To: to}, anchor: anchor,
		entries: entries, truncatedBefore: truncatedBefore,
	}, first(&found))
	if found == nil {
		return res, nil
	}
	if found.invariant == 3 {
		if rep := a.localize(mode, entries[uint64(found.block)]); rep != nil {
			return res, rep
		}
	}
	return res, a.report(mode, *found)
}

// localize re-verifies the recorded per-table Merkle roots of entries
// against the row versions now in the database — invariant 4 for those
// transactions — keeping clustered keys so a single-row transaction's
// finding names its row. It pins a fresh snapshot, so the check cannot be
// confused by concurrent writers.
func (a *chainAuditor) localize(mode string, entries []*wal.LedgerEntry) *TamperReport {
	rtx := a.l.edb.BeginReadOnly()
	defer rtx.Close()
	truncatedBefore, _ := a.l.truncationInfo()
	if f := a.rowFinding(rowCheck{rtx: rtx, entries: entries, truncatedBefore: truncatedBefore, keys: true}, nil); f != nil {
		return a.report(mode, *f)
	}
	return nil
}

// rowFinding runs the kernel's row-version check for c.entries (ascending
// by transaction id) and returns the first finding. Only those
// transactions' rows are hashed, on one goroutine — the auditor is a
// background process. Given the recorded transaction ids, every ledger
// table is scanned and a row of any other transaction is a finding;
// without them, only the tables the entries touched are scanned.
func (a *chainAuditor) rowFinding(c rowCheck, recorded []uint64) *finding {
	ids, other := recorded, txUnknown
	touched := make(map[uint32]bool)
	for _, e := range c.entries {
		if recorded == nil {
			ids, other = append(ids, e.TxID), txRecorded
		}
		for _, tr := range e.Roots {
			touched[tr.TableID] = true
		}
	}
	c.slots = newTxSlots(ids, other)
	c.wantEntries(c.entries)
	c.parallelism, c.pool = 1, newWorkerPool(1)
	for _, lt := range a.l.LedgerTables() {
		if recorded == nil && !touched[lt.ID()] {
			continue
		}
		var found *finding
		if a.l.checkRowVersions(lt, c, first(&found)); found != nil {
			return found
		}
	}
	return nil
}

// sampledPass re-checks a deterministic pseudo-random fraction of cold
// blocks: the chain walk over each run of sampled blocks, then invariant
// 4 for every transaction in them using ONE snapshot scan per ledger
// table — the scan visits every row (a pointer walk, which is also what
// finds rows of unrecorded transactions), but hashing only happens for
// rows belonging to sampled transactions, so the dominant cost is
// proportional to the sample. The index and view checks rotate through
// the ledger tables round-robin.
func (a *chainAuditor) sampledPass(wm int64, truncatedBefore, truncatedMaxTx uint64) (int64, *TamperReport) {
	l := a.l

	// Pin a snapshot: every row version visible at ts is exactly the set
	// a quiescent verification would see for transactions committed at
	// or before ts, so sampling stays consistent under live writers.
	rtx := l.edb.BeginReadOnly()
	defer rtx.Close()

	// Pick the sample. fraction >= 1 short-circuits the RNG so "check
	// everything every cycle" is exact, not probabilistic.
	var sampled []uint64
	var entries []*wal.LedgerEntry
	byBlock := make(map[uint64][]*wal.LedgerEntry)
sample:
	for b := truncatedBefore; int64(b) <= wm; b++ {
		if a.opts.SampleFraction < 1 && a.rand01() >= a.opts.SampleFraction {
			continue
		}
		es := l.entriesOfBlock(b)
		for _, e := range es {
			if e.CommitTS > rtx.TS() {
				// A block this young still has writes ahead of the
				// snapshot; it was verified incrementally and will be
				// sampled later.
				continue sample
			}
		}
		sampled = append(sampled, b)
		byBlock[b] = es
		entries = append(entries, es...)
	}

	// Chain: each maximal run of consecutive sampled blocks is one walk,
	// linked to the block before it and fed only its own entries.
	for i := 0; i < len(sampled); {
		j := i
		for j+1 < len(sampled) && sampled[j+1] == sampled[j]+1 {
			j++
		}
		run := make(map[uint64][]*wal.LedgerEntry, j-i+1)
		for _, b := range sampled[i : j+1] {
			run[b] = byBlock[b]
		}
		if _, rep := a.walk("sampled", sampled[i], sampled[j], nil, run, truncatedBefore); rep != nil {
			return int64(j + 1), rep
		}
		i = j + 1
	}
	checked := int64(len(sampled))

	// Row versions: one snapshot scan per ledger table, hashing only the
	// sampled transactions' rows and flagging any unrecorded one.
	if len(entries) > 0 {
		sort.Slice(entries, func(i, j int) bool { return entries[i].TxID < entries[j].TxID })
		f := a.rowFinding(rowCheck{
			rtx: rtx, entries: entries,
			truncatedBefore: truncatedBefore, truncatedMaxTx: truncatedMaxTx,
		}, l.recordedTxIDs())
		switch {
		case f == nil:
		case f.block < 0: // a row of an unrecorded transaction
			return checked, a.report("sampled", *f)
		default:
			// Name the row: re-check the one transaction on a fresh
			// snapshot with keys kept. A finding that does not reproduce
			// there is dropped.
			i := sort.Search(len(entries), func(i int) bool { return entries[i].TxID >= f.tx })
			if rep := a.localize("sampled", entries[i:i+1]); rep != nil {
				return checked, rep
			}
		}
	}
	return checked, a.tableSweep()
}

// tableSweep runs invariant 5 (index/base equivalence) and the view
// check for a round-robin slice of the ledger tables: ceil(fraction ×
// tables) tables per cycle. Index trees are not versioned, so a mismatch
// under live writers is re-checked until the same divergence shows up
// twice before it becomes a report.
func (a *chainAuditor) tableSweep() *TamperReport {
	tables := a.l.LedgerTables()
	n := min(int(math.Ceil(a.opts.SampleFraction*float64(len(tables)))), len(tables))
	if n <= 0 {
		return nil
	}
	a.mu.Lock()
	cursor := a.ixCursor
	a.ixCursor = (a.ixCursor + n) % len(tables)
	a.mu.Unlock()
	pool := newWorkerPool(1)
	for i := 0; i < n; i++ {
		lt := tables[(cursor+i)%len(tables)]
		var rep *TamperReport
		// Two matching findings in a row distinguish real divergence
		// from a scan racing a concurrent writer.
		for attempt := 0; attempt < 3; attempt++ {
			var found *finding
			a.l.checkIndexes(lt, 1, pool, nil, 0, first(&found))
			if found == nil {
				rep = nil
				break
			}
			next := a.report("sampled", *found)
			if rep.sameSite(next) {
				break
			}
			rep = next
		}
		if rep != nil {
			return rep
		}
		var found *finding
		a.l.checkView(lt, first(&found))
		if found != nil {
			return a.report("sampled", *found)
		}
	}
	return nil
}
