// The always-on auditor: continuous, incremental ledger verification.
//
// A full verification (verify.go) rescans every row version — O(N) work
// that in practice runs rarely, so integrity is only as observable as
// the last manual audit. The Auditor turns verification into a standing
// background process with three mechanisms:
//
//   - A persisted verified-through watermark (audit.json, written
//     atomically like superblock.json): each cycle re-verifies only
//     blocks closed since the watermark — the chain invariants 1-3 cost
//     O(delta blocks), not O(history), because a block's transactions
//     are fetched through the block secondary index.
//   - Optional sampling sweeps: each cycle re-checks a configurable
//     fraction of cold (already-verified) blocks at row level
//     (invariant 4) with ONE snapshot scan per ledger table — the scan
//     is a cheap pointer walk; hashing cost is proportional to the
//     sampled rows — plus a round-robin slice of the index-equivalence
//     checks (invariant 5). Silent corruption of old data is caught
//     probabilistically without ever paying a full rescan.
//   - Bisection on mismatch: block digest → per-transaction Merkle
//     subtree → row, producing a structured TamperReport instead of a
//     bare "digest mismatch".
//
// The watermark itself is NOT trusted: audit.json records the hash of
// the verified-through block, and every cycle re-anchors it by
// recomputing that block's hash from sys_ledger_blocks. A mismatch means
// history below the watermark changed after it was verified; the auditor
// then localizes the damage with a one-off scan of the verified prefix.
package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/merkle"
	"sqlledger/internal/obs"
	"sqlledger/internal/serial"
	"sqlledger/internal/sqltypes"
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
	// round-robin index-equivalence sweep (ceil(fraction × tables) ledger
	// tables per cycle).
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

// TamperReport localizes a detected ledger mutation: which shard (for
// sharded databases; -1 single-instance), block, transaction, table and
// row the mismatch bisected down to. Zero/empty fields mean the damage
// could not be narrowed further in that dimension.
type TamperReport struct {
	Shard int    `json:"shard"`
	Block int64  `json:"block"` // -1 when unknown
	TxID  uint64 `json:"tx_id,omitempty"`
	Table string `json:"table,omitempty"`
	// Key names the damaged row (decoded primary key, or hex-encoded
	// engine key for index entries).
	Key string `json:"key,omitempty"`
	// Mode records which audit pass detected it: incremental, sampled,
	// watermark or superblock.
	Mode       string `json:"mode"`
	Detail     string `json:"detail"`
	DetectedAt int64  `json:"detected_at_unix_nano"`
}

func (r *TamperReport) String() string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tamper[%s]", r.Mode)
	if r.Shard >= 0 {
		fmt.Fprintf(&b, " shard=%d", r.Shard)
	}
	if r.Block >= 0 {
		fmt.Fprintf(&b, " block=%d", r.Block)
	}
	if r.TxID != 0 {
		fmt.Fprintf(&b, " tx=%d", r.TxID)
	}
	if r.Table != "" {
		fmt.Fprintf(&b, " table=%s", r.Table)
	}
	if r.Key != "" {
		fmt.Fprintf(&b, " key=%s", r.Key)
	}
	return b.String() + ": " + r.Detail
}

// sameSite reports whether two reports localize the same damage (used to
// emit tamper_localized events only on change, not every cycle).
func (r *TamperReport) sameSite(o *TamperReport) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Shard == o.Shard && r.Block == o.Block && r.TxID == o.TxID &&
		r.Table == o.Table && r.Key == o.Key && r.Detail == o.Detail
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
// /debug/audit and folded into /healthz.
type AuditStatus struct {
	Shard                int           `json:"shard"` // -1 single-instance
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
}

// Auditor is the background verification subsystem for one LedgerDB.
// Create with NewAuditor, drive explicitly with RunCycle or continuously
// with Start/Stop. All methods are safe for concurrent use; cycles
// themselves are serialized.
type Auditor struct {
	l     *LedgerDB
	opts  AuditorOptions
	shard int
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

	loopMu  sync.Mutex
	stopCh  chan struct{}
	wg      sync.WaitGroup
	running bool

	mVerified     *obs.Gauge
	mLag          *obs.Gauge
	mCycles       *obs.Counter
	mIncBlocks    *obs.Counter
	mSampBlocks   *obs.Counter
	mCycleSeconds *obs.Histogram
}

// NewAuditor builds (and registers) the database's always-on auditor.
// The persisted watermark is loaded from audit.json in the database
// directory; a file from another database or incarnation (restore) is
// discarded and auditing restarts from block 0. The returned auditor is
// not running yet — call Start for the background loop or RunCycle to
// drive it manually.
func (l *LedgerDB) NewAuditor(opts AuditorOptions) (*Auditor, error) {
	return l.newAuditorAt(opts, -1)
}

func (l *LedgerDB) newAuditorAt(opts AuditorOptions, shard int) (*Auditor, error) {
	opts = opts.withDefaults()
	a := &Auditor{
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
	l.auditor.Store(a)
	return a, nil
}

// Auditor returns the registered auditor, or nil.
func (l *LedgerDB) Auditor() *Auditor { return l.auditor.Load() }

// loadWatermark reads audit.json. Corrupt or mismatched files are
// discarded (with a warning event), not trusted and not fatal: the
// re-anchor check protects against a *tampered* watermark anyway, and a
// fresh auditor simply re-verifies from the chain start.
func (a *Auditor) loadWatermark() error {
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

// saveWatermark persists the watermark atomically (tmp + rename), the
// same pattern superblock.json uses.
func (a *Auditor) saveWatermark() error {
	b, err := json.MarshalIndent(a.wm, "", "  ")
	if err != nil {
		return err
	}
	tmp := a.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, a.path)
}

// Status snapshots the auditor and refreshes the lag gauge.
func (a *Auditor) Status() AuditStatus {
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

	a.loopMu.Lock()
	st.Running = a.running
	a.loopMu.Unlock()

	if st.LastCycleAt != 0 {
		a.mLag.Set(st.AgeSeconds)
	}
	return st
}

// Start launches the background audit loop. It stops on Stop or when
// the database closes.
func (a *Auditor) Start() {
	a.loopMu.Lock()
	defer a.loopMu.Unlock()
	if a.running {
		return
	}
	a.running = true
	a.stopCh = make(chan struct{})
	a.wg.Add(1)
	go func(stop chan struct{}) {
		defer a.wg.Done()
		ticker := time.NewTicker(a.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-a.l.doneCh:
				return
			case <-ticker.C:
				a.RunCycle()
			}
		}
	}(a.stopCh)
}

// Stop halts the background loop (idempotent; RunCycle stays usable).
func (a *Auditor) Stop() {
	a.loopMu.Lock()
	if !a.running {
		a.loopMu.Unlock()
		return
	}
	a.running = false
	close(a.stopCh)
	a.loopMu.Unlock()
	a.wg.Wait()
}

// xorshift64star advances the deterministic sampling stream.
func (a *Auditor) rand01() float64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return float64(a.rng>>11) / float64(uint64(1)<<53)
}

// RunCycle executes one audit cycle synchronously: re-anchor the
// watermark, incrementally verify blocks closed since it, then (if
// configured) run a sampling sweep over cold history. It returns the
// status after the cycle.
func (a *Auditor) RunCycle() AuditStatus {
	a.runMu.Lock()
	defer a.runMu.Unlock()
	start := time.Now()

	l := a.l
	sp := l.obs.Tracer().Start("audit_cycle")
	truncatedBefore, truncatedMaxTx := l.truncationInfo()
	l.closeMu.Lock()
	target := l.closedThrough
	l.closeMu.Unlock()

	a.mu.Lock()
	wmBefore := a.wm.VerifiedThrough
	a.mu.Unlock()

	var report *TamperReport
	var incChecked, sampChecked int64

	// Phase 0: re-anchor. The persisted watermark is untrusted; the
	// verified-through block's hash must still recompute to what the
	// auditor saw when it verified it.
	anchor, anchored, rep := a.reanchor(truncatedBefore)
	report = rep

	// Phase 1: incremental. Only blocks closed since the watermark are
	// checked — O(delta), using the block index for each block's
	// transactions.
	if report == nil {
		var verified int64
		anchor, verified, incChecked, report = a.incrementalPass(anchor, anchored, target, truncatedBefore, truncatedMaxTx)
		if verified > wmBefore {
			a.mu.Lock()
			a.wm.VerifiedThrough = verified
			a.wm.BlockHash = anchor.String()
			a.wm.UpdatedAt = time.Now().UnixNano()
			a.mu.Unlock()
			if err := a.saveWatermark(); err != nil {
				l.obs.Events().Warn(obs.EventAuditPassFinish, "watermark_save_error", err.Error())
			}
			a.mVerified.Set(float64(verified))
		}
	}

	// Phase 2: sampling sweep over cold history (blocks at or below the
	// watermark), row-level invariant 4 plus round-robin invariant 5.
	if report == nil && a.opts.SampleFraction > 0 {
		sampChecked, report = a.sampledPass(truncatedBefore, truncatedMaxTx)
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
	wmAfter := a.wm.VerifiedThrough
	a.mu.Unlock()

	a.mCycles.Inc()
	a.mIncBlocks.Add(incChecked)
	a.mSampBlocks.Add(sampChecked)
	a.mCycleSeconds.Observe(dur.Seconds())
	a.mLag.Set(0)

	// Events and spans: only cycles that did work (or found damage) are
	// recorded, so an idle 1s loop does not flush the bounded rings.
	if incChecked > 0 || sampChecked > 0 || report != nil {
		sp.Annotate(
			obs.L("incremental_blocks", strconv.FormatInt(incChecked, 10)),
			obs.L("sampled_blocks", strconv.FormatInt(sampChecked, 10)),
			obs.L("ok", strconv.FormatBool(report == nil)))
		sp.Finish(nil)
		ev := l.obs.Events()
		ev.Info(obs.EventAuditPassStart,
			"watermark", wmBefore, "target", target, "sample_fraction", a.opts.SampleFraction)
		ev.Info(obs.EventAuditPassFinish,
			"verified_through", wmAfter, "incremental_blocks", incChecked,
			"sampled_blocks", sampChecked, "ok", report == nil,
			"duration_seconds", dur.Seconds())
	}
	if report != nil && !report.sameSite(prevReport) {
		l.obs.Events().Error(obs.EventTamperLocalized,
			"mode", report.Mode, "shard", report.Shard, "block", report.Block,
			"tx", report.TxID, "table", report.Table, "key", report.Key,
			"detail", report.Detail)
	}
	return a.Status()
}

// blockKey encodes a sys_ledger_blocks primary key.
func blockKey(b int64) []byte {
	return sqltypes.EncodeKey(nil, sqltypes.NewBigInt(b))
}

// reanchor validates the persisted watermark against the live chain.
// Returns the recomputed hash of the verified-through block (the link
// anchor for the incremental pass), whether an anchor exists, and a
// TamperReport when history below the watermark no longer matches.
func (a *Auditor) reanchor(truncatedBefore uint64) (merkle.Hash, bool, *TamperReport) {
	a.mu.Lock()
	wm := a.wm
	a.mu.Unlock()
	if wm.VerifiedThrough < 0 {
		return merkle.ZeroHash, false, nil
	}
	if uint64(wm.VerifiedThrough) < truncatedBefore {
		// Ledger truncation removed the watermark block; restart the
		// incremental pass at the truncation point.
		a.mu.Lock()
		a.wm.VerifiedThrough = int64(truncatedBefore) - 1
		a.wm.BlockHash = ""
		a.mu.Unlock()
		return merkle.ZeroHash, false, nil
	}
	row, ok := a.l.sysBlocks.Lookup(blockKey(wm.VerifiedThrough))
	if !ok {
		return merkle.ZeroHash, false, a.newReport("watermark", wm.VerifiedThrough, 0, "", "",
			fmt.Sprintf("verified block %d is missing from %s", wm.VerifiedThrough, sysBlocksName))
	}
	want, err := merkle.ParseHash(wm.BlockHash)
	if err != nil {
		// Unreadable stored hash: treat as no watermark rather than
		// trusting it.
		a.mu.Lock()
		a.wm.VerifiedThrough = -1
		a.wm.BlockHash = ""
		a.mu.Unlock()
		return merkle.ZeroHash, false, nil
	}
	got := blockHashOfRow(row)
	if got != want {
		return merkle.ZeroHash, false, a.localizeBelowWatermark(wm.VerifiedThrough, want, truncatedBefore)
	}
	return got, true, nil
}

// localizeBelowWatermark runs when the re-anchor fails: some block at or
// below the watermark changed after it was verified. This is the one
// place the auditor pays for a scan of the verified prefix — it only
// runs after tampering is already detected — walking the chain from the
// truncation point to find the first broken link or transaction root.
func (a *Auditor) localizeBelowWatermark(wm int64, want merkle.Hash, truncatedBefore uint64) *TamperReport {
	prev, havePrev := merkle.ZeroHash, false
	for b := int64(truncatedBefore); b <= wm; b++ {
		hash, rep := a.checkBlock(b, prev, havePrev, truncatedBefore, "watermark")
		if rep != nil {
			return rep
		}
		prev, havePrev = hash, true
	}
	// The prefix is internally consistent yet hashes to something else:
	// the chain below the watermark was rewritten wholesale.
	return a.newReport("watermark", wm, 0, "", "",
		fmt.Sprintf("chain below the verification watermark was rewritten: block %d recomputes to %s, watermark recorded %s", wm, prev, want))
}

// incrementalPass verifies blocks (watermark, target] against invariants
// 2 and 3: each block's row must exist, link to the recomputed hash of
// its predecessor, and carry the Merkle root and count of its
// transaction entries. Cost is O(blocks in the delta + their
// transactions); no table scans. Returns the new anchor hash, the
// highest verified block, how many blocks were checked, and the first
// tamper report.
func (a *Auditor) incrementalPass(anchor merkle.Hash, anchored bool, target int64, truncatedBefore, truncatedMaxTx uint64) (merkle.Hash, int64, int64, *TamperReport) {
	a.mu.Lock()
	verified := a.wm.VerifiedThrough
	a.mu.Unlock()
	start := verified + 1
	if start < int64(truncatedBefore) {
		start = int64(truncatedBefore)
	}
	var checked int64
	prev, havePrev := anchor, anchored
	for b := start; b <= target; b++ {
		hash, rep := a.checkBlock(b, prev, havePrev, truncatedBefore, "incremental")
		checked++
		if rep != nil {
			return prev, verified, checked, rep
		}
		prev, havePrev = hash, true
		verified = b
	}
	return prev, verified, checked, nil
}

// checkBlock verifies one block: presence, previous-hash link (when an
// anchor is available), transaction count, ordinal contiguity and the
// transactions Merkle root. A root mismatch bisects into per-transaction
// deep checks so the report names the damaged transaction — and row,
// when it can be pinned — rather than just the block.
func (a *Auditor) checkBlock(b int64, prev merkle.Hash, havePrev bool, truncatedBefore uint64, mode string) (merkle.Hash, *TamperReport) {
	l := a.l
	row, ok := l.sysBlocks.Lookup(blockKey(b))
	if !ok {
		return merkle.ZeroHash, a.newReport(mode, b, 0, "", "",
			fmt.Sprintf("closed block %d is missing from %s", b, sysBlocksName))
	}
	switch {
	case b == 0:
		if !allZero(row[1].Bytes) {
			return merkle.ZeroHash, a.newReport(mode, b, 0, "", "", "block 0 must have a null previous hash")
		}
	case uint64(b) == truncatedBefore:
		// First block after a truncation: its recorded previous hash
		// points at a removed block and cannot be recomputed.
	case havePrev:
		if !bytes.Equal(row[1].Bytes, prev[:]) {
			return merkle.ZeroHash, a.newReport(mode, b, 0, "", "",
				fmt.Sprintf("block %d previous-hash mismatch: recorded=%x computed-over-block-%d=%s", b, row[1].Bytes, b-1, prev))
		}
	}
	entries := l.entriesOfBlock(uint64(b))
	if int64(len(entries)) != row[3].Int() {
		return merkle.ZeroHash, a.newReport(mode, b, 0, "", "",
			fmt.Sprintf("block %d records %d transactions but %d are present", b, row[3].Int(), len(entries)))
	}
	var tree merkle.Streaming
	for i, e := range entries {
		if e.Ordinal != uint32(i) {
			return merkle.ZeroHash, a.newReport(mode, b, e.TxID, "", "",
				fmt.Sprintf("block %d transaction ordinals are not contiguous at %d", b, i))
		}
		tree.Append(entryHash(e))
	}
	root := tree.Root()
	if !bytes.Equal(row[2].Bytes, root[:]) {
		// Bisect: an entry's hash changed (its system-table row was
		// edited) or the recorded root itself was. Deep-check each
		// transaction's per-table Merkle roots against the rows.
		for _, e := range entries {
			if rep := a.deepCheckTx(e, mode); rep != nil {
				return merkle.ZeroHash, rep
			}
		}
		return merkle.ZeroHash, a.newReport(mode, b, 0, "", "",
			fmt.Sprintf("block %d transactions root mismatch: recorded=%x computed=%s (entry metadata or the recorded root was altered)", b, row[2].Bytes, root))
	}
	return blockHashOfRow(row), nil
}

// auditOp is one recomputed row-version hash with its clustered key —
// what bisection needs to name the damaged row.
type auditOp struct {
	seq  uint64
	hash merkle.Hash
	key  []byte
	del  bool
}

func sortOps(ops []auditOp) {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].seq != ops[j].seq {
			return ops[i].seq < ops[j].seq
		}
		return bytes.Compare(ops[i].hash[:], ops[j].hash[:]) < 0
	})
}

func opsRoot(ops []auditOp) merkle.Hash {
	var tree merkle.Streaming
	for _, op := range ops {
		tree.Append(op.hash)
	}
	return tree.Root()
}

// collectTxOps recomputes the row-version ops (hash + key) of every
// transaction in wanted for one ledger table, in one scan of base and one
// of history on the caller's pinned snapshot (consistent under concurrent
// writers), hashing only rows a wanted transaction created or ended. Each
// bucket holds, in commit sequence order, the leaves of that transaction's
// Merkle tree for the table: the per-transaction slice of invariant 4,
// shared by read receipts, bisection and the sampled pass.
func collectTxOps(lt *LedgerTable, rtx *engine.ReadTx, wanted map[uint64]*wal.LedgerEntry) map[uint64][]auditOp {
	s := lt.table.Schema()
	byTx := make(map[uint64][]auditOp)
	collect := func(t *engine.Table, history bool) {
		_ = rtx.Scan(t, func(k []byte, full sqltypes.Row) bool {
			if tx := uint64(full[lt.startTxOrd].Int()); wanted[tx] != nil {
				byTx[tx] = append(byTx[tx], auditOp{
					seq:  uint64(full[lt.startSeqOrd].Int()),
					hash: serial.HashRow(s, full, serial.OpInsert, lt.skipEnd),
					key:  append([]byte(nil), k...),
				})
			}
			if !history {
				return true
			}
			if tx := uint64(full[lt.endTxOrd].Int()); wanted[tx] != nil {
				byTx[tx] = append(byTx[tx], auditOp{
					seq:  uint64(full[lt.endSeqOrd].Int()),
					hash: serial.HashRow(s, full, serial.OpDelete, nil),
					key:  append([]byte(nil), k...),
					del:  true,
				})
			}
			return true
		})
	}
	collect(lt.table, false)
	if lt.history != nil {
		collect(lt.history, true)
	}
	for _, ops := range byTx {
		sortOps(ops)
	}
	return byTx
}

// ledgerTableByID resolves a registered ledger table by base-table id.
func (l *LedgerDB) ledgerTableByID(id uint32) *LedgerTable {
	l.tmu.RLock()
	defer l.tmu.RUnlock()
	return l.tables[id]
}

// deepCheckTx re-verifies one transaction's recorded per-table Merkle
// roots against the row versions now in the database (invariant 4 for a
// single transaction). It pins a fresh snapshot so the check cannot be
// confused by concurrent writers. The report pins the exact row when the
// transaction touched a single row in the damaged table.
func (a *Auditor) deepCheckTx(e *wal.LedgerEntry, mode string) *TamperReport {
	rtx := a.l.edb.BeginReadOnly()
	defer rtx.Close()
	wanted := map[uint64]*wal.LedgerEntry{e.TxID: e}
	for _, tr := range e.Roots {
		lt := a.l.ledgerTableByID(tr.TableID)
		if lt == nil {
			continue
		}
		ops := collectTxOps(lt, rtx, wanted)[e.TxID]
		if rep := a.checkTxTable(e, lt, tr.Root, ops, mode); rep != nil {
			return rep
		}
	}
	return nil
}

// checkTxTable compares a transaction's recorded root for one table with
// the root recomputed from ops, localizing as far as possible.
func (a *Auditor) checkTxTable(e *wal.LedgerEntry, lt *LedgerTable, recorded merkle.Hash, ops []auditOp, mode string) *TamperReport {
	if len(ops) == 0 {
		return a.newReport(mode, int64(e.BlockID), e.TxID, lt.Name(), "",
			fmt.Sprintf("transaction %d recorded updates to %s but no row versions remain", e.TxID, lt.Name()))
	}
	if opsRoot(ops) == recorded {
		return nil
	}
	key := ""
	if len(ops) == 1 {
		key = lt.keyString(ops[0].key)
	}
	return a.newReport(mode, int64(e.BlockID), e.TxID, lt.Name(), key,
		fmt.Sprintf("transaction %d Merkle root mismatch in %s: recorded=%s computed=%s over %d row versions", e.TxID, lt.Name(), recorded, opsRoot(ops), len(ops)))
}

// keyString renders a clustered key for a report: decoded primary-key
// values when possible, hex otherwise.
func (lt *LedgerTable) keyString(key []byte) string {
	s := lt.table.Schema()
	if len(s.Key) > 0 {
		types := make([]sqltypes.TypeID, len(s.Key))
		for i, ord := range s.Key {
			types[i] = s.Columns[ord].Type
		}
		if vals, err := sqltypes.DecodeKey(key, types); err == nil {
			parts := make([]string, len(vals))
			for i, v := range vals {
				parts[i] = v.String()
			}
			return strings.Join(parts, ",")
		}
	}
	return hex.EncodeToString(key)
}

// sampledPass re-checks a deterministic pseudo-random fraction of cold
// blocks at row level: invariant 3 and the chain link for each sampled
// block, then invariant 4 for every transaction in the sampled blocks
// using ONE snapshot scan per ledger table — the scan visits every row
// (a pointer walk), but hashing only happens for rows belonging to
// sampled transactions, so the dominant cost is proportional to the
// sample. A slice of the index-equivalence checks (invariant 5) rotates
// through the ledger tables round-robin.
func (a *Auditor) sampledPass(truncatedBefore, truncatedMaxTx uint64) (int64, *TamperReport) {
	l := a.l
	a.mu.Lock()
	wm := a.wm.VerifiedThrough
	a.mu.Unlock()
	if wm < int64(truncatedBefore) {
		return 0, nil
	}

	// Pick the sample. fraction >= 1 short-circuits the RNG so "check
	// everything every cycle" is exact, not probabilistic.
	var sampled []int64
	for b := int64(truncatedBefore); b <= wm; b++ {
		if a.opts.SampleFraction >= 1 || a.rand01() < a.opts.SampleFraction {
			sampled = append(sampled, b)
		}
	}
	if len(sampled) == 0 {
		return 0, a.indexSweep(truncatedBefore)
	}

	// Pin a snapshot: every row version visible at ts is exactly the set
	// a quiescent verification would see for transactions committed at
	// or before ts, so sampling stays consistent under live writers.
	rtx := l.edb.BeginReadOnly()
	defer rtx.Close()
	ts := rtx.TS()

	entries := make(map[uint64]*wal.LedgerEntry)
	var checked int64
	for _, b := range sampled {
		es := l.entriesOfBlock(uint64(b))
		applied := true
		for _, e := range es {
			if e.CommitTS > ts {
				applied = false
				break
			}
		}
		if !applied {
			// A block this young still has writes ahead of the snapshot;
			// it was verified incrementally and will be sampled later.
			continue
		}
		checked++
		// Chain link spot-check: the next block's recorded previous
		// hash must match this block's recomputed hash, which detects
		// any edit of the sampled block's header row.
		row, ok := l.sysBlocks.Lookup(blockKey(b))
		if !ok {
			return checked, a.newReport("sampled", b, 0, "", "",
				fmt.Sprintf("closed block %d is missing from %s", b, sysBlocksName))
		}
		if next, nok := l.sysBlocks.Lookup(blockKey(b + 1)); nok {
			h := blockHashOfRow(row)
			if !bytes.Equal(next[1].Bytes, h[:]) {
				return checked, a.newReport("sampled", b, 0, "", "",
					fmt.Sprintf("block %d hash no longer matches block %d's recorded previous hash", b, b+1))
			}
		}
		// Invariant 3 for the sampled block.
		if _, rep := a.checkBlock(b, merkle.ZeroHash, false, truncatedBefore, "sampled"); rep != nil {
			return checked, rep
		}
		for _, e := range es {
			entries[e.TxID] = e
		}
	}
	if len(entries) == 0 {
		return checked, a.indexSweep(truncatedBefore)
	}

	// One snapshot scan per ledger table (base + history), accumulating
	// ops only for sampled transactions.
	acc := make(map[uint32]map[uint64][]auditOp)
	for _, lt := range l.LedgerTables() {
		acc[lt.ID()] = collectTxOps(lt, rtx, entries)
	}

	// Compare every sampled transaction's recorded roots.
	txIDs := make([]uint64, 0, len(entries))
	for tx := range entries {
		txIDs = append(txIDs, tx)
	}
	sort.Slice(txIDs, func(i, j int) bool { return txIDs[i] < txIDs[j] })
	for _, tx := range txIDs {
		e := entries[tx]
		for _, tr := range e.Roots {
			lt := l.ledgerTableByID(tr.TableID)
			if lt == nil {
				continue
			}
			if rep := a.checkTxTable(e, lt, tr.Root, acc[tr.TableID][tx], "sampled"); rep != nil {
				// Confirm on a fresh snapshot before reporting: the
				// original scan cannot race, but the deep check also
				// re-localizes with the newest data.
				if confirmed := a.deepCheckTx(e, "sampled"); confirmed != nil {
					return checked, confirmed
				}
			}
		}
	}
	return checked, a.indexSweep(truncatedBefore)
}

// indexSweep runs invariant 5 (index/base equivalence) for a round-robin
// slice of the ledger tables: ceil(fraction × tables) tables per cycle.
// Index trees are not versioned, so a mismatch under live writers is
// re-checked until the same divergence shows up twice before it becomes
// a report.
func (a *Auditor) indexSweep(truncatedBefore uint64) *TamperReport {
	tables := a.l.LedgerTables()
	if len(tables) == 0 {
		return nil
	}
	n := int(a.opts.SampleFraction*float64(len(tables)) + 0.999999)
	if n <= 0 {
		return nil
	}
	if n > len(tables) {
		n = len(tables)
	}
	a.mu.Lock()
	cursor := a.ixCursor
	a.ixCursor = (a.ixCursor + n) % len(tables)
	a.mu.Unlock()
	for i := 0; i < n; i++ {
		lt := tables[(cursor+i)%len(tables)]
		if rep := a.checkTableIndexes(lt); rep != nil {
			return rep
		}
	}
	return nil
}

// checkTableIndexes diffs each nonclustered index of the table (and its
// history table) against entry keys recomputed from the base rows.
func (a *Auditor) checkTableIndexes(lt *LedgerTable) *TamperReport {
	check := func(t *engine.Table) *TamperReport {
		for _, ix := range t.Indexes() {
			var rep *TamperReport
			// Two matching diffs in a row distinguish real divergence
			// from a scan racing a concurrent writer.
			for attempt := 0; attempt < 3; attempt++ {
				next := a.diffIndex(t, ix)
				if next == nil {
					rep = nil
					break
				}
				if rep != nil && rep.sameSite(next) {
					return next
				}
				rep = next
			}
			if rep != nil {
				return rep
			}
		}
		return nil
	}
	if rep := check(lt.table); rep != nil {
		return rep
	}
	if lt.history != nil {
		return check(lt.history)
	}
	return nil
}

// diffIndex compares one index's (entry key → clustered key) map with
// the mapping recomputed from the base rows, returning a report naming
// the first divergent entry (in entry-key order), or nil.
func (a *Auditor) diffIndex(t *engine.Table, ix *engine.Index) *TamperReport {
	expected := make(map[string]string)
	t.Scan(func(ck []byte, row sqltypes.Row) bool {
		expected[string(ix.EntryKey(ck, row))] = string(ck)
		return true
	})
	var bad *TamperReport
	var seen int
	t.ScanIndex(ix, func(entryKey, ck []byte) bool {
		seen++
		want, ok := expected[string(entryKey)]
		switch {
		case !ok:
			bad = a.newReport("sampled", -1, 0, t.Name(), hex.EncodeToString(entryKey),
				fmt.Sprintf("index %s holds entry %x that no base row produces", ix.Meta().Name, entryKey))
		case want != string(ck):
			bad = a.newReport("sampled", -1, 0, t.Name(), hex.EncodeToString(entryKey),
				fmt.Sprintf("index %s entry %x points at the wrong row", ix.Meta().Name, entryKey))
		default:
			delete(expected, string(entryKey))
			return true
		}
		return false
	})
	if bad != nil {
		return bad
	}
	if len(expected) > 0 {
		// Deterministic pick of a missing entry.
		keys := make([]string, 0, len(expected))
		for k := range expected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return a.newReport("sampled", -1, 0, t.Name(), hex.EncodeToString([]byte(keys[0])),
			fmt.Sprintf("index %s is missing %d entries for existing base rows", ix.Meta().Name, len(expected)))
	}
	return nil
}

// newReport stamps a TamperReport with the auditor's shard and clock.
func (a *Auditor) newReport(mode string, block int64, tx uint64, table, key, detail string) *TamperReport {
	return &TamperReport{
		Shard:      a.shard,
		Block:      block,
		TxID:       tx,
		Table:      table,
		Key:        key,
		Mode:       mode,
		Detail:     detail,
		DetectedAt: time.Now().UnixNano(),
	}
}

// ClearReport drops the remembered tamper report (for tests and for
// operators who repaired the database out of band).
func (a *Auditor) ClearReport() {
	a.mu.Lock()
	a.lastReport = nil
	a.mu.Unlock()
}

// --- Sharded auditing ---------------------------------------------------

// ShardedAuditor fans one auditor out per shard under the super-block
// root: each shard keeps its own audit.json watermark inside its shard
// directory, and every cycle first pins each signed super-block head
// against its shard's live chain (CheckDigest) so a forked or rolled
// back shard is localized by shard even before block-level bisection.
type ShardedAuditor struct {
	s    *ShardedDB
	auds []*Auditor
	opts AuditorOptions

	mu         sync.Mutex
	headReport *TamperReport
	headCycles int64

	loopMu  sync.Mutex
	stopCh  chan struct{}
	wg      sync.WaitGroup
	running bool
}

// NewAuditor builds one auditor per shard (registered on each shard's
// LedgerDB) plus the super-block head pinning that ties them together.
func (s *ShardedDB) NewAuditor(opts AuditorOptions) (*ShardedAuditor, error) {
	sa := &ShardedAuditor{s: s, opts: opts.withDefaults()}
	for i, shard := range s.shards {
		a, err := shard.newAuditorAt(opts, i)
		if err != nil {
			return nil, fmt.Errorf("core: auditor for shard %d: %w", i, err)
		}
		sa.auds = append(sa.auds, a)
	}
	s.auditor.Store(sa)
	return sa, nil
}

// Auditor returns the registered sharded auditor, or nil.
func (s *ShardedDB) Auditor() *ShardedAuditor { return s.auditor.Load() }

// Shard returns shard i's auditor.
func (sa *ShardedAuditor) Shard(i int) *Auditor { return sa.auds[i] }

// RunCycle audits every shard once: super-block head checks first, then
// each shard's incremental + sampled cycle.
func (sa *ShardedAuditor) RunCycle() ShardedAuditStatus {
	if sb := sa.s.LastSuperBlock(); sb != nil {
		for _, h := range sb.Heads {
			if h.Empty {
				continue
			}
			if err := sa.s.shards[h.Shard].CheckDigest(h.Digest); err != nil {
				rep := &TamperReport{
					Shard:      h.Shard,
					Block:      int64(h.Digest.BlockID),
					Mode:       "superblock",
					Detail:     fmt.Sprintf("signed super-block %d head check failed: %v", sb.SeqNo, err),
					DetectedAt: time.Now().UnixNano(),
				}
				sa.mu.Lock()
				changed := !rep.sameSite(sa.headReport)
				sa.headReport = rep
				sa.mu.Unlock()
				if changed {
					sa.s.obs.Events().Error(obs.EventTamperLocalized,
						"mode", rep.Mode, "shard", rep.Shard, "block", rep.Block, "detail", rep.Detail)
				}
			}
		}
	}
	sa.mu.Lock()
	sa.headCycles++
	sa.mu.Unlock()
	for _, a := range sa.auds {
		a.RunCycle()
	}
	return sa.Status()
}

// ShardedAuditStatus aggregates the per-shard audit state.
type ShardedAuditStatus struct {
	Shards []AuditStatus `json:"shards"`
	// HeadReport is a failed super-block head pin, if any — tampering
	// localized to a shard by the signed super-root alone.
	HeadReport *TamperReport `json:"head_report,omitempty"`
	Ok         bool          `json:"ok"`
}

// Status snapshots every shard auditor plus the head-pin state.
func (sa *ShardedAuditor) Status() ShardedAuditStatus {
	st := ShardedAuditStatus{Ok: true}
	sa.mu.Lock()
	st.HeadReport = sa.headReport
	sa.mu.Unlock()
	if st.HeadReport != nil {
		st.Ok = false
	}
	for _, a := range sa.auds {
		s := a.Status()
		if !s.Ok {
			st.Ok = false
		}
		st.Shards = append(st.Shards, s)
	}
	return st
}

// Start launches one background loop driving full sharded cycles.
func (sa *ShardedAuditor) Start() {
	sa.loopMu.Lock()
	defer sa.loopMu.Unlock()
	if sa.running {
		return
	}
	sa.running = true
	sa.stopCh = make(chan struct{})
	sa.wg.Add(1)
	go func(stop chan struct{}) {
		defer sa.wg.Done()
		ticker := time.NewTicker(sa.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				sa.RunCycle()
			}
		}
	}(sa.stopCh)
}

// Stop halts the background loop.
func (sa *ShardedAuditor) Stop() {
	sa.loopMu.Lock()
	if !sa.running {
		sa.loopMu.Unlock()
		return
	}
	sa.running = false
	close(sa.stopCh)
	sa.loopMu.Unlock()
	sa.wg.Wait()
}
