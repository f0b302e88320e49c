package core

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// Sharded ledger: the single-instance stack (engine + WAL + group
// committer + block chain) scaled across N independent instances under
// one signed super-root. Rows are hash-partitioned by primary key, so the
// common case — a transaction whose rows all map to one shard — runs the
// existing single-instance commit pipeline untouched; transactions that
// straddle shards commit with two-phase commit over the per-shard WALs
// (twopc.go); and the digest of digests (superblock.go) folds the N chain
// heads back into one verifiable root.
//
// Shards = 1 is the degenerate layout: one shard living directly in
// Options.Dir with the database's own name, byte-compatible with a
// database created by plain Open.

// ErrTxUsed is returned when a finished sharded transaction is reused.
var ErrTxUsed = errors.New("core: sharded transaction already finished")

// --- Routing -----------------------------------------------------------

// fnv64a is FNV-1a, inlined so routing adds no dependency and no
// allocation to the ingest path.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// shardRouter deterministically maps encoded primary keys to shards.
// Determinism matters beyond correctness: it makes sharded digests
// byte-reproducible across runs under a logical clock, which is what the
// digest-equality experiment pins.
type shardRouter struct{ n int }

func (r shardRouter) shardOfKey(encKey []byte) int {
	if r.n <= 1 {
		return 0
	}
	return int(fnv64a(encKey) % uint64(r.n))
}

// --- ShardedDB ---------------------------------------------------------

// shardMetrics holds the sharded coordinator's metric handles.
type shardMetrics struct {
	commits      []*obs.Counter // per shard, label shard="NNN"
	ingestRows   []*obs.Counter
	imbalance    *obs.Gauge
	crossTx      *obs.Counter
	superSeconds *obs.Histogram
	superClosed  *obs.Counter
}

func bindShardMetrics(reg *obs.Registry, n int) shardMetrics {
	m := shardMetrics{
		imbalance:    reg.Gauge(obs.ShardImbalanceRatio),
		crossTx:      reg.Counter(obs.CrossShardTxTotal),
		superSeconds: reg.Histogram(obs.SuperblockCloseSeconds, nil),
		superClosed:  reg.Counter(obs.SuperblocksClosedTotal),
	}
	for i := 0; i < n; i++ {
		lbl := obs.L("shard", fmt.Sprintf("%03d", i))
		m.commits = append(m.commits, reg.Counter(obs.ShardCommitsTotal, lbl))
		m.ingestRows = append(m.ingestRows, reg.Counter(obs.ShardIngestRowsTotal, lbl))
	}
	return m
}

// ShardedDB is a ledger database hash-partitioned across N shard
// instances, each a full LedgerDB with its own engine, WAL, group
// committer and block chain, coordinated under one signed super-root.
type ShardedDB struct {
	opts   Options
	router shardRouter
	shards []*LedgerDB

	// Cross-shard 2PC coordination (nil / unused when Shards == 1).
	dlog *decisionLog
	gid  atomic.Uint64

	// Super-block signing key and watermark.
	priv      ed25519.PrivateKey
	smu       sync.Mutex
	lastSuper *SuperBlock

	// rowCounts tracks per-shard ingested rows since open, feeding the
	// shard-imbalance gauge.
	rowCounts []atomic.Int64

	// Test-only crash hooks on the cross-shard commit path: invoked with
	// every participant prepared (before the commit decision is durable)
	// and right after the decision is logged (before phase 2 applies).
	hookAfterPrepare  func()
	hookAfterDecision func()

	// auditor is the registered sharded auditor, if any; the sharded
	// ops surface reads its status through this pointer.
	auditor atomic.Pointer[ShardedAuditor]

	obs *obs.Registry
	m   shardMetrics
}

// superKeyFile persists the ed25519 seed that signs super-blocks, hex
// encoded, in the sharded database's root directory.
const superKeyFile = "superblock.key"

func loadOrCreateSuperKey(dir string) (ed25519.PrivateKey, error) {
	path := filepath.Join(dir, superKeyFile)
	b, err := os.ReadFile(path)
	if err == nil {
		seed, derr := hex.DecodeString(string(b))
		if derr != nil || len(seed) != ed25519.SeedSize {
			return nil, fmt.Errorf("core: bad super-block key file %s", path)
		}
		return ed25519.NewKeyFromSeed(seed), nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	seed := make([]byte, ed25519.SeedSize)
	if _, err := rand.Read(seed); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(seed)), 0o600); err != nil {
		return nil, err
	}
	return ed25519.NewKeyFromSeed(seed), nil
}

// shardDirName names shard i's subdirectory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// OpenSharded opens (creating if necessary) a sharded ledger database.
// Options.Shards of 0 or 1 opens a single shard directly in Options.Dir —
// the exact on-disk layout plain Open produces, so existing databases can
// be wrapped without conversion. Shards > 1 lays out one subdirectory per
// shard. After each shard recovers its own WAL independently, the
// coordinator resolves in-doubt cross-shard transactions against its
// decision log (presumed abort) and reconciles the super-block watermark:
// every signed shard head must still be present in its shard's chain.
func OpenSharded(opts Options) (*ShardedDB, error) {
	n := opts.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 {
		return nil, fmt.Errorf("core: invalid shard count %d", opts.Shards)
	}
	if opts.Name == "" {
		opts.Name = filepath.Base(opts.Dir)
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	priv, err := loadOrCreateSuperKey(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &ShardedDB{
		opts:      opts,
		router:    shardRouter{n: n},
		priv:      priv,
		rowCounts: make([]atomic.Int64, n),
		obs:       opts.Obs,
		m:         bindShardMetrics(opts.Obs, n),
	}
	closeAll := func() {
		for _, l := range s.shards {
			if l != nil {
				l.Close()
			}
		}
		s.dlog.Close()
	}

	if n > 1 {
		s.dlog, err = openDecisionLog(opts.Dir, opts.Sync)
		if err != nil {
			return nil, err
		}
	}

	// Open the shards concurrently: each is an independent LedgerDB whose
	// recovery replays its own WAL, so N shards restart in the wall-clock
	// time of the slowest one instead of the sum. Version-GC sweeps are
	// staggered so N instances on one box don't tick in lockstep. Under an
	// injected Options.Clock the shards open one after another instead:
	// they share that clock, a fresh shard's bootstrap commits draw from
	// it, and only a fixed draw order keeps digests reproducible.
	s.shards = make([]*LedgerDB, n)
	openErrs := make([]error, n)
	var owg sync.WaitGroup
	for i := 0; i < n; i++ {
		sopts := opts
		sopts.Shards = 0
		if n > 1 {
			sopts.Dir = filepath.Join(opts.Dir, shardDirName(i))
			sopts.Name = fmt.Sprintf("%s/%s", opts.Name, shardDirName(i))
			if sopts.VersionGCInterval == 0 {
				sopts.VersionGCInterval = 250 * time.Millisecond
			}
			sopts.VersionGCInterval += time.Duration(i) * 7 * time.Millisecond
		}
		if opts.Clock != nil {
			s.shards[i], openErrs[i] = Open(sopts)
			continue
		}
		owg.Add(1)
		go func(i int, sopts Options) {
			defer owg.Done()
			s.shards[i], openErrs[i] = Open(sopts)
		}(i, sopts)
	}
	owg.Wait()
	for i, oerr := range openErrs {
		if oerr != nil {
			closeAll()
			return nil, fmt.Errorf("core: opening shard %d: %w", i, oerr)
		}
	}

	// Resolve in-doubt cross-shard transactions: commit the gids whose
	// decision is durable, presume abort for the rest.
	maxGid := uint64(0)
	if s.dlog != nil {
		maxGid = s.dlog.maxGid
	}
	for i, shard := range s.shards {
		var committed map[uint64]bool
		if s.dlog != nil {
			committed = s.dlog.committed
		}
		mg, rerr := shard.resolveInDoubt(committed)
		if rerr != nil {
			closeAll()
			return nil, fmt.Errorf("core: shard %d: %w", i, rerr)
		}
		if mg > maxGid {
			maxGid = mg
		}
	}
	s.gid.Store(maxGid)

	// Reconcile the super-block watermark: each signed head must still
	// match its shard's chain, or the shard forked behind signed state.
	sb, werr := loadWatermark(opts.Dir)
	if werr != nil {
		closeAll()
		return nil, werr
	}
	if sb != nil {
		if sb.Shards != n {
			closeAll()
			return nil, fmt.Errorf("core: super-block watermark covers %d shards, database opened with %d", sb.Shards, n)
		}
		for _, h := range sb.Heads {
			if h.Empty {
				continue
			}
			if cerr := s.shards[h.Shard].CheckDigest(h.Digest); cerr != nil {
				closeAll()
				return nil, fmt.Errorf("core: shard %d diverged from super-block watermark %d: %w", h.Shard, sb.SeqNo, cerr)
			}
		}
		s.lastSuper = sb
	}
	return s, nil
}

// Close closes every shard and the coordinator state.
func (s *ShardedDB) Close() error {
	if sa := s.Auditor(); sa != nil {
		sa.Stop() // no cycle may run against a closed shard
	}
	var first error
	for _, l := range s.shards {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.dlog.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// NumShards returns the shard count.
func (s *ShardedDB) NumShards() int { return s.router.n }

// Shard exposes one shard's LedgerDB (per-shard digests, verification,
// tamper simulation, engine access).
func (s *ShardedDB) Shard(i int) *LedgerDB { return s.shards[i] }

// Name returns the sharded database's name (shards are named
// "<name>/shard-NNN").
func (s *ShardedDB) Name() string { return s.opts.Name }

// Obs returns the shared metrics registry (all shards bind into it).
func (s *ShardedDB) Obs() *obs.Registry { return s.obs }

// PublicKey returns the super-block verification key.
func (s *ShardedDB) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), s.priv.Public().(ed25519.PublicKey)...)
}

// LastSuperBlock returns the latest closed super-block, if any.
func (s *ShardedDB) LastSuperBlock() *SuperBlock {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.lastSuper
}

// Checkpoint checkpoints every shard.
func (s *ShardedDB) Checkpoint() error {
	for i, l := range s.shards {
		if err := l.Checkpoint(); err != nil {
			return fmt.Errorf("core: checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

func (s *ShardedDB) nowNanos() int64 {
	if s.opts.Clock != nil {
		return s.opts.Clock()
	}
	return time.Now().UnixNano()
}

// updateImbalance recomputes the shard-imbalance gauge:
// max(rows)/mean(rows) over shards, 1.0 when perfectly balanced.
func (s *ShardedDB) updateImbalance() {
	if len(s.rowCounts) < 2 {
		s.m.imbalance.Set(1)
		return
	}
	var total, max int64
	for i := range s.rowCounts {
		v := s.rowCounts[i].Load()
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		s.m.imbalance.Set(1)
		return
	}
	mean := float64(total) / float64(len(s.rowCounts))
	s.m.imbalance.Set(float64(max) / mean)
}

// --- Sharded tables ----------------------------------------------------

// ShardedTable is a ledger table partitioned across every shard: the same
// name, schema and kind on each, with rows routed by primary key.
type ShardedTable struct {
	name   string
	router shardRouter
	parts  []*LedgerTable

	// keyOrds are the primary-key ordinals within the visible columns
	// (ledger schemas put user columns first, so engine key ordinals
	// index the visible prefix directly). Empty for keyless append-only
	// tables, which route on the whole row.
	keyOrds []int
}

// Name returns the table name.
func (st *ShardedTable) Name() string { return st.name }

// Part returns the table's slice on shard i.
func (st *ShardedTable) Part(i int) *LedgerTable { return st.parts[i] }

func (s *ShardedDB) wrapShardedTable(name string, parts []*LedgerTable) *ShardedTable {
	return &ShardedTable{
		name:    name,
		router:  s.router,
		parts:   parts,
		keyOrds: parts[0].table.Schema().Key,
	}
}

// CreateLedgerTable creates the table on every shard.
func (s *ShardedDB) CreateLedgerTable(name string, userSchema *sqltypes.Schema, kind engine.LedgerKind) (*ShardedTable, error) {
	parts := make([]*LedgerTable, len(s.shards))
	for i, l := range s.shards {
		lt, err := l.CreateLedgerTable(name, userSchema, kind)
		if err != nil {
			return nil, fmt.Errorf("core: creating %s on shard %d: %w", name, i, err)
		}
		parts[i] = lt
	}
	return s.wrapShardedTable(name, parts), nil
}

// LedgerTable resolves an existing sharded ledger table by name.
func (s *ShardedDB) LedgerTable(name string) (*ShardedTable, error) {
	parts := make([]*LedgerTable, len(s.shards))
	for i, l := range s.shards {
		lt, err := l.LedgerTable(name)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		parts[i] = lt
	}
	return s.wrapShardedTable(name, parts), nil
}

// shardOfRow routes a visible row by its primary-key columns (or the
// whole row for keyless tables).
func (st *ShardedTable) shardOfRow(visible sqltypes.Row, buf []sqltypes.Value) (int, error) {
	if st.router.n <= 1 {
		return 0, nil
	}
	vals := buf[:0]
	if len(st.keyOrds) > 0 {
		for _, ord := range st.keyOrds {
			if ord >= len(visible) {
				return 0, fmt.Errorf("core: row for %s is missing key column %d", st.name, ord)
			}
			vals = append(vals, visible[ord])
		}
	} else {
		vals = append(vals, visible...)
	}
	return st.router.shardOfKey(sqltypes.EncodeKey(nil, vals...)), nil
}

// shardOfKey routes explicit primary-key values.
func (st *ShardedTable) shardOfKey(keyVals []sqltypes.Value) int {
	if st.router.n <= 1 {
		return 0
	}
	return st.router.shardOfKey(sqltypes.EncodeKey(nil, keyVals...))
}

// ShardOf returns the shard that stores the row with the given
// primary-key values. Exposed so loaders and benchmarks can construct
// shard-pure (single-shard, no-2PC) transactions.
func (st *ShardedTable) ShardOf(keyVals ...sqltypes.Value) int { return st.shardOfKey(keyVals) }

// --- Sharded transactions ----------------------------------------------

// ShardedTx is a transaction over a sharded ledger database. Shard
// participants are created lazily on first touch; at Commit, a
// transaction that touched one shard commits through that shard's
// ordinary pipeline (no coordination), while a multi-shard transaction
// runs two-phase commit: prepare everywhere, log the decision, commit
// everywhere — atomic across shards even through a crash.
type ShardedTx struct {
	s    *ShardedDB
	user string
	txs  []*Tx // index = shard; nil until touched
	done bool

	// trace is the coordinator-owned trace shared by every participant,
	// so one trace ID spans both shard prepares and the decision log of a
	// cross-shard commit. nil when tracing is off.
	trace *obs.Trace

	keyBuf [8]sqltypes.Value // routing scratch
}

// Begin starts a sharded transaction on behalf of user.
func (s *ShardedDB) Begin(user string) *ShardedTx {
	return &ShardedTx{s: s, user: user, txs: make([]*Tx, len(s.shards)), trace: s.obs.NewTrace("tx")}
}

// Trace returns the transaction's trace (nil when tracing is off).
func (stx *ShardedTx) Trace() *obs.Trace { return stx.trace }

// finishTrace ends the coordinator-owned trace. Participants drop their
// references during their own commit/abort/rollback, so by the time either
// Commit or Rollback calls this, the coordinator holds the last one.
func (stx *ShardedTx) finishTrace(err error) {
	if stx.trace != nil {
		stx.trace.Finish(err)
		stx.trace = nil
	}
}

// at returns (creating if needed) the participant on shard i.
func (stx *ShardedTx) at(i int) *Tx {
	if stx.txs[i] == nil {
		stx.txs[i] = stx.s.shards[i].beginWithTrace(stx.user, stx.trace)
	}
	return stx.txs[i]
}

// Insert routes and inserts one row.
func (stx *ShardedTx) Insert(st *ShardedTable, visible sqltypes.Row) error {
	if stx.done {
		return ErrTxUsed
	}
	i, err := st.shardOfRow(visible, stx.keyBuf[:])
	if err != nil {
		return err
	}
	if err := stx.at(i).Insert(st.parts[i], visible); err != nil {
		return err
	}
	stx.s.rowCounts[i].Add(1)
	stx.s.m.ingestRows[i].Inc()
	return nil
}

// InsertBatch routes a batch of rows and bulk-inserts each shard's slice
// through the per-shard batched path, preserving the original row order
// within every shard (so routing is order-insensitive and digests are
// reproducible).
func (stx *ShardedTx) InsertBatch(st *ShardedTable, rows []sqltypes.Row) error {
	return stx.InsertBatchParallel(st, rows, 0)
}

// InsertBatchParallel is InsertBatch with an explicit per-shard hashing
// worker count (0 = one per CPU, 1 = serial hashing). The scaling
// benchmarks pin workers to 1 so measured speedups isolate shard
// parallelism from batch-hashing parallelism.
func (stx *ShardedTx) InsertBatchParallel(st *ShardedTable, rows []sqltypes.Row, workers int) error {
	if stx.done {
		return ErrTxUsed
	}
	if stx.s.router.n <= 1 {
		if err := stx.at(0).InsertBatchParallel(st.parts[0], rows, workers); err != nil {
			return err
		}
		stx.s.rowCounts[0].Add(int64(len(rows)))
		stx.s.m.ingestRows[0].Add(int64(len(rows)))
		return nil
	}
	perShard := make([][]sqltypes.Row, stx.s.router.n)
	for _, r := range rows {
		i, err := st.shardOfRow(r, stx.keyBuf[:])
		if err != nil {
			return err
		}
		perShard[i] = append(perShard[i], r)
	}
	for i, chunk := range perShard {
		if len(chunk) == 0 {
			continue
		}
		if err := stx.at(i).InsertBatchParallel(st.parts[i], chunk, workers); err != nil {
			return err
		}
		stx.s.rowCounts[i].Add(int64(len(chunk)))
		stx.s.m.ingestRows[i].Add(int64(len(chunk)))
	}
	return nil
}

// Update routes and updates one row by its primary key.
func (stx *ShardedTx) Update(st *ShardedTable, visible sqltypes.Row) error {
	if stx.done {
		return ErrTxUsed
	}
	i, err := st.shardOfRow(visible, stx.keyBuf[:])
	if err != nil {
		return err
	}
	return stx.at(i).Update(st.parts[i], visible)
}

// Delete routes and deletes one row by primary-key values.
func (stx *ShardedTx) Delete(st *ShardedTable, keyVals ...sqltypes.Value) error {
	if stx.done {
		return ErrTxUsed
	}
	i := st.shardOfKey(keyVals)
	return stx.at(i).Delete(st.parts[i], keyVals...)
}

// Get routes and reads one row by primary-key values. The row is a
// read-only view, as for Tx.Get.
func (stx *ShardedTx) Get(st *ShardedTable, keyVals ...sqltypes.Value) (sqltypes.Row, bool, error) {
	if stx.done {
		return nil, false, ErrTxUsed
	}
	i := st.shardOfKey(keyVals)
	return stx.at(i).Get(st.parts[i], keyVals...)
}

// Scan iterates the table's visible rows shard by shard (rows are ordered
// within a shard, not globally).
func (stx *ShardedTx) Scan(st *ShardedTable, fn func(row sqltypes.Row) bool) error {
	if stx.done {
		return ErrTxUsed
	}
	stop := false
	for i := range stx.s.shards {
		if err := stx.at(i).Scan(st.parts[i], func(r sqltypes.Row) bool {
			if !fn(r) {
				stop = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Commit finishes the transaction atomically across every touched shard.
func (stx *ShardedTx) Commit() error {
	if stx.done {
		return ErrTxUsed
	}
	stx.done = true
	err := stx.commit()
	stx.finishTrace(err)
	return err
}

// commit is Commit's body; the caller finishes the trace with its result.
func (stx *ShardedTx) commit() error {
	var writers, readers []int
	for i, tx := range stx.txs {
		if tx == nil {
			continue
		}
		if tx.etx.WriteCount() > 0 {
			writers = append(writers, i)
		} else {
			readers = append(readers, i)
		}
	}
	// Read-only participants hold no ledger state worth a commit record;
	// releasing them is cheaper and leaves every shard's chain untouched.
	for _, i := range readers {
		stx.txs[i].Rollback()
	}

	switch len(writers) {
	case 0:
		return nil
	case 1:
		// Single-shard fast path: the ordinary commit pipeline, no
		// coordination, no decision log.
		i := writers[0]
		if err := stx.txs[i].Commit(); err != nil {
			return err
		}
		stx.s.m.commits[i].Inc()
		return nil
	}

	// Cross-shard path: two-phase commit with a presumed-abort decision
	// log. Phase 1 makes every participant's write set durable with its
	// locks held; the decision-log append is the commit point; phase 2
	// runs each shard's commit-pipeline tail. Each leg is a span on the
	// coordinator's trace (the engine records no stage spans on the
	// prepared path, so these wrappers are the trace's view of 2PC time).
	s := stx.s
	s.m.crossTx.Inc()
	gid := s.gid.Add(1)
	tr := stx.trace
	span := func(name string, start time.Time, attrs ...obs.Label) {
		if tr != nil {
			tr.Record(name, 0, start, time.Since(start), attrs...)
		}
	}
	now := func() (t time.Time) {
		if tr != nil {
			t = time.Now()
		}
		return
	}
	if tr != nil {
		tr.SetAttr("gid", strconv.FormatUint(gid, 10))
		tr.SetAttr("shards", strconv.Itoa(len(writers)))
	}
	for n, i := range writers {
		start := now()
		err := stx.txs[i].prepare(gid)
		span(obs.SpanShardPrepare, start, obs.L("shard", strconv.Itoa(i)))
		if err != nil {
			for _, j := range writers[:n] {
				stx.txs[j].abortPrepared()
			}
			stx.txs[i].Rollback()
			for _, j := range writers[n+1:] {
				stx.txs[j].Rollback()
			}
			return fmt.Errorf("core: cross-shard prepare on shard %d: %w", i, err)
		}
	}
	if s.hookAfterPrepare != nil {
		s.hookAfterPrepare()
	}
	decideStart := now()
	if err := s.dlog.commit(gid); err != nil {
		// The decision never became durable: presumed abort.
		span(obs.SpanShardDecide, decideStart)
		for _, j := range writers {
			stx.txs[j].abortPrepared()
		}
		return fmt.Errorf("core: cross-shard decision log: %w", err)
	}
	span(obs.SpanShardDecide, decideStart)
	if s.hookAfterDecision != nil {
		s.hookAfterDecision()
	}
	var first error
	for _, i := range writers {
		commitStart := now()
		_, err := stx.txs[i].commitPrepared()
		span(obs.SpanShardCommit, commitStart, obs.L("shard", strconv.Itoa(i)))
		if err != nil && first == nil {
			// The decision is durable; recovery will finish this shard.
			first = fmt.Errorf("core: cross-shard commit on shard %d: %w", i, err)
			continue
		}
		s.m.commits[i].Inc()
	}
	if first == nil {
		s.obs.Events().Info(obs.EventCrossShardCommit,
			"gid", gid, "shards", strconv.Itoa(len(writers)))
	}
	return first
}

// Rollback abandons every participant.
func (stx *ShardedTx) Rollback() error {
	if stx.done {
		return nil
	}
	stx.done = true
	var first error
	for _, tx := range stx.txs {
		if tx == nil {
			continue
		}
		if err := tx.Rollback(); err != nil && first == nil {
			first = err
		}
	}
	stx.finishTrace(nil)
	return first
}
