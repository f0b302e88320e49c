package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// DB is a database with SQL Ledger enabled: a coordinator over one or more
// shards. Rows are hash-partitioned by primary key, so a transaction whose
// rows all map to one shard runs that shard's commit pipeline untouched; a
// transaction that straddles shards commits with two-phase commit over the
// per-shard WALs (twopc.go); and the super-block (superblock.go) folds the
// N chain heads back into one signed, verifiable root.
//
// Every operation is one of three kinds. A route goes to the shard a
// primary key hashes to (DML, point reads). A fan-out runs on every shard
// (DDL, scans, Checkpoint, Verify, auditing, health). A per-chain
// operation names one chain's artifact — a digest, a receipt, a
// transaction id, the engine — and is an operation of a Shard: on a
// one-shard database DB forwards it to that shard, and on any other it
// fails with ErrMultiShard, because there is no chain it could mean.
//
// One shard is the plain layout: it lives directly in Options.Dir under
// the database's own name, and none of the coordination state below is
// used or written.
type DB struct {
	opts   Options
	shards []*Shard

	// Cross-shard 2PC coordination (nil / unused with one shard): the
	// decision log (twopc.go) and the last gid handed out.
	dlog *wal.Log
	gid  atomic.Uint64

	// Super-block signing key (loaded or created by the first use) and
	// watermark.
	smu       sync.Mutex
	priv      ed25519.PrivateKey
	lastSuper *SuperBlock

	// Test-only crash hooks on the cross-shard commit path: invoked with
	// every participant prepared (before the commit decision is durable)
	// and right after the decision is logged (before phase 2 applies).
	hookAfterPrepare  func()
	hookAfterDecision func()

	// auditor is the registered always-on Auditor, if any; HealthChecker
	// and /debug/audit read its status through this pointer.
	auditor atomic.Pointer[Auditor]

	obs *obs.Registry
}

// ErrMultiShard is returned (or, by methods without an error result,
// panicked with) when an operation that names one chain's artifact is
// asked of a database with several chains. Ask the shard: db.Shard(i).
var ErrMultiShard = errors.New("core: operation is per-chain")

func multiShard(op string, shards int) error {
	return fmt.Errorf("%w: %s on a database of %d shards; use db.Shard(i)", ErrMultiShard, op, shards)
}

// shardDirName names shard i's subdirectory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Open opens (creating if necessary) a ledger database of Options.Shards
// shards. With one shard (Shards 0 or 1) the database is the shard's
// files in Options.Dir and nothing else. With more, each shard lives in a
// shard-NNN subdirectory and recovers its own WAL independently; the
// coordinator then resolves in-doubt cross-shard transactions against its
// decision log (presumed abort) and reconciles the super-block watermark:
// every signed shard head must still be present in its shard's chain.
func Open(opts Options) (*DB, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("core: invalid shard count %d", opts.Shards)
	}
	n := max(opts.Shards, 1)
	if opts.BlockSize == 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.MaxReplicaDelay == 0 {
		opts.MaxReplicaDelay = 5 * time.Second
	}
	if opts.Name == "" {
		opts.Name = filepath.Base(opts.Dir)
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	db := &DB{opts: opts, shards: make([]*Shard, n), obs: opts.Obs}
	if n == 1 {
		var err error
		if db.shards[0], err = openShard(opts); err != nil {
			return nil, err
		}
	} else if err := db.openShards(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.loadWatermark(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// openShards opens the shards and the decision log of a multi-shard
// database and resolves its in-doubt transactions.
func (db *DB) openShards() error {
	if err := os.MkdirAll(db.opts.Dir, 0o755); err != nil {
		return err
	}
	dlog, committed, maxGid, err := openDecisionLog(db.opts.Dir, db.opts.Sync, db.obs)
	if err != nil {
		return err
	}
	db.dlog = dlog

	// Open the shards concurrently: each recovers its own WAL, so N shards
	// restart in the wall-clock time of the slowest one instead of the sum.
	// Version-GC sweeps are staggered so N engines on one box don't tick in
	// lockstep. Under an injected Options.Clock the shards open one after
	// another instead: they share that clock, a fresh shard's bootstrap
	// commits draw from it, and only a fixed draw order keeps digests
	// reproducible.
	opened, err := fanOut(db, db.opts.Clock == nil, func(i int, _ *Shard) (*Shard, error) {
		sopts := db.opts
		sopts.Dir = filepath.Join(db.opts.Dir, shardDirName(i))
		sopts.Name = db.opts.Name + "/" + shardDirName(i)
		if sopts.VersionGCInterval == 0 {
			sopts.VersionGCInterval = 250 * time.Millisecond
		}
		sopts.VersionGCInterval += time.Duration(i) * 7 * time.Millisecond
		return openShard(sopts)
	})
	copy(db.shards, opened) // what opened, so Close closes it after a failure
	if err != nil {
		return err
	}

	// Commit the in-doubt gids whose decision is durable, presume abort
	// for the rest.
	gids, err := fanOut(db, false, func(_ int, l *Shard) (uint64, error) {
		return l.resolveInDoubt(committed)
	})
	if err != nil {
		return err
	}
	db.gid.Store(max(maxGid, slices.Max(gids)))
	return nil
}

// shardErr names the shard an error came from — on a multi-shard database.
func (db *DB) shardErr(i int, err error) error {
	if len(db.shards) == 1 {
		return err
	}
	return fmt.Errorf("core: shard %d: %w", i, err)
}

// Close stops background work and closes every shard. A started auditor
// loop is stopped first — waiting for a cycle in flight — so no cycle ever
// runs against a closed engine.
func (db *DB) Close() error {
	if a := db.Auditor(); a != nil {
		a.Stop()
	}
	var err error
	if db.dlog != nil {
		err = db.dlog.Close()
	}
	for _, l := range db.shards {
		if l != nil { // an open that failed part-way closes what it opened
			err = errors.Join(err, l.close())
		}
	}
	return err
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Shard returns shard i: its chain's digests, receipts, verification,
// engine and table parts.
func (db *DB) Shard(i int) *Shard { return db.shards[i] }

// Name returns the database name (shards of a multi-shard database are
// named "<name>/shard-NNN" in their digests).
func (db *DB) Name() string { return db.opts.Name }

// Obs returns the database's metrics registry (every shard binds into it).
func (db *DB) Obs() *obs.Registry { return db.obs }

// Snapshot returns a point-in-time copy of every metric the database has
// recorded: WAL appends and fsyncs, group-commit batching, the four
// commit stages, lock waits, block closing, digests and verification.
func (db *DB) Snapshot() obs.Snapshot { return db.obs.Snapshot() }

func (db *DB) nowNanos() int64 { return db.shards[0].nowNanos() }

// --- The router ----------------------------------------------------------
//
// Every operation is a route, a fan-out or a per-chain call (see DB), and
// each kind has one implementation: LedgerTable.route picks a row's shard,
// participants holds a transaction's per-shard legs, fanOut runs on every
// shard, fold and breakdown shape what a fan-out returns, and single
// guards the per-chain calls.

// fanOut runs fn on every shard — each on a goroutine of its own when
// parallel, one after another in shard order otherwise, stopping at the
// first failure — and returns the results in shard order, whatever
// succeeded included, with the first failing shard's error naming it.
func fanOut[T any](db *DB, parallel bool, fn func(i int, l *Shard) (T, error)) ([]T, error) {
	out := make([]T, len(db.shards))
	errs := make([]error, len(db.shards))
	run := func(i int) { out[i], errs[i] = fn(i, db.shards[i]) }
	if parallel {
		var wg sync.WaitGroup
		for i := range db.shards {
			wg.Add(1)
			go func() { defer wg.Done(); run(i) }()
		}
		wg.Wait()
	} else {
		for i := range db.shards {
			if run(i); errs[i] != nil {
				break
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			return out, db.shardErr(i, err)
		}
	}
	return out, nil
}

// breakdown folds the shards' answers of a fan-out into total, add taking
// them in shard order, and lists them in total's breakdown, *list(&total).
func breakdown[T, S any](total T, parts []S, list func(*T) *[]S, add func(t *T, i int, s S)) T {
	for i, s := range parts {
		add(&total, i, s)
	}
	*list(&total) = parts
	return total
}

// fold is breakdown for the answers a one-shard database gives as its
// shard gives them (Health, LedgerDebug, AuditStatus): with one shard
// there is nothing to fold, so one-shard JSON is the plain layout's.
func fold[T any](total T, parts []T, list func(*T) *[]T, add func(t *T, i int, s T)) T {
	if len(parts) == 1 {
		return parts[0]
	}
	return breakdown(total, parts, list, add)
}

// participants is the participant set of a transaction on a multi-shard
// database (Tx.route, ReadTx.route): one transaction of the same type per
// shard, begun when an operation first touches that shard. Once the
// transaction has finished, every operation fails with engine.ErrTxDone —
// as a one-shard transaction's do — and touches no shard.
type participants[P comparable] struct {
	db    *DB
	begin func(*Shard) P
	parts []P // index = shard; zero until touched
	done  bool
}

func newParticipants[P comparable](db *DB, begin func(*Shard) P) *participants[P] {
	return &participants[P]{db: db, begin: begin, parts: make([]P, len(db.shards))}
}

// at returns the participant on shard i, beginning it on first touch.
func (ps *participants[P]) at(i int) (P, error) {
	var zero P
	if ps.done {
		return zero, engine.ErrTxDone
	}
	if ps.parts[i] == zero {
		ps.parts[i] = ps.begin(ps.db.shards[i])
	}
	return ps.parts[i], nil
}

// route returns the participant and the table part on the shard that
// stores a row of lt (LedgerTable.route has the arguments).
func (ps *participants[P]) route(lt *LedgerTable, vals []sqltypes.Value, ords []int) (P, *LedgerTable, error) {
	i, err := lt.route(vals, ords)
	if err != nil {
		var zero P
		return zero, nil, err
	}
	p, err := ps.at(i)
	return p, lt.parts[i], err
}

// each runs fn on every shard's participant, in shard order, beginning
// the untouched ones, and stops at the first error.
func (ps *participants[P]) each(fn func(i int, p P) error) error {
	for i := range ps.parts {
		p, err := ps.at(i)
		if err == nil {
			err = fn(i, p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// finish ends the set and runs fn on every participant begun, in shard
// order; it reports false, and runs nothing, if the set had ended.
func (ps *participants[P]) finish(fn func(i int, p P)) bool {
	if ps.done {
		return false
	}
	ps.done = true
	var zero P
	for i, p := range ps.parts {
		if p != zero {
			fn(i, p)
		}
	}
	return true
}

// Checkpoint drains every shard's ledger queue into its system tables and
// writes the engine snapshots (§3.3.2).
func (db *DB) Checkpoint() error {
	_, err := fanOut(db, false, func(_ int, l *Shard) (any, error) { return nil, l.Checkpoint() })
	return err
}

// --- Per-chain operations -----------------------------------------------
//
// Each names one chain's artifact, so it is an operation of Shard; DB
// forwards it to the only shard of a one-shard database through single,
// the one guard, and fails with ErrMultiShard everywhere else.

// single runs the per-chain operation op on the database's only shard, or
// fails with ErrMultiShard naming op.
func single[T any](db *DB, op string, fn func(*Shard) (T, error)) (T, error) {
	if len(db.shards) != 1 {
		var zero T
		return zero, multiShard(op, len(db.shards))
	}
	return fn(db.shards[0])
}

// only is the operation that returns the shard itself: single(db, op,
// only) is the only shard, guarded.
func only(l *Shard) (*Shard, error) { return l, nil }

// mustSingle is single for operations without an error result.
func (db *DB) mustSingle(op string) *Shard {
	l, err := single(db, op, only)
	if err != nil {
		panic(err)
	}
	return l
}

// Single returns the database's only shard, or ErrMultiShard: the guard
// for callers about to use several per-chain operations at once.
func (db *DB) Single() (*Shard, error) { return single(db, "Single", only) }

// Engine exposes the underlying relational engine (regular tables,
// indexes, checkpointing, tamper simulation).
func (db *DB) Engine() *engine.DB { return db.mustSingle("Engine").edb }

// Incarnation returns the database create time (unix nanoseconds); it
// changes when the database is restored to a point in time.
func (db *DB) Incarnation() int64 { return db.mustSingle("Incarnation").Incarnation() }

// TransactionInfo is Shard.TransactionInfo.
func (db *DB) TransactionInfo(txID uint64) (user string, commitTS int64, blockID uint64, ok bool) {
	return db.mustSingle("TransactionInfo").TransactionInfo(txID)
}

// TableOperations is Shard.TableOperations.
func (db *DB) TableOperations() ([]TableOperation, error) {
	return single(db, "TableOperations", (*Shard).TableOperations)
}

// ViewDefinition is Shard.ViewDefinition.
func (db *DB) ViewDefinition(tableID uint32) (string, bool) {
	return db.mustSingle("ViewDefinition").ViewDefinition(tableID)
}

// GenerateDigest is Shard.GenerateDigest; the digest of a multi-shard
// database is its super-block (CloseSuperBlock).
func (db *DB) GenerateDigest() (Digest, error) {
	return single(db, "GenerateDigest", (*Shard).GenerateDigest)
}

// VerifyDigestDerivation is Shard.VerifyDigestDerivation.
func (db *DB) VerifyDigestDerivation(older, newer Digest) error {
	_, err := single(db, "VerifyDigestDerivation", func(l *Shard) (any, error) {
		return nil, l.VerifyDigestDerivation(older, newer)
	})
	return err
}

// UploadDigest is Shard.UploadDigest; a multi-shard database uploads
// super-blocks (UploadSuperBlock).
func (db *DB) UploadDigest(store blobstore.Store) (Digest, error) {
	return single(db, "UploadDigest", func(l *Shard) (Digest, error) { return l.UploadDigest(store) })
}

// StoredDigests is Shard.StoredDigests.
func (db *DB) StoredDigests(store blobstore.Store) ([]Digest, error) {
	return single(db, "StoredDigests", func(l *Shard) ([]Digest, error) { return l.StoredDigests(store) })
}

// VerifyFromStore downloads all stored digests and runs verification with
// them — the automated end of the digest-management loop.
func (db *DB) VerifyFromStore(store blobstore.Store, opts VerifyOptions) (*Report, error) {
	digests, err := db.StoredDigests(store)
	if err != nil {
		return nil, err
	}
	return db.Verify(digests, opts)
}

// GenerateReceipt is Shard.GenerateReceipt.
func (db *DB) GenerateReceipt(txID uint64, priv ed25519.PrivateKey) (Receipt, error) {
	return single(db, "GenerateReceipt", func(l *Shard) (Receipt, error) { return l.GenerateReceipt(txID, priv) })
}

// TruncateLedger is Shard.TruncateLedger.
func (db *DB) TruncateLedger(beforeBlock uint64) error {
	_, err := single(db, "TruncateLedger", func(l *Shard) (any, error) { return nil, l.TruncateLedger(beforeBlock) })
	return err
}
