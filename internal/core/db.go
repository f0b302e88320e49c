package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sqlledger/internal/blobstore"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
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

	// Cross-shard 2PC coordination (nil / unused with one shard).
	dlog *decisionLog
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
	n := len(db.shards)
	if err := os.MkdirAll(db.opts.Dir, 0o755); err != nil {
		return err
	}
	var err error
	if db.dlog, err = openDecisionLog(db.opts.Dir, db.opts.Sync); err != nil {
		return err
	}

	// Open the shards concurrently: each recovers its own WAL, so N shards
	// restart in the wall-clock time of the slowest one instead of the sum.
	// Version-GC sweeps are staggered so N engines on one box don't tick in
	// lockstep. Under an injected Options.Clock the shards open one after
	// another instead: they share that clock, a fresh shard's bootstrap
	// commits draw from it, and only a fixed draw order keeps digests
	// reproducible.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range db.shards {
		sopts := db.opts
		sopts.Dir = filepath.Join(db.opts.Dir, shardDirName(i))
		sopts.Name = db.opts.Name + "/" + shardDirName(i)
		if sopts.VersionGCInterval == 0 {
			sopts.VersionGCInterval = 250 * time.Millisecond
		}
		sopts.VersionGCInterval += time.Duration(i) * 7 * time.Millisecond
		open := func() { db.shards[i], errs[i] = openShard(sopts) }
		if db.opts.Clock != nil {
			open()
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); open() }()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: opening shard %d: %w", i, err)
		}
	}

	// Commit the in-doubt gids whose decision is durable, presume abort
	// for the rest.
	maxGid := db.dlog.maxGid
	for i, l := range db.shards {
		mg, err := l.resolveInDoubt(db.dlog.committed)
		if err != nil {
			return db.shardErr(i, err)
		}
		maxGid = max(maxGid, mg)
	}
	db.gid.Store(maxGid)
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
	err := db.dlog.Close()
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

// eachShard runs fn on every shard in order, stopping at the first error.
func (db *DB) eachShard(fn func(i int, l *Shard) error) error {
	for i, l := range db.shards {
		if err := fn(i, l); err != nil {
			return db.shardErr(i, err)
		}
	}
	return nil
}

// Checkpoint drains every shard's ledger queue into its system tables and
// writes the engine snapshots (§3.3.2).
func (db *DB) Checkpoint() error {
	return db.eachShard(func(_ int, l *Shard) error { return l.Checkpoint() })
}

// --- Per-chain operations -----------------------------------------------
//
// Each names one chain's artifact, so it is an operation of Shard; DB
// forwards it to the only shard of a one-shard database through single,
// the one guard, and fails with ErrMultiShard everywhere else.

// single returns the database's only shard, or ErrMultiShard naming op.
func (db *DB) single(op string) (*Shard, error) {
	if len(db.shards) != 1 {
		return nil, multiShard(op, len(db.shards))
	}
	return db.shards[0], nil
}

// mustSingle is single for operations without an error result.
func (db *DB) mustSingle(op string) *Shard {
	l, err := db.single(op)
	if err != nil {
		panic(err)
	}
	return l
}

// Single returns the database's only shard, or ErrMultiShard: the guard
// for callers about to use several per-chain operations at once.
func (db *DB) Single() (*Shard, error) { return db.single("Single") }

// Engine exposes the underlying relational engine (regular tables,
// indexes, checkpointing, tamper simulation).
func (db *DB) Engine() *engine.DB { return db.mustSingle("Engine").edb }

// Incarnation returns the database create time (unix nanoseconds); it
// changes when the database is restored to a point in time.
func (db *DB) Incarnation() int64 { return db.mustSingle("Incarnation").incarnation }

// TransactionInfo is Shard.TransactionInfo.
func (db *DB) TransactionInfo(txID uint64) (user string, commitTS int64, blockID uint64, ok bool) {
	return db.mustSingle("TransactionInfo").TransactionInfo(txID)
}

// TableOperations is Shard.TableOperations.
func (db *DB) TableOperations() []TableOperation {
	return db.mustSingle("TableOperations").TableOperations()
}

// ViewDefinition is Shard.ViewDefinition.
func (db *DB) ViewDefinition(tableID uint32) (string, bool) {
	return db.mustSingle("ViewDefinition").ViewDefinition(tableID)
}

// GenerateDigest is Shard.GenerateDigest; the digest of a multi-shard
// database is its super-block (CloseSuperBlock).
func (db *DB) GenerateDigest() (Digest, error) {
	l, err := db.single("GenerateDigest")
	if err != nil {
		return Digest{}, err
	}
	return l.GenerateDigest()
}

// VerifyDigestDerivation is Shard.VerifyDigestDerivation.
func (db *DB) VerifyDigestDerivation(older, newer Digest) error {
	l, err := db.single("VerifyDigestDerivation")
	if err != nil {
		return err
	}
	return l.VerifyDigestDerivation(older, newer)
}

// UploadDigest is Shard.UploadDigest; a multi-shard database uploads
// super-blocks (UploadSuperBlock).
func (db *DB) UploadDigest(store blobstore.Store) (Digest, error) {
	l, err := db.single("UploadDigest")
	if err != nil {
		return Digest{}, err
	}
	return l.UploadDigest(store)
}

// StoredDigests is Shard.StoredDigests.
func (db *DB) StoredDigests(store blobstore.Store) ([]Digest, error) {
	l, err := db.single("StoredDigests")
	if err != nil {
		return nil, err
	}
	return l.StoredDigests(store)
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
	l, err := db.single("GenerateReceipt")
	if err != nil {
		return Receipt{}, err
	}
	return l.GenerateReceipt(txID, priv)
}

// TruncateLedger is Shard.TruncateLedger.
func (db *DB) TruncateLedger(beforeBlock uint64) error {
	l, err := db.single("TruncateLedger")
	if err != nil {
		return err
	}
	return l.TruncateLedger(beforeBlock)
}
