package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sqlledger/internal/blobstore"
)

// Digest management (§2.4, §3.6): digests are periodically uploaded to
// immutable storage, namespaced by database name and incarnation (the
// database "create time"), so that digests survive point-in-time restores
// and users can see when a restore happened.

// digestBlobName builds the blob path for a digest.
func digestBlobName(dbName string, incarnation int64, blockID uint64) string {
	return fmt.Sprintf("%s/%d/block-%016d.json", dbName, incarnation, blockID)
}

// UploadDigest generates a digest and stores it in immutable storage. If
// the latest block's digest was already uploaded (no new transactions),
// it returns the existing digest without writing.
func (db *DB) UploadDigest(store blobstore.Store) (Digest, error) {
	store = blobstore.Instrument(store, db.obs)
	d, err := db.GenerateDigest()
	if err != nil {
		return Digest{}, err
	}
	name := digestBlobName(d.DatabaseName, d.Incarnation, d.BlockID)
	if err := store.Put(name, d.JSON()); err != nil {
		if b, gerr := store.Get(name); gerr == nil {
			// Already uploaded for this block; immutability holds as long
			// as the stored digest matches.
			prev, perr := ParseDigest(b)
			if perr == nil && prev.Hash == d.Hash {
				db.noteDigestUploaded(prev, name)
				return prev, nil
			}
			return Digest{}, fmt.Errorf("core: immutable store already holds a DIFFERENT digest for block %d — forked ledger", d.BlockID)
		}
		return Digest{}, err
	}
	db.noteDigestUploaded(d, name)
	return d, nil
}

// StoredDigests loads every digest previously uploaded for this database,
// across all incarnations, sorted by (incarnation, block id). This is the
// input set for verification after restores (§3.6).
func (db *DB) StoredDigests(store blobstore.Store) ([]Digest, error) {
	store = blobstore.Instrument(store, db.obs)
	names, err := store.List(db.opts.Name + "/")
	if err != nil {
		return nil, err
	}
	out := make([]Digest, 0, len(names))
	for _, n := range names {
		b, err := store.Get(n)
		if err != nil {
			return nil, err
		}
		d, err := ParseDigest(b)
		if err != nil {
			return nil, fmt.Errorf("core: blob %s: %w", n, err)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Incarnation != out[j].Incarnation {
			return out[i].Incarnation < out[j].Incarnation
		}
		return out[i].BlockID < out[j].BlockID
	})
	return out, nil
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

// DigestUploader periodically uploads digests to immutable storage — the
// automation the paper describes uploading "every few seconds" (§2.4).
// Each successful upload is also checked for derivability from the
// previous one, catching ledger forks at digest-generation time rather
// than at the next full verification (§3.3.1, requirement 3).
type DigestUploader struct {
	db    *DB
	store blobstore.Store

	loop auditLoop

	mu      sync.Mutex
	last    *Digest
	uploads int
	errs    []error // the latest maxUploadErrs failures, oldest first
}

// maxUploadErrs caps the failures an uploader keeps: a store that stays
// down fails every cycle, and the loop may run every few milliseconds.
const maxUploadErrs = 16

// NewDigestUploader creates an uploader writing to store.
func NewDigestUploader(db *DB, store blobstore.Store) *DigestUploader {
	return &DigestUploader{db: db, store: store}
}

// UploadOnce generates, fork-checks and uploads a single digest.
func (u *DigestUploader) UploadOnce() (Digest, error) {
	d, err := u.db.UploadDigest(u.store)
	if err != nil {
		return Digest{}, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.last != nil && u.last.Incarnation == d.Incarnation {
		if err := u.db.VerifyDigestDerivation(*u.last, d); err != nil {
			return Digest{}, fmt.Errorf("core: digest fork check failed: %w", err)
		}
	}
	u.last = &d
	u.uploads++
	return d, nil
}

// Start launches periodic uploads at the given interval (idempotent);
// Stop ends them.
func (u *DigestUploader) Start(interval time.Duration) {
	u.loop.start(interval, func() {
		if _, err := u.UploadOnce(); err != nil && err != ErrEmptyLedger {
			u.mu.Lock()
			if len(u.errs) == maxUploadErrs {
				u.errs = append(u.errs[:0], u.errs[1:]...)
			}
			u.errs = append(u.errs, err)
			u.mu.Unlock()
		}
	})
}

// Stop halts periodic uploads and waits for an upload in flight
// (idempotent).
func (u *DigestUploader) Stop() { u.loop.stop() }

// Uploads returns the number of successful uploads.
func (u *DigestUploader) Uploads() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.uploads
}

// Errs returns the periodic loop's most recent upload errors, at most
// maxUploadErrs of them, oldest first.
func (u *DigestUploader) Errs() []error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]error(nil), u.errs...)
}
