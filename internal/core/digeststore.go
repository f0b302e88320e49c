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
func (l *Shard) UploadDigest(store blobstore.Store) (Digest, error) {
	store = blobstore.Instrument(store, l.obs)
	start := time.Now()
	d, err := l.GenerateDigest()
	if err != nil {
		return Digest{}, err
	}
	defer func() {
		l.m.digestUploadSeconds.ObserveSince(start)
		l.m.digestUploads.Inc()
	}()
	name := digestBlobName(d.DatabaseName, d.Incarnation, d.BlockID)
	if err := store.Put(name, d.JSON()); err != nil {
		if b, gerr := store.Get(name); gerr == nil {
			// Already uploaded for this block; immutability holds as long
			// as the stored digest matches.
			prev, perr := ParseDigest(b)
			if perr == nil && prev.Hash == d.Hash {
				l.noteDigestUploaded(prev, name)
				return prev, nil
			}
			return Digest{}, fmt.Errorf("core: immutable store already holds a DIFFERENT digest for block %d — forked ledger", d.BlockID)
		}
		return Digest{}, err
	}
	l.noteDigestUploaded(d, name)
	return d, nil
}

// StoredDigests loads every digest previously uploaded for this database,
// across all incarnations, sorted by (incarnation, block id). This is the
// input set for verification after restores (§3.6).
func (l *Shard) StoredDigests(store blobstore.Store) ([]Digest, error) {
	store = blobstore.Instrument(store, l.obs)
	names, err := store.List(l.opts.Name + "/")
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

// DigestUploader periodically uploads digests to immutable storage — the
// automation the paper describes uploading "every few seconds" (§2.4).
// Each successful upload is also checked for derivability from the
// previous one, catching ledger forks at digest-generation time rather
// than at the next full verification (§3.3.1, requirement 3).
type DigestUploader struct {
	l     *DB
	store blobstore.Store

	mu      sync.Mutex
	last    *Digest
	stopCh  chan struct{}
	doneCh  chan struct{}
	uploads int
	errs    []error
}

// NewDigestUploader creates an uploader writing to store. Digests are
// per-chain: on a multi-shard database every upload fails with
// ErrMultiShard (upload super-blocks instead).
func NewDigestUploader(l *DB, store blobstore.Store) *DigestUploader {
	return &DigestUploader{l: l, store: store}
}

// UploadOnce generates, fork-checks and uploads a single digest.
func (u *DigestUploader) UploadOnce() (Digest, error) {
	d, err := u.l.UploadDigest(u.store)
	if err != nil {
		return Digest{}, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.last != nil && u.last.Incarnation == d.Incarnation {
		if err := u.l.VerifyDigestDerivation(*u.last, d); err != nil {
			return Digest{}, fmt.Errorf("core: digest fork check failed: %w", err)
		}
	}
	u.last = &d
	u.uploads++
	return d, nil
}

// Start launches periodic uploads at the given interval; Stop ends them.
func (u *DigestUploader) Start(interval time.Duration) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.stopCh != nil {
		return
	}
	u.stopCh = make(chan struct{})
	u.doneCh = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if _, err := u.UploadOnce(); err != nil && err != ErrEmptyLedger {
					u.mu.Lock()
					u.errs = append(u.errs, err)
					u.mu.Unlock()
				}
			}
		}
	}(u.stopCh, u.doneCh)
}

// Stop halts periodic uploads and waits for the loop to exit.
func (u *DigestUploader) Stop() {
	u.mu.Lock()
	stop, done := u.stopCh, u.doneCh
	u.stopCh, u.doneCh = nil, nil
	u.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Uploads returns the number of successful uploads.
func (u *DigestUploader) Uploads() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.uploads
}

// Errs returns upload errors accumulated by the periodic loop.
func (u *DigestUploader) Errs() []error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]error(nil), u.errs...)
}
