package engine

import (
	"errors"
	"sync"
	"time"

	"sqlledger/internal/obs"
)

// ErrLockTimeout is returned when a row lock cannot be acquired within the
// configured wait budget; callers should abort the transaction (the
// engine's deadlock resolution strategy is wait-timeout).
var ErrLockTimeout = errors.New("engine: lock wait timeout")

const lockShards = 128

// lockTable implements row-level exclusive locks keyed by (table, key),
// sharded to reduce contention. Locks are held until transaction end
// (strict two-phase locking on writes). Taking a free lock costs one
// shard-mutex critical section and one map insert: the clock is first read,
// and the deadline set, when an acquisition finds the lock held, so a
// timeout is measured from the first conflict. The caller builds the
// lockKey — the one copy of the key bytes — and keeps it to release by.
type lockTable struct {
	shards [lockShards]lockShard

	// waitSeconds observes only contended acquisitions.
	waitSeconds *obs.Histogram
	timeouts    *obs.Counter
}

type lockShard struct {
	mu sync.Mutex
	m  map[lockKey]rowLock
}

type lockKey struct {
	table uint32
	key   string
}

type rowLock struct {
	owner uint64
	// released is allocated by the first waiter and closed when the lock
	// is freed; the uncontended path never creates a channel.
	released chan struct{}
}

func newLockTable(reg *obs.Registry) *lockTable {
	lt := &lockTable{
		waitSeconds: reg.Histogram(obs.LockWaitSeconds, nil),
		timeouts:    reg.Counter(obs.LockTimeoutTotal),
	}
	for i := range lt.shards {
		lt.shards[i].m = make(map[lockKey]rowLock)
	}
	return lt
}

func (lt *lockTable) shard(k lockKey) *lockShard {
	h := uint32(2166136261)
	for i := 0; i < len(k.key); i++ {
		h = (h ^ uint32(k.key[i])) * 16777619
	}
	h ^= k.table * 2654435761
	return &lt.shards[h%lockShards]
}

// acquire takes the exclusive lock on (table, key) for owner, waiting up
// to timeout. Re-acquisition by the current owner succeeds immediately.
func (lt *lockTable) acquire(owner uint64, table uint32, key []byte, timeout time.Duration) error {
	_, _, err := lt.acquireTraced(owner, lockKey{table: table, key: string(key)}, timeout, 0)
	return err
}

// acquireTraced is acquire plus trace linkage: a contended wait is
// observed into the wait histogram with tid as the bucket exemplar, and
// the wait duration and its start are returned (zero when the lock was
// free) so the caller can record a trace span.
func (lt *lockTable) acquireTraced(owner uint64, k lockKey, timeout time.Duration, tid obs.TraceID) (time.Duration, time.Time, error) {
	s := lt.shard(k)
	var waitStart, deadline time.Time
	for {
		s.mu.Lock()
		l, ok := s.m[k]
		if !ok {
			s.m[k] = rowLock{owner: owner}
			s.mu.Unlock()
			var waited time.Duration
			if !waitStart.IsZero() {
				waited = time.Since(waitStart)
				lt.waitSeconds.ObserveTraced(waited.Seconds(), tid)
			}
			return waited, waitStart, nil
		}
		if l.owner == owner {
			s.mu.Unlock()
			return 0, waitStart, nil
		}
		if l.released == nil {
			l.released = make(chan struct{})
			s.m[k] = l
		}
		ch := l.released
		s.mu.Unlock()
		if waitStart.IsZero() {
			waitStart = time.Now()
			deadline = waitStart.Add(timeout)
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			lt.timeouts.Inc()
			return time.Since(waitStart), waitStart, ErrLockTimeout
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			// The timer can fire in the same instant the lock is released
			// (release closes ch concurrently). Re-check the channel before
			// reporting a timeout: if the lock was freed, loop once more —
			// the retry either grabs the now-free lock immediately or finds
			// a new owner and times out on the deadline check above. Without
			// this, the waiter reports a spurious timeout for a lock that
			// was already free, and its wait registration on the freed
			// channel is abandoned mid-handoff.
			select {
			case <-ch:
				continue
			default:
			}
			lt.timeouts.Inc()
			return time.Since(waitStart), waitStart, ErrLockTimeout
		}
	}
}

// entryCount returns the number of live lock entries across all shards.
// Test support: after every transaction finishes, the table must be empty
// (no leaked registrations).
func (lt *lockTable) entryCount() int {
	n := 0
	for i := range lt.shards {
		s := &lt.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// release frees the lock on (table, key) if owner holds it.
func (lt *lockTable) release(owner uint64, table uint32, key string) {
	k := lockKey{table: table, key: key}
	s := lt.shard(k)
	s.mu.Lock()
	if l, ok := s.m[k]; ok && l.owner == owner {
		delete(s.m, k)
		if l.released != nil {
			close(l.released)
		}
	}
	s.mu.Unlock()
}
