package engine

// Multi-version row storage. Each clustered key maps to a versionChain:
// the committed row versions in commit-timestamp order. A committed write
// adds a (commitTS, value) version instead of overwriting in place, so
// read-only transactions can read the newest version at or below their
// snapshot timestamp without touching the lock table (writers keep strict
// 2PL; see readtx.go). A nil row marks a tombstone: the row was deleted at
// that timestamp.
//
// A version holds its row as the sqltypes.EncodeRow bytes the WAL frame
// and the snapshot file carry, in an allocation of its own that nothing
// ever writes to again: rows become []Value only where they leave the
// engine (Table.decodeLocked), and the strings and binaries of a decoded
// row point into these bytes.
//
// Chains are only ever mutated under the owning Table's mu write lock, and
// commit timestamps are strictly monotonic (db.Commit's sequencing stage),
// so versions within a chain have strictly ascending timestamps.

// rowVersion is one committed state of a row. row == nil is a tombstone.
type rowVersion struct {
	ts  int64
	row []byte
}

// versionChain holds the versions of one clustered key. The newest one —
// the only one most chains have, and the one nearly every read wants —
// sits in the chain itself, so a read reaches the row's bytes in two
// dependent loads (chain, bytes); the superseded versions that snapshots
// may still need are kept beside it, oldest first, until GC prunes them.
type versionChain struct {
	newest rowVersion
	older  []rowVersion
}

func newChain(ts int64, row []byte) *versionChain {
	return &versionChain{newest: rowVersion{ts: ts, row: row}}
}

// latestLive returns the newest version's row if it is not a tombstone.
func (c *versionChain) latestLive() ([]byte, bool) {
	return c.newest.row, c.newest.row != nil
}

// at returns the row visible to a snapshot pinned at ts: the newest
// version with version.ts <= ts. A tombstone or the absence of any such
// version means the key is invisible to the snapshot.
func (c *versionChain) at(ts int64) ([]byte, bool) {
	if c.newest.ts <= ts {
		return c.newest.row, c.newest.row != nil
	}
	for i := len(c.older) - 1; i >= 0; i-- {
		if c.older[i].ts <= ts {
			return c.older[i].row, c.older[i].row != nil
		}
	}
	return nil, false
}

// appendVersion adds a new newest version.
func (c *versionChain) appendVersion(ts int64, row []byte) {
	c.older = append(c.older, c.newest)
	c.newest = rowVersion{ts: ts, row: row}
}

// setLatestRow overwrites the newest version's row in place (tamper
// simulation and repair: edited storage creates no history).
func (c *versionChain) setLatestRow(row []byte) { c.newest.row = row }

// prune drops versions no snapshot at or after horizon can reach: every
// version older than the newest version with ts <= horizon. It returns the
// number of versions dropped and whether the whole chain is dead (reduced
// to a single tombstone at or below the horizon) and can be removed from
// the tree by the caller.
func (c *versionChain) prune(horizon int64) (dropped int, dead bool) {
	switch {
	case len(c.older) == 0:
	case c.newest.ts <= horizon:
		dropped, c.older = len(c.older), nil
	default:
		keep := -1
		for i := len(c.older) - 1; i >= 0; i-- {
			if c.older[i].ts <= horizon {
				keep = i
				break
			}
		}
		if keep > 0 {
			n := copy(c.older, c.older[keep:])
			clear(c.older[n:]) // or the backing array keeps the pruned rows reachable
			c.older = c.older[:n]
			dropped = keep
		}
	}
	dead = len(c.older) == 0 && c.newest.row == nil && c.newest.ts <= horizon
	return dropped, dead
}

// versionCount returns the number of versions in the chain.
func (c *versionChain) versionCount() int { return 1 + len(c.older) }
