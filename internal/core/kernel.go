// The verification kernel: the one place that recomputes ledger hashes.
//
// Ledger integrity is five invariants (§3.4.1) plus the ledger-view
// definitions, and this file is their only implementation: checkChain
// (invariants 1-3), checkRowVersions (invariant 4), checkIndexes and
// checkView (invariant 5 and the views). Verify, the Auditor's
// incremental, sampled and localisation passes, and the receipt builders
// are callers that pick parameters — block range, wanted transactions,
// snapshot, parallelism — and none of them hashes a row, an entry or a
// block, or rebuilds a Merkle root, itself. DESIGN.md decision 12 lists
// what each caller passes.
package core

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"sqlledger/internal/engine"
	"sqlledger/internal/merkle"
	"sqlledger/internal/serial"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// blockKey encodes a sys_ledger_blocks primary key.
func blockKey(b int64) []byte {
	return sqltypes.EncodeKey(nil, sqltypes.NewBigInt(b))
}

// closedBlock returns block id's sys_ledger_blocks row and its recomputed
// hash — the value a digest of that block must carry. A row that does not
// decode is reported as missing here; the chain walk names it.
func (db *DB) closedBlock(id int64) (sqltypes.Row, merkle.Hash, bool) {
	stored, ok := db.sysBlocks.LookupStored(blockKey(id))
	if !ok {
		return nil, merkle.ZeroHash, false
	}
	row, err := sysRow(nil, stored, sysBlocksSchema)
	if err != nil {
		return nil, merkle.ZeroHash, false
	}
	return row, blockHashOfRow(row), true
}

// --- (a) The chain: invariants 1-3 ---------------------------------------

// §3.4.2 states the first three invariants as queries over the system
// tables, and the walk below computes exactly their answers:
//
//  1. OPENJSON(digests) LEFT JOIN blocks ON block_id, comparing each
//     digest's hash with LEDGERHASH(block); a digest without a block is a
//     failure unless a truncation or a restore explains it.
//  2. blocks ORDER BY block_id with LAG, comparing each block's recorded
//     previous hash with LEDGERHASH(previous block); ids must be
//     consecutive from block 0 or the truncation point.
//  3. transactions GROUP BY block_id ORDER BY ordinal with COUNT and
//     MERKLETREEAGG(LEDGERHASH(transaction)), FULL JOIN blocks: every
//     block's recorded count and root must match its group, and every
//     group must have its block.
//
// One pass over the blocks in id order answers all three: the block row
// is hashed once, and that hash serves the digest comparison, the next
// block's link and the caller's watermark.

// chainCheck parameterises one chain walk.
type chainCheck struct {
	// blocks is the inclusive range to walk; nil walks every block. The
	// link of block From is still checked against block From-1.
	blocks *BlockRange
	// anchor, if set, is the hash of block From-1 the caller has already
	// verified; otherwise it is recomputed from that block's row when the
	// row exists.
	anchor *merkle.Hash
	// digests are checked against the blocks walked (invariant 1).
	digests []Digest
	// entries holds the transaction entries of every block to check, in
	// ordinal order: one sys_ledger_transactions scan for a full run
	// (entryStore.all), the block index for a delta (entryStore.ofBlock).
	entries map[uint64][]*wal.LedgerEntry
	// unreadable names, by block, the persisted entries that did not decode.
	unreadable      map[uint64]error
	truncatedBefore uint64
}

// chainResult reports what a walk covered.
type chainResult struct {
	blocks, digests int
	// through is the last block of the unbroken run, from the start of
	// the walk, of blocks that raised no finding (From-1, or -1, if the
	// first one did), and hash its recomputed hash: where a watermark may
	// advance to.
	through int64
	hash    merkle.Hash
}

// checkChain walks the closed blocks of a range in id order and checks,
// per block: every digest naming it carries its hash (invariant 1); it
// directly follows its predecessor and records that block's hash, with
// block 0 and the first block after a truncation starting a chain, and
// every block up to the chain head present (invariant 2); its transaction
// count, ordinals 0..n-1 and transactions root match its entries
// (invariant 3).
func (db *DB) checkChain(c chainCheck, emit emitFn) chainResult {
	db.closeMu.Lock()
	head := db.closedThrough
	db.closeMu.Unlock()

	res := chainResult{through: -1}
	clean, stopped := true, false
	report := func(inv int, block uint64, warning bool, format string, args ...any) {
		clean = false
		stopped = stopped || !emit(finding{invariant: inv, block: int64(block), warning: warning,
			detail: fmt.Sprintf(format, args...)})
	}

	type blockDigest struct {
		hash        merkle.Hash
		incarnation int64
	}
	pending := make(map[uint64][]blockDigest)
	for _, d := range c.digests {
		if !c.blocks.contains(d.BlockID) {
			continue
		}
		res.digests++
		if d.DatabaseName != db.opts.Name {
			report(1, d.BlockID, false, "digest for block %d names database %q, this is %q", d.BlockID, d.DatabaseName, db.opts.Name)
		} else if h, err := d.BlockHash(); err != nil {
			report(1, d.BlockID, false, "digest for block %d: %v", d.BlockID, err)
		} else {
			pending[d.BlockID] = append(pending[d.BlockID], blockDigest{h, d.Incarnation})
		}
	}

	// Collect the rows first, as stored bytes that are decoded here: a row
	// an attacker left undecodable is a finding, not a panic.
	type blockRow struct {
		key []byte
		row sqltypes.Row
		err error
	}
	var rows []blockRow
	collect := func(key, stored []byte) bool {
		r, err := sysRow(nil, stored, sysBlocksSchema)
		rows = append(rows, blockRow{key, r, err})
		return true
	}
	if c.blocks == nil {
		db.sysBlocks.ScanRangeStored(nil, nil, collect)
	} else if c.blocks.From <= math.MaxInt64 {
		lo := c.blocks.From
		if c.anchor == nil && lo > 0 {
			lo--
		}
		var end []byte
		if c.blocks.To < math.MaxInt64 {
			end = blockKey(int64(c.blocks.To) + 1)
		}
		db.sysBlocks.ScanRangeStored(blockKey(int64(lo)), end, collect)
	}

	var (
		prevID   uint64
		prevHash merkle.Hash
		havePrev bool
		prevBad  bool // the previous block's row does not decode: no hash to link to
		leaves   []merkle.Hash
	)
	if c.anchor != nil {
		prevID, prevHash, havePrev = c.blocks.From-1, *c.anchor, true
		res.through, res.hash = int64(prevID), prevHash
	}
	visited := make(map[uint64]bool, len(rows))
	maxPresent := int64(-1)
	for _, br := range rows {
		if stopped {
			return res
		}
		row := br.row
		if br.err != nil {
			b := prevID + 1 // where it sits in the walk, should its key not decode either
			if k, err := sqltypes.DecodeKey(br.key, []sqltypes.TypeID{sqltypes.TypeBigInt}); err == nil {
				b = uint64(k[0].Int())
			}
			if c.blocks.contains(b) {
				res.blocks++
				visited[b] = true
				maxPresent = max(maxPresent, int64(b))
				delete(pending, b)
				report(2, b, false, "block %s: its %s row does not decode: %v", keyName(br.key), sysBlocksName, br.err)
			}
			prevID, havePrev, prevBad = b, true, true
			continue
		}
		id := uint64(row[0].Int())
		h := blockHashOfRow(row)
		if !c.blocks.contains(id) {
			// Block From-1: only the link anchor, not itself checked.
			prevID, prevHash, havePrev, prevBad = id, h, true, false
			res.through, res.hash = int64(id), h
			continue
		}
		res.blocks++
		visited[id] = true
		maxPresent = max(maxPresent, int64(id))

		for _, d := range pending[id] {
			if d.hash != h {
				report(1, id, false, "digest hash mismatch for block %d: digest=%s computed=%s", id, d.hash, h)
			}
		}
		delete(pending, id)

		switch {
		case !havePrev && id == 0:
			if !bytes.Equal(row[1].Bytes, merkle.ZeroHash[:]) {
				report(2, id, false, "block 0 must have a null previous hash")
			}
		case !havePrev && id == c.truncatedBefore:
			// First block after a truncation: its recorded previous hash
			// points at a removed block and cannot be recomputed.
		case !havePrev && c.blocks == nil:
			report(2, id, false, "chain starts at block %d with no truncation record covering it", id)
		case !havePrev:
			if id > c.blocks.From {
				report(2, id, false, "block range [%d,%d] starts at block %d: earlier range blocks are missing", c.blocks.From, c.blocks.To, id)
			}
		case id != prevID+1:
			report(2, id, false, "block gap: %d follows %d", id, prevID)
		case prevBad:
		case !bytes.Equal(row[1].Bytes, prevHash[:]):
			report(2, id, false, "block %d previous-hash mismatch: recorded=%x computed-over-block-%d=%s", id, row[1].Bytes, prevID, prevHash)
		}

		if err := c.unreadable[id]; err != nil {
			report(3, id, false, "block %d: %v", id, err)
		}
		if es := c.entries[id]; len(es) == 0 {
			report(3, id, false, "block %d has no transactions in the system", id)
		} else {
			if int64(len(es)) != row[3].Int() {
				report(3, id, false, "block %d records %d transactions but %d are present", id, row[3].Int(), len(es))
			}
			var contiguous bool
			leaves, contiguous = entryLeaves(leaves[:0], es)
			if !contiguous {
				report(3, id, false, "block %d transaction ordinals are not contiguous", id)
			} else if root := merkle.RootOf(leaves); !bytes.Equal(row[2].Bytes, root[:]) {
				report(3, id, false, "block %d transactions root mismatch: recorded=%x computed=%s", id, row[2].Bytes, root)
			}
		}
		if clean {
			res.through, res.hash = int64(id), h
		}
		prevID, prevHash, havePrev, prevBad = id, h, true, false
	}

	// Presence up to the chain head: a closed block cannot vanish from
	// the tail any more than from the middle.
	next := int64(c.truncatedBefore)
	if c.blocks != nil {
		next = max(next, int64(c.blocks.From))
	}
	if havePrev {
		next = int64(prevID) + 1
	}
	last := head
	if c.blocks != nil && c.blocks.To < uint64(max(last, 0)) {
		last = int64(c.blocks.To)
	}
	if next >= 0 && next <= last {
		report(2, uint64(next), false, "closed block %d is missing from %s", next, sysBlocksName)
	}

	// Digests whose block the walk never met.
	for _, id := range sortedKeys(pending) {
		for _, d := range pending[id] {
			switch {
			case id < c.truncatedBefore:
				report(1, id, true, "digest for block %d predates ledger truncation (before_block=%d); not verifiable", id, c.truncatedBefore)
			case d.incarnation != db.Incarnation():
				report(1, id, true, "digest for block %d was issued for incarnation %d and points past the restore point", id, d.incarnation)
			default:
				report(1, id, false, "digest references block %d which is not present in the ledger", id)
			}
		}
	}

	// Transactions whose block is gone while a later block exists (later
	// transactions are still awaiting their block's close).
	var blockless []uint64
	for id := range c.entries {
		if !visited[id] && c.blocks.contains(id) && int64(id) <= maxPresent {
			blockless = append(blockless, id)
		}
	}
	slices.Sort(blockless)
	for _, id := range blockless {
		report(3, id, false, "transactions reference block %d which is not present", id)
	}
	return res
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// entryLeaves appends the leaves of a block's transactions tree — the
// hash of each entry, in the order given — to dst, and reports whether
// the entries' ordinals are exactly 0..n-1.
func entryLeaves(dst []merkle.Hash, es []*wal.LedgerEntry) ([]merkle.Hash, bool) {
	contiguous := true
	for i, e := range es {
		if e.Ordinal != uint32(i) {
			contiguous = false
		}
		dst = append(dst, entryHash(e))
	}
	return dst, contiguous
}

// provenLevel is the level of a block's transactions tree that proofs keep
// beside its leaves: one node per 16 entries, 2 bytes per entry.
const provenLevel = 4

// provenBlock is what proofs keep of a closed block, which never changes:
// the hashes of its entries and level provenLevel of its tree.
type provenBlock struct{ leaves, level []merkle.Hash }

// blockProofs proves the entries at ordinals of a closed block against its
// transactions root — the root receipts sign. The block's entries are
// hashed the first time a receipt proves one of them (or when a receipt
// closed the block) and kept, 34 bytes per entry for the blocks receipts
// touch; a proof then costs the 15 hashes of its run of 16 entries and one
// tree over the block's level-4 nodes, instead of a tree over every entry.
// A root the block did not record in sys_ledger_blocks is an error: a
// receipt must never sign one.
func (db *DB) blockProofs(block uint64, ordinals []uint64) (merkle.Hash, []merkle.Proof, error) {
	db.pmu.Lock()
	pb, kept := db.proven[block]
	db.pmu.Unlock()
	if !kept {
		es, err := db.entries.ofBlock(block)
		if err != nil {
			return merkle.ZeroHash, nil, err
		}
		pb.leaves, _ = entryLeaves(make([]merkle.Hash, 0, len(es)), es)
		pb.level = merkle.LevelOf(pb.leaves, provenLevel)
	}
	root, proofs, err := merkle.BuildProofsAt(pb.leaves, pb.level, provenLevel, ordinals)
	if err != nil {
		return merkle.ZeroHash, nil, err
	}
	if row, _, ok := db.closedBlock(int64(block)); !ok || !bytes.Equal(row[2].Bytes, root[:]) {
		return merkle.ZeroHash, nil, fmt.Errorf("core: block %d: its entries do not rebuild the transactions root it recorded", block)
	}
	if !kept {
		db.keepProven(block, pb)
	}
	return root, proofs, nil
}

func (db *DB) keepProven(block uint64, pb provenBlock) {
	db.pmu.Lock()
	db.proven[block] = pb
	db.pmu.Unlock()
}

// --- (b) Row versions: invariant 4 ----------------------------------------

// Invariant 4 runs over stored bytes. A scan task takes each visible
// version's sqltypes.EncodeRow bytes from the engine (ScanRangeStored: no
// table lock is held while it works) and walks them once
// (serial.Layout.Walk): the walk reads the hidden columns, which name the
// transactions that made and ended the version, and serializes the
// version's insert side and, for a history row, its delete side, which are
// hashed for the transactions this pass wants — no row is decoded. What
// is still decoded: in checkIndexes, the indexed columns of every base row.

// rowLeaf is one recomputed row-version hash: a leaf of the Merkle tree
// the wanted transaction in slot built for the table. It holds no pointer,
// so a scan's leaves are allocations the collector never looks into.
type rowLeaf struct {
	slot int32
	seq  uint64
	hash merkle.Hash
}

// What a row-version pass is told about a transaction id: one of the two
// codes below, or — zero and up — that the pass wants the transaction's
// row versions hashed, and its slot: its index among the wanted ones.
const (
	txUnknown  int32 = -1 // no ledger entry records it
	txRecorded int32 = -2 // recorded, but not this pass's business
)

// txSlots maps transaction ids to their code or slot. Transaction ids are
// handed out consecutively, so the map is a table indexed by id — a scan
// asks once or twice per row version. The recorded ids come from a system
// table an attacker can edit, so the table's size is bounded by their
// number, and an id beyond it goes in a Go map.
type txSlots struct {
	base   uint64
	dense  []int32
	sparse map[uint64]int32
	other  int32 // of every id not told about
	wanted int32
	known  int // how many ids it was told were recorded
}

// newTxSlots starts a map in which the ids of recorded are txRecorded and
// every other id is other.
func newTxSlots(recorded []uint64, other int32) *txSlots {
	s := &txSlots{other: other, sparse: make(map[uint64]int32), known: len(recorded)}
	if len(recorded) > 0 {
		s.base = slices.Min(recorded)
		s.dense = make([]int32, min(slices.Max(recorded)-s.base, uint64(16*len(recorded)+4096))+1)
		for i := range s.dense {
			s.dense[i] = other
		}
	}
	for _, tx := range recorded {
		s.set(tx, txRecorded)
	}
	return s
}

func (s *txSlots) set(tx uint64, v int32) {
	if i := tx - s.base; i < uint64(len(s.dense)) {
		s.dense[i] = v
	} else {
		s.sparse[tx] = v
	}
}

// want gives tx the next slot.
func (s *txSlots) want(tx uint64) {
	s.set(tx, s.wanted)
	s.wanted++
}

// share is the part of the recorded transactions a pass over s wants. A
// map told of the wanted ones only — whose other is txRecorded — does not
// know it, and says 0: its pass (the auditor localizing a block) wants few.
func (s *txSlots) share() float64 {
	if s.other == txRecorded {
		return 0
	}
	return float64(s.wanted) / float64(max(s.known, 1))
}

func (s *txSlots) of(tx uint64) int32 {
	if i := tx - s.base; i < uint64(len(s.dense)) {
		return s.dense[i]
	}
	if v, ok := s.sparse[tx]; ok {
		return v
	}
	return s.other
}

// rowCheck parameterises one pass over a ledger table's row versions.
type rowCheck struct {
	// rtx is the pinned snapshot every shard reads: base and history are
	// seen at one cut, so a concurrent writer cannot move a row between
	// the two scans.
	rtx *engine.ReadTx
	// slots says what to do with a row version of a transaction: rows of
	// wanted transactions are hashed, rows of txUnknown ones are flagged,
	// and every other row costs its hidden columns and this one lookup.
	slots *txSlots
	// entries are the transactions whose recorded roots checkRowVersions
	// compares: entries[i] is the transaction in slot i.
	entries                         []*wal.LedgerEntry
	truncatedBefore, truncatedMaxTx uint64
	keys                            bool // keep clustered keys, to name a row
	parallelism                     int
	pool                            *workerPool
	prog                            *progressSink
	weight                          float64
}

// wantEntries sets c.entries, and wants exactly them.
func (c *rowCheck) wantEntries(entries []*wal.LedgerEntry) {
	c.entries = entries
	for _, e := range entries {
		c.slots.want(e.TxID)
	}
}

// rowVersions is what a scan found in one ledger table.
type rowVersions struct {
	// leaves are the wanted transactions' row versions. A scan task
	// appends them in scan order; joined, they are grouped by slot, the
	// run of slot s being leaves[bounds[s]:bounds[s+1]].
	leaves []rowLeaf
	bounds []uint32
	// keys names the row of each leaf, when rowCheck.keys asked for it.
	keys []leafKey
	// orphans are the unrecorded transactions some row version references.
	orphans []uint64
	// bad reports the rows whose stored bytes are not a row of the table.
	bad  []finding
	rows int
}

type leafKey struct {
	slot int32
	key  []byte
}

// of returns the leaves of the transaction in slot s, in scan order.
func (rv *rowVersions) of(s int32) []rowLeaf { return rv.leaves[rv.bounds[s]:rv.bounds[s+1]] }

// treeOf puts one transaction's leaves in commit sequence order and
// returns their hashes (appended to buf) and Merkle root. Scan order is
// arbitrary; the hash tiebreak keeps the root deterministic even for
// (tampered) duplicate sequence numbers.
func treeOf(buf []merkle.Hash, run []rowLeaf) ([]merkle.Hash, merkle.Hash) {
	slices.SortFunc(run, func(a, b rowLeaf) int {
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return bytes.Compare(a.hash[:], b.hash[:])
	})
	for i := range run {
		buf = append(buf, run[i].hash)
	}
	return buf, merkle.RootOf(buf)
}

// version is what one walk of a stored version of a ledger table reads:
// the transaction and sequence number that made it and, for a history row,
// ended it, and the serializations of the leaves it is — an insert by the
// first transaction and a delete by the second — when the walk was asked
// for them.
type version struct {
	hidden   [4]int64
	ins, del []byte
}

func (v *version) startTx() uint64  { return uint64(v.hidden[0]) }
func (v *version) startSeq() uint64 { return uint64(v.hidden[1]) }
func (v *version) endTx() uint64    { return uint64(v.hidden[2]) }
func (v *version) endSeq() uint64   { return uint64(v.hidden[3]) }

// walk reads stored, a version of lt (of its history table if history),
// into v with serial.Layout.Walk, serializing its insert side if ins and
// its delete side if del.
func (lt *LedgerTable) walk(v *version, layout *serial.Layout, stored []byte, history, ins, del bool) (err, serr error) {
	ords := [4]int{lt.startTxOrd, lt.startSeqOrd, lt.endTxOrd, lt.endSeqOrd}
	n := 2
	if history {
		n = 4
	}
	var insp, delp *[]byte
	if ins {
		v.ins, insp = v.ins[:0], &v.ins
	}
	if del && history {
		v.del, delp = v.del[:0], &v.del
	}
	return layout.Walk(stored, ords[:n], v.hidden[:n], serial.OpInsert, lt.skipEnd, insp, delp)
}

// frameTree rebuilds the Merkle tree transaction txID committed to for lt —
// its leaves in sequence order, and its root — from recs, the records of
// the frame that logged the transaction's DML, with no table scan. The
// frame holds an image of every version the transaction made or ended:
// each history row it inserted is the version it ended (and made too, if
// it did), and per base key the last image it logged is the version it
// left there. engine.Tx.write logs every write, so a key written twice has
// an earlier image too; that version moved to the history table within
// the transaction, and its history row covers it.
func (lt *LedgerTable) frameTree(txID uint64, recs []wal.Record) ([]merkle.Hash, merkle.Hash, error) {
	sh := lt.shape.Load()
	var (
		run []rowLeaf
		v   version
	)
	hash := func(stored []byte, history bool) error {
		err, serr := lt.walk(&v, sh.layout, stored, history, true, true)
		start, end := v.startTx() == txID, history && v.endTx() == txID
		if err == nil && (start || end) {
			err = serr
		}
		if err == nil && start {
			run = append(run, rowLeaf{seq: v.startSeq(), hash: merkle.HashLeaf(v.ins)})
		}
		if err == nil && end {
			run = append(run, rowLeaf{seq: v.endSeq(), hash: merkle.HashLeaf(v.del)})
		}
		return err
	}
	last := make(map[string][]byte) // base key → image, nil for a delete
	for _, r := range recs {
		if r.Type != wal.RecInsert && r.Type != wal.RecUpdate && r.Type != wal.RecDelete {
			continue
		}
		m, err := wal.DecodeDMLImage(r.Type, r.Payload)
		switch {
		case err != nil:
		case m.TableID == lt.table.ID():
			var key []byte
			key, err = lt.table.LoggedKey(r.Type, m.Key, m.After)
			last[string(key)] = m.After
		case lt.history != nil && m.TableID == lt.history.ID() && m.After != nil:
			err = hash(m.After, true)
		}
		if err != nil {
			return nil, merkle.ZeroHash, err
		}
	}
	for _, after := range last {
		if after != nil {
			if err := hash(after, false); err != nil {
				return nil, merkle.ZeroHash, err
			}
		}
	}
	leaves, root := treeOf(nil, run)
	return leaves, root, nil
}

// rowHashingHook, when a test sets it, runs in every scan task before it
// looks at a row version: the stage in which it holds no lock.
var rowHashingHook func()

// scanRowVersions re-hashes a ledger table's row versions at the pinned
// snapshot and groups them by transaction: a base row is an insert by its
// start transaction; a history row is an insert by its start transaction
// and a delete by its end transaction. The base and history trees are
// split into ~parallelism contiguous key ranges hashed on the pool, so
// one large table keeps every core busy; each task appends to a slice of
// its own, and one counting sort by slot joins the slices.
//
// A pass that wants at least half the recorded transactions reads each
// version in one walk that also serializes its sides. One that wants fewer
// (a sampled audit, a short block range, a localized block) walks to the
// hidden columns only, and once more for the wanted sides of a version it
// wants: serializing every version would cost it more.
func (db *DB) scanRowVersions(lt *LedgerTable, c rowCheck, weight float64) *rowVersions {
	var (
		tasks []func()
		parts []*rowVersions
	)
	// History rows are hashed as rows of the ledger table, which they were
	// when their hashes were recorded: one layout serves both scans.
	layout := serial.NewLayout(lt.table.Columns())
	share := c.slots.share()
	eager := share >= 0.5
	addScans := func(t *engine.Table, history bool) {
		// A task expects its range's share of the table's rows, times the
		// sides of a row, times the share of the transactions wanted.
		ranges, sides := t.ScanShards(c.parallelism), 1.0
		if history {
			sides = 2
		}
		expect := int(float64(t.RowCount()/len(ranges)+1) * sides * share)
		for _, kr := range ranges {
			part := &rowVersions{}
			parts = append(parts, part)
			// add keeps one side of the version stored under k if this pass
			// wants its transaction, and reports whether to go on to the
			// next side. excused: a history row's insert side may
			// legitimately reference a truncated transaction — the row
			// stays covered by the surviving deleting transaction's root
			// (§5.2).
			add := func(k []byte, slot int32, tx, seq uint64, leaf []byte, serr error, excused bool) bool {
				if slot < 0 {
					if slot == txUnknown && !excused {
						part.orphans = append(part.orphans, tx)
					}
					return true
				}
				if serr != nil {
					part.bad = append(part.bad, badRow(lt, t, k, serr))
					return false
				}
				part.leaves = append(part.leaves, rowLeaf{slot: slot, seq: seq, hash: merkle.HashLeaf(leaf)})
				if c.keys {
					part.keys = append(part.keys, leafKey{slot, k})
				}
				return true
			}
			tasks = append(tasks, func() {
				part.leaves = make([]rowLeaf, 0, expect)
				var v version
				_ = c.rtx.ScanRangeStored(t, kr.Start, kr.End, func(k, stored []byte) bool {
					if rowHashingHook != nil {
						rowHashingHook()
					}
					part.rows++
					err, serr := lt.walk(&v, layout, stored, history, eager, eager)
					if err != nil {
						part.bad = append(part.bad, badRow(lt, t, k, err))
						return true
					}
					start, end := c.slots.of(v.startTx()), txRecorded
					if history {
						end = c.slots.of(v.endTx())
					}
					if !eager && (start >= 0 || end >= 0) {
						_, serr = lt.walk(&v, layout, stored, history, start >= 0, end >= 0)
					}
					if add(k, start, v.startTx(), v.startSeq(), v.ins, serr, history && v.startTx() <= c.truncatedMaxTx) && history {
						add(k, end, v.endTx(), v.endSeq(), v.del, serr, false)
					}
					return true
				})
			})
		}
	}
	addScans(lt.table, false)
	if lt.history != nil {
		addScans(lt.history, true)
	}
	c.pool.run(wrapProgress(tasks, c.prog, weight, "row_versions", lt.Name()))

	// Join the parts, the leaves by a counting sort on their slots: count
	// each slot's leaves two places up, sum the counts so that bounds[s+1]
	// is where the run of slot s starts, and move every leaf to the next
	// free place of its run — which leaves bounds[s+1] at the run's end,
	// where the next one starts.
	rv := &rowVersions{bounds: make([]uint32, c.slots.wanted+2)}
	total := 0
	for _, p := range parts {
		total += len(p.leaves)
		for i := range p.leaves {
			rv.bounds[p.leaves[i].slot+2]++
		}
		rv.keys = append(rv.keys, p.keys...)
		rv.orphans = append(rv.orphans, p.orphans...)
		rv.bad = append(rv.bad, p.bad...)
		rv.rows += p.rows
	}
	for s := 2; s < len(rv.bounds); s++ {
		rv.bounds[s] += rv.bounds[s-1]
	}
	rv.leaves = make([]rowLeaf, total)
	for _, p := range parts {
		for i := range p.leaves {
			at := &rv.bounds[p.leaves[i].slot+1]
			rv.leaves[*at] = p.leaves[i]
			*at++
		}
	}
	slices.Sort(rv.orphans)
	rv.orphans = slices.Compact(rv.orphans)
	return rv
}

// badRow is the finding for a stored version of lt, under key k of t,
// whose bytes are not a row of the table. Every value written passed
// Schema.Validate and every byte loaded passed sqltypes.CheckRow.
func badRow(lt *LedgerTable, t *engine.Table, k []byte, err error) finding {
	return finding{invariant: 4, block: -1, table: t.Name(),
		detail: fmt.Sprintf("stored row %s is not a row of the table: %v", lt.keyString(k), err)}
}

// recordedRoot returns the root e recorded for a table.
func recordedRoot(e *wal.LedgerEntry, tableID uint32) (merkle.Hash, bool) {
	for i := range e.Roots {
		if e.Roots[i].TableID == tableID {
			return e.Roots[i].Root, true
		}
	}
	return merkle.ZeroHash, false
}

// checkRowVersions checks invariant 4 for one ledger table: every row
// version belongs to a recorded transaction, and for each entry given,
// the Merkle root recomputed over the row versions it created and deleted
// (in sequence order) is the root it recorded — which also means an entry
// that recorded a root still has rows, and rows imply a recorded root.
// The root recomputation fans back out over the pool in contiguous
// chunks of entries. Returns the number of rows scanned.
func (db *DB) checkRowVersions(lt *LedgerTable, c rowCheck, emit emitFn) int {
	name := lt.Name()
	// Shard scans carry most of a table's row-version cost; the root
	// recomputation below gets the rest.
	rv := db.scanRowVersions(lt, c, c.weight*0.7)
	rows := rv.rows
	for _, f := range rv.bad {
		if !emit(f) {
			return rows
		}
	}
	for _, tx := range rv.orphans {
		if !emit(finding{invariant: 4, block: -1, tx: tx, table: name,
			detail: fmt.Sprintf("row versions reference transaction %d which is not recorded in the ledger", tx)}) {
			return rows
		}
	}

	n := max(1, min(c.parallelism, len(c.entries)))
	found := make([][]finding, n)
	tasks := make([]func(), n)
	for ci := range tasks {
		lo, hi := ci*len(c.entries)/n, (ci+1)*len(c.entries)/n
		tasks[ci] = func() {
			var buf []merkle.Hash
			for slot := lo; slot < hi; slot++ {
				e := c.entries[slot]
				f := finding{invariant: 4, block: int64(e.BlockID), tx: e.TxID, table: name}
				recorded, has := recordedRoot(e, lt.ID())
				run := rv.of(int32(slot))
				switch {
				case len(run) == 0:
					// Rows below a truncation point were legitimately
					// removed with their blocks.
					if !has || e.BlockID < c.truncatedBefore {
						continue
					}
					f.detail = fmt.Sprintf("transaction %d recorded updates to this table but no row versions remain", e.TxID)
				case !has:
					f.detail = fmt.Sprintf("transaction %d has row versions in this table but no recorded Merkle root for it", e.TxID)
				default:
					var got merkle.Hash
					if buf, got = treeOf(buf[:0], run); got == recorded {
						continue
					}
					f.detail = fmt.Sprintf("transaction %d Merkle root mismatch: recorded=%s computed=%s", e.TxID, recorded, got)
					if ki := slices.IndexFunc(rv.keys, func(k leafKey) bool { return int(k.slot) == slot }); len(run) == 1 && ki >= 0 {
						f.key = lt.keyString(rv.keys[ki].key)
					}
				}
				found[ci] = append(found[ci], f)
			}
		}
	}
	c.pool.run(wrapProgress(tasks, c.prog, c.weight*0.3, "row_versions", name))
	for _, fs := range found {
		for _, f := range fs {
			if !emit(f) {
				return rows
			}
		}
	}
	return rows
}

// keyString renders a clustered key for a finding: decoded primary-key
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

// --- (c) Indexes and views: invariant 5 -----------------------------------

// checkIndexes checks invariant 5: every nonclustered index of the ledger
// table and its history table must be equivalent to the base data.
//
// The detector is a multiset comparison of (entry key, clustered key)
// pairs: each index is shard-scanned into a mergeable order-independent
// accumulator (merkle.Accumulator) with an explicit ascending-order check
// per shard, while ONE sharded pass over the base table recomputes every
// index's entry key per row and feeds per-index accumulators — O(rows)
// time and O(1) memory per index, no sort, no per-index base re-scan.
// Only once the accumulators disagree does diffIndex, which materialises
// the whole mapping, run to name a divergent entry.
//
// Index trees are not versioned, so both sides read the latest committed
// state rather than a snapshot: a run racing a writer can see a transient
// difference (the Auditor re-checks before it reports one). Returns the
// number of indexes checked.
func (db *DB) checkIndexes(lt *LedgerTable, parallelism int, pool *workerPool, prog *progressSink, weight float64, emit emitFn) int {
	tables := []*engine.Table{lt.table}
	if lt.history != nil {
		tables = append(tables, lt.history)
	}
	perTable := weight / float64(len(tables))
	checked := 0
	for _, t := range tables {
		t := t
		ixs := t.Indexes()
		if len(ixs) == 0 {
			prog.add(perTable, "indexes", t.Name())
			continue
		}
		checked += len(ixs)

		// Per index: what the index holds, what the base rows say it
		// should hold, and whether its entries ascend. Shard tasks merge
		// their private accumulators in under mu.
		var mu sync.Mutex
		actual := make([]merkle.Accumulator, len(ixs))
		expected := make([]merkle.Accumulator, len(ixs))
		disordered := make([]bool, len(ixs))
		var tasks []func()
		for ixi, ix := range ixs {
			for _, kr := range t.ScanIndexShards(ix, parallelism) {
				ixi, ix, kr := ixi, ix, kr
				tasks = append(tasks, func() {
					var acc merkle.Accumulator
					var prev []byte
					ordered := true
					t.ScanIndexRange(ix, kr.Start, kr.End, func(entryKey, clusteredKey []byte) bool {
						if prev != nil && bytes.Compare(prev, entryKey) > 0 {
							ordered = false
						}
						prev = append(prev[:0], entryKey...)
						acc.Add(serial.HashBytes(entryKey, clusteredKey))
						return true
					})
					mu.Lock()
					actual[ixi].Merge(acc)
					disordered[ixi] = disordered[ixi] || !ordered
					mu.Unlock()
				})
			}
		}
		cols := t.Columns()
		for _, kr := range t.ScanShards(parallelism) {
			kr := kr
			tasks = append(tasks, func() {
				accs := make([]merkle.Accumulator, len(ixs))
				var ek []byte
				t.ScanRangeStored(kr.Start, kr.End, func(ck, stored []byte) bool {
					for ixi, ix := range ixs {
						// A row that does not decode is invariant 4's
						// finding; here it has no entry to expect.
						var err error
						if ek, err = ix.EntryKeyStored(ek[:0], ck, stored, cols); err == nil {
							accs[ixi].Add(serial.HashBytes(ek, ck))
						}
					}
					return true
				})
				mu.Lock()
				for ixi := range accs {
					expected[ixi].Merge(accs[ixi])
				}
				mu.Unlock()
			})
		}
		pool.run(wrapProgress(tasks, prog, perTable, "indexes", t.Name()))

		for ixi, ix := range ixs {
			f := finding{invariant: 5, block: -1, table: t.Name()}
			// Shard ranges are disjoint and ascending, so per-shard
			// ordering implies whole-index ordering — the property the
			// order-independent accumulator itself cannot observe.
			if disordered[ixi] {
				f.detail = fmt.Sprintf("nonclustered index %s entries are out of order", ix.Meta().Name)
				if !emit(f) {
					return checked
				}
			}
			if !actual[ixi].Equal(expected[ixi]) {
				f.detail = fmt.Sprintf("nonclustered index %s is not equivalent to the base table data", ix.Meta().Name)
				f.key = diffIndex(t, ix)
				if !emit(f) {
					return checked
				}
			}
		}
	}
	return checked
}

// diffIndex localises an index divergence the accumulators detected: it
// compares the index's (entry key → clustered key) mapping with the one
// recomputed from the base rows and returns the hex entry key of the
// first entry (in entry-key order) that no base row produces or that
// points at the wrong row, else of the smallest entry the index is
// missing; "" when the two agree (the divergence was transient).
func diffIndex(t *engine.Table, ix *engine.Index) string {
	expected := make(map[string]string)
	cols := t.Columns()
	t.ScanRangeStored(nil, nil, func(ck, stored []byte) bool {
		if ek, err := ix.EntryKeyStored(nil, ck, stored, cols); err == nil {
			expected[string(ek)] = string(ck)
		}
		return true
	})
	var bad string
	t.ScanIndex(ix, func(entryKey, ck []byte) bool {
		if want, ok := expected[string(entryKey)]; !ok || want != string(ck) {
			bad = hex.EncodeToString(entryKey)
			return false
		}
		delete(expected, string(entryKey))
		return true
	})
	if bad != "" || len(expected) == 0 {
		return bad
	}
	missing := ""
	for k := range expected {
		if missing == "" || k < missing {
			missing = k
		}
	}
	return hex.EncodeToString([]byte(missing))
}

// checkView checks the final step of §3.4.2: the table's stored
// ledger-view definition must be its canonical derivation.
func (db *DB) checkView(lt *LedgerTable, emit emitFn) {
	f := finding{block: -1, table: lt.Name()}
	def, ok, err := db.viewDefinition(lt.ID())
	switch {
	case err != nil:
		f.detail = err.Error()
	case !ok:
		f.detail = "ledger view definition is missing"
	case def != lt.canonicalViewDefinition():
		f.detail = "ledger view definition has been altered"
	default:
		return
	}
	emit(f)
}
