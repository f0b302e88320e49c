package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
	"sqlledger/internal/wal"
)

// The ledger-entry store (§3.3.2, DESIGN.md decision 3). The
// transaction entries live in two places: the in-memory queue the commit
// path appends to, and sys_ledger_transactions, which the queue is drained
// into at checkpoint. entryStore is the only code that touches either, and
// it hands out the (block, ordinal) positions too.
//
// Read order. Every read takes its snapshot of the queue under mu first and
// reads the table second. A drain inserts every queued entry into the table
// before it clears the queue, all under mu, so an entry committed before a
// read began is in the snapshot, in the table, or in both (and is kept
// once) — never in neither, whenever the drain runs.
//
// Layout (decision 3). A queued entry is a record in a chunked array and
// its roots are in another; growing them copies nothing, and nothing once
// written changes, so a reader copies the arrays' headers under mu (a
// queueView) and reads without it. The entries the store hands out alias
// the roots array: their Roots are read-only.

var sysTxSchema = sqltypes.MustSchema([]sqltypes.Column{
	sqltypes.Col("transaction_id", sqltypes.TypeBigInt),
	sqltypes.Col("block_id", sqltypes.TypeBigInt),
	sqltypes.Col("ordinal_in_block", sqltypes.TypeBigInt),
	sqltypes.Col("commit_ts", sqltypes.TypeDateTime),
	sqltypes.Col("principal", sqltypes.TypeNVarChar),
	sqltypes.Col("table_hashes", sqltypes.TypeVarBinary),
}, "transaction_id")

// Chunk c of a chunked array holds minChunk<<c elements up to chunkLen,
// so that a short queue stays small and a long one grows 48 KiB of records
// or 72 KiB of roots at a time.
const (
	minChunk   = 64
	rampChunks = 5 // the chunks shorter than chunkLen
	chunkLen   = minChunk << rampChunks
	rampLen    = chunkLen - minChunk // the elements they hold
)

// chunks is an append-only array whose chunks are never copied or moved.
type chunks[T any] struct {
	c [][]T // each allocated at full length
	n int
}

// locate returns the chunk and offset of element i.
func locate(i int) (c, off int) {
	if i < rampLen {
		c = bits.Len(uint(i/minChunk+1)) - 1
		return c, i - (minChunk<<c - minChunk)
	}
	return rampChunks + (i-rampLen)/chunkLen, (i - rampLen) % chunkLen
}

func (a *chunks[T]) push(v T) {
	c, off := locate(a.n)
	if off == 0 {
		a.c = append(a.c, make([]T, minChunk<<min(c, rampChunks)))
	}
	a.c[c][off] = v
	a.n++
}

func (a *chunks[T]) at(i int) *T {
	c, off := locate(i)
	return &a.c[c][off]
}

// span returns elements [lo, hi): an alias when one chunk holds them all,
// a copy when they straddle two.
func (a *chunks[T]) span(lo, hi int) []T {
	if lo == hi {
		return nil
	}
	if c, off := locate(lo); off+hi-lo <= len(a.c[c]) {
		return a.c[c][off : off+hi-lo : off+hi-lo]
	}
	var out []T
	for i := lo; i < hi; i++ {
		out = append(out, *a.at(i))
	}
	return out
}

// entryRec is a queued entry but its position, which the run table gives.
// Its roots run from root to the next record's.
type entryRec struct {
	txID     uint64
	commitTS int64
	root     uint32 // the index of its first root
	user     uint32 // the index of its user's name
}

// entryRun is a run of records in one block at consecutive ordinals.
type entryRun struct {
	block uint64
	first uint32 // the index of its first record
	ord   uint32 // that record's ordinal
}

// queueView is the queue. The store appends to its own in place; a copy
// sees the queue as it was when taken.
type queueView struct {
	recs  chunks[entryRec]
	roots chunks[wal.TableRoot]
	runs  []entryRun
	users []string
}

// entryStore is the database's ledger entries.
type entryStore struct {
	edb     *engine.DB
	table   *engine.Table // sys_ledger_transactions
	byBlock *engine.Index // its block_id index
	size    uint32        // transactions per block

	mu     sync.Mutex
	q      queueView         // in (block, ordinal) order
	userOf map[string]uint32 // the index of each name in q.users
	block  uint64            // the open block
	ord    uint32            // the next ordinal in it
}

// newEntryStore opens the store over table, sys_ledger_transactions,
// creating its block index the first time.
func newEntryStore(edb *engine.DB, table *engine.Table, size uint32) (*entryStore, error) {
	s := &entryStore{edb: edb, table: table, size: size}
	s.reset()
	for _, ix := range table.Indexes() {
		if ix.Meta().Name == sysTxBlockIndex {
			s.byBlock = ix
			return s, nil
		}
	}
	var err error
	s.byBlock, err = edb.CreateIndex(sysTxName, sysTxBlockIndex, "block_id")
	return s, err
}

// assign runs inside the engine's commit critical section: it places the
// transaction at the next (block, ordinal), queues its entry and returns
// it for the COMMIT record, with the caller's roots. Nothing else happens
// here — blocks are closed off the commit path.
func (s *entryStore) assign(txID uint64, commitTS int64, user string, roots []wal.TableRoot) wal.LedgerEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ord >= s.size {
		s.block++
		s.ord = 0
	}
	e := wal.LedgerEntry{TxID: txID, BlockID: s.block, Ordinal: s.ord, CommitTS: commitTS, User: user, Roots: roots}
	s.push(&e)
	s.ord++
	return e
}

// push queues e, whose position must follow the last queued entry's.
// Caller holds mu.
func (s *entryStore) push(e *wal.LedgerEntry) {
	q := &s.q
	if r := len(q.runs) - 1; r < 0 || q.runs[r].block != e.BlockID || q.runs[r].ord+uint32(q.recs.n)-q.runs[r].first != e.Ordinal {
		q.runs = append(q.runs, entryRun{block: e.BlockID, first: uint32(q.recs.n), ord: e.Ordinal})
	}
	u, ok := s.userOf[e.User]
	if !ok {
		u = uint32(len(q.users))
		q.users = append(q.users, e.User)
		s.userOf[e.User] = u
	}
	q.recs.push(entryRec{txID: e.TxID, commitTS: e.CommitTS, root: uint32(q.roots.n), user: u})
	for _, r := range e.Roots {
		q.roots.push(r)
	}
}

// reset empties the queue into new arrays: a view may still read the old.
func (s *entryStore) reset() { s.q, s.userOf = queueView{}, make(map[string]uint32) }

// at builds entry i.
func (q *queueView) at(i int) wal.LedgerEntry {
	r := q.recs.at(i)
	run := q.runs[sort.Search(len(q.runs), func(j int) bool { return int(q.runs[j].first) > i })-1]
	end := q.roots.n
	if i+1 < q.recs.n {
		end = int(q.recs.at(i + 1).root)
	}
	return wal.LedgerEntry{TxID: r.txID, BlockID: run.block, Ordinal: run.ord + uint32(i) - run.first,
		CommitTS: r.commitTS, User: q.users[r.user], Roots: q.roots.span(int(r.root), end)}
}

// entries builds entries [lo, hi) in one slab.
func (q *queueView) entries(lo, hi int) []*wal.LedgerEntry {
	slab, out := make([]wal.LedgerEntry, hi-lo), make([]*wal.LedgerEntry, hi-lo)
	for i := range slab {
		slab[i] = q.at(lo + i)
		out[i] = &slab[i]
	}
	return out
}

// seal ends the open block if it holds a transaction, so the next commit
// starts a new one, and returns the last block that may now be closed: the
// one before the open block, -1 if there is none.
func (s *entryStore) seal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ord > 0 {
		s.block++
		s.ord = 0
	}
	return int64(s.block) - 1
}

// drain persists the queue into sys_ledger_transactions and empties it.
// The engine calls it under full quiescence just before a snapshot: the
// inserts bypass the WAL because the snapshot persists them, and recovery
// from an older snapshot re-queues them from COMMIT records (restore).
func (s *entryStore) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.q.entries(0, s.q.recs.n) {
		// The only possible failure is a duplicate from a re-drain, which
		// is harmless.
		_, _ = s.edb.DirectInsert(s.table, entryToRow(e))
	}
	s.reset()
}

// restore rebuilds the store after recovery: the replayed entries the table
// lacks go back on the queue in commit order, and the next position is one
// past the highest assigned anywhere, in a block after closedThrough. The
// table's highest position is in the block the last entry of the block
// index names, so only that block's rows are read.
func (s *entryStore) restore(recovered []*wal.LedgerEntry, closedThrough int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range recovered {
		if !s.table.Has(txKey(e.TxID)) {
			s.push(e)
		}
	}
	s.block, s.ord = uint64(closedThrough+1), 0
	after := func(b uint64, o uint32) {
		if o++; o >= s.size {
			b, o = b+1, 0
		}
		if b > s.block || (b == s.block && o > s.ord) {
			s.block, s.ord = b, o
		}
	}
	if last, ok := s.table.LastIndexEntry(s.byBlock); ok {
		k, err := sqltypes.DecodeKey(last, []sqltypes.TypeID{sqltypes.TypeBigInt, sqltypes.TypeBigInt})
		if err != nil {
			return fmt.Errorf("core: the last entry of %s does not decode: %w", sysTxBlockIndex, err)
		}
		s.table.LookupIndexPrefix(s.byBlock, k[:1], func(_ []byte, r sqltypes.Row) bool {
			after(uint64(r[1].Int()), uint32(r[2].Int()))
			return true
		})
	}
	if n := s.q.recs.n; n > 0 {
		e := s.q.at(n - 1) // the queue is in position order
		after(e.BlockID, e.Ordinal)
	}
	return nil
}

// dropBefore deletes the entries of every block below before, from the
// queue and from the table: ledger truncation's system-table surgery (§5.2).
// It reads the table under mu, so that no drain moves an entry between the
// two, and deletes nothing if a persisted entry is no row.
func (s *entryStore) dropBefore(before uint64) error {
	var keys [][]byte
	var errs []error
	s.mu.Lock()
	s.table.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
		switch e, err := entryOf(nil, key, stored); {
		case e == nil:
			errs = append(errs, err)
		case e.BlockID < before:
			keys = append(keys, bytes.Clone(key))
		}
		return true
	})
	if len(errs) > 0 {
		s.mu.Unlock()
		return errors.Join(errs...)
	}
	old := s.q
	s.reset()
	for _, e := range old.entries(0, old.recs.n) {
		if e.BlockID >= before {
			s.push(e)
		}
	}
	s.mu.Unlock()
	for _, k := range keys {
		if err := s.edb.TamperDeleteRow(s.table, k, true); err != nil {
			return err
		}
	}
	return nil
}

// --- Reads ---------------------------------------------------------------

// snapshot returns the queue as it is now: the first step of every read.
func (s *entryStore) snapshot() queueView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q
}

// position returns the open block, the next ordinal in it and the number
// of queued entries.
func (s *entryStore) position() (block uint64, ord uint32, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.block, s.ord, s.q.recs.n
}

// ofBlock returns the block's entries sorted by ordinal: its run of the
// queue, found by binary search, and its rows in the table, found through
// the block index. The error names each persisted entry that does not
// decode; one whose table_hashes do not parse is returned with no roots,
// one that is no row at all is left out.
func (s *entryStore) ofBlock(block uint64) ([]*wal.LedgerEntry, error) {
	q := s.snapshot()
	firstIn := func(b uint64) int {
		r := sort.Search(len(q.runs), func(j int) bool { return q.runs[j].block >= b })
		if r == len(q.runs) {
			return q.recs.n
		}
		return int(q.runs[r].first)
	}
	out := q.entries(firstIn(block), firstIn(block+1))
	queued := out
	var keys [][]byte
	start, end := engine.PrefixRange(sqltypes.NewBigInt(int64(block)))
	s.table.ScanIndexRange(s.byBlock, start, end, func(_, key []byte) bool {
		keys = append(keys, bytes.Clone(key))
		return true
	})
	var errs []error
	for _, key := range keys {
		stored, ok := s.table.LookupStored(key)
		if !ok {
			continue // index/base divergence: the block's count tells
		}
		e, err := entryOf(nil, key, stored)
		if e != nil {
			if slices.ContainsFunc(queued, func(x *wal.LedgerEntry) bool { return x.TxID == e.TxID }) {
				continue
			}
			out = append(out, e)
		}
		errs = append(errs, err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ordinal < out[j].Ordinal })
	return out, errors.Join(errs...)
}

// all returns every entry, keyed by transaction and grouped by block in
// ordinal order, and by block the error naming each persisted entry that
// does not decode: one whose table_hashes do not parse is in the maps with
// no roots, one that is no row at all is filed under the block its block
// index entry names.
func (s *entryStore) all() (byTx map[uint64]*wal.LedgerEntry, byBlock map[uint64][]*wal.LedgerEntry, unreadable map[uint64]error) {
	q := s.snapshot()
	byTx = make(map[uint64]*wal.LedgerEntry, q.recs.n+s.table.RowCount())
	for _, e := range q.entries(0, q.recs.n) {
		byTx[e.TxID] = e
	}
	unreadable = make(map[uint64]error)
	broken := make(map[string]error) // clustered key to error, of rows that are no row
	buf := make(sqltypes.Row, 0, len(sysTxSchema.Columns))
	s.table.ScanRangeStored(nil, nil, func(key, stored []byte) bool {
		e, err := entryOf(buf, key, stored)
		switch {
		case e == nil:
			broken[string(key)] = err
		case byTx[e.TxID] == nil:
			if err != nil {
				unreadable[e.BlockID] = errors.Join(unreadable[e.BlockID], err)
			}
			byTx[e.TxID] = e
		}
		return true
	})
	if len(broken) > 0 {
		s.table.ScanIndex(s.byBlock, func(ek, key []byte) bool {
			if err, ok := broken[string(key)]; ok {
				if k, kerr := sqltypes.DecodeKey(ek, []sqltypes.TypeID{sqltypes.TypeBigInt, sqltypes.TypeBigInt}); kerr == nil {
					b := uint64(k[0].Int())
					unreadable[b] = errors.Join(unreadable[b], err)
				}
			}
			return true
		})
	}
	// One slice sorted by (block, ordinal), cut where the block changes.
	sorted := make([]*wal.LedgerEntry, 0, len(byTx))
	for _, e := range byTx {
		sorted = append(sorted, e)
	}
	slices.SortFunc(sorted, func(a, b *wal.LedgerEntry) int {
		return cmp.Or(cmp.Compare(a.BlockID, b.BlockID), cmp.Compare(a.Ordinal, b.Ordinal), cmp.Compare(a.TxID, b.TxID))
	})
	byBlock = make(map[uint64][]*wal.LedgerEntry)
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].BlockID == sorted[0].BlockID {
			n++
		}
		byBlock[sorted[0].BlockID], sorted = sorted[:n:n], sorted[n:]
	}
	return byTx, byBlock, unreadable
}

// get fills in the entry of every transaction keyed in want, and fails on
// one that is not in the ledger or does not decode. A persisted entry is
// one primary-key lookup; the queued ones are found in one walk of the
// queue snapshot from its newest end, however many are asked for.
func (s *entryStore) get(want map[uint64]*wal.LedgerEntry) error {
	q := s.snapshot()
	queued := 0
	for txID := range want {
		key := txKey(txID)
		stored, ok := s.table.LookupStored(key)
		if !ok {
			queued++
			continue
		}
		e, err := entryOf(nil, key, stored)
		if err != nil {
			return err
		}
		want[txID] = e
	}
	for i := q.recs.n - 1; i >= 0 && queued > 0; i-- {
		if e, ok := want[q.recs.at(i).txID]; ok && e == nil {
			x := q.at(i)
			want[x.TxID] = &x
			queued--
		}
	}
	for txID, e := range want {
		if e == nil {
			return fmt.Errorf("core: transaction %d is not in the ledger", txID)
		}
	}
	return nil
}

// --- The row codec ---------------------------------------------------------

func txKey(txID uint64) []byte { return sqltypes.EncodeKey(nil, sqltypes.NewBigInt(int64(txID))) }

func appendRootsBlob(b []byte, roots []wal.TableRoot) []byte {
	b = binary.AppendUvarint(b, uint64(len(roots)))
	for _, tr := range roots {
		b = binary.AppendUvarint(b, uint64(tr.TableID))
		b = append(b, tr.Root[:]...)
	}
	return b
}

func parseRootsBlob(b []byte) ([]wal.TableRoot, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("bad roots blob")
	}
	pos := sz
	out := make([]wal.TableRoot, 0, min(n, uint64(len(b))))
	for i := uint64(0); i < n; i++ {
		tid, sz := binary.Uvarint(b[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("bad roots blob table id")
		}
		pos += sz
		var tr wal.TableRoot
		tr.TableID = uint32(tid)
		if pos+len(tr.Root) > len(b) {
			return nil, fmt.Errorf("truncated roots blob")
		}
		copy(tr.Root[:], b[pos:])
		pos += len(tr.Root)
		out = append(out, tr)
	}
	return out, nil
}

func entryToRow(e *wal.LedgerEntry) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewBigInt(int64(e.TxID)),
		sqltypes.NewBigInt(int64(e.BlockID)),
		sqltypes.NewBigInt(int64(e.Ordinal)),
		sqltypes.Value{Type: sqltypes.TypeDateTime, I64: e.CommitTS},
		sqltypes.NewNVarChar(e.User),
		sqltypes.NewVarBinary(appendRootsBlob(nil, e.Roots)),
	}
}

// entryOf decodes the stored sys_ledger_transactions row of the
// transaction under key, which the error names, using buf's storage when
// it is large enough (a scan reuses one). A row that is no row of the
// table comes back nil; one whose table_hashes do not parse comes back
// with no roots.
func entryOf(buf sqltypes.Row, key, stored []byte) (*wal.LedgerEntry, error) {
	r, err := sysRow(buf, stored, sysTxSchema)
	if err != nil {
		return nil, fmt.Errorf("core: transaction %s: its %s row does not decode: %w", keyName(key), sysTxName, err)
	}
	e := &wal.LedgerEntry{
		TxID:     uint64(r[0].Int()),
		BlockID:  uint64(r[1].Int()),
		Ordinal:  uint32(r[2].Int()),
		CommitTS: r[3].Int(),
		User:     r[4].Str,
	}
	if e.Roots, err = parseRootsBlob(r[5].Bytes); err != nil {
		err = fmt.Errorf("core: transaction %d: its recorded table roots do not decode: %w", e.TxID, err)
	}
	return e, err
}

// sysRow decodes a stored ledger system-table row into dst's storage when
// it is large enough, failing on what schema.Validate refuses and where a
// read of the table would panic: an attacker who edits storage (§2.5.2)
// may have left bytes that are no row of schema, or a row whose values
// carry other types than its columns — an integer re-tagged DATETIME
// still reads as one. Strings and binaries alias stored.
func sysRow(dst sqltypes.Row, stored []byte, schema *sqltypes.Schema) (sqltypes.Row, error) {
	r, err := sqltypes.DecodeRowAlias(dst, stored, schema.Columns)
	if err == nil {
		err = schema.Validate(r)
	}
	return r, err
}

// keyName renders a system table's BIGINT primary key — a block or
// transaction id — and any other key as hex.
func keyName(key []byte) string {
	if k, err := sqltypes.DecodeKey(key, []sqltypes.TypeID{sqltypes.TypeBigInt}); err == nil {
		return strconv.FormatInt(k[0].Int(), 10)
	}
	return "key " + hex.EncodeToString(key)
}
