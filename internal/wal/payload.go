package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sqlledger/internal/merkle"
	"sqlledger/internal/sqltypes"
)

// TableRoot records the Merkle root of the row versions a transaction
// updated in one ledger table (§3.2: tuples of the form
// (ledger_table_id, merkle_root_hash)).
type TableRoot struct {
	TableID uint32
	Root    merkle.Hash
}

// LedgerEntry is the database-ledger transaction entry built at commit
// time (§3.3). It is embedded in the COMMIT record so the in-memory
// ledger queue can be rebuilt during recovery, and later persisted to the
// sys_ledger_transactions system table at checkpoint.
type LedgerEntry struct {
	TxID     uint64
	BlockID  uint64
	Ordinal  uint32 // position of the transaction within its block
	CommitTS int64  // unix nanoseconds
	User     string
	Roots    []TableRoot
}

// Clone deep-copies the entry.
func (e *LedgerEntry) Clone() *LedgerEntry {
	if e == nil {
		return nil
	}
	out := *e
	out.Roots = append([]TableRoot(nil), e.Roots...)
	return &out
}

// appendEntry serializes a LedgerEntry.
func appendEntry(dst []byte, e *LedgerEntry) []byte {
	dst = binary.AppendUvarint(dst, e.TxID)
	dst = binary.AppendUvarint(dst, e.BlockID)
	dst = binary.AppendUvarint(dst, uint64(e.Ordinal))
	dst = binary.AppendVarint(dst, e.CommitTS)
	dst = binary.AppendUvarint(dst, uint64(len(e.User)))
	dst = append(dst, e.User...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Roots)))
	for _, tr := range e.Roots {
		dst = binary.AppendUvarint(dst, uint64(tr.TableID))
		dst = append(dst, tr.Root[:]...)
	}
	return dst
}

func decodeEntry(b []byte) (*LedgerEntry, int, error) {
	e := &LedgerEntry{}
	pos := 0
	var err error
	if e.TxID, pos, err = getUvarint(b, pos); err != nil {
		return nil, 0, err
	}
	if e.BlockID, pos, err = getUvarint(b, pos); err != nil {
		return nil, 0, err
	}
	var u uint64
	if u, pos, err = getUvarint(b, pos); err != nil {
		return nil, 0, err
	}
	e.Ordinal = uint32(u)
	if e.CommitTS, pos, err = getVarint(b, pos); err != nil {
		return nil, 0, err
	}
	user, pos, err := getBytes(b, pos)
	if err != nil {
		return nil, 0, err
	}
	e.User = string(user)
	if e.Roots, pos, err = getRoots(b, pos); err != nil {
		return nil, 0, err
	}
	return e, pos, nil
}

// getRoots decodes a counted list of (table id, Merkle root) pairs.
func getRoots(b []byte, pos int) ([]TableRoot, int, error) {
	n, pos, err := getUvarint(b, pos)
	if err != nil {
		return nil, 0, err
	}
	// A root takes more than len(Root) bytes, which bounds the allocation
	// by the payload's size whatever count it claims.
	if n > uint64(len(b)-pos)/uint64(len(merkle.Hash{})) {
		return nil, 0, fmt.Errorf("wal: %d roots in %d bytes", n, len(b)-pos)
	}
	roots := make([]TableRoot, 0, n)
	for i := uint64(0); i < n; i++ {
		var tid uint64
		if tid, pos, err = getUvarint(b, pos); err != nil {
			return nil, 0, err
		}
		var tr TableRoot
		tr.TableID = uint32(tid)
		if len(tr.Root) > len(b)-pos {
			return nil, 0, fmt.Errorf("wal: root truncated")
		}
		copy(tr.Root[:], b[pos:])
		pos += len(tr.Root)
		roots = append(roots, tr)
	}
	return roots, pos, nil
}

func getUvarint(b []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("wal: bad uvarint at %d", pos)
	}
	return v, pos + n, nil
}

func getVarint(b []byte, pos int) (int64, int, error) {
	v, n := binary.Varint(b[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("wal: bad varint at %d", pos)
	}
	return v, pos + n, nil
}

func getBytes(b []byte, pos int) ([]byte, int, error) {
	l, pos, err := getUvarint(b, pos)
	if err != nil {
		return nil, 0, err
	}
	if l > uint64(len(b)-pos) {
		return nil, 0, fmt.Errorf("wal: bytes truncated at %d", pos)
	}
	return b[pos : pos+int(l)], pos + int(l), nil
}

// DMLPayload is the decoded payload of insert/delete/update records: what
// redo needs and nothing else. After is the row's new image, nil for
// deletes.
type DMLPayload struct {
	TableID uint32
	Key     []byte
	After   sqltypes.Row
}

// DMLSizeHint over-approximates the encoded size of a DML payload (strings
// and byte values plus fixed per-value space), so callers of AppendDML can
// size the destination once instead of growing it.
func DMLSizeHint(key []byte, after sqltypes.Row) int {
	n := 20 + len(key)
	for _, v := range after {
		n += 12 + len(v.Str) + len(v.Bytes)
	}
	return n
}

// EncodeDML serializes a DML payload for the given record type.
func EncodeDML(t RecordType, p DMLPayload) []byte {
	return AppendDML(make([]byte, 0, DMLSizeHint(p.Key, p.After)), t, p)
}

// AppendDML appends the serialized DML payload to dst.
func AppendDML(dst []byte, t RecordType, p DMLPayload) []byte {
	dst = appendDMLHeader(dst, p.TableID, p.Key)
	if t != RecDelete {
		dst = sqltypes.EncodeRow(dst, p.After)
	}
	return dst
}

func appendDMLHeader(dst []byte, tableID uint32, key []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(tableID))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// DecodeDML decodes a DML payload.
func DecodeDML(t RecordType, b []byte) (DMLPayload, error) {
	m, err := DecodeDMLImage(t, b)
	p := DMLPayload{TableID: m.TableID, Key: m.Key}
	if err == nil && m.After != nil {
		// m.After is a copy nobody else holds, so the row may point into it.
		p.After, err = sqltypes.DecodeRowAlias(nil, m.After, nil)
	}
	return p, err
}

// DMLImage is a DML payload with the after-image left in its encoded
// form, sqltypes.EncodeRow's — the form the engine stores a row version
// in, so commit and redo move the image between log and storage without
// decoding it. After is nil for deletes.
type DMLImage struct {
	TableID uint32
	Key     []byte
	After   []byte
}

// DMLImageMaxLen bounds the length AppendDMLImage adds for key and after.
func DMLImageMaxLen(key, after []byte) int {
	return 2*binary.MaxVarintLen32 + len(key) + len(after)
}

// AppendDMLImage appends the serialized payload to dst: the bytes
// AppendDML gives for the decoded image.
func AppendDMLImage(dst []byte, m DMLImage) []byte {
	return append(appendDMLHeader(dst, m.TableID, m.Key), m.After...)
}

// DecodeDMLImage decodes a DML payload for redo. Key and After are copies
// in allocations of their own — b is a slice of a whole frame, which a
// retained image must not keep alive — and After has been checked to be
// one well-formed row.
func DecodeDMLImage(t RecordType, b []byte) (DMLImage, error) {
	var m DMLImage
	tid, pos, err := getUvarint(b, 0)
	if err != nil {
		return m, err
	}
	m.TableID = uint32(tid)
	key, pos, err := getBytes(b, pos)
	if err != nil {
		return m, err
	}
	m.Key = bytes.Clone(key)
	switch t {
	case RecInsert, RecUpdate:
		if err := sqltypes.CheckRow(b[pos:]); err != nil {
			return m, err
		}
		m.After = bytes.Clone(b[pos:])
	case RecDelete:
		if pos != len(b) {
			return m, fmt.Errorf("wal: %d trailing bytes in %s payload", len(b)-pos, t)
		}
	default:
		return m, fmt.Errorf("wal: %s is not a DML record", t)
	}
	return m, nil
}

// CommitPayload is the decoded payload of a COMMIT record.
type CommitPayload struct {
	CommitTS int64
	User     string
	// Entry is non-nil when the transaction touched ledger tables.
	Entry *LedgerEntry
}

// EncodeCommit serializes a commit payload.
func EncodeCommit(p CommitPayload) []byte {
	dst := binary.AppendVarint(nil, p.CommitTS)
	dst = binary.AppendUvarint(dst, uint64(len(p.User)))
	dst = append(dst, p.User...)
	if p.Entry == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return appendEntry(dst, p.Entry)
}

// DecodeCommit decodes a commit payload.
func DecodeCommit(b []byte) (CommitPayload, error) {
	var p CommitPayload
	var err error
	var pos int
	if p.CommitTS, pos, err = getVarint(b, 0); err != nil {
		return p, err
	}
	user, pos, err := getBytes(b, pos)
	if err != nil {
		return p, err
	}
	p.User = string(user)
	if pos >= len(b) {
		return p, fmt.Errorf("wal: commit payload truncated")
	}
	hasEntry := b[pos] == 1
	pos++
	if hasEntry {
		e, n, err := decodeEntry(b[pos:])
		if err != nil {
			return p, err
		}
		p.Entry = e
		pos += n
	}
	if pos != len(b) {
		return p, fmt.Errorf("wal: %d trailing bytes in commit payload", len(b)-pos)
	}
	return p, nil
}

// PreparePayload is the decoded payload of a PREPARE record. It carries
// everything phase 2 of a cross-shard commit needs to finish the
// transaction after a crash: the coordinator's global transaction id, the
// principal, and the per-table Merkle roots computed at prepare time (the
// block id, ordinal and commit timestamp are assigned when the decision
// is applied, exactly as for a single-shard commit).
type PreparePayload struct {
	Gid   uint64
	User  string
	Roots []TableRoot
}

// EncodePrepare serializes a prepare payload.
func EncodePrepare(p PreparePayload) []byte {
	dst := binary.AppendUvarint(nil, p.Gid)
	dst = binary.AppendUvarint(dst, uint64(len(p.User)))
	dst = append(dst, p.User...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Roots)))
	for _, tr := range p.Roots {
		dst = binary.AppendUvarint(dst, uint64(tr.TableID))
		dst = append(dst, tr.Root[:]...)
	}
	return dst
}

// DecodePrepare decodes a prepare payload.
func DecodePrepare(b []byte) (PreparePayload, error) {
	var p PreparePayload
	gid, pos, err := getUvarint(b, 0)
	if err != nil {
		return p, err
	}
	p.Gid = gid
	user, pos, err := getBytes(b, pos)
	if err != nil {
		return p, err
	}
	p.User = string(user)
	if p.Roots, pos, err = getRoots(b, pos); err != nil {
		return p, err
	}
	if pos != len(b) {
		return p, fmt.Errorf("wal: %d trailing bytes in prepare payload", len(b)-pos)
	}
	return p, nil
}

// CheckpointPayload is the decoded payload of a CHECKPOINT record.
type CheckpointPayload struct {
	// SnapshotLSN is the LSN from which redo must begin when recovering
	// with the snapshot this checkpoint wrote.
	SnapshotLSN int64
	WallTS      int64
}

// EncodeCheckpoint serializes a checkpoint payload.
func EncodeCheckpoint(p CheckpointPayload) []byte {
	dst := binary.AppendVarint(nil, p.SnapshotLSN)
	return binary.AppendVarint(dst, p.WallTS)
}

// DecodeCheckpoint decodes a checkpoint payload.
func DecodeCheckpoint(b []byte) (CheckpointPayload, error) {
	var p CheckpointPayload
	var err error
	var pos int
	if p.SnapshotLSN, pos, err = getVarint(b, 0); err != nil {
		return p, err
	}
	if p.WallTS, _, err = getVarint(b, pos); err != nil {
		return p, err
	}
	return p, nil
}

// DDLPayload carries a serialized catalog mutation; the engine interprets
// the JSON body.
type DDLPayload struct {
	Kind string
	Body []byte
}

// EncodeDDL serializes a DDL payload.
func EncodeDDL(p DDLPayload) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(p.Kind)))
	dst = append(dst, p.Kind...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Body)))
	return append(dst, p.Body...)
}

// DecodeDDL decodes a DDL payload.
func DecodeDDL(b []byte) (DDLPayload, error) {
	var p DDLPayload
	kind, pos, err := getBytes(b, 0)
	if err != nil {
		return p, err
	}
	p.Kind = string(kind)
	body, _, err := getBytes(b, pos)
	if err != nil {
		return p, err
	}
	p.Body = append([]byte(nil), body...)
	return p, nil
}
