// Package wal implements the write-ahead log that makes the engine's
// commits atomic and durable (§3.3.2 of the SQL Ledger paper).
//
// # What is logged, and why there is no undo information
//
// The engine buffers a transaction's writes privately and logs them only
// at commit: nothing a loser
// wrote ever reaches shared storage, so recovery is analysis + redo and
// never undoes anything. The log therefore carries only what redo reads —
// an INSERT or UPDATE record holds the row's after-image, a DELETE record
// the row's key alone. There are no before-images and no
// BEGIN records. Whoever teaches the engine to write uncommitted data to
// shared storage (steal) or to acknowledge before logging (no-force) must
// bring undo information back first; the invariant this format rests on is
// "writes are logged only at commit".
//
// COMMIT records carry the ledger transaction entry (per-table Merkle
// roots plus the assigned block id and ordinal) so that the in-memory
// database-ledger queue can be reconstructed during recovery, exactly as
// the paper describes: "the Analysis phase of recovery will process the
// COMMIT log records since the last successful checkpoint and reconstruct
// the state of the in-memory queue".
//
// # File layout (format version 5)
//
//	file   := header frame*
//	header := "SQLWAL" 0x00 version(=5) | createTime i64    16 bytes at offset 0
//	frame  := bodyLen u32 | crc32c(body) u32 | body
//	body   := txid uvarint | record+
//	record := type u8 | payloadLen uvarint | payload
//
//	INSERT, UPDATE := tableID uvarint | keyLen uvarint | key | after
//	DELETE         := tableID uvarint | keyLen uvarint | key
//	COMMIT         := commitTS varint | userLen uvarint | user | 0x00
//	                | commitTS varint | userLen uvarint | user | 0x01 | entry
//	entry          := blockID uvarint | ordinal uvarint | nRoots uvarint | (tableID uvarint | root [32]byte)*
//	CHECKPOINT     := snapshotLSN varint | wallTS varint
//	DDL            := kindLen uvarint | kind | bodyLen uvarint | body
//
//	after          := count uvarint | (header u8 | payload)*
//	header         := typeID (bits 0–3) | 0x80 if NULL        bits 4–6 zero
//	payload        := nothing after a NULL | one uvarint, then for a
//	                  string or binary that many bytes
//
// after is the row as sqltypes.EncodeRow writes it, which is the form the
// engine stores it in. The key of an INSERT or UPDATE of a table with a
// primary key is empty: the clustered key is sqltypes.EncodeKey of the
// after-image's key columns, and the reader, which knows them from its
// catalog, derives it (engine.Table.KeyOfStored). A heap table's row id
// and a DELETE's key are logged, since no image holds them. This package
// knows no catalog: it writes and reads whatever key it is given. The
// ledger entry leaves out what its record already holds: its transaction
// id is the frame's txid, its commit time and user the payload's
// (DecodeCommit fills them in).
//
// All fixed-width integers are little-endian. createTime is the log's
// create time in unix nanoseconds, drawn once, when Open creates the file,
// and never rewritten: the ledger takes it for the database's incarnation
// (§3.6), so the identity every digest carries lives in the file whose
// frames it describes and is synced with them. A frame is what one call to
// Append, AppendBatch or (per batch) AppendGroup writes: a transaction's
// DML records and its COMMIT record travel in one frame under
// one CRC, so a commit is in the log entirely or not at all. Readers hand
// the records of a frame back one by one, in log order; an LSN is the file
// offset of a frame, shared by the records inside it.
//
// A log is the first kind of file in this format; the engine's checkpoint
// snapshot (snap-<lsn>.log), written whole with AppendHeader, AppendFrame
// and WriteFileAtomic and read whole by NewBytesReader, is the second.
//
// # Torn tails and corruption
//
// The log ends at the first frame that does not validate. If the file
// ends inside that frame (short header, or a body length that overruns
// the file), or the frame is whole but invalid and nothing but zero bytes
// (or nothing at all) follows it, the frame is a torn tail: a crash
// interrupted the last write, nothing in it was acknowledged, and Open
// truncates it so appends resume at a frame boundary. A whole frame that
// fails its CRC with data after it is damage to history that may have been
// acknowledged: Readers return ErrCorrupt, and Open fails with it without
// modifying the file rather than silently dropping every later commit.
// Open cannot tell that case from an operating-system crash that persisted
// a later frame of the last write group but not an earlier one (every frame
// of a group is unacknowledged until the group's one fsync returns); the
// operator who knows which it was runs Repair, which cuts the log at the
// damaged frame. (A flipped bit in a length field that makes a frame
// overrun the file is indistinguishable from a tear.)
//
// A Log is fail-stop: after the first failed write or fsync every append
// and flush returns that error, so no frame is ever acknowledged behind
// bytes that did not reach the file.
//
// Open modifies only files it has recognised as its own format. A file
// without the header — a log of the unversioned format that preceded it
// (version 1), or no log at all — or with a header of another version
// (version 2 had no create time, version 3 logged every key in full,
// version 4 gave every value of a row a type byte and a NULL byte) fails
// with ErrFormat before a byte is written; only an empty file, or a strict
// prefix of a version-5 header, is taken for a log whose creation was
// interrupted.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sqlledger/internal/obs"
)

// RecordType identifies a log record.
type RecordType byte

// Log record types. Value 1 was BEGIN in format version 1; it was never
// written and is not reused.
const (
	RecInsert RecordType = iota + 2
	RecDelete
	RecUpdate
	RecCommit
	RecAbort
	RecCheckpoint
	RecDDL
	// RecPrepare was a two-phase commit participant's PREPARE record, which
	// only a shard of a multi-shard database wrote. Nothing writes it now;
	// its number stays reserved, so no other type's byte changes, and redo
	// refuses a log that holds one.
	RecPrepare
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecDDL:
		return "DDL"
	case RecPrepare:
		return "PREPARE"
	}
	return fmt.Sprintf("REC(%d)", byte(t))
}

// Record is a decoded log record. Payload interpretation depends on Type;
// the engine encodes/decodes payloads with the helpers in payload.go.
type Record struct {
	// LSN is the byte offset of the frame that holds the record; the
	// records of one frame share it.
	LSN     int64
	Type    RecordType
	TxID    uint64
	Payload []byte
}

// SyncMode controls when the log is flushed to stable storage.
type SyncMode int

// Sync modes.
const (
	// SyncBuffered flushes to the OS on commit but does not fsync. This is
	// the default used by benchmarks; a crash of the process loses nothing,
	// a crash of the OS can lose the tail of the log.
	SyncBuffered SyncMode = iota
	// SyncFull fsyncs on every commit.
	SyncFull
	// SyncNone leaves frames in the user-space buffer until it spills or
	// the log is closed.
	SyncNone
)

const (
	// FormatVersion is the log file format this package writes and reads.
	FormatVersion = 5
	// HeaderLen is the size of the file header; the first frame, and so
	// the smallest LSN, is at this offset.
	HeaderLen = 16
	magicLen  = 8 // the header's "SQLWAL" 0x00 version; the create time follows

	frameHdrLen = 4 + 4     // body length + CRC32C of the body
	minBodyLen  = 1 + 1 + 1 // txid + one record with an empty payload

	// spillBytes bounds the user-space buffer: once this much is pending
	// it is written to the file whatever the sync mode.
	spillBytes = 1 << 20
)

var (
	fileMagic  = [magicLen]byte{'S', 'Q', 'L', 'W', 'A', 'L', 0, FormatVersion}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorrupt reports a whole frame that fails its CRC or does not parse.
var ErrCorrupt = errors.New("wal: corrupt frame")

// errTorn reports that the scan range ends inside a frame.
var errTorn = errors.New("wal: torn frame")

// ErrFormat reports a file that is not a log of the format this package
// reads. Have is the version in the header found, or 1 for a file without
// the header: a log of the unversioned format that preceded it, or no log
// at all.
type ErrFormat struct {
	Have, Want int
}

func (e ErrFormat) Error() string {
	if e.Have == 1 {
		return fmt.Sprintf("file has no log format header (a version-1 log, or not a log); this build reads version %d", e.Want)
	}
	return fmt.Sprintf("log has format version %d, this build reads version %d", e.Have, e.Want)
}

// checkHeader classifies the start of a log file of the given size: empty
// is true for a file whose creation was interrupted (no bytes, or a strict
// prefix of a version-5 header); any other file that is not a version-5
// log is an ErrFormat. Otherwise it returns the log's create time.
func checkHeader(f io.ReaderAt, size int64) (empty bool, createTime int64, err error) {
	var h [HeaderLen]byte
	n := min(size, HeaderLen)
	if _, err := f.ReadAt(h[:n], 0); err != nil {
		return false, 0, fmt.Errorf("wal: read header: %w", err)
	}
	switch m := min(n, magicLen); {
	case n < HeaderLen && bytes.Equal(h[:m], fileMagic[:m]):
		return true, 0, nil
	case n < magicLen || !bytes.Equal(h[:magicLen-1], fileMagic[:magicLen-1]):
		return false, 0, ErrFormat{Have: 1, Want: FormatVersion}
	case h[magicLen-1] != FormatVersion:
		return false, 0, ErrFormat{Have: int(h[magicLen-1]), Want: FormatVersion}
	}
	return false, int64(binary.LittleEndian.Uint64(h[magicLen:])), nil
}

// AppendHeader appends to dst the header of a file of this format whose
// create time is createTime. It is the only encoder of the header.
func AppendHeader(dst []byte, createTime int64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, fileMagic[:]...), uint64(createTime))
}

// AppendFrame appends to dst the frame holding recs, which must be
// non-empty and belong to one transaction. It is the only encoder of the
// framing; on error dst comes back unchanged.
func AppendFrame(dst []byte, recs []Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHdrLen)...)
	dst = binary.AppendUvarint(dst, recs[0].TxID)
	for _, r := range recs {
		if r.TxID != recs[0].TxID {
			return dst[:start], fmt.Errorf("wal: batch mixes transactions %d and %d", recs[0].TxID, r.TxID)
		}
		dst = append(dst, byte(r.Type))
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	body := dst[start+frameHdrLen:]
	if len(body) > math.MaxUint32 {
		return dst[:start], fmt.Errorf("wal: transaction %d needs a %d-byte frame, over the 4 GiB limit", recs[0].TxID, len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// frameReader reads frames off a byte stream. It is the only parser of
// the framing: Open's scan for the valid end of the log, Reader (and so
// PipelinedReader and NewBytesReader) and ReadFrame all go through next.
type frameReader struct {
	r   io.Reader
	off int64 // offset of the next frame
	end int64 // frames reaching past end are not returned
	err error // sticky: the first non-nil result of next
	hdr [frameHdrLen]byte

	// reuse makes every frame share one body buffer, so the records of a
	// frame are valid only until the next call (Open's scan); otherwise
	// each body is allocated fresh and payloads stay valid.
	reuse bool
	body  []byte
	recs  []Record
}

func newFrameReader(r io.Reader, off, end int64) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<20), off: off, end: end}
}

// next reads the frame at off and advances past it, returning the frame's
// records (in a slice the next call overwrites) and its size on disk. It
// returns io.EOF at end, errTorn when the range ends inside the frame and
// ErrCorrupt — with the size the frame claims — when the frame is whole but
// fails its CRC or does not parse. After any error the reader is finished
// and repeats it.
func (fr *frameReader) next() (recs []Record, size int64, err error) {
	if fr.err != nil {
		return nil, 0, fr.err
	}
	defer func() { fr.err = err }()
	remaining := fr.end - fr.off
	if remaining <= 0 {
		return nil, 0, io.EOF
	}
	if remaining < frameHdrLen {
		return nil, 0, errTorn
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, 0, tornIfEOF(err)
	}
	blen := int64(binary.LittleEndian.Uint32(fr.hdr[0:4]))
	size = frameHdrLen + blen
	// Checked before the allocation below, so a reader never allocates
	// more than the range it was given holds.
	if size > remaining {
		return nil, 0, errTorn
	}
	if blen < minBodyLen {
		return nil, size, ErrCorrupt
	}
	if !fr.reuse || int64(cap(fr.body)) < blen {
		fr.body = make([]byte, blen)
	}
	body := fr.body[:blen]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, 0, tornIfEOF(err)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(fr.hdr[4:8]) {
		return nil, size, ErrCorrupt
	}
	txID, pos := binary.Uvarint(body)
	if pos <= 0 || pos == len(body) {
		return nil, size, ErrCorrupt // no transaction id, or no record after it
	}
	recs = fr.recs[:0]
	for pos < len(body) {
		plen, n := binary.Uvarint(body[pos+1:])
		if n <= 0 || plen > uint64(len(body)-pos-1-n) {
			return nil, size, ErrCorrupt
		}
		start := pos + 1 + n
		next := start + int(plen)
		recs = append(recs, Record{LSN: fr.off, Type: RecordType(body[pos]), TxID: txID, Payload: body[start:next:next]})
		pos = next
	}
	fr.recs = recs
	fr.off += size
	return recs, size, nil
}

// tornIfEOF maps a short read — the file is shorter than the scan range
// claimed — to errTorn and passes real I/O errors through.
func tornIfEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTorn
	}
	return fmt.Errorf("wal: read: %w", err)
}

// Log is an append-only write-ahead log backed by a single file. All
// methods are safe for concurrent use; appends serialize internally so
// LSNs reflect append order.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	buf  []byte // frames appended but not yet written to f
	size int64  // end-of-log offset, buffered frames included
	err  error  // sticky: the first failed write or fsync; nothing is accepted after it
	mode SyncMode
	m    logMetrics
	torn int64 // bytes truncated from a torn tail at Open; reported once

	createTime int64 // from the header; immutable after Open
	created    bool  // this Open wrote the header
}

// logMetrics holds the log's metric handles, resolved once so the append
// path never does a registry lookup.
type logMetrics struct {
	fsyncTotal    *obs.Counter
	flushTotal    *obs.Counter
	appendRecords *obs.Counter
	appendBytes   *obs.Counter
	groupCommits  *obs.Counter
	groups        *obs.Counter
}

func bindLogMetrics(reg *obs.Registry) logMetrics {
	return logMetrics{
		fsyncTotal:    reg.Counter(obs.WALFsyncTotal),
		flushTotal:    reg.Counter(obs.WALFlushTotal),
		appendRecords: reg.Counter(obs.WALAppendRecords),
		appendBytes:   reg.Counter(obs.WALAppendBytes),
		groupCommits:  reg.Counter(obs.WALGroupCommits),
		groups:        reg.Counter(obs.WALGroups),
	}
}

// Open opens the log file at path, creating it (header included) if it
// does not exist, and truncates a torn tail so appends resume at a frame
// boundary. A created log's create time is the wall clock's. It fails with
// ErrFormat on a file that is not a version-5 log and with ErrCorrupt on
// damage before the tail; in both cases the file is left exactly as it
// was found.
func Open(path string, mode SyncMode) (*Log, error) {
	return open(path, mode, nil, false)
}

// OpenWithClock is Open with the clock that stamps a created log's header:
// it is read once, only when the file is created, and nil means the wall
// clock. A database's injected logical clock goes here, so its create
// time takes its place in the clock's sequence like every other
// timestamp the database draws.
func OpenWithClock(path string, mode SyncMode, clock func() int64) (*Log, error) {
	return open(path, mode, clock, false)
}

// Repair cuts the existing log at path at its first invalid frame even if
// data follows it — the damage Open refuses with ErrCorrupt — and returns
// the number of bytes dropped. Every commit from that frame on is lost; it
// is for the operator who has decided that is the tail of the log (see the
// package comment), and `sqlledger repair-wal` is its command line.
func Repair(path string) (dropped int64, err error) {
	l, err := open(path, SyncBuffered, nil, true)
	if err != nil {
		return 0, err
	}
	return l.torn, l.Close()
}

func open(path string, mode SyncMode, clock func() int64, repair bool) (*Log, error) {
	flag := os.O_RDWR
	if !repair {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	fail := func(err error) (*Log, error) {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	empty, createTime, err := checkHeader(f, st.Size())
	if err != nil {
		return fail(err)
	}
	size := int64(HeaderLen)
	if empty {
		if createTime, err = create(f, mode, clock); err != nil {
			return fail(err)
		}
	} else if size, err = validPrefix(f, st.Size()); err != nil && !(repair && errors.Is(err, ErrCorrupt)) {
		return fail(err)
	}
	torn := max(st.Size()-size, 0)
	if torn > 0 {
		if err := f.Truncate(size); err != nil {
			return fail(fmt.Errorf("truncate torn tail: %w", err))
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		return fail(err)
	}
	return &Log{
		f:          f,
		size:       size,
		mode:       mode,
		torn:       torn,
		createTime: createTime,
		created:    empty,
		// A private registry until Instrument rebinds onto a shared one, so
		// the append path never tests for a missing handle.
		m: bindLogMetrics(obs.NewRegistry()),
	}, nil
}

// create writes the header of a new log, stamped with clock's time (the
// wall clock's when nil), and returns that time. Under SyncFull the header
// is fsynced and then the directory, so the file and its identity survive
// a power loss as the frames fsynced into it later do.
func create(f *os.File, mode SyncMode, clock func() int64) (int64, error) {
	now := time.Now().UnixNano()
	if clock != nil {
		now = clock()
	}
	if _, err := f.WriteAt(AppendHeader(nil, now), 0); err != nil {
		return 0, fmt.Errorf("write header: %w", err)
	}
	if mode != SyncFull {
		return now, nil
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("fsync header: %w", err)
	}
	return now, syncDir(filepath.Dir(f.Name()))
}

// validPrefix returns the offset at which the whole, valid frames of a
// log of the given size end. If the frame there is whole but invalid and
// anything but zeros follows it, the error is ErrCorrupt (see the package
// comment). One body buffer serves the whole scan.
func validPrefix(f *os.File, size int64) (int64, error) {
	fr := newFrameReader(io.NewSectionReader(f, HeaderLen, size-HeaderLen), HeaderLen, size)
	fr.reuse = true
	for {
		_, bad, err := fr.next()
		switch {
		case err == nil:
		case err == io.EOF || err == errTorn || (err == ErrCorrupt && onlyZeros(f, fr.off+bad, size)):
			return fr.off, nil
		case err == ErrCorrupt:
			return fr.off, fmt.Errorf("%d-byte frame at offset %d of %d with data after it (Repair cuts the log there): %w", bad, fr.off, size, err)
		default:
			return 0, err
		}
	}
}

// onlyZeros reports whether f holds nothing but zero bytes in [from, to):
// space the file system gave the file before a crash kept the data out.
func onlyZeros(f io.ReaderAt, from, to int64) bool {
	var chunk [4096]byte
	for from < to {
		want := min(to-from, int64(len(chunk)))
		if n, _ := f.ReadAt(chunk[:want], from); int64(n) < want || len(bytes.TrimLeft(chunk[:n], "\x00")) > 0 {
			return false
		}
		from += want
	}
	return true
}

// Instrument rebinds the log's metrics onto reg. Call it right after
// Open, before the log sees concurrent traffic; counts recorded before
// the rebind stay on the previous registry. If Open truncated a torn
// tail, the first Instrument reports it as an audit event — a crash
// mid-write is expected with buffered durability but worth a record.
func (l *Log) Instrument(reg *obs.Registry) {
	l.mu.Lock()
	l.m = bindLogMetrics(reg)
	torn, valid := l.torn, l.size
	l.torn = 0
	l.mu.Unlock()
	if torn > 0 {
		reg.Events().Warn(obs.EventWALTornTail, "bytes", torn, "valid_prefix", valid)
	}
}

// Append writes one record as a frame of its own and returns its LSN.
// Durability follows AppendBatch's rule.
func (l *Log) Append(t RecordType, txID uint64, payload []byte) (int64, error) {
	return l.AppendBatch([]Record{{Type: t, TxID: txID, Payload: payload}})
}

// AppendBatch writes the records of one transaction as a single frame —
// in the log entirely or not at all — and returns its LSN. A batch ending
// in a COMMIT or CHECKPOINT record is flushed per the log's
// SyncMode before AppendBatch returns.
func (l *Log) AppendBatch(recs []Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendFrameLocked(recs)
	if err != nil {
		return 0, err
	}
	if n := len(recs); n > 0 {
		switch recs[n-1].Type {
		case RecCommit, RecCheckpoint:
			if err := l.flushLocked(); err != nil {
				return 0, err
			}
		}
	}
	return lsn, nil
}

// AppendGroup appends the record batches of a whole commit group, one
// frame per batch in slice order, and flushes once at the end, so every
// commit in the group shares a single write and (under SyncFull) a single
// fsync. The returned slice holds the LSN of each batch.
func (l *Log) AppendGroup(batches [][]Record) ([]int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := make([]int64, len(batches))
	for i, recs := range batches {
		lsn, err := l.appendFrameLocked(recs)
		if err != nil {
			return nil, err
		}
		lsns[i] = lsn
	}
	if err := l.flushLocked(); err != nil {
		return nil, err
	}
	return lsns, nil
}

// appendFrameLocked encodes recs as one frame into the buffer without
// flushing; callers decide when durability happens. An empty batch writes
// nothing.
func (l *Log) appendFrameLocked(recs []Record) (int64, error) {
	lsn := l.size
	if l.err != nil || len(recs) == 0 {
		return lsn, l.err
	}
	pending := len(l.buf)
	var err error
	if l.buf, err = AppendFrame(l.buf, recs); err != nil {
		return 0, err
	}
	n := int64(len(l.buf) - pending)
	l.size += n
	l.m.appendRecords.Add(int64(len(recs)))
	l.m.appendBytes.Add(n)
	if len(l.buf) >= spillBytes {
		return lsn, l.writeOutLocked()
	}
	return lsn, nil
}

// writeOutLocked hands the buffered frames to the OS. A failed or short
// write leaves the file behind l.size for good, so it poisons the log.
func (l *Log) writeOutLocked() error {
	if l.err == nil && len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = fmt.Errorf("wal: write: %w", err)
		}
		l.buf = l.buf[:0]
	}
	return l.err
}

func (l *Log) flushLocked() error {
	switch l.mode {
	case SyncNone:
		return l.err
	case SyncBuffered:
		if err := l.writeOutLocked(); err != nil {
			return err
		}
		l.m.flushTotal.Inc()
		return nil
	case SyncFull:
		if err := l.writeOutLocked(); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.err
		}
		l.m.fsyncTotal.Inc()
		l.m.flushTotal.Inc()
		return nil
	}
	return fmt.Errorf("wal: unknown sync mode %d", l.mode)
}

// Flush forces buffered frames to the OS (and to disk under SyncFull);
// under SyncNone it does nothing.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// CreateTime returns the log's create time from its header (unix
// nanoseconds).
func (l *Log) CreateTime() int64 { return l.createTime }

// Created reports whether this Open created the log: wrote its header to
// a file that did not exist, or to one whose creation a crash cut short.
func (l *Log) Created() bool { return l.created }

// Size returns the current end-of-log offset (the LSN the next frame will
// receive). An empty log has size HeaderLen.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// ReadFrame returns the records of the frame at lsn: from the user-space
// buffer while the frame is still there (SyncNone keeps it until the
// buffer spills), from the file otherwise, without the log's lock — bytes
// already written never change. It fails on an lsn outside the log, and
// with ErrCorrupt when no whole, valid frame starts there.
func (l *Log) ReadFrame(lsn int64) ([]Record, error) {
	l.mu.Lock()
	size, written := l.size, l.size-int64(len(l.buf))
	if l.f == nil || lsn < HeaderLen || lsn >= size {
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: no frame at LSN %d: the log holds [%d, %d)", lsn, HeaderLen, size)
	}
	fr := &frameReader{r: io.NewSectionReader(l.f, lsn, written-lsn), off: lsn, end: written}
	if lsn >= written {
		defer l.mu.Unlock() // the buffer is reused once written out
		fr.r, fr.end = bytes.NewReader(l.buf[lsn-written:]), size
	} else {
		l.mu.Unlock()
	}
	recs, _, err := fr.next()
	if err == errTorn {
		err = ErrCorrupt
	}
	return recs, err
}

// Close writes out buffered frames and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	werr := l.writeOutLocked()
	err := l.f.Close()
	l.f = nil
	if werr != nil {
		return werr
	}
	return err
}

// Reader iterates over log records starting at a given LSN. It reads a
// private file handle, so it can run while the log is being appended to.
// It returns io.EOF at the end of its range or at a torn frame, and
// ErrCorrupt at a whole frame that fails validation; no record of an
// invalid frame is ever returned.
type Reader struct {
	f    *os.File // nil for NewBytesReader
	fr   *frameReader
	recs []Record // what is left of the frame being handed out
}

// NewReader opens a reader over the log file at path starting at LSN
// start; 0 means the first frame. end bounds the scan (use the log's
// Size, or -1 for the whole file).
func NewReader(path string, start, end int64) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open reader: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	empty, _, err := checkHeader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open reader %s: %w", path, err)
	}
	if end < 0 {
		end = st.Size()
	}
	if empty {
		end = 0
	}
	start = max(start, HeaderLen)
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Reader{f: f, fr: newFrameReader(f, start, end)}, nil
}

// NewBytesReader reads the whole file of this format held in b, such as a
// snapshot, and returns the create time in its header. It fails with
// ErrFormat unless b starts with a whole version-5 header.
func NewBytesReader(b []byte) (*Reader, int64, error) {
	if len(b) < HeaderLen {
		return nil, 0, ErrFormat{Have: 1, Want: FormatVersion}
	}
	_, createTime, err := checkHeader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, 0, err
	}
	fr := &frameReader{r: bytes.NewReader(b[HeaderLen:]), off: HeaderLen, end: int64(len(b))}
	return &Reader{fr: fr}, createTime, nil
}

// Next returns the next record, or io.EOF at the end of the scan range.
// Each frame's body is allocated fresh, so payloads stay valid after Next.
func (r *Reader) Next() (Record, error) {
	for len(r.recs) == 0 {
		recs, _, err := r.fr.next()
		if err == errTorn {
			err = io.EOF
		}
		if err != nil {
			return Record{}, err
		}
		r.recs = recs
	}
	rec := r.recs[0]
	r.recs = r.recs[1:]
	return rec, nil
}

// Close releases the reader's file handle, if it has one.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// WriteFileAtomic replaces path with the concatenated parts durably: they go
// to a temporary file, which is synced before it is renamed over path, and
// the directory is synced after the rename, so a reader — or a crash — sees
// the old file or the whole new one, never an empty or partial one. A
// failure removes the temporary file and leaves path as it was.
func WriteFileAtomic(path string, perm os.FileMode, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func syncDir(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
