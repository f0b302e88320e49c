package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The golden fixture is a format-version-1 log written by the commit that
// preceded the file header (PR 13), from a scripted engine workload: a
// CREATE TABLE, a 5-row insert transaction, an update+delete transaction,
// a CREATE INDEX, a checkpoint, one prepared-then-committed 2PC
// transaction, a last update+delete transaction, and the first half of one
// more record as a torn tail. The snapshot its checkpoint wrote sits
// beside it.
const (
	goldenV1Log    = "testdata/wal_v1.golden.log"
	goldenV1SHA256 = "42029c6e600e00e6183b20687ffc5d63112c061957f5547e23ade80f40c16bf7"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func readGoldenV1(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenV1Log)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(b); got != goldenV1SHA256 {
		t.Fatalf("fixture %s has SHA-256 %s, want %s", goldenV1Log, got, goldenV1SHA256)
	}
	return b
}

// v1Records walks the version-1 framing (len u32 | crc u32 | type u8 |
// txid u64 | payload) up to the first record that does not validate. Test
// code only: it checks what the fixture holds and seeds the fuzz targets.
func v1Records(b []byte) (recs []Record, valid int) {
	for len(b)-valid >= 17 {
		hdr := b[valid : valid+17]
		plen := int(binary.LittleEndian.Uint32(hdr))
		if plen > len(b)-valid-17 {
			break
		}
		payload := b[valid+17 : valid+17+plen]
		sum := crc32.Update(0, castagnoli, hdr[8:])
		if crc32.Update(sum, castagnoli, payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			break
		}
		recs = append(recs, Record{LSN: int64(valid), Type: RecordType(hdr[8]),
			TxID: binary.LittleEndian.Uint64(hdr[9:]), Payload: payload})
		valid += 17 + plen
	}
	return recs, valid
}

func TestGoldenV1FixtureContents(t *testing.T) {
	b := readGoldenV1(t)
	recs, valid := v1Records(b)
	count := map[RecordType]int{}
	for _, r := range recs {
		count[r.Type]++
	}
	want := map[RecordType]int{RecInsert: 6, RecUpdate: 3, RecDelete: 2, RecDDL: 2,
		RecCheckpoint: 1, RecPrepare: 1, RecCommit: 4}
	for typ, n := range want {
		if count[typ] != n {
			t.Errorf("fixture holds %d %s records, want %d", count[typ], typ, n)
		}
	}
	if len(count) != len(want) {
		t.Errorf("fixture record types = %v, want %v", count, want)
	}
	if torn := len(b) - valid; torn != 37 {
		t.Errorf("fixture's torn tail is %d bytes, want 37", torn)
	}
}

// TestOpenV1LogFailsUntouched is the upgrade hazard, pinned: the parent's
// Open took bytes it could not parse for a torn tail and truncated them,
// so the first build with a new format would have emptied every existing
// log. A version-1 log must fail with ErrFormat{1, 2}, byte for byte
// unmodified.
func TestOpenV1LogFailsUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, readGoldenV1(t), 0o644); err != nil {
		t.Fatal(err)
	}
	want := ErrFormat{Have: 1, Want: FormatVersion}
	var got ErrFormat
	if _, err := Open(path, SyncFull); !errors.As(err, &got) || got != want {
		t.Fatalf("Open(v1 log) = %v, want %v", err, want)
	}
	if _, err := NewReader(path, 0, -1); !errors.As(err, &got) || got != want {
		t.Fatalf("NewReader(v1 log) = %v, want %v", err, want)
	}
	if _, err := NewPipelinedReader(path, 0, -1, 4); !errors.As(err, &got) || got != want {
		t.Fatalf("NewPipelinedReader(v1 log) = %v, want %v", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sha256Hex(after) != goldenV1SHA256 {
		t.Fatalf("failed opens modified the v1 log: %d bytes, SHA-256 %s", len(after), sha256Hex(after))
	}
}

// TestOpenNeverShortensAForeignFile: a file that does not start with the
// version-2 header is an error, never "torn tail at offset 0, truncated".
func TestOpenNeverShortensAForeignFile(t *testing.T) {
	futureVersion := append([]byte(nil), fileHeader[:]...)
	futureVersion[HeaderLen-1] = 3
	cases := []struct {
		name  string
		bytes []byte
		have  int
	}{
		{"text", []byte("this is not a write-ahead log, it is a note"), 1},
		{"short and no prefix of the header", []byte("SQLX"), 1},
		{"one byte", []byte{0x00}, 1},
		{"header of a later version", append(futureVersion, 1, 2, 3), 3},
		{"zeros", make([]byte, 64), 1},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		var got ErrFormat
		if l, err := Open(path, SyncBuffered); !errors.As(err, &got) {
			if l != nil {
				l.Close()
			}
			t.Errorf("%s: Open = %v, want ErrFormat", c.name, err)
		} else if want := (ErrFormat{Have: c.have, Want: FormatVersion}); got != want {
			t.Errorf("%s: Open = %v, want %v", c.name, got, want)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, c.bytes) {
			t.Errorf("%s: failed Open changed the file (%d -> %d bytes)", c.name, len(c.bytes), len(after))
		}
	}
}

// TestOpenAdoptsInterruptedCreation: the one exception — an empty file or
// a strict prefix of the header is a log whose creation a crash cut short.
func TestOpenAdoptsInterruptedCreation(t *testing.T) {
	for n := 0; n < HeaderLen; n++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, fileHeader[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if recs := readAll(t, path); len(recs) != 0 {
			t.Fatalf("prefix %d: read %d records from an unborn log", n, len(recs))
		}
		l, err := Open(path, SyncBuffered)
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		if l.Size() != HeaderLen {
			t.Fatalf("prefix %d: size %d, want %d", n, l.Size(), HeaderLen)
		}
		if lsn, err := l.Append(RecCommit, 1, []byte("x")); err != nil || lsn != HeaderLen {
			t.Fatalf("prefix %d: first append = (%d, %v)", n, lsn, err)
		}
		l.Close()
		if recs := readAll(t, path); len(recs) != 1 || string(recs[0].Payload) != "x" {
			t.Fatalf("prefix %d: read back %+v", n, recs)
		}
	}
}

// threeFrameLog writes three multi-record commits and returns the path
// and the end offset of each frame.
func threeFrameLog(t *testing.T) (string, [3]int64) {
	t.Helper()
	l, path := openTestLog(t)
	var ends [3]int64
	for i := range ends {
		tx := uint64(i + 1)
		if _, err := l.AppendBatch([]Record{
			{Type: RecInsert, TxID: tx, Payload: bytes.Repeat([]byte{byte('a' + i)}, 40)},
			{Type: RecDelete, TxID: tx, Payload: []byte("k")},
			{Type: RecCommit, TxID: tx, Payload: []byte("commit")},
		}); err != nil {
			t.Fatal(err)
		}
		ends[i] = l.Size()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ends
}

// TestReaderStopsAtEveryCutOfTheLastFrame: wherever a crash cuts the last
// frame, a reader hands back the earlier frames whole and nothing of the
// cut one — no orphan DML of a commit that is not in the log.
func TestReaderStopsAtEveryCutOfTheLastFrame(t *testing.T) {
	path, ends := threeFrameLog(t)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(t.TempDir(), "cut.log")
	for cut := ends[1]; cut <= ends[2]; cut++ {
		if err := os.WriteFile(cutPath, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 6
		if cut == ends[2] {
			want = 9
		}
		if recs := readAll(t, cutPath); len(recs) != want {
			t.Fatalf("cut at %d: read %d records, want %d", cut, len(recs), want)
		}
	}
}

// TestBitFlipBeforeTheTailIsCorruption: damage in the middle of the log is
// ErrCorrupt from the reader and from Open, which leaves the file alone.
// The parent's Open truncated at the first undecodable record wherever it
// was, silently dropping every acknowledged commit after it; that is kept
// only for the last frame of the file, which is by definition the tail.
func TestBitFlipBeforeTheTailIsCorruption(t *testing.T) {
	path, ends := threeFrameLog(t)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(at int64) []byte {
		b := append([]byte(nil), img...)
		b[at] ^= 0x10
		return b
	}

	// Frame 2 of 3, in a payload byte and in the CRC field.
	for _, at := range []int64{ends[0] + 20, ends[0] + 5} {
		damaged := flip(at)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(path, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if rec, err := r.Next(); err != nil || rec.TxID != 1 {
				t.Fatalf("flip at %d: record %d before the damage = %+v, %v", at, i, rec, err)
			}
		}
		if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: reader returned %v at the damaged frame, want ErrCorrupt", at, err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: reader went on past the damaged frame: %v", at, err)
		}
		r.Close()
		if l, err := Open(path, SyncBuffered); !errors.Is(err, ErrCorrupt) {
			if l != nil {
				l.Close()
			}
			t.Fatalf("flip at %d: Open = %v, want ErrCorrupt", at, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, damaged) {
			t.Fatalf("flip at %d: failed Open changed the file", at)
		}
	}

	// The last frame: nothing follows it, so it is a torn tail.
	if err := os.WriteFile(path, flip(ends[1]+20), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, SyncBuffered)
	if err != nil {
		t.Fatalf("Open with a damaged last frame: %v", err)
	}
	defer l.Close()
	if l.Size() != ends[1] {
		t.Fatalf("size after cutting the damaged last frame = %d, want %d", l.Size(), ends[1])
	}
}

func TestAppendBatchRejectsMixedTransactions(t *testing.T) {
	l, path := openTestLog(t)
	if _, err := l.AppendBatch([]Record{{Type: RecInsert, TxID: 1}, {Type: RecCommit, TxID: 2}}); err == nil {
		t.Fatal("a batch of two transactions was framed as one")
	}
	if _, err := l.Append(RecCommit, 3, nil); err != nil {
		t.Fatal(err)
	}
	if recs := readAll(t, path); len(recs) != 1 || recs[0].TxID != 3 {
		t.Fatalf("log after a rejected batch: %+v", recs)
	}
}

// TestFrameReaderCapsAllocation: a length prefix is checked against what
// the scan range still holds before anything is allocated for it.
func TestFrameReaderCapsAllocation(t *testing.T) {
	data := make([]byte, frameHdrLen+64)
	binary.LittleEndian.PutUint32(data, 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr := newFrameReader(bytes.NewReader(data), 0, int64(len(data)))
	_, _, err := fr.next()
	runtime.ReadMemStats(&after)
	if err != errTorn {
		t.Fatalf("frame claiming 2 GiB in %d bytes: %v, want errTorn", len(data), err)
	}
	// The bufio buffer (1 MiB) is the only large allocation allowed.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("reading a %d-byte range allocated %d bytes", len(data), grew)
	}
	if _, _, err := fr.next(); err != errTorn {
		t.Fatalf("reader went on after an error: %v", err)
	}
}

// TestZeroFilledTailIsTorn: after an operating-system crash a file can be
// longer than the data that reached it, the rest reading as zeros. Zeros
// after the last whole frame, and a half-persisted last frame padded with
// zeros to its full length and beyond, are torn tails, not corruption.
func TestZeroFilledTailIsTorn(t *testing.T) {
	path, ends := threeFrameLog(t)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	halfFrame := append([]byte(nil), img...)
	clear(halfFrame[ends[1]+12:])
	for name, c := range map[string]struct {
		image  []byte
		keep   int64
		frames int
	}{
		"zero page after the last frame":      {append(img[:len(img):len(img)], make([]byte, 4096)...), ends[2], 3},
		"seven zero bytes":                    {append(img[:len(img):len(img)], make([]byte, 7)...), ends[2], 3},
		"last frame half persisted":           {halfFrame, ends[1], 2},
		"half persisted, then a zero page":    {append(halfFrame, make([]byte, 4096)...), ends[1], 2},
		"nothing but the header and one page": {append(img[:HeaderLen:HeaderLen], make([]byte, 4096)...), HeaderLen, 0},
	} {
		if err := os.WriteFile(path, c.image, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, SyncBuffered)
		if err != nil {
			t.Fatalf("%s: Open = %v, want a truncated torn tail", name, err)
		}
		if l.Size() != c.keep || l.torn != int64(len(c.image))-c.keep {
			t.Errorf("%s: kept %d bytes and cut %d, want %d and %d", name, l.Size(), l.torn, c.keep, int64(len(c.image))-c.keep)
		}
		if _, err := l.Append(RecCommit, 9, []byte("after")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if recs := readAll(t, path); len(recs) != 3*c.frames+1 || recs[len(recs)-1].TxID != 9 {
			t.Errorf("%s: %d records after reopening and appending", name, len(recs))
		}
	}
}

// TestRepairCutsANonPrefixGroupTear: one AppendGroup is one write and one
// fsync, so until it returns none of its frames is acknowledged — but an
// operating-system crash may persist a later frame of the group and not an
// earlier one. Open cannot tell that from damage to acknowledged history
// and refuses, file untouched; Repair is the operator's way out.
func TestRepairCutsANonPrefixGroupTear(t *testing.T) {
	l, path := openTestLog(t)
	if _, err := l.Append(RecCommit, 1, []byte("acknowledged")); err != nil {
		t.Fatal(err)
	}
	acked := l.Size()
	lsns, err := l.AppendGroup([][]Record{
		{{Type: RecInsert, TxID: 2, Payload: bytes.Repeat([]byte("x"), 100)}, {Type: RecCommit, TxID: 2}},
		{{Type: RecInsert, TxID: 3, Payload: bytes.Repeat([]byte("y"), 100)}, {Type: RecCommit, TxID: 3}},
		{{Type: RecInsert, TxID: 4, Payload: bytes.Repeat([]byte("z"), 100)}, {Type: RecCommit, TxID: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clear(img[lsns[1]+16 : lsns[1]+80]) // a "page" of the group's second frame never made it
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(path, SyncFull); !errors.Is(err, ErrCorrupt) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, img) {
		t.Fatal("the refused Open changed the file")
	}
	dropped, err := Repair(path)
	if err != nil || dropped != int64(len(img))-lsns[1] {
		t.Fatalf("Repair = (%d, %v), want %d bytes dropped", dropped, err, int64(len(img))-lsns[1])
	}
	l, err = Open(path, SyncFull)
	if err != nil {
		t.Fatalf("Open after Repair: %v", err)
	}
	defer l.Close()
	if l.Size() != lsns[1] || l.Size() <= acked || l.torn != 0 {
		t.Fatalf("repaired log ends at %d (torn %d), want %d", l.Size(), l.torn, lsns[1])
	}
	if recs := readAll(t, path); len(recs) != 3 || recs[2].TxID != 2 {
		t.Fatalf("repaired log holds %+v", recs)
	}
	if dropped, err := Repair(path); err != nil || dropped != 0 {
		t.Fatalf("Repair of a sound log = (%d, %v)", dropped, err)
	}
}

// TestRepairTouchesOnlyVersion2Logs: Repair neither creates a log nor
// shortens a file Open would not have recognised.
func TestRepairTouchesOnlyVersion2Logs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if _, err := Repair(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Repair of a missing file = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Repair created a log")
	}
	if err := os.WriteFile(path, readGoldenV1(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var ferr ErrFormat
	if _, err := Repair(path); !errors.As(err, &ferr) {
		t.Fatalf("Repair of a v1 log = %v, want ErrFormat", err)
	}
	if after, _ := os.ReadFile(path); sha256Hex(after) != goldenV1SHA256 {
		t.Fatal("Repair modified a v1 log")
	}
}

// TestLogIsFailStopAfterAWriteError: once a write fails the file is behind
// the log's idea of its own size, so nothing more may be acknowledged —
// every later append and flush repeats the error, and what did reach the
// file reopens cleanly.
func TestLogIsFailStopAfterAWriteError(t *testing.T) {
	for _, mode := range []SyncMode{SyncBuffered, SyncFull, SyncNone} {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(RecCommit, 1, []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		// Make the next write fail: swap in a read-only handle.
		rw := l.f
		if mode == SyncNone {
			rw.Write(l.buf) // SyncNone buffers until it spills; hand tx1 over by hand
			l.buf = l.buf[:0]
		}
		if l.f, err = os.Open(path); err != nil {
			t.Fatal(err)
		}
		rw.Close()
		_, first := l.AppendBatch([]Record{{Type: RecInsert, TxID: 2, Payload: make([]byte, spillBytes)}, {Type: RecCommit, TxID: 2}})
		if first == nil {
			t.Fatalf("mode %d: an append was acknowledged over a failed write", mode)
		}
		if lsn, err := l.Append(RecCommit, 3, []byte("three")); err != first {
			t.Fatalf("mode %d: append after the failure = (%d, %v), want the first error again", mode, lsn, err)
		}
		if _, err := l.AppendGroup([][]Record{{{Type: RecCommit, TxID: 4}}}); err != first {
			t.Fatalf("mode %d: group after the failure = %v", mode, err)
		}
		if err := l.Flush(); err != first {
			t.Fatalf("mode %d: flush after the failure = %v", mode, err)
		}
		if err := l.Close(); err != first {
			t.Fatalf("mode %d: close after the failure = %v", mode, err)
		}
		if recs := readAll(t, path); len(recs) != 1 || recs[0].TxID != 1 {
			t.Fatalf("mode %d: log after the failure holds %+v", mode, recs)
		}
	}
}
