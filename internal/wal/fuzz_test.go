package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sqlledger/internal/sqltypes"
)

// Native fuzz targets. `make fuzz-smoke` runs each for 10 s; without
// -fuzz they run their seeds as ordinary tests. Seeds come from the golden
// version-1 log (arbitrary bytes to the frame reader; its INSERT and
// COMMIT payloads were this build's until version 4 dropped what a ledger
// entry repeats) and from logs this build writes.

// sampleLog returns the bytes of a small log of this build's version.
func sampleLog(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "wal.log")
	l, err := Open(path, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	row := sqltypes.Row{sqltypes.NewBigInt(7), sqltypes.NewNVarChar("seven"), sqltypes.NewNull(sqltypes.TypeBigInt)}
	l.AppendBatch([]Record{
		{Type: RecInsert, TxID: 1, Payload: EncodeDML(RecInsert, DMLPayload{TableID: 3, Key: []byte("k1"), After: row})},
		{Type: RecUpdate, TxID: 1, Payload: EncodeDML(RecUpdate, DMLPayload{TableID: 3, Key: []byte("k1"), After: row})},
		{Type: RecDelete, TxID: 1, Payload: EncodeDML(RecDelete, DMLPayload{TableID: 3, Key: []byte("k1")})},
		{Type: RecCommit, TxID: 1, Payload: EncodeCommit(sampleCommit())},
	})
	l.Append(RecAbort, 2, nil)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzFrameReader feeds arbitrary bytes to the frame parser, directly and
// as the contents of a log file. It must never panic, never return a
// record of a frame whose CRC does not match, never allocate past what the
// input holds, and Open must either leave the file alone or cut it to
// exactly the frames a reader accepts.
func FuzzFrameReader(f *testing.F) {
	golden := readGoldenV1(f)
	sample := sampleLog(f)
	f.Add(golden)
	f.Add(sample[HeaderLen:])
	f.Add(sample[HeaderLen : len(sample)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3})
	f.Add(make([]byte, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The parser on the raw bytes: every frame it returns is one whose
		// CRC matches at that offset, its records lie inside it, and an
		// error is final.
		fr := newFrameReader(bytes.NewReader(data), 0, int64(len(data)))
		frames := 0
		for {
			off := fr.off
			recs, size, err := fr.next()
			if err != nil {
				if _, _, again := fr.next(); again != err {
					t.Fatalf("after %v the reader returned %v", err, again)
				}
				break
			}
			frames++
			if off+size > int64(len(data)) || size != frameHdrLen+int64(binary.LittleEndian.Uint32(data[off:])) {
				t.Fatalf("frame at %d claims %d bytes of %d", off, size, len(data))
			}
			body := data[off+frameHdrLen : off+size]
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("frame at %d returned with a body its CRC does not cover", off)
			}
			for _, r := range recs {
				if r.LSN != off || !bytes.Contains(body, r.Payload) {
					t.Fatalf("frame at %d returned a record that is not in it: %+v", off, r)
				}
			}
		}

		// The same bytes as a log file: Reader and Open agree.
		path := filepath.Join(t.TempDir(), "wal.log")
		img := append(binary.LittleEndian.AppendUint64(fileMagic[:], 1), data...)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		read := func() (n int, last error) {
			r, err := NewReader(path, 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for {
				if _, last = r.Next(); last != nil {
					return n, last
				}
				n++
			}
		}
		before, lastErr := read()
		if before < frames {
			t.Fatalf("%d frames but only %d records", frames, before)
		}
		l, err := Open(path, SyncNone)
		if err != nil {
			if lastErr != ErrCorrupt {
				t.Fatalf("Open failed with %v where the reader ended with %v", err, lastErr)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, img) {
				t.Fatal("a failed Open changed the file")
			}
			return
		}
		size := l.Size()
		l.Close()
		if st, _ := os.Stat(path); st.Size() != size || size > int64(len(img)) {
			t.Fatalf("Open left a %d-byte file and reports size %d (input %d)", st.Size(), size, len(img))
		}
		if after, lastErr := read(); after != before || lastErr != io.EOF {
			t.Fatalf("Open kept %d records (%v), the reader had accepted %d", after, lastErr, before)
		}
	})
}

// The decoder targets: arbitrary bytes never panic a decoder, and whatever
// decodes re-encodes to bytes that decode to the same encoding (the
// encoding is canonical even where the input, e.g. an overlong varint, was
// not).

// decodeDML decodes a DML payload the way redo and the read path do:
// DecodeDMLImage, then sqltypes.DecodeRowAlias of the after-image.
func decodeDML(t RecordType, b []byte) (DMLPayload, error) {
	m, err := DecodeDMLImage(t, b)
	if err != nil {
		return DMLPayload{}, err
	}
	p := DMLPayload{TableID: m.TableID, Key: m.Key}
	if m.After != nil {
		p.After, err = sqltypes.DecodeRowAlias(nil, m.After, nil)
	}
	return p, err
}

func FuzzDecodeDML(f *testing.F) {
	recs, _ := v1Records(readGoldenV1(f))
	for _, r := range recs {
		if r.Type == RecInsert {
			f.Add(byte(RecInsert), r.Payload)
			f.Add(byte(RecUpdate), r.Payload)
		}
	}
	f.Add(byte(RecDelete), EncodeDML(RecDelete, DMLPayload{TableID: 9, Key: []byte("gone")}))
	// A key length of 2^63: wrapped negative past the parent's bounds check.
	f.Add(byte(RecDelete), []byte{9, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, typ byte, data []byte) {
		rt := RecordType(typ)
		p, err := decodeDML(rt, data)
		if err != nil {
			return
		}
		enc := EncodeDML(rt, p)
		back, err := decodeDML(rt, enc)
		if err != nil {
			t.Fatalf("re-encoded %s payload does not decode: %v", rt, err)
		}
		if !bytes.Equal(EncodeDML(rt, back), enc) {
			t.Fatalf("%s payload does not round-trip", rt)
		}
	})
}

func FuzzDecodeCommit(f *testing.F) {
	recs, _ := v1Records(readGoldenV1(f))
	for _, r := range recs {
		if r.Type == RecCommit {
			f.Add(r.Payload)
		}
	}
	f.Add(EncodeCommit(sampleCommit()))
	// An entry claiming 2^62 roots in nine bytes: the count must not size
	// an allocation.
	noRoots := EncodeCommit(CommitPayload{CommitTS: 1, User: "u", Entry: &LedgerEntry{TxID: 1}})
	f.Add(append(noRoots[:len(noRoots)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeCommit(42, data)
		if err != nil {
			return
		}
		if e := p.Entry; e != nil && (e.TxID != 42 || e.CommitTS != p.CommitTS || e.User != p.User) {
			t.Fatalf("entry %+v is not of transaction 42 at the payload's time and user %d, %q", e, p.CommitTS, p.User)
		}
		enc := EncodeCommit(p)
		back, err := DecodeCommit(42, enc)
		if err != nil {
			t.Fatalf("re-encoded commit payload does not decode: %v", err)
		}
		if !bytes.Equal(EncodeCommit(back), enc) {
			t.Fatal("commit payload does not round-trip")
		}
	})
}
