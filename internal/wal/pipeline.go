package wal

import "io"

// Read-ahead log reading for recovery. Replay pays two kinds of work per
// record before the engine applies it: pulling the frame off disk (I/O
// and CRC) and decoding its payload (row checks, key and row copies).
// The PipelinedReader moves both onto one goroutine that stays a batch
// ahead of the redo loop, reading, checking and decoding records in log
// order. Nothing is reordered, so an error surfaces exactly where it sits
// in the log, after every record before it.

// DecodedRecord is a log record with its payload eagerly decoded: DML
// holds a DML record's image, whose key and row are views of the payload,
// and Commit is non-nil for a COMMIT. Other types (DDL, CHECKPOINT, ABORT)
// pass through with only the raw payload, since they are rare and their
// interpretation belongs to the engine.
type DecodedRecord struct {
	Record
	DML    DMLImage
	Commit *CommitPayload
}

// nextDecoded reads the next record from r and eagerly decodes the
// payload kinds DecodedRecord carries.
func nextDecoded(r *Reader) (DecodedRecord, error) {
	rec, err := r.Next()
	if err != nil {
		return DecodedRecord{}, err
	}
	out := DecodedRecord{Record: rec}
	switch rec.Type {
	case RecInsert, RecDelete, RecUpdate:
		if out.DML, err = DecodeDMLImage(rec.Type, rec.Payload); err != nil {
			return out, err
		}
	case RecCommit:
		p, err := DecodeCommit(rec.TxID, rec.Payload)
		if err != nil {
			return out, err
		}
		out.Commit = &p
	}
	return out, nil
}

// pipelineBatchRecords is how many decoded records the read-ahead hands
// over at once: enough to amortize channel traffic, few enough that a
// batch stays small.
const pipelineBatchRecords = 256

// decodedBatch is a run of consecutive decoded records. err (io.EOF at the
// end of the range) is what stopped the read after the last of them.
type decodedBatch struct {
	recs []DecodedRecord
	err  error
}

// PipelinedReader reads and decodes log records a batch ahead of its
// caller, delivering them in log order. workers <= 1 reads inline with no
// goroutine; any larger value turns the read-ahead on. Not safe for
// concurrent use.
type PipelinedReader struct {
	// serial is set when the reader runs inline.
	serial *Reader

	ch     chan decodedBatch
	stop   chan struct{}
	cur    decodedBatch
	idx    int // next record of cur to deliver
	closed bool
}

// NewPipelinedReader opens a reader over the log at path, scanning
// [start, end) like NewReader, with read-ahead when workers > 1.
func NewPipelinedReader(path string, start, end int64, workers int) (*PipelinedReader, error) {
	r, err := NewReader(path, start, end)
	if err != nil {
		return nil, err
	}
	if workers <= 1 {
		return &PipelinedReader{serial: r}, nil
	}
	p := &PipelinedReader{ch: make(chan decodedBatch, 2), stop: make(chan struct{})}
	go func() {
		defer close(p.ch)
		defer r.Close()
		for {
			b := decodedBatch{recs: make([]DecodedRecord, 0, pipelineBatchRecords)}
			for len(b.recs) < pipelineBatchRecords && b.err == nil {
				var rec DecodedRecord
				if rec, b.err = nextDecoded(r); b.err == nil {
					b.recs = append(b.recs, rec)
				}
			}
			select {
			case p.ch <- b:
			case <-p.stop:
				return
			}
			if b.err != nil {
				return
			}
		}
	}()
	return p, nil
}

// Next returns the next decoded record in log order, io.EOF at the end of
// the scan range, or the first read/decode error at the log position where
// it occurred.
func (p *PipelinedReader) Next() (DecodedRecord, error) {
	if p.serial != nil {
		return nextDecoded(p.serial)
	}
	for p.idx == len(p.cur.recs) {
		if p.cur.err != nil {
			return DecodedRecord{}, p.cur.err
		}
		b, ok := <-p.ch
		if !ok { // only after Close
			return DecodedRecord{}, io.EOF
		}
		p.cur, p.idx = b, 0
	}
	p.idx++
	return p.cur.recs[p.idx-1], nil
}

// Close stops the read-ahead and releases the underlying file handle. Safe
// to call after an error or mid-scan.
func (p *PipelinedReader) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	if p.serial != nil {
		return p.serial.Close()
	}
	close(p.stop)
	// Drain until the goroutine has closed the file and the channel.
	for range p.ch {
	}
	return nil
}
