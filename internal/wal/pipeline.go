package wal

import (
	"io"
	"sync"
)

// Pipelined log reading for recovery. Replay cost splits into three very
// different kinds of work: pulling record bytes off disk (sequential I/O +
// CRC), decoding payloads (allocation-heavy: row checks, key and row
// copies), and applying write sets. A single-threaded loop pays them in
// series; the PipelinedReader overlaps them — a read-ahead goroutine
// fetches raw records in batches, a worker pool decodes batches
// concurrently, and the consumer reassembles batches by sequence number so
// records are always delivered in strict log order. The redo loop
// downstream stays order-dependent and never knows the decode ran out of
// order.

// DecodedRecord is a log record with its payload eagerly decoded. Exactly
// one of DML, Commit, Prepare is non-nil for the record types the decode
// stage understands (DML records, COMMIT, PREPARE); other types (DDL,
// CHECKPOINT, ABORT) pass through with only the raw payload, since
// they are rare and their interpretation belongs to the engine.
type DecodedRecord struct {
	Record
	DML     *DMLImage
	Commit  *CommitPayload
	Prepare *PreparePayload
}

// decodeRecord eagerly decodes the payload kinds the pipeline understands.
func decodeRecord(rec Record) (DecodedRecord, error) {
	out := DecodedRecord{Record: rec}
	switch rec.Type {
	case RecInsert, RecDelete, RecUpdate:
		p, err := DecodeDMLImage(rec.Type, rec.Payload)
		if err != nil {
			return out, err
		}
		out.DML = &p
	case RecCommit:
		p, err := DecodeCommit(rec.Payload)
		if err != nil {
			return out, err
		}
		out.Commit = &p
	case RecPrepare:
		p, err := DecodePrepare(rec.Payload)
		if err != nil {
			return out, err
		}
		out.Prepare = &p
	}
	return out, nil
}

// pipelineBatchRecords is how many raw records the read-ahead stage groups
// into one decode unit. Large enough to amortize channel traffic, small
// enough that reassembly never holds more than a few MB per in-flight
// batch.
const pipelineBatchRecords = 256

// rawBatch is a sequence-numbered group of raw records headed for the
// decode pool. readErr (io.EOF excluded) is the reader error that ended
// the scan; it is delivered after the batch's records, in log order.
type rawBatch struct {
	seq     int
	recs    []Record
	readErr error
}

// decodedBatch is a decoded rawBatch. If a record failed to decode,
// failErr is set and failIdx is its index; records past it are undecoded
// and must not be consumed.
type decodedBatch struct {
	seq     int
	recs    []DecodedRecord
	failIdx int
	failErr error
	readErr error
}

// PipelinedReader reads log records through a read-ahead stage and a
// parallel payload-decode pool, delivering DecodedRecords in strict log
// order. workers <= 1 degrades to a fully serial read-decode loop with no
// goroutines — the baseline the recovery scaling gate measures against.
// Not safe for concurrent use.
type PipelinedReader struct {
	workers int

	// Serial path.
	serial *Reader

	// Pipelined path.
	decCh   chan decodedBatch
	stop    chan struct{}
	pending map[int]decodedBatch
	nextSeq int
	cur     *decodedBatch
	curIdx  int
	done    bool
	closed  bool
}

// NewPipelinedReader opens a pipelined reader over the log at path,
// scanning [start, end) like NewReader. workers sets the decode
// parallelism; values <= 1 select the serial path.
func NewPipelinedReader(path string, start, end int64, workers int) (*PipelinedReader, error) {
	r, err := NewReader(path, start, end)
	if err != nil {
		return nil, err
	}
	p := &PipelinedReader{workers: workers}
	if workers <= 1 {
		p.serial = r
		return p, nil
	}
	rawCh := make(chan rawBatch, workers*2)
	p.decCh = make(chan decodedBatch, workers*2)
	p.stop = make(chan struct{})
	p.pending = make(map[int]decodedBatch)

	// Read-ahead stage: batch raw records off the private file handle.
	go func() {
		defer r.Close()
		seq := 0
		batch := make([]Record, 0, pipelineBatchRecords)
		flush := func(readErr error) bool {
			b := rawBatch{seq: seq, recs: batch, readErr: readErr}
			seq++
			select {
			case rawCh <- b:
				batch = make([]Record, 0, pipelineBatchRecords)
				return true
			case <-p.stop:
				return false
			}
		}
		for {
			rec, err := r.Next()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				flush(err)
				close(rawCh)
				return
			}
			batch = append(batch, rec)
			if len(batch) >= pipelineBatchRecords {
				if !flush(nil) {
					close(rawCh)
					return
				}
			}
		}
	}()

	// Decode pool: payloads decode concurrently; batch order is restored
	// by the consumer via sequence numbers.
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rb := range rawCh {
				db := decodedBatch{seq: rb.seq, failIdx: -1, readErr: rb.readErr}
				db.recs = make([]DecodedRecord, 0, len(rb.recs))
				for j, rec := range rb.recs {
					dec, err := decodeRecord(rec)
					if err != nil {
						db.failIdx, db.failErr = j, err
						break
					}
					db.recs = append(db.recs, dec)
				}
				select {
				case p.decCh <- db:
				case <-p.stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.decCh)
	}()
	return p, nil
}

// Next returns the next decoded record in log order, io.EOF at the end of
// the scan range, or the first read/decode error at the log position where
// it occurred.
func (p *PipelinedReader) Next() (DecodedRecord, error) {
	if p.serial != nil {
		rec, err := p.serial.Next()
		if err != nil {
			return DecodedRecord{}, err
		}
		return decodeRecord(rec)
	}
	for {
		if p.done {
			return DecodedRecord{}, io.EOF
		}
		if p.cur != nil {
			if p.curIdx < len(p.cur.recs) {
				rec := p.cur.recs[p.curIdx]
				p.curIdx++
				return rec, nil
			}
			if p.cur.failErr != nil {
				return DecodedRecord{}, p.cur.failErr
			}
			if p.cur.readErr != nil {
				return DecodedRecord{}, p.cur.readErr
			}
			p.cur = nil
		}
		// Reassemble: pull batches until the next sequence number shows up.
		for p.cur == nil {
			if b, ok := p.pending[p.nextSeq]; ok {
				delete(p.pending, p.nextSeq)
				p.nextSeq++
				p.cur, p.curIdx = &b, 0
				break
			}
			b, ok := <-p.decCh
			if !ok {
				p.done = true
				return DecodedRecord{}, io.EOF
			}
			p.pending[b.seq] = b
		}
	}
}

// Close stops the pipeline and releases the underlying file handle. Safe
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
	// Drain until the workers close decCh so none is stuck sending.
	for range p.decCh {
	}
	return nil
}
