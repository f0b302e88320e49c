package main

import (
	"sort"
	"time"
)

// spanKind names what a span covers. Kinds below kindFacadeEnd wrap one
// call through the public facade; their printed name is prefixed by the
// layer that served the call ("core." for a ledger table on the ledger
// twin, "engine." for a regular table or the regular twin).
type spanKind uint8

const (
	kindOp     spanKind = iota // root: one benchmark operation
	kindGen                    // drawing the operation's inputs from the generator
	kindClient                 // the workload's own logic between two calls (plus the harness's overhead)
	kindBegin
	kindInsert
	kindInsertBatch
	kindUpdate
	kindDelete
	kindGet
	kindScan
	kindCommit
	kindSnapBegin // BeginReadOnly / BeginReadOnlyForReceipt
	kindSnapGet
	kindSnapScan
	kindSnapClose
	kindReadReceipt       // ReadTx.CloseWithReceipt
	kindReadReceiptVerify // VerifyReadReceipt
	kindFacadeEnd
	kindDigest     // DB.GenerateDigest
	kindVerify     // DB.Verify
	kindOpen       // sqlledger.Open on a crash image
	kindCheckpoint // DB.Checkpoint
	kindCount
)

var kindNames = [kindCount]string{
	kindOp: "op", kindGen: "gen", kindClient: "client", kindBegin: "begin", kindInsert: "insert",
	kindInsertBatch: "insert_batch", kindUpdate: "update", kindDelete: "delete",
	kindGet: "get", kindScan: "scan", kindCommit: "commit",
	kindSnapBegin: "snapshot_begin", kindSnapGet: "snapshot_get",
	kindSnapScan: "snapshot_scan", kindSnapClose: "snapshot_close",
	kindReadReceipt: "read_receipt", kindReadReceiptVerify: "read_receipt_verify",
	kindDigest: "core.digest", kindVerify: "core.verify", kindOpen: "core.open",
	kindCheckpoint: "engine.checkpoint",
}

// span is one timed interval. Times are nanoseconds since the
// recorder's epoch; parent indexes the recorder's buffer (-1: root).
type span struct {
	start, end int64
	parent     int32
	rows       int32 // rows touched, for per-row figures (scans, batches)
	kind       spanKind
	core       bool // served by the ledger core (ledger table, ledger twin)
	ledgerSet  bool // the table is a ledger table on the ledger twin
}

func (s span) dur() int64 { return s.end - s.start }

// name is the span's printed name, e.g. "core.insert" or "engine.get".
func (s span) name() string {
	n := kindNames[s.kind]
	if s.kind <= kindClient || s.kind >= kindFacadeEnd {
		return n
	}
	if s.core {
		return "core." + n
	}
	return "engine." + n
}

// recorder collects one client's spans into a buffer allocated before
// the measured phase. A nil recorder is the untraced run: every hook is
// one nil check.
//
// The children of an operation tile it: whatever lies between the end
// of one recorded call and the start of the next (the workload's own
// logic - cloning a row it read, building the row it writes - and the
// harness's clock reads) is recorded as a "client" span from the two
// timestamps already taken, so no time inside an operation goes
// unnamed and none is folded into a layer it does not belong to.
type recorder struct {
	epoch  time.Time
	client int
	spans  []span
	root   int32 // index of the open root span, -1 outside an operation
	last   int64 // end of the open root's latest child, or its start
}

func newRecorder(epoch time.Time, client, capacity int) *recorder {
	return &recorder{epoch: epoch, client: client, spans: make([]span, 0, capacity), root: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginOp opens the root span of one operation.
func (r *recorder) beginOp() {
	r.root = int32(len(r.spans))
	r.last = r.now()
	r.spans = append(r.spans, span{start: r.last, parent: -1, kind: kindOp})
}

// endOp closes the open root span.
func (r *recorder) endOp() {
	end := r.now()
	r.gap(end)
	r.spans[r.root].end = end
	r.root = -1
}

// gap records the time since the previous child as client time.
func (r *recorder) gap(until int64) {
	if until > r.last {
		r.spans = append(r.spans, span{start: r.last, end: until, parent: r.root, kind: kindClient})
	}
}

// child records a finished child of the open root span that began at
// start (a value from now()).
func (r *recorder) child(kind spanKind, start int64, core, ledgerSet bool, rows int) {
	r.gap(start)
	r.last = r.now()
	r.spans = append(r.spans, span{
		start: start, end: r.last, parent: r.root, kind: kind,
		core: core, ledgerSet: ledgerSet, rows: int32(rows),
	})
}

// reset drops everything recorded so far (the warm-up round).
func (r *recorder) reset() { r.spans = r.spans[:0]; r.root = -1 }

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other or stick out of the parent; only the union of their intervals
// clipped to the parent counts.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, s, kids[int32(i)])
	}
	return self
}

// covered is the length of the union of the child intervals clipped to
// the parent's interval.
func covered(spans []span, parent span, children []int32) int64 {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := spans[c].start, spans[c].end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = parent.start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		if v.a < hi {
			v.a = hi
		}
		total += v.b - v.a
		hi = v.b
	}
	return total
}

// kindTotal aggregates the spans of one kind.
type kindTotal struct {
	count int64
	ns    int64
	rows  int64
}

func (t kindTotal) meanUS() float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.count) / 1e3
}

func (t kindTotal) perRowUS() float64 {
	if t.rows == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.rows) / 1e3
}

// spanTotals is what the per-layer table needs from one twin's trace.
// Leaf spans never nest in this harness (every child hangs off a root),
// so root self time is root duration minus the children's sum; the
// general selfTimes is kept for the written trace and its test.
type spanTotals struct {
	rootNS, childNS int64
	ops             int64
	// twin sums the facade spans on ledger-set tables (on either twin:
	// the same operations, through core on one and engine on the other);
	// begin and commit are always counted, whatever the transaction
	// touched.
	twin [kindCount]kindTotal
	// all sums every span by kind, regardless of table.
	all [kindCount]kindTotal
}

func totalsOf(recs []*recorder) spanTotals {
	var t spanTotals
	for _, r := range recs {
		for _, s := range r.spans {
			d := s.dur()
			if s.kind == kindOp {
				t.rootNS += d
				t.ops++
				continue
			}
			if s.parent >= 0 {
				t.childNS += d
			}
			k := &t.all[s.kind]
			k.count++
			k.ns += d
			k.rows += int64(s.rows)
			if s.ledgerSet || s.kind == kindBegin || s.kind == kindCommit {
				k = &t.twin[s.kind]
				k.count++
				k.ns += d
				k.rows += int64(s.rows)
			}
		}
	}
	return t
}

// coverage is the share of root-span time that child spans account for.
func (t spanTotals) coverage() float64 {
	if t.rootNS == 0 {
		return 0
	}
	return float64(t.childNS) / float64(t.rootNS)
}
