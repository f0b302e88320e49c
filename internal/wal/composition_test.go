package wal

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"sqlledger/internal/sqltypes"
)

// composition is where the bytes of one log file go.
type composition struct {
	file     int64 // size of the file
	records  int
	framing  int64 // file header, frame headers, transaction ids, type and length bytes
	keys     int64 // table id, key length and key of DML records ...
	rids     int64 // ... of which those of heap tables
	after    int64 // after-images of DML records ...
	headers  int64 // ... of which the header (type and NULL flag) of every value
	commit   int64 // COMMIT payloads (timestamp, user, ledger entry with its roots)
	other    int64 // DDL, PREPARE, CHECKPOINT, ABORT payloads
	perType  map[RecordType]int
	payloads int64
}

// measureComposition reads a log through Reader — the only decoder there
// is — and attributes every byte of the file. The log names no heap
// table, but only a heap's INSERT and UPDATE records carry a key (a row
// id), which tells the heap tables apart.
func measureComposition(path string) (composition, error) {
	c := composition{perType: make(map[RecordType]int)}
	keyBytes := make(map[uint32]int64) // by table id
	heap := make(map[uint32]bool)
	st, err := os.Stat(path)
	if err != nil {
		return c, err
	}
	c.file = st.Size()
	r, err := NewReader(path, 0, -1)
	if err != nil {
		return c, err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return c, err
		}
		c.records++
		c.perType[rec.Type]++
		n := int64(len(rec.Payload))
		c.payloads += n
		switch rec.Type {
		case RecInsert, RecUpdate, RecDelete:
			p, err := decodeDML(rec.Type, rec.Payload)
			if err != nil {
				return c, err
			}
			key := int64(len(AppendDML(nil, RecDelete, p))) // a DELETE payload is exactly the key part
			c.keys += key
			keyBytes[p.TableID] += key
			heap[p.TableID] = heap[p.TableID] || (rec.Type != RecDelete && len(p.Key) > 0)
			c.after += n - key
			c.headers += sqltypes.ValueHeaderLen * int64(len(p.After))
		case RecCommit:
			c.commit += n
		default:
			c.other += n
		}
	}
	for id, n := range keyBytes {
		if heap[id] {
			c.rids += n
		}
	}
	c.framing = c.file - c.payloads
	return c, nil
}

func (c composition) String() string {
	pct := func(n int64) string { return fmt.Sprintf("%5.1f %%", 100*float64(n)/float64(c.file)) }
	var b strings.Builder
	fmt.Fprintf(&b, "%d bytes, %d records (", c.file, c.records)
	for t := RecInsert; t <= RecPrepare; t++ {
		if n := c.perType[t]; n > 0 {
			fmt.Fprintf(&b, " %s %d", t, n)
		}
	}
	fmt.Fprintf(&b, " )\n")
	fmt.Fprintf(&b, "  framing          %s  %d\n", pct(c.framing), c.framing)
	fmt.Fprintf(&b, "  keys             %s  %d\n", pct(c.keys), c.keys)
	fmt.Fprintf(&b, "    clustered keys %s  %d\n", pct(c.keys-c.rids), c.keys-c.rids)
	fmt.Fprintf(&b, "    heap row ids   %s  %d\n", pct(c.rids), c.rids)
	fmt.Fprintf(&b, "  before-images    %s  %d\n", pct(0), 0)
	fmt.Fprintf(&b, "  after-images     %s  %d\n", pct(c.after), c.after)
	fmt.Fprintf(&b, "    value headers  %s  %d\n", pct(c.headers), c.headers)
	fmt.Fprintf(&b, "  commit payloads  %s  %d\n", pct(c.commit), c.commit)
	fmt.Fprintf(&b, "  other payloads   %s  %d\n", pct(c.other), c.other)
	return b.String()
}

// TestWALComposition is the helper behind EXPERIMENTS.md's "WAL
// composition" table: SQLLEDGER_WAL_COMPOSITION=a.log,b.log prints the
// breakdown of each named log. Without the variable it checks the
// accounting on a log it writes itself.
func TestWALComposition(t *testing.T) {
	if paths := os.Getenv("SQLLEDGER_WAL_COMPOSITION"); paths != "" {
		for _, path := range strings.Split(paths, ",") {
			c, err := measureComposition(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			t.Logf("%s: %s", path, c)
		}
		return
	}
	path, end := writePipelineLog(t, 50)
	c, err := measureComposition(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.file != end || c.records != 100 || c.perType[RecInsert] != 50 || c.perType[RecCommit] != 50 {
		t.Fatalf("composition of a 50-transaction log: %+v", c)
	}
	if sum := c.framing + c.keys + c.after + c.commit + c.other; sum != c.file {
		t.Fatalf("parts sum to %d of %d bytes", sum, c.file)
	}
	// One-record frames: 8 header + 1 txid (all below 128) + type + length
	// per record, plus the file header; one BIGINT value per row.
	if c.framing != HeaderLen+100*(frameHdrLen+1+2) || c.headers != sqltypes.ValueHeaderLen*50 {
		t.Fatalf("framing %d bytes, value headers %d bytes", c.framing, c.headers)
	}
	// Every INSERT carries a key, as only a heap's do.
	if c.rids != c.keys {
		t.Fatalf("%d of %d key bytes attributed to heap tables", c.rids, c.keys)
	}
}
