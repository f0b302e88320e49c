package serial

import (
	"fmt"

	"sqlledger/internal/merkle"
	"sqlledger/internal/sqltypes"
)

// Layout is what SerializeRow reads of a schema's columns, computed once —
// per column DDL for the write path, which keeps one on each ledger table,
// per run for verification — so that hashing a row version appends each
// column header by copy.
type Layout struct {
	cols    []sqltypes.Column
	headers [][]byte
}

// NewLayout precomputes the layout of a table's columns as they are now:
// take a new one after column DDL. It keeps cols, which must not change.
func NewLayout(cols []sqltypes.Column) *Layout {
	l := &Layout{cols: cols, headers: make([][]byte, len(cols))}
	for i := range cols {
		l.headers[i] = appendHeader(nil, &cols[i])
	}
	return l
}

// AppendEncoded appends to dst the canonical serialization of the row that
// stored holds as sqltypes.EncodeRow bytes, without decoding it: the bytes
// SerializeRow gives for sqltypes.DecodeRowAlias(nil, stored, columns),
// transcoded value by value (FuzzHashEncoded holds the two together). A
// row narrower than the schema — stored before ADD COLUMN — reads NULL in
// the columns it lacks, which the format skips. It fails where
// sqltypes.CheckRow does, and on a row wider than the schema.
func (l *Layout) AppendEncoded(dst, stored []byte, op OpType, skip SkipMask) ([]byte, error) {
	var p pass
	out, err := l.transcode(dst, stored, op, skip, &p)
	if err != nil {
		return dst, err
	}
	return closeRow(out, len(dst), p.n, p.mistyped == 0), nil
}

// Walk is AppendEncoded with two more outputs, for the verification
// kernel, which reads each stored ledger version in this one pass: it sets
// hidden[j] to the integer at ordinal ords[j] — at most four of them — as
// sqltypes.DecodeColumns reads it (0 for a NULL, a non-integer or a column
// the row predates), and appends the row's serialization under op and skip
// to *ins and under OpDelete with no mask to *del — a version's insert and
// delete leaves — for each of the two that is not nil. skip masks at most
// two ordinals: a ledger table's end columns.
//
// err is DecodeColumns' error: the row does not read as far as its hidden
// ordinals. serr is AppendEncoded's: the row reads that far but is no row
// of the layout, and *ins and *del are left as they were.
func (l *Layout) Walk(stored []byte, ords []int, hidden []int64, op OpType, skip SkipMask, ins, del *[]byte) (err, serr error) {
	if ins != nil || del != nil {
		// The insert side is the delete side less the values skip masks,
		// so one side is transcoded — the delete side if asked for — and
		// the insert side is copied out of it around them.
		p, out, outOp := pass{ords: ords, hidden: hidden, cut: ins != nil && del != nil}, ins, op
		for j, o := range ords {
			hidden[j] = 0
			p.marked |= 1 << min(o, 63)
		}
		if del != nil {
			out, outOp = del, OpDelete
			if ins == nil {
				skip = nil
			}
		}
		start := len(*out)
		var buf []byte
		if buf, serr = l.transcode(*out, stored, outOp, skip, &p); serr == nil {
			if p.cut {
				a, from := append(*ins, Version, byte(op), 0), start+3 // 3: after the count slot
				for _, sp := range p.spans[:p.cutN] {
					a, from = append(a, buf[from:sp[0]]...), sp[1]
				}
				*ins = closeRow(append(a, buf[from:]...), len(*ins), p.n-p.cutN, p.mistyped == p.cutMistyped)
			}
			*out = closeRow(buf, start, p.n, p.mistyped == 0)
			return nil, nil
		}
	}
	// Asked for no side — a pass that wants few of the versions it reads —
	// or for a row that is none of the layout: the hidden columns as
	// DecodeColumns reads them, whose error is the one a row that does not
	// read that far gets.
	var vals [4]sqltypes.Value
	if err := sqltypes.DecodeColumns(vals[:len(ords)], stored, ords, l.cols); err != nil {
		return err, nil
	}
	for j := range ords {
		hidden[j] = vals[j].Int()
	}
	return nil, serr
}

// pass is what one transcode reads besides the serialization it writes.
type pass struct {
	// ords are the hidden ordinals (marked has bit min(o, 63) set for each
	// o), and hidden receives their integers.
	ords   []int
	hidden []int64
	marked uint64
	// cut keeps the values skip masks, and puts their places in the
	// serialization in spans: at most two.
	cut   bool
	spans [2][2]int
	// The values serialized and those not of their column's type, in all
	// and of those cut.
	n, mistyped, cutN, cutMistyped int
}

// transcode appends to dst the serialization under op and skip of the row
// stored holds — or under op alone, with the spans of the values skip masks,
// if p.cut — reading p's hidden integers on the way. It leaves the count
// slot open (closeRow).
func (l *Layout) transcode(dst, stored []byte, op OpType, skip SkipMask, p *pass) ([]byte, error) {
	width, pos := sqltypes.Uvarint(stored)
	if pos <= 0 {
		return dst, fmt.Errorf("serial: bad row header")
	}
	if width > uint64(len(l.headers)) {
		return dst, fmt.Errorf("serial: row of %d values under a schema of %d columns", width, len(l.headers))
	}
	dst = append(dst, Version, byte(op), 0) // 0: the count slot
	n, mistyped := 0, 0
	for i := 0; i < int(width); i++ {
		if pos+sqltypes.ValueHeaderLen > len(stored) { // before ValueHeader, to keep serial's wording
			return dst, fmt.Errorf("serial: row truncated at value %d", i)
		}
		tag, null, next, err := sqltypes.ValueHeader(stored, pos, i)
		if err != nil {
			return dst, err
		}
		pos = next
		if null {
			if tag != l.cols[i].Type {
				mistyped++ // never cut: it is in neither side's serialization
			}
			continue
		}
		masked, typed, from := skip.Has(i), tag == l.cols[i].Type, len(dst)
		keep := !masked || p.cut
		if keep {
			n++
			if !typed {
				mistyped++
			}
			dst = append(dst, l.headers[i]...)
		}
		// The payload: one uvarint, which by the tag's class is a length
		// with that many bytes after it, a float's bits, or an integer in
		// zigzag form (binary.Varint).
		u, sz := sqltypes.Uvarint(stored[pos:])
		if sz <= 0 {
			return dst, fmt.Errorf("serial: bad value %d", i)
		}
		pos += sz
		switch {
		case tag.IsString() || tag.IsBytes():
			if u > uint64(len(stored)-pos) {
				return dst, fmt.Errorf("serial: value %d truncated", i)
			}
			if keep {
				dst = appendVar(dst, stored[pos:pos+int(u)])
			}
			pos += int(u)
		case tag == sqltypes.TypeFloat:
			if keep {
				dst = appendFixed(dst, u)
			}
		default:
			u = u>>1 ^ -(u & 1)
			if p.marked&(1<<min(i, 63)) != 0 {
				p.read(i, int64(u))
			}
			if keep {
				dst = appendFixed(dst, u)
			}
		}
		if masked && keep {
			p.spans[p.cutN] = [2]int{from, len(dst)} // panics past two
			p.cutN++
			if !typed {
				p.cutMistyped++
			}
		}
	}
	if pos != len(stored) {
		return dst, fmt.Errorf("serial: %d trailing bytes after row", len(stored)-pos)
	}
	p.n, p.mistyped = n, mistyped
	return dst, nil
}

// read stores integer v, value i of the row, as each hidden ordinal that
// is i.
func (p *pass) read(i int, v int64) {
	for j, o := range p.ords {
		if o == i {
			p.hidden[j] = v
		}
	}
}

// HashEncoded is HashRow of a stored row: the LEDGERHASH of the version
// stored holds, computed from its bytes.
func (l *Layout) HashEncoded(stored []byte, op OpType, skip SkipMask) (merkle.Hash, error) {
	bp := bufPool.Get().(*[]byte)
	buf, err := l.AppendEncoded((*bp)[:0], stored, op, skip)
	var h merkle.Hash
	if err == nil {
		h = merkle.HashLeaf(buf)
	}
	*bp = buf
	bufPool.Put(bp)
	return h, err
}
