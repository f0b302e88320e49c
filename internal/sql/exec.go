package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlledger/internal/core"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Columns/Rows are set for SELECT (and GENERATE DIGEST, which returns
	// a one-row relation holding the JSON document).
	Columns []string
	Rows    []sqltypes.Row
	// RowsAffected is set for DML.
	RowsAffected int
	// Message carries DDL/transaction-control acknowledgements.
	Message string
}

// Session executes SQL against a ledger database. Statements outside an
// explicit BEGIN ... COMMIT run in autocommit mode. A Session is not safe
// for concurrent use (like a database connection).
type Session struct {
	db   *core.DB
	user string

	tx         *core.Tx
	savepoints map[string]int

	// stmtHists caches the per-statement-fingerprint latency histograms
	// (sqlledger_statement_seconds{stmt="..."}) so repeated statements
	// skip the registry lookup. Fingerprint cardinality is verb × table.
	stmtHists map[string]*obs.Histogram
}

// NewSession opens a SQL session for user.
func NewSession(db *core.DB, user string) *Session {
	return &Session{db: db, user: user, savepoints: make(map[string]int)}
}

// Exec parses and executes one statement.
func (s *Session) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecStatement(st)
}

// ExecScript executes a semicolon-separated script, returning the result
// of each statement. Execution stops at the first error.
func (s *Session) ExecScript(src string) ([]*Result, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, st := range stmts {
		r, err := s.ExecStatement(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Close rolls back any open transaction.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// begin returns the transaction to run one statement in and a done
// function that commits in autocommit mode (or keeps the explicit
// transaction open). verb and table identify the statement: its
// fingerprint ("insert accounts") keys the per-statement latency
// histogram and annotates the transaction's trace, so a slow-query entry
// can say which statement ran against which tables.
func (s *Session) begin(verb, table string) (*core.Tx, func(error) error) {
	tbl := strings.ToLower(table)
	fp := verb + " " + tbl
	start := time.Now()
	tx := s.tx
	autocommit := tx == nil
	if autocommit {
		tx = s.db.Begin(s.user)
	}
	if tr := tx.Trace(); tr != nil {
		noteStatement(tr, fp, tbl)
	}
	return tx, func(err error) error {
		// The statement span and the trace ID must be taken before the
		// autocommit below: Commit finishes the trace.
		var tid obs.TraceID
		if tr := tx.Trace(); tr != nil {
			tid = tr.ID()
			tr.Record(obs.SpanStatement, 0, start, time.Since(start), obs.L(obs.AttrStatement, fp))
		}
		if autocommit {
			if err != nil {
				tx.Rollback()
			} else {
				err = tx.Commit()
			}
		}
		// The histogram sees the full statement latency, commit included,
		// with the trace ID as the bucket's exemplar.
		s.stmtHist(fp).ObserveTraced(time.Since(start).Seconds(), tid)
		return err
	}
}

// noteStatement accumulates statement context onto the trace: the
// fingerprint list and the set of tables touched, rendered into slow-query
// entries when the trace is retained.
func noteStatement(tr *obs.Trace, fp, table string) {
	if prev := tr.Attr(obs.AttrStatement); prev == "" {
		tr.SetAttr(obs.AttrStatement, fp)
	} else if prev != fp {
		tr.SetAttr(obs.AttrStatement, prev+"; "+fp)
	}
	if prev := tr.Attr(obs.AttrTables); prev == "" {
		tr.SetAttr(obs.AttrTables, table)
	} else if !strings.Contains(","+prev+",", ","+table+",") {
		tr.SetAttr(obs.AttrTables, prev+","+table)
	}
}

// stmtHist returns (caching per session) the latency histogram for one
// statement fingerprint.
func (s *Session) stmtHist(fp string) *obs.Histogram {
	h := s.stmtHists[fp]
	if h == nil {
		if s.stmtHists == nil {
			s.stmtHists = make(map[string]*obs.Histogram)
		}
		h = s.db.Obs().Histogram(obs.StatementSeconds, nil, obs.L("stmt", fp))
		s.stmtHists[fp] = h
	}
	return h
}

// ExecStatement executes a parsed statement.
func (s *Session) ExecStatement(st Statement) (*Result, error) {
	switch st := st.(type) {
	case *CreateTable:
		return s.createTable(st)
	case *DropTable:
		if err := s.db.DropLedgerTable(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s dropped (data retained for verification)", st.Name)}, nil
	case *AlterAddColumn:
		lt, err := s.db.LedgerTable(st.Table)
		if err != nil {
			return nil, err
		}
		col := sqltypes.Column{
			Name: st.Column.Name, Type: st.Column.Type, Len: st.Column.Len,
			Prec: st.Column.Prec, Scale: st.Column.Scale, Nullable: st.Column.Nullable,
		}
		if err := s.db.AddColumn(lt, col); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("column %s added to %s", st.Column.Name, st.Table)}, nil
	case *AlterDropColumn:
		lt, err := s.db.LedgerTable(st.Table)
		if err != nil {
			return nil, err
		}
		if err := s.db.DropColumn(lt, st.Column); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("column %s dropped from %s (data retained)", st.Column, st.Table)}, nil
	case *CreateIndex:
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		if _, err := eng.CreateIndex(st.Table, st.Name, st.Columns...); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("index %s created on %s", st.Name, st.Table)}, nil
	case *Insert:
		return s.insert(st)
	case *Update:
		return s.update(st)
	case *Delete:
		return s.delete(st)
	case *Select:
		return s.selectStmt(st)
	case *BeginStmt:
		if s.tx != nil {
			return nil, fmt.Errorf("sql: a transaction is already open")
		}
		s.tx = s.db.Begin(s.user)
		s.savepoints = make(map[string]int)
		return &Result{Message: "transaction started"}, nil
	case *CommitStmt:
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no open transaction")
		}
		err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Message: "committed"}, nil
	case *RollbackStmt:
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no open transaction")
		}
		s.tx.Rollback()
		s.tx = nil
		return &Result{Message: "rolled back"}, nil
	case *SavepointStmt:
		if s.tx == nil {
			return nil, fmt.Errorf("sql: SAVE TRANSACTION requires an open transaction")
		}
		s.savepoints[strings.ToLower(st.Name)] = s.tx.Savepoint()
		return &Result{Message: fmt.Sprintf("savepoint %s", st.Name)}, nil
	case *RollbackToStmt:
		if s.tx == nil {
			return nil, fmt.Errorf("sql: ROLLBACK TO requires an open transaction")
		}
		tok, ok := s.savepoints[strings.ToLower(st.Name)]
		if !ok {
			return nil, fmt.Errorf("sql: unknown savepoint %q", st.Name)
		}
		if err := s.tx.RollbackTo(tok); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("rolled back to %s", st.Name)}, nil
	case *GenerateDigest:
		d, err := s.db.GenerateDigest()
		if err != nil {
			return nil, err
		}
		return &Result{
			Columns: []string{"digest"},
			Rows:    []sqltypes.Row{{sqltypes.NewNVarChar(string(d.JSON()))}},
		}, nil
	case *VerifyStmt:
		rep, err := s.db.Verify(nil, core.VerifyOptions{})
		if err != nil {
			return nil, err
		}
		return &Result{Message: rep.String()}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func (s *Session) createTable(st *CreateTable) (*Result, error) {
	cols := make([]sqltypes.Column, len(st.Columns))
	for i, cd := range st.Columns {
		cols[i] = sqltypes.Column{
			Name: cd.Name, Type: cd.Type, Len: cd.Len, Prec: cd.Prec,
			Scale: cd.Scale, Nullable: cd.Nullable,
		}
	}
	schema, err := sqltypes.NewSchema(cols, st.PrimaryKey...)
	if err != nil {
		return nil, err
	}
	if !st.Ledger {
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		if _, err := eng.CreateTable(engine.CreateTableSpec{Name: st.Name, Schema: schema}); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s created", st.Name)}, nil
	}
	kind := engine.LedgerUpdateable
	if st.AppendOnly {
		kind = engine.LedgerAppendOnly
	}
	if _, err := s.db.CreateLedgerTable(st.Name, schema, kind); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("ledger table %s created (%s)", st.Name, kind)}, nil
}

// resolve finds the target of a DML/SELECT statement: a ledger table, a
// regular table, or (SELECT only) a ledger view named "<table>_ledger".
type target struct {
	lt   *core.LedgerTable
	et   *engine.Table
	view bool
}

func (s *Session) resolve(name string, allowView bool) (target, error) {
	if allowView {
		if base, ok := strings.CutSuffix(strings.ToLower(name), "_ledger"); ok {
			if lt, err := s.db.LedgerTable(base); err == nil {
				return target{lt: lt, view: true}, nil
			}
		}
	}
	if lt, err := s.db.LedgerTable(name); err == nil {
		return target{lt: lt}, nil
	}
	if eng, err := s.engine(); err == nil {
		if et, err := eng.Table(name); err == nil {
			return target{et: et}, nil
		}
	}
	return target{}, fmt.Errorf("sql: table %q not found", name)
}

// engine returns the engine that holds regular tables and indexes. Those
// are objects of one shard, not routed, so only a one-shard database has
// an engine a statement can mean; elsewhere the error is ErrMultiShard.
func (s *Session) engine() (*engine.DB, error) {
	sh, err := s.db.Single()
	if err != nil {
		return nil, err
	}
	return sh.Engine(), nil
}

// visibleColumns returns the queryable columns of a target.
func (t target) visibleColumns() []sqltypes.Column {
	if t.lt != nil {
		cols := t.lt.VisibleColumns()
		if t.view {
			n := len(cols)
			cols = append(append([]sqltypes.Column(nil), cols...),
				sqltypes.Column{Name: "operation", Type: sqltypes.TypeNVarChar, Ordinal: n},
				sqltypes.Column{Name: "transaction_id", Type: sqltypes.TypeBigInt, Ordinal: n + 1},
				sqltypes.Column{Name: "sequence_number", Type: sqltypes.TypeBigInt, Ordinal: n + 2},
			)
		}
		// Re-number positionally: visible rows are dense.
		for i := range cols {
			cols[i].Ordinal = i
		}
		return cols
	}
	return t.et.Schema().VisibleColumns()
}

// coerce converts a literal to a value of the column's type.
func coerce(col sqltypes.Column, lit Literal) (sqltypes.Value, error) {
	if lit.IsNull {
		return sqltypes.NewNull(col.Type), nil
	}
	switch {
	case lit.IsBool:
		if col.Type != sqltypes.TypeBit {
			return sqltypes.Value{}, fmt.Errorf("sql: boolean literal for non-BIT column %s", col.Name)
		}
		return sqltypes.NewBit(lit.Bool), nil
	case lit.IsString:
		switch {
		case col.Type.IsString():
			return sqltypes.Value{Type: col.Type, Str: lit.Text}, nil
		case col.Type == sqltypes.TypeDateTime:
			t, err := time.Parse(time.RFC3339, lit.Text)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("sql: column %s: %v", col.Name, err)
			}
			return sqltypes.NewDateTime(t), nil
		case col.Type.IsBytes():
			return sqltypes.Value{Type: col.Type, Bytes: []byte(lit.Text)}, nil
		}
		return sqltypes.Value{}, fmt.Errorf("sql: string literal for %s column %s", col.Type, col.Name)
	default: // number
		switch {
		case col.Type == sqltypes.TypeFloat:
			f, err := strconv.ParseFloat(lit.Text, 64)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("sql: column %s: %v", col.Name, err)
			}
			return sqltypes.NewFloat(f), nil
		case col.Type.IsInteger() || col.Type == sqltypes.TypeDecimal:
			n, err := strconv.ParseInt(lit.Text, 10, 64)
			if err != nil {
				return sqltypes.Value{}, fmt.Errorf("sql: column %s: %v", col.Name, err)
			}
			return sqltypes.Value{Type: col.Type, I64: n}, nil
		}
		return sqltypes.Value{}, fmt.Errorf("sql: numeric literal for %s column %s", col.Type, col.Name)
	}
}

// compilePredicate turns WHERE conditions into a row predicate over the
// target's visible columns.
func compilePredicate(cols []sqltypes.Column, where []Condition) (func(sqltypes.Row) bool, error) {
	type check struct {
		pos int
		op  string
		val sqltypes.Value
	}
	var checks []check
	for _, c := range where {
		pos := -1
		for i, col := range cols {
			if strings.EqualFold(col.Name, c.Column) {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Column)
		}
		v, err := coerce(cols[pos], c.Value)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check{pos: pos, op: c.Op, val: v})
	}
	return func(r sqltypes.Row) bool {
		for _, c := range checks {
			cell := r[c.pos]
			if cell.Null || c.val.Null {
				// SQL ternary logic: comparisons with NULL are not true.
				return false
			}
			cmp := cell.Compare(c.val)
			ok := false
			switch c.op {
			case "=":
				ok = cmp == 0
			case "<>":
				ok = cmp != 0
			case "<":
				ok = cmp < 0
			case ">":
				ok = cmp > 0
			case "<=":
				ok = cmp <= 0
			case ">=":
				ok = cmp >= 0
			}
			if !ok {
				return false
			}
		}
		return true
	}, nil
}

func (s *Session) insert(st *Insert) (*Result, error) {
	tgt, err := s.resolve(st.Table, false)
	if err != nil {
		return nil, err
	}
	cols := tgt.visibleColumns()
	// Map the named column list (or default order) onto visible columns.
	order := make([]int, len(cols))
	if len(st.Columns) == 0 {
		for i := range order {
			order[i] = i
		}
	} else {
		for i := range order {
			order[i] = -1
		}
		for li, name := range st.Columns {
			pos := -1
			for i, c := range cols {
				if strings.EqualFold(c.Name, name) {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("sql: unknown column %q", name)
			}
			order[pos] = li
		}
	}
	tx, done := s.begin("insert", st.Table)
	n := 0
	for _, litRow := range st.Rows {
		if len(st.Columns) == 0 && len(litRow) != len(cols) {
			return nil, done(fmt.Errorf("sql: %d values for %d columns", len(litRow), len(cols)))
		}
		if len(st.Columns) != 0 && len(litRow) != len(st.Columns) {
			return nil, done(fmt.Errorf("sql: %d values for %d named columns", len(litRow), len(st.Columns)))
		}
		row := make(sqltypes.Row, len(cols))
		for i, c := range cols {
			if order[i] < 0 {
				row[i] = sqltypes.NewNull(c.Type)
				continue
			}
			v, err := coerce(c, litRow[order[i]])
			if err != nil {
				return nil, done(err)
			}
			row[i] = v
		}
		if tgt.lt != nil {
			err = tx.Insert(tgt.lt, row)
		} else {
			_, err = tx.Raw().Insert(tgt.et, row)
		}
		if err != nil {
			return nil, done(err)
		}
		n++
	}
	if err := done(nil); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// scanVisible iterates the visible rows of a target inside tx.
func scanVisible(tx *core.Tx, tgt target, fn func(sqltypes.Row) bool) error {
	if tgt.view {
		for _, vr := range tgt.lt.LedgerView() {
			row := append(append(sqltypes.Row{}, vr.Row...),
				sqltypes.NewNVarChar(vr.Operation),
				sqltypes.NewBigInt(int64(vr.TxID)),
				sqltypes.NewBigInt(int64(vr.Seq)),
			)
			if !fn(row) {
				return nil
			}
		}
		return nil
	}
	if tgt.lt != nil {
		return tx.Scan(tgt.lt, fn)
	}
	return tx.Raw().Scan(tgt.et, func(_ []byte, r sqltypes.Row) bool {
		return fn(visibleOf(tgt.et, r))
	})
}

func visibleOf(et *engine.Table, full sqltypes.Row) sqltypes.Row {
	s := et.Schema()
	out := make(sqltypes.Row, 0, len(full))
	for i, c := range s.Columns {
		if !c.Hidden && !c.Dropped {
			out = append(out, full[i])
		}
	}
	return out
}

func (s *Session) update(st *Update) (*Result, error) {
	tgt, err := s.resolve(st.Table, false)
	if err != nil {
		return nil, err
	}
	if tgt.lt == nil {
		return nil, fmt.Errorf("sql: UPDATE on regular tables is supported through the Go API only")
	}
	cols := tgt.visibleColumns()
	pred, err := compilePredicate(cols, st.Where)
	if err != nil {
		return nil, err
	}
	type setOp struct {
		pos int
		val sqltypes.Value
	}
	var sets []setOp
	for _, set := range st.Set {
		pos := -1
		for i, c := range cols {
			if strings.EqualFold(c.Name, set.Column) {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in SET", set.Column)
		}
		v, err := coerce(cols[pos], set.Value)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{pos: pos, val: v})
	}
	tx, done := s.begin("update", st.Table)
	var matches []sqltypes.Row
	if err := scanVisible(tx, tgt, func(r sqltypes.Row) bool {
		if pred(r) {
			matches = append(matches, r.Clone())
		}
		return true
	}); err != nil {
		return nil, done(err)
	}
	for _, row := range matches {
		for _, set := range sets {
			row[set.pos] = set.val
		}
		if err := tx.Update(tgt.lt, row); err != nil {
			return nil, done(err)
		}
	}
	if err := done(nil); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(matches)}, nil
}

func (s *Session) delete(st *Delete) (*Result, error) {
	tgt, err := s.resolve(st.Table, false)
	if err != nil {
		return nil, err
	}
	if tgt.lt == nil {
		return nil, fmt.Errorf("sql: DELETE on regular tables is supported through the Go API only")
	}
	cols := tgt.visibleColumns()
	pred, err := compilePredicate(cols, st.Where)
	if err != nil {
		return nil, err
	}
	// Collect the primary-key values of matching rows.
	keyOrds := tgt.lt.Schema().Key
	visOfOrd := make(map[int]int) // schema ordinal -> visible position
	for i, c := range tgt.lt.VisibleColumns() {
		visOfOrd[c.Ordinal] = i
	}
	// Recompute against the original (non-renumbered) visible columns.
	visPos := make([]int, len(keyOrds))
	for i, ord := range keyOrds {
		p, ok := visOfOrd[ord]
		if !ok {
			return nil, fmt.Errorf("sql: primary key column is not visible")
		}
		visPos[i] = p
	}
	tx, done := s.begin("delete", st.Table)
	var keys [][]sqltypes.Value
	if err := scanVisible(tx, tgt, func(r sqltypes.Row) bool {
		if pred(r) {
			kv := make([]sqltypes.Value, len(visPos))
			for i, p := range visPos {
				kv[i] = r[p].Clone()
			}
			keys = append(keys, kv)
		}
		return true
	}); err != nil {
		return nil, done(err)
	}
	for _, kv := range keys {
		if err := tx.Delete(tgt.lt, kv...); err != nil {
			return nil, done(err)
		}
	}
	if err := done(nil); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(keys)}, nil
}

func (s *Session) selectStmt(st *Select) (*Result, error) {
	tgt, err := s.resolve(st.Table, true)
	if err != nil {
		return nil, err
	}
	cols := tgt.visibleColumns()
	pred, err := compilePredicate(cols, st.Where)
	if err != nil {
		return nil, err
	}
	// Projection list.
	var proj []int
	var outCols []string
	if st.CountAll {
		outCols = []string{"count"}
	} else if len(st.Columns) == 0 {
		for i, c := range cols {
			proj = append(proj, i)
			outCols = append(outCols, c.Name)
		}
	} else {
		for _, name := range st.Columns {
			pos := -1
			for i, c := range cols {
				if strings.EqualFold(c.Name, name) {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("sql: unknown column %q", name)
			}
			proj = append(proj, pos)
			outCols = append(outCols, cols[pos].Name)
		}
	}
	orderPos := -1
	if st.OrderBy != "" {
		for i, c := range cols {
			if strings.EqualFold(c.Name, st.OrderBy) {
				orderPos = i
				break
			}
		}
		if orderPos < 0 {
			return nil, fmt.Errorf("sql: unknown column %q in ORDER BY", st.OrderBy)
		}
	}

	tx, done := s.begin("select", st.Table)
	var matched []sqltypes.Row
	if err := scanVisible(tx, tgt, func(r sqltypes.Row) bool {
		if pred(r) {
			matched = append(matched, r.Clone())
		}
		return true
	}); err != nil {
		return nil, done(err)
	}
	if err := done(nil); err != nil {
		return nil, err
	}
	if st.CountAll {
		return &Result{Columns: outCols, Rows: []sqltypes.Row{{sqltypes.NewBigInt(int64(len(matched)))}}}, nil
	}
	if orderPos >= 0 {
		sort.SliceStable(matched, func(i, j int) bool {
			c := matched[i][orderPos].Compare(matched[j][orderPos])
			if st.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if st.Limit > 0 && len(matched) > st.Limit {
		matched = matched[:st.Limit]
	}
	rows := make([]sqltypes.Row, len(matched))
	for i, r := range matched {
		out := make(sqltypes.Row, len(proj))
		for j, p := range proj {
			out[j] = r[p]
		}
		rows[i] = out
	}
	return &Result{Columns: outCols, Rows: rows}, nil
}
