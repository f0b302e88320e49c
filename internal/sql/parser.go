package sql

import (
	"fmt"
	"strconv"

	"sqlledger/internal/sqltypes"
)

// Parse parses one SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	sts, err := ParseScript(src)
	if err == nil && len(sts) != 1 {
		err = fmt.Errorf("sql: %d statements where one was expected", len(sts))
	}
	if err != nil {
		return nil, err
	}
	return sts[0], nil
}

// ParseScript parses the statements of src, separated by semicolons. It
// lexes src once, so a semicolon in a string literal or a comment
// separates nothing, and empty statements are skipped.
func ParseScript(src string) ([]Statement, error) {
	toks, err := (&lexer{src: src}).lex()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for {
		for p.accept(tkSymbol, ";") {
		}
		if p.at(tkEOF, "") {
			return out, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.at(tkSymbol, ";") && !p.at(tkEOF, "") {
			return nil, p.errorf("unexpected %q after statement", p.cur().text)
		}
	}
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errorf("expected %s, got %q", want, p.cur().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) ident() (string, error) {
	if p.at(tkIdent, "") {
		return p.next().text, nil
	}
	return "", p.errorf("expected identifier, got %q", p.cur().text)
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.accept(tkKeyword, "CREATE"):
		if p.accept(tkKeyword, "INDEX") {
			return p.createIndex()
		}
		if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
			return nil, err
		}
		return p.createTable()
	case p.accept(tkKeyword, "DROP"):
		if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.accept(tkKeyword, "ALTER"):
		return p.alter()
	case p.accept(tkKeyword, "INSERT"):
		return p.insert()
	case p.accept(tkKeyword, "UPDATE"):
		return p.update()
	case p.accept(tkKeyword, "DELETE"):
		return p.delete()
	case p.accept(tkKeyword, "SELECT"):
		return p.selectStmt()
	case p.accept(tkKeyword, "BEGIN"):
		p.accept(tkKeyword, "TRANSACTION")
		return &BeginStmt{}, nil
	case p.accept(tkKeyword, "COMMIT"):
		p.accept(tkKeyword, "TRANSACTION")
		return &CommitStmt{}, nil
	case p.accept(tkKeyword, "ROLLBACK"):
		p.accept(tkKeyword, "TRANSACTION")
		if p.accept(tkKeyword, "TO") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &RollbackToStmt{Name: name}, nil
		}
		return &RollbackStmt{}, nil
	case p.accept(tkKeyword, "SAVE"):
		p.accept(tkKeyword, "TRANSACTION")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &SavepointStmt{Name: name}, nil
	case p.accept(tkKeyword, "SAVEPOINT"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &SavepointStmt{Name: name}, nil
	case p.accept(tkKeyword, "GENERATE"):
		if _, err := p.expect(tkKeyword, "DIGEST"); err != nil {
			return nil, err
		}
		return &GenerateDigest{}, nil
	case p.accept(tkKeyword, "VERIFY"):
		p.accept(tkKeyword, "LEDGER")
		return &VerifyStmt{}, nil
	default:
		return nil, p.errorf("unexpected %q at start of statement", p.cur().text)
	}
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, err := p.identList()
	if err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols}, nil
}

// identList parses "( a, b, c )".
func (p *parser) identList() ([]string, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.accept(tkSymbol, ",") {
			continue
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

var typeNames = map[string]sqltypes.TypeID{
	"BIT": sqltypes.TypeBit, "TINYINT": sqltypes.TypeTinyInt,
	"SMALLINT": sqltypes.TypeSmallInt, "INT": sqltypes.TypeInt,
	"BIGINT": sqltypes.TypeBigInt, "FLOAT": sqltypes.TypeFloat,
	"DECIMAL": sqltypes.TypeDecimal, "CHAR": sqltypes.TypeChar,
	"VARCHAR": sqltypes.TypeVarChar, "NVARCHAR": sqltypes.TypeNVarChar,
	"BINARY": sqltypes.TypeBinary, "VARBINARY": sqltypes.TypeVarBinary,
	"DATETIME": sqltypes.TypeDateTime, "UNIQUEIDENTIFIER": sqltypes.TypeUniqueID,
}

func (p *parser) columnType() (sqltypes.TypeID, int, int, int, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return 0, 0, 0, 0, p.errorf("expected a type name, got %q", t.text)
	}
	typ, ok := typeNames[t.text]
	if !ok {
		return 0, 0, 0, 0, p.errorf("unknown type %q", t.text)
	}
	p.next()
	var l, prec, scale int
	if p.accept(tkSymbol, "(") {
		n1, err := p.number()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if typ == sqltypes.TypeDecimal {
			prec = int(n1)
			if p.accept(tkSymbol, ",") {
				n2, err := p.number()
				if err != nil {
					return 0, 0, 0, 0, err
				}
				scale = int(n2)
			}
		} else {
			l = int(n1)
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	return typ, l, prec, scale, nil
}

func (p *parser) number() (int64, error) {
	t := p.cur()
	if t.kind != tkNumber {
		return 0, p.errorf("expected a number, got %q", t.text)
	}
	p.next()
	return strconv.ParseInt(t.text, 10, 64)
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	for {
		if p.accept(tkKeyword, "PRIMARY") {
			if _, err := p.expect(tkKeyword, "KEY"); err != nil {
				return nil, err
			}
			ct.PrimaryKey, err = p.identList()
			if err != nil {
				return nil, err
			}
		} else {
			cd, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, cd)
		}
		if p.accept(tkSymbol, ",") {
			continue
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	if p.accept(tkKeyword, "WITH") {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		for {
			opt, err := p.expectKeywordAny("LEDGER", "APPEND_ONLY")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, "="); err != nil {
				return nil, err
			}
			on, err := p.expectKeywordAny("ON", "OFF")
			if err != nil {
				return nil, err
			}
			switch opt {
			case "LEDGER":
				ct.Ledger = on == "ON"
			case "APPEND_ONLY":
				ct.AppendOnly = on == "ON"
			}
			if p.accept(tkSymbol, ",") {
				continue
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	return ct, nil
}

func (p *parser) expectKeywordAny(names ...string) (string, error) {
	for _, n := range names {
		if p.accept(tkKeyword, n) {
			return n, nil
		}
	}
	return "", p.errorf("expected one of %v, got %q", names, p.cur().text)
}

func (p *parser) columnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	cd.Type, cd.Len, cd.Prec, cd.Scale, err = p.columnType()
	if err != nil {
		return cd, err
	}
	switch {
	case p.accept(tkKeyword, "NOT"):
		if _, err := p.expect(tkKeyword, "NULL"); err != nil {
			return cd, err
		}
	case p.accept(tkKeyword, "NULL"):
		cd.Nullable = true
	}
	return cd, nil
}

func (p *parser) alter() (Statement, error) {
	if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch {
	case p.accept(tkKeyword, "ADD"):
		p.accept(tkKeyword, "COLUMN")
		cd, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		return &AlterAddColumn{Table: table, Column: cd}, nil
	case p.accept(tkKeyword, "DROP"):
		if _, err := p.expect(tkKeyword, "COLUMN"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &AlterDropColumn{Table: table, Column: col}, nil
	}
	return nil, p.errorf("expected ADD or DROP after ALTER TABLE")
}

func (p *parser) literal() (Literal, error) {
	t := p.cur()
	switch {
	case t.kind == tkKeyword && t.text == "NULL":
		p.next()
		return Literal{IsNull: true}, nil
	case t.kind == tkKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.next()
		return Literal{IsBool: true, Bool: t.text == "TRUE"}, nil
	case t.kind == tkNumber:
		p.next()
		return Literal{Text: t.text}, nil
	case t.kind == tkString:
		p.next()
		return Literal{IsString: true, Text: t.text}, nil
	}
	return Literal{}, p.errorf("expected a literal, got %q", t.text)
}

func (p *parser) insert() (Statement, error) {
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.at(tkSymbol, "(") {
		ins.Columns, err = p.identList()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if p.accept(tkSymbol, ",") {
				continue
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(tkSymbol, ",") {
			continue
		}
		return ins, nil
	}
}

func (p *parser) where() ([]Condition, error) {
	if !p.accept(tkKeyword, "WHERE") {
		return nil, nil
	}
	var out []Condition
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tkSymbol || (t.text != "=" && t.text != "<" && t.text != ">" && t.text != "<=" && t.text != ">=" && t.text != "<>") {
			return nil, p.errorf("expected a comparison operator, got %q", t.text)
		}
		p.next()
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		out = append(out, Condition{Column: col, Op: t.text, Value: lit})
		if p.accept(tkKeyword, "AND") {
			continue
		}
		return out, nil
	}
}

func (p *parser) update() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, struct {
			Column string
			Value  Literal
		}{col, lit})
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	up.Where, err = p.where()
	if err != nil {
		return nil, err
	}
	return up, nil
}

func (p *parser) delete() (Statement, error) {
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	del.Where, err = p.where()
	if err != nil {
		return nil, err
	}
	return del, nil
}

func (p *parser) selectStmt() (Statement, error) {
	sel := &Select{}
	switch {
	case p.accept(tkSymbol, "*"):
	case p.accept(tkKeyword, "COUNT"):
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "*"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		sel.CountAll = true
	default:
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, col)
			if p.accept(tkSymbol, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = table
	sel.Where, err = p.where()
	if err != nil {
		return nil, err
	}
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		sel.OrderBy, err = p.ident()
		if err != nil {
			return nil, err
		}
		if p.accept(tkKeyword, "DESC") {
			sel.Desc = true
		} else {
			p.accept(tkKeyword, "ASC")
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		sel.Limit = int(n)
	}
	return sel, nil
}
