package sql

import "testing"

func lexAll(t *testing.T, src string) []token {
	t.Helper()
	toks, err := (&lexer{src: src}).lex()
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return toks
}

func TestLexerBasics(t *testing.T) {
	toks := lexAll(t, `SELECT a, b2 FROM t WHERE a >= 10 AND b2 <> 'it''s'`)
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "b2", "FROM", "t", "WHERE", "a", ">=", "10", "AND", "b2", "<>", "it's", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != tkKeyword || kinds[1] != tkIdent || kinds[9] != tkNumber || kinds[13] != tkString || kinds[14] != tkEOF {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestLexerComments(t *testing.T) {
	toks := lexAll(t, "SELECT -- trailing comment\n1")
	if len(toks) != 3 || toks[1].text != "1" {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexerNegativeNumbers(t *testing.T) {
	toks := lexAll(t, "VALUES (-42, -3.5)")
	if toks[2].text != "-42" || toks[4].text != "-3.5" {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "SELECT @x", "a ! b"} {
		if _, err := (&lexer{src: src}).lex(); err == nil {
			t.Errorf("lexed %q without error", src)
		}
	}
}

func TestLexerCaseInsensitiveKeywords(t *testing.T) {
	toks := lexAll(t, "select From wHeRe")
	for i, want := range []string{"SELECT", "FROM", "WHERE"} {
		if toks[i].kind != tkKeyword || toks[i].text != want {
			t.Fatalf("token %d = %+v", i, toks[i])
		}
	}
}

// TestParseScriptSplits: statements split at semicolons outside string
// literals and comments; empty statements are skipped.
func TestParseScriptSplits(t *testing.T) {
	sts, err := ParseScript("BEGIN; INSERT INTO t VALUES ('x;y'); ; -- it's; a comment\nCOMMIT")
	if err != nil || len(sts) != 3 {
		t.Fatalf("ParseScript = %d statements, %v", len(sts), err)
	}
	if ins, ok := sts[1].(*Insert); !ok || ins.Rows[0][0].Text != "x;y" {
		t.Fatalf("statement 2 = %+v", sts[1])
	}
	if _, ok := sts[2].(*CommitStmt); !ok {
		t.Fatalf("statement 3 = %+v", sts[2])
	}
}

func TestParserRoundtripShapes(t *testing.T) {
	cases := map[string]string{
		`CREATE TABLE t (a INT NOT NULL, PRIMARY KEY (a)) WITH (LEDGER = ON)`: "*sql.CreateTable",
		`CREATE TABLE t (a INT NOT NULL)`:                                     "*sql.CreateTable",
		`CREATE INDEX ix ON t (a, b)`:                                         "*sql.CreateIndex",
		`DROP TABLE t`:                                                        "*sql.DropTable",
		`ALTER TABLE t ADD c NVARCHAR NULL`:                                   "*sql.AlterAddColumn",
		`ALTER TABLE t DROP COLUMN c`:                                         "*sql.AlterDropColumn",
		`INSERT INTO t VALUES (1)`:                                            "*sql.Insert",
		`UPDATE t SET a = 1 WHERE b = 2`:                                      "*sql.Update",
		`DELETE FROM t`:                                                       "*sql.Delete",
		`SELECT * FROM t`:                                                     "*sql.Select",
		`SELECT COUNT(*) FROM t`:                                              "*sql.Select",
		`SELECT a FROM t WHERE b > 1 AND c <= 2 ORDER BY a DESC LIMIT 5;`:     "*sql.Select",
		`BEGIN`:               "*sql.BeginStmt",
		`COMMIT`:              "*sql.CommitStmt",
		`ROLLBACK`:            "*sql.RollbackStmt",
		`ROLLBACK TO sp`:      "*sql.RollbackToStmt",
		`SAVE TRANSACTION sp`: "*sql.SavepointStmt",
		`SAVEPOINT sp`:        "*sql.SavepointStmt",
		`GENERATE DIGEST`:     "*sql.GenerateDigest",
		`VERIFY LEDGER`:       "*sql.VerifyStmt",
		`CREATE TABLE t (d DECIMAL(10,2) NULL, v VARCHAR(40) NOT NULL)`: "*sql.CreateTable",
		`INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, TRUE)`:            "*sql.Insert",
	}
	for src, wantType := range cases {
		st, err := Parse(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		if got := typeName(st); got != wantType {
			t.Errorf("parse %q = %s, want %s", src, got, wantType)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *CreateTable:
		return "*sql.CreateTable"
	case *CreateIndex:
		return "*sql.CreateIndex"
	case *DropTable:
		return "*sql.DropTable"
	case *AlterAddColumn:
		return "*sql.AlterAddColumn"
	case *AlterDropColumn:
		return "*sql.AlterDropColumn"
	case *Insert:
		return "*sql.Insert"
	case *Update:
		return "*sql.Update"
	case *Delete:
		return "*sql.Delete"
	case *Select:
		return "*sql.Select"
	case *BeginStmt:
		return "*sql.BeginStmt"
	case *CommitStmt:
		return "*sql.CommitStmt"
	case *RollbackStmt:
		return "*sql.RollbackStmt"
	case *RollbackToStmt:
		return "*sql.RollbackToStmt"
	case *SavepointStmt:
		return "*sql.SavepointStmt"
	case *GenerateDigest:
		return "*sql.GenerateDigest"
	case *VerifyStmt:
		return "*sql.VerifyStmt"
	default:
		return "unknown"
	}
}

func TestParserCreateTableDetails(t *testing.T) {
	st, err := Parse(`CREATE TABLE orders (
		id BIGINT NOT NULL,
		memo NVARCHAR NULL,
		price DECIMAL(12, 4) NULL,
		tag VARCHAR(16) NOT NULL,
		PRIMARY KEY (id)
	) WITH (LEDGER = ON, APPEND_ONLY = ON)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "orders" || !ct.Ledger || !ct.AppendOnly {
		t.Fatalf("create = %+v", ct)
	}
	if len(ct.Columns) != 4 || ct.Columns[1].Nullable != true || ct.Columns[0].Nullable {
		t.Fatalf("columns = %+v", ct.Columns)
	}
	if ct.Columns[2].Prec != 12 || ct.Columns[2].Scale != 4 || ct.Columns[3].Len != 16 {
		t.Fatalf("type params = %+v", ct.Columns)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
		t.Fatalf("pk = %v", ct.PrimaryKey)
	}
}

func TestParserSelectDetails(t *testing.T) {
	st, err := Parse(`SELECT a, b FROM t WHERE a = 'x' AND b >= 3 ORDER BY b DESC LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	if len(sel.Columns) != 2 || sel.Table != "t" || len(sel.Where) != 2 {
		t.Fatalf("select = %+v", sel)
	}
	if sel.Where[0].Op != "=" || !sel.Where[0].Value.IsString || sel.Where[1].Op != ">=" {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.OrderBy != "b" || !sel.Desc || sel.Limit != 7 {
		t.Fatalf("order/limit = %+v", sel)
	}
}
