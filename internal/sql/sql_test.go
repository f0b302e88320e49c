package sql

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlledger/internal/core"
	"sqlledger/internal/sqltypes"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	db, err := core.Open(core.Options{Dir: t.TempDir(), Name: "sqltest", BlockSize: 100, LockTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := NewSession(db, "sql-user")
	t.Cleanup(s.Close)
	return s
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	r, err := s.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return r
}

func renderRows(r *Result) string {
	var parts []string
	for _, row := range r.Rows {
		var cells []string
		for _, v := range row {
			cells = append(cells, v.String())
		}
		parts = append(parts, strings.Join(cells, "|"))
	}
	return strings.Join(parts, ";")
}

const createAccounts = `CREATE TABLE accounts (
	name NVARCHAR NOT NULL,
	balance BIGINT NOT NULL,
	PRIMARY KEY (name)
) WITH (LEDGER = ON)`

func TestSQLEndToEnd(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, createAccounts)
	r := mustExec(t, s, `INSERT INTO accounts VALUES ('nick', 100), ('john', 500), ('mary', 200)`)
	if r.RowsAffected != 3 {
		t.Fatalf("inserted %d", r.RowsAffected)
	}
	r = mustExec(t, s, `UPDATE accounts SET balance = 50 WHERE name = 'nick'`)
	if r.RowsAffected != 1 {
		t.Fatalf("updated %d", r.RowsAffected)
	}
	r = mustExec(t, s, `DELETE FROM accounts WHERE name = 'john'`)
	if r.RowsAffected != 1 {
		t.Fatalf("deleted %d", r.RowsAffected)
	}
	r = mustExec(t, s, `SELECT name, balance FROM accounts ORDER BY balance DESC`)
	if got := renderRows(r); got != "mary|200;nick|50" {
		t.Fatalf("select = %q", got)
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM accounts`)
	if got := renderRows(r); got != "2" {
		t.Fatalf("count = %q", got)
	}
	// The ledger view is queryable as <table>_ledger.
	r = mustExec(t, s, `SELECT name, balance, operation FROM accounts_ledger`)
	want := "nick|100|INSERT;john|500|INSERT;mary|200|INSERT;nick|100|DELETE;nick|50|INSERT;john|500|DELETE"
	if got := renderRows(r); got != want {
		t.Fatalf("ledger view =\n%q want\n%q", got, want)
	}
	// Digest + verify via SQL.
	r = mustExec(t, s, `GENERATE DIGEST`)
	if len(r.Rows) != 1 || !strings.Contains(r.Rows[0][0].Str, `"block_id"`) {
		t.Fatalf("digest = %v", r.Rows)
	}
	r = mustExec(t, s, `VERIFY LEDGER`)
	if !strings.Contains(r.Message, "OK") {
		t.Fatalf("verify = %q", r.Message)
	}
}

func TestSQLWherePredicates(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, createAccounts)
	mustExec(t, s, `INSERT INTO accounts VALUES ('a', 10), ('b', 20), ('c', 30), ('d', 40)`)
	cases := map[string]string{
		`SELECT name FROM accounts WHERE balance > 20`:                   "c;d",
		`SELECT name FROM accounts WHERE balance >= 20 AND balance < 40`: "b;c",
		`SELECT name FROM accounts WHERE balance <> 20`:                  "a;c;d",
		`SELECT name FROM accounts WHERE name = 'b'`:                     "b",
		`SELECT name FROM accounts WHERE balance <= 10`:                  "a",
		`SELECT name FROM accounts ORDER BY name LIMIT 2`:                "a;b",
	}
	for q, want := range cases {
		if got := renderRows(mustExec(t, s, q)); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// TestSQLTransactionsAndSavepoints runs on a database of one shard, as the
// subtest's name says.
func TestSQLTransactionsAndSavepoints(t *testing.T) { t.Run("shards-1", sqlTransactionsAndSavepoints) }

func sqlTransactionsAndSavepoints(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, createAccounts)
	mustExec(t, s, `BEGIN TRANSACTION`)
	mustExec(t, s, `INSERT INTO accounts VALUES ('keep', 1)`)
	mustExec(t, s, `SAVE TRANSACTION sp1`)
	mustExec(t, s, `INSERT INTO accounts VALUES ('drop', 2)`)
	mustExec(t, s, `ROLLBACK TO sp1`)
	mustExec(t, s, `COMMIT`)
	if got := renderRows(mustExec(t, s, `SELECT name FROM accounts`)); got != "keep" {
		t.Fatalf("rows = %q", got)
	}
	// Uncommitted work is invisible and discardable.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO accounts VALUES ('ghost', 3)`)
	mustExec(t, s, `ROLLBACK`)
	if got := renderRows(mustExec(t, s, `SELECT COUNT(*) FROM accounts`)); got != "1" {
		t.Fatalf("count = %q", got)
	}
	r := mustExec(t, s, `VERIFY`)
	if !strings.Contains(r.Message, "OK") {
		t.Fatalf("verify after savepoints: %q", r.Message)
	}
}

// TestSQLAppendOnlyAndSchemaChanges runs on a database of one shard, as
// the subtest's name says.
func TestSQLAppendOnlyAndSchemaChanges(t *testing.T) {
	t.Run("shards-1", sqlAppendOnlyAndSchemaChanges)
}

func sqlAppendOnlyAndSchemaChanges(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE audit (id BIGINT NOT NULL, event NVARCHAR NOT NULL, PRIMARY KEY (id)) WITH (LEDGER = ON, APPEND_ONLY = ON)`)
	mustExec(t, s, `INSERT INTO audit VALUES (1, 'created')`)
	if _, err := s.Exec(`UPDATE audit SET event = 'forged' WHERE id = 1`); err == nil {
		t.Fatal("update on append-only table accepted")
	}
	if _, err := s.Exec(`DELETE FROM audit WHERE id = 1`); err == nil {
		t.Fatal("delete on append-only table accepted")
	}
	mustExec(t, s, createAccounts)
	mustExec(t, s, `INSERT INTO accounts VALUES ('a', 1)`)
	mustExec(t, s, `ALTER TABLE accounts ADD note NVARCHAR NULL`)
	mustExec(t, s, `INSERT INTO accounts (name, balance, note) VALUES ('b', 2, 'hello')`)
	r := mustExec(t, s, `SELECT name, note FROM accounts ORDER BY name`)
	if got := renderRows(r); got != "a|NULL;b|hello" {
		t.Fatalf("after add column = %q", got)
	}
	mustExec(t, s, `ALTER TABLE accounts DROP COLUMN note`)
	if _, err := s.Exec(`SELECT note FROM accounts`); err == nil {
		t.Fatal("dropped column still selectable")
	}
	mustExec(t, s, `DROP TABLE accounts`)
	if _, err := s.Exec(`SELECT * FROM accounts`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	if !strings.Contains(mustExec(t, s, `VERIFY`).Message, "OK") {
		t.Fatal("verify after schema changes failed")
	}
}

func TestSQLCreateIndexAndRegularTables(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE plain (k BIGINT NOT NULL, v NVARCHAR NOT NULL, PRIMARY KEY (k))`)
	mustExec(t, s, `INSERT INTO plain VALUES (1, 'x'), (2, 'y')`)
	mustExec(t, s, `CREATE INDEX ix_v ON plain (v)`)
	r := mustExec(t, s, `SELECT v FROM plain WHERE k = 2`)
	if renderRows(r) != "y" {
		t.Fatalf("select = %q", renderRows(r))
	}
}

func TestSQLInsertNamedColumnsAndNulls(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (id BIGINT NOT NULL, a NVARCHAR NULL, b BIGINT NULL, PRIMARY KEY (id)) WITH (LEDGER = ON)`)
	mustExec(t, s, `INSERT INTO t (id, b) VALUES (1, 42)`)
	mustExec(t, s, `INSERT INTO t (b, id, a) VALUES (NULL, 2, 'set')`)
	r := mustExec(t, s, `SELECT id, a, b FROM t ORDER BY id`)
	if got := renderRows(r); got != "1|NULL|42;2|set|NULL" {
		t.Fatalf("rows = %q", got)
	}
}

func TestSQLScript(t *testing.T) {
	s := newSession(t)
	results, err := s.ExecScript(`
		-- a small script with comments
		CREATE TABLE accounts (name NVARCHAR NOT NULL, balance BIGINT NOT NULL,
			PRIMARY KEY (name)) WITH (LEDGER = ON);
		INSERT INTO accounts VALUES ('x', 1);
		INSERT INTO accounts VALUES ('it''s quoted; really', 2);
		SELECT name FROM accounts ORDER BY balance DESC LIMIT 1;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if got := renderRows(results[3]); got != "it's quoted; really" {
		t.Fatalf("quoted name = %q", got)
	}
}

func TestSQLParseErrors(t *testing.T) {
	s := newSession(t)
	for _, q := range []string{
		`SELEC * FROM t`,
		`CREATE TABLE`,
		`INSERT INTO t VALUES (`,
		`SELECT * FROM t WHERE a !! 1`,
		`UPDATE t SET`,
		`CREATE TABLE t (a FOO)`,
		`SELECT * FROM t; extra`,
		`INSERT INTO t VALUES ('unterminated)`,
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

// TestLedgerViewOfAnUndecodableRowIsAnError: a stored version cut by a
// byte is a storage-level edit, and reading the ledger view over it — the
// Go call and SELECT … FROM <table>_ledger alike — fails naming the table
// instead of killing the process.
func TestLedgerViewOfAnUndecodableRowIsAnError(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, createAccounts)
	mustExec(t, s, `INSERT INTO accounts VALUES ('ana', 50)`)
	mustExec(t, s, `INSERT INTO accounts VALUES ('bob', 75)`)
	lt, err := s.db.LedgerTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	key := sqltypes.EncodeKey(nil, sqltypes.NewNVarChar("ana"))
	stored, ok := lt.Table().LookupStored(key)
	if !ok {
		t.Fatal("no stored version of ana")
	}
	if err := s.db.Engine().TamperSetStoredRow(lt.Table(), key, stored[:len(stored)-1]); err != nil {
		t.Fatal(err)
	}
	if view, err := lt.LedgerView(); err == nil || !strings.Contains(err.Error(), "accounts") {
		t.Fatalf("LedgerView over a cut row = %d rows, %v; want an error naming accounts", len(view), err)
	}
	if r, err := s.Exec(`SELECT * FROM accounts_ledger`); err == nil || !strings.Contains(err.Error(), "accounts") {
		t.Fatalf("SELECT over a cut row = %+v, %v; want an error naming accounts", r, err)
	}
}

func TestSQLRuntimeErrors(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, createAccounts)
	for _, q := range []string{
		`SELECT * FROM nope`,
		`SELECT missing FROM accounts`,
		`INSERT INTO accounts VALUES ('x')`,
		`INSERT INTO accounts (name, nope) VALUES ('x', 1)`,
		`UPDATE accounts SET nope = 1`,
		`SELECT * FROM accounts WHERE nope = 1`,
		`COMMIT`,
		`ROLLBACK`,
		`SAVE TRANSACTION sp`,
		`INSERT INTO accounts VALUES ('x', 'not-a-number')`,
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
	// Duplicate key surfaces as an error and autocommit rolls back.
	mustExec(t, s, `INSERT INTO accounts VALUES ('dup', 1)`)
	if _, err := s.Exec(`INSERT INTO accounts VALUES ('dup', 2)`); err == nil {
		t.Fatal("duplicate accepted")
	}
	if got := renderRows(mustExec(t, s, `SELECT balance FROM accounts WHERE name = 'dup'`)); got != "1" {
		t.Fatalf("balance after failed insert = %q", got)
	}
}

func TestSQLValuesAllTypes(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE types (
		id BIGINT NOT NULL,
		flag BIT NULL, tiny TINYINT NULL, small SMALLINT NULL, i INT NULL,
		f FLOAT NULL, d DECIMAL(10,2) NULL, vc VARCHAR(20) NULL,
		nvc NVARCHAR NULL, vb VARBINARY NULL, ts DATETIME NULL,
		PRIMARY KEY (id)) WITH (LEDGER = ON)`)
	mustExec(t, s, `INSERT INTO types VALUES (1, TRUE, 200, -5, 100000, 2.5, 12345, 'ascii', 'uni', 'bytes', '2026-07-05T10:00:00Z')`)
	r := mustExec(t, s, `SELECT flag, tiny, small, i, f, d, vc, nvc FROM types WHERE id = 1`)
	if got := renderRows(r); got != "1|200|-5|100000|2.5|12345|ascii|uni" {
		t.Fatalf("types roundtrip = %q", got)
	}
	if !strings.Contains(mustExec(t, s, `VERIFY`).Message, "OK") {
		t.Fatal("verify failed")
	}
}

func TestSQLConcurrentSessions(t *testing.T) {
	db, err := core.Open(core.Options{Dir: t.TempDir(), Name: "multi", BlockSize: 50, LockTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setup := NewSession(db, "ddl")
	if _, err := setup.Exec(createAccounts); err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	errCh := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		go func(g int) {
			s := NewSession(db, fmt.Sprintf("user-%d", g))
			defer s.Close()
			for i := 0; i < 25; i++ {
				q := fmt.Sprintf(`INSERT INTO accounts VALUES ('u%d-%d', %d)`, g, i, i)
				if _, err := s.Exec(q); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(g)
	}
	for g := 0; g < sessions; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	r, err := setup.Exec(`SELECT COUNT(*) FROM accounts`)
	if err != nil || renderRows(r) != "100" {
		t.Fatalf("count = %v, %v", renderRows(r), err)
	}
	if !strings.Contains(mustExec(t, setup, `VERIFY`).Message, "OK") {
		t.Fatal("verify failed after concurrent sessions")
	}
}

func TestSQLTypeCoercionErrors(t *testing.T) {
	col := func(typ sqltypes.TypeID) sqltypes.Column { return sqltypes.Column{Name: "c", Type: typ} }
	if _, err := coerce(col(sqltypes.TypeInt), Literal{IsString: true, Text: "x"}); err == nil {
		t.Error("string into INT accepted")
	}
	if _, err := coerce(col(sqltypes.TypeNVarChar), Literal{Text: "5"}); err == nil {
		t.Error("number into NVARCHAR accepted")
	}
	if _, err := coerce(col(sqltypes.TypeInt), Literal{IsBool: true}); err == nil {
		t.Error("bool into INT accepted")
	}
	if _, err := coerce(col(sqltypes.TypeDateTime), Literal{IsString: true, Text: "noon"}); err == nil {
		t.Error("bad datetime accepted")
	}
	if v, err := coerce(col(sqltypes.TypeVarBinary), Literal{IsString: true, Text: "b"}); err != nil || string(v.Bytes) != "b" {
		t.Error("string into VARBINARY should work")
	}
}

// TestStatementsKeepEveryScannedRow: SELECT, UPDATE and DELETE collect the
// rows a scan delivers and use them after it, and the engine decodes every
// row of a scan into one buffer — each statement must see every row it
// matched, not the last one N times. Regular tables take SELECT only.
func TestStatementsKeepEveryScannedRow(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, createAccounts)
	mustExec(t, s, `CREATE TABLE plain (name NVARCHAR NOT NULL, balance BIGINT NOT NULL, PRIMARY KEY (name))`)
	for _, table := range []string{"accounts", "plain"} {
		mustExec(t, s, `INSERT INTO `+table+` VALUES ('a', 1), ('b', 2), ('c', 3)`)
		if got := renderRows(mustExec(t, s, `SELECT * FROM `+table+` ORDER BY name`)); got != "a|1;b|2;c|3" {
			t.Errorf("%s: SELECT = %s", table, got)
		}
	}
	if r := mustExec(t, s, `UPDATE accounts SET balance = 9 WHERE balance < 3`); r.RowsAffected != 2 {
		t.Errorf("UPDATE touched %d rows", r.RowsAffected)
	}
	if got := renderRows(mustExec(t, s, `SELECT * FROM accounts ORDER BY name`)); got != "a|9;b|9;c|3" {
		t.Errorf("after UPDATE, SELECT = %s", got)
	}
	if r := mustExec(t, s, `DELETE FROM accounts WHERE balance = 9`); r.RowsAffected != 2 {
		t.Errorf("DELETE removed %d rows", r.RowsAffected)
	}
	if got := renderRows(mustExec(t, s, `SELECT * FROM accounts`)); got != "c|3" {
		t.Errorf("after DELETE, SELECT = %s", got)
	}
}
