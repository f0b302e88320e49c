package sql

import (
	"reflect"
	"testing"
)

// FuzzParse feeds the parser arbitrary text. Parse and ParseScript must
// return an error rather than panic, Parse must accept exactly the scripts
// of one statement, and a script ParseScript accepts, written twice with a
// terminator between, must parse to its statements twice over: no token
// of one statement leaks into the next. The seeds are the statements the
// other tests in this package execute.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		createAccounts,
		`INSERT INTO accounts VALUES ('nick', 100), ('john', 500), ('mary', 200)`,
		`UPDATE accounts SET balance = 50 WHERE name = 'nick'`,
		`DELETE FROM accounts WHERE name = 'john'`,
		`SELECT name, balance FROM accounts ORDER BY balance DESC`,
		`SELECT COUNT(*) FROM accounts`,
		`SELECT name, balance, operation FROM accounts_ledger`,
		`GENERATE DIGEST`,
		`VERIFY LEDGER`,
		`SELECT name FROM accounts WHERE balance >= 20 AND balance < 40`,
		`SELECT name FROM accounts WHERE balance <> 20`,
		`SELECT name FROM accounts ORDER BY name LIMIT 2`,
		`BEGIN TRANSACTION`,
		`SAVE TRANSACTION sp1`,
		`ROLLBACK TO sp1`,
		`COMMIT`,
		`CREATE TABLE audit (id BIGINT NOT NULL, event NVARCHAR NOT NULL, PRIMARY KEY (id)) WITH (LEDGER = ON, APPEND_ONLY = ON)`,
		`ALTER TABLE accounts ADD note NVARCHAR NULL`,
		`INSERT INTO accounts (name, balance, note) VALUES ('b', 2, 'hello')`,
		`ALTER TABLE accounts DROP COLUMN note`,
		`DROP TABLE accounts`,
		`CREATE INDEX ix_balance ON accounts (balance)`,
		`INSERT INTO t (b, id, a) VALUES (NULL, 2, 'set')`,
		`CREATE TABLE types (id BIGINT NOT NULL, flag BIT NULL, tiny TINYINT NULL, small SMALLINT NULL, i INT NULL,
			f FLOAT NULL, d DECIMAL(10,2) NULL, vc VARCHAR(20) NULL, nvc NVARCHAR NULL, vb VARBINARY NULL,
			ts DATETIME NULL, PRIMARY KEY (id)) WITH (LEDGER = ON)`,
		`INSERT INTO types VALUES (1, TRUE, 200, -5, 100000, 2.5, 12345, 'ascii', 'uni', 'bytes', '2026-07-05T10:00:00Z')`,
		`-- a small script with comments
		CREATE TABLE accounts (name NVARCHAR NOT NULL, balance BIGINT NOT NULL, PRIMARY KEY (name)) WITH (LEDGER = ON);
		INSERT INTO accounts VALUES ('it''s quoted; really', 2);
		SELECT name FROM accounts ORDER BY balance DESC LIMIT 1;`,
		`SELECT * FROM t WHERE a !! 1`,
		`INSERT INTO t VALUES ('unterminated)`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, perr := Parse(src)
		sts, err := ParseScript(src)
		if (perr == nil) != (err == nil && len(sts) == 1) || (perr == nil && !reflect.DeepEqual(st, sts[0])) {
			t.Fatalf("%q: Parse returns (%v, %v), ParseScript %d statements (%v)", src, st, perr, len(sts), err)
		}
		if err != nil {
			return
		}
		twice, err := ParseScript(src + "\n;" + src)
		if err != nil || !reflect.DeepEqual(twice, append(sts, sts...)) {
			t.Fatalf("%q parses to %d statements, and written twice to %d (%v), not the same ones twice", src, len(sts), len(twice), err)
		}
	})
}
