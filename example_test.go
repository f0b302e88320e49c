package sqlledger_test

import (
	"crypto/ed25519"
	"fmt"
	"log"
	"os"

	"sqlledger"
)

// Example shows the smallest useful flow: create a ledger table, write to
// it, export a digest and verify against it.
func Example() {
	dir, _ := os.MkdirTemp("", "sqlledger-example")
	defer os.RemoveAll(dir)

	db, err := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	accounts, err := db.CreateLedgerTable("accounts", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("name", sqlledger.TypeNVarChar),
		sqlledger.Col("balance", sqlledger.TypeBigInt),
	}, "name"), sqlledger.Updateable)
	if err != nil {
		log.Fatal(err)
	}

	tx := db.Begin("alice")
	if err := tx.Insert(accounts, sqlledger.Row{sqlledger.NVarChar("nick"), sqlledger.BigInt(100)}); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	digest, err := db.GenerateDigest()
	if err != nil {
		log.Fatal(err)
	}
	report, err := db.Verify([]sqlledger.Digest{digest}, sqlledger.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", report.Ok())
	// Output: verified: true
}

// ExampleLedgerTable_LedgerView shows the generated ledger view: every
// row operation with the transaction that performed it.
func ExampleLedgerTable_LedgerView() {
	dir, _ := os.MkdirTemp("", "sqlledger-example")
	defer os.RemoveAll(dir)
	db, _ := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
	defer db.Close()

	accounts, _ := db.CreateLedgerTable("accounts", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("name", sqlledger.TypeNVarChar),
		sqlledger.Col("balance", sqlledger.TypeBigInt),
	}, "name"), sqlledger.Updateable)

	tx := db.Begin("teller")
	tx.Insert(accounts, sqlledger.Row{sqlledger.NVarChar("nick"), sqlledger.BigInt(50)})
	tx.Commit()
	tx = db.Begin("teller")
	tx.Update(accounts, sqlledger.Row{sqlledger.NVarChar("nick"), sqlledger.BigInt(100)})
	tx.Commit()

	view, _ := accounts.LedgerView()
	for _, vr := range view {
		fmt.Printf("%s %s $%d\n", vr.Operation, vr.Row[0].Str, vr.Row[1].Int())
	}
	// Output:
	// INSERT nick $50
	// DELETE nick $50
	// INSERT nick $100
}

// ExampleVerifyReceipt shows offline receipt verification (§5.1): no
// database access is needed, only the signer's public key.
func ExampleVerifyReceipt() {
	dir, _ := os.MkdirTemp("", "sqlledger-example")
	defer os.RemoveAll(dir)
	pub, priv, _ := ed25519.GenerateKey(nil)

	db, _ := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
	deposits, _ := db.CreateLedgerTable("deposits", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("amount", sqlledger.TypeBigInt),
	}, "id"), sqlledger.AppendOnly)

	tx := db.Begin("teller")
	tx.Insert(deposits, sqlledger.Row{sqlledger.BigInt(1), sqlledger.BigInt(1_000_000)})
	txID := tx.ID()
	tx.Commit()
	db.GenerateDigest() // close the block

	receipt, _ := db.GenerateReceipt(txID, priv)
	db.Close() // the ledger can even be destroyed now

	fmt.Println("receipt valid:", sqlledger.VerifyReceipt(receipt, pub) == nil)
	// Output: receipt valid: true
}

// ExampleNewSQLSession shows the SQL surface: ledger DDL, DML, querying
// the generated ledger view, and ledger statements.
func ExampleNewSQLSession() {
	dir, _ := os.MkdirTemp("", "sqlledger-example")
	defer os.RemoveAll(dir)
	db, _ := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
	defer db.Close()

	s := sqlledger.NewSQLSession(db, "app")
	defer s.Close()
	script := `
		CREATE TABLE accounts (name NVARCHAR NOT NULL, balance BIGINT NOT NULL,
			PRIMARY KEY (name)) WITH (LEDGER = ON);
		INSERT INTO accounts VALUES ('nick', 100), ('john', 500);
		UPDATE accounts SET balance = 50 WHERE name = 'nick';
	`
	if _, err := s.ExecScript(script); err != nil {
		log.Fatal(err)
	}
	res, err := s.Exec(`SELECT name, balance, operation FROM accounts_ledger`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("%s %s %s\n", row[2].Str, row[0].Str, row[1].String())
	}
	// Output:
	// INSERT nick 100
	// INSERT john 500
	// DELETE nick 100
	// INSERT nick 50
}

// ExampleSignDigest shows §2.4's digest authenticity signing for sharing
// digests with partners and auditors.
func ExampleSignDigest() {
	dir, _ := os.MkdirTemp("", "sqlledger-example")
	defer os.RemoveAll(dir)
	pub, priv, _ := ed25519.GenerateKey(nil)

	db, _ := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
	defer db.Close()
	t, _ := db.CreateLedgerTable("t", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("k", sqlledger.TypeBigInt),
	}, "k"), sqlledger.AppendOnly)
	tx := db.Begin("u")
	tx.Insert(t, sqlledger.Row{sqlledger.BigInt(1)})
	tx.Commit()

	digest, _ := db.GenerateDigest()
	signed := sqlledger.SignDigest(digest, priv)
	// ...the signed JSON travels to an auditor...
	received, _ := sqlledger.ParseSignedDigest(signed.JSON())
	fmt.Println("authentic:", sqlledger.VerifySignedDigest(received, pub) == nil)
	// Output: authentic: true
}
