// Banking: the paper's Figure 2 scenario as a running program.
//
// An account-balances ledger table receives inserts, an update and a
// delete; the program then prints the ledger table, the history table and
// the ledger view exactly like Figure 2, shows who performed each
// operation, and demonstrates digest management against (simulated)
// immutable blob storage with a periodic uploader.
//
// Run with: go run ./examples/banking
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"sqlledger"
)

func main() {
	dir, err := os.MkdirTemp("", "sqlledger-banking")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "bank"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("name", sqlledger.TypeNVarChar),
		sqlledger.Col("balance", sqlledger.TypeBigInt),
	}, "name")
	accounts, err := db.CreateLedgerTable("accounts", schema, sqlledger.Updateable)
	if err != nil {
		log.Fatal(err)
	}

	// Digests stream to immutable storage every 50ms while we work —
	// the automation §2.4 describes (every few seconds in production).
	store := sqlledger.NewMemoryBlobStore()
	uploader := sqlledger.NewDigestUploader(db, store)
	uploader.Start(50 * time.Millisecond)

	// The Figure 2 sequence of operations, each by a different teller.
	step(db, accounts, "teller-1", "insert", "Nick", 50)
	step(db, accounts, "teller-2", "insert", "John", 500)
	step(db, accounts, "teller-1", "insert", "Joe", 30)
	step(db, accounts, "teller-3", "insert", "Mary", 200)
	step(db, accounts, "teller-2", "update", "Nick", 100)
	step(db, accounts, "teller-3", "delete", "Joe", 0)

	fmt.Println("\n-- Ledger table (latest data) --")
	fmt.Printf("%-8s %s\n", "Name", "Balance")
	tx := db.Begin("reader")
	tx.Scan(accounts, func(r sqlledger.Row) bool {
		fmt.Printf("%-8s $%d\n", r[0].Str, r[1].Int())
		return true
	})
	tx.Rollback()

	fmt.Println("\n-- History table (earlier versions) --")
	fmt.Printf("%-8s %s\n", "Name", "Balance")
	accounts.History().Scan(func(_ []byte, r sqlledger.Row) bool {
		fmt.Printf("%-8s $%d\n", r[0].Str, r[1].Int())
		return true
	})

	fmt.Println("\n-- Ledger view (all row operations, like Figure 2) --")
	fmt.Printf("%-8s %-8s %-10s %-14s %s\n", "Name", "Balance", "Operation", "Transaction", "Principal")
	view, err := accounts.LedgerView()
	if err != nil {
		log.Fatal(err)
	}
	for _, vr := range view {
		who, _, _, _ := db.TransactionInfo(vr.TxID)
		fmt.Printf("%-8s $%-7d %-10s %-14d %s\n",
			vr.Row[0].Str, vr.Row[1].Int(), vr.Operation, vr.TxID, who)
	}

	// Give the periodic loop a beat, then flush a final digest so the
	// store definitely covers everything above.
	time.Sleep(120 * time.Millisecond)
	uploader.Stop()
	if _, err := uploader.UploadOnce(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d digests uploaded to immutable storage while we worked\n", uploader.Uploads())

	// Month-end audit: verify against everything in the immutable store.
	report, err := db.VerifyFromStore(store, sqlledger.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("audit:", report)
}

func step(db *sqlledger.DB, lt *sqlledger.LedgerTable, who, op, name string, balance int64) {
	tx := db.Begin(who)
	var err error
	switch op {
	case "insert":
		err = tx.Insert(lt, sqlledger.Row{sqlledger.NVarChar(name), sqlledger.BigInt(balance)})
	case "update":
		err = tx.Update(lt, sqlledger.Row{sqlledger.NVarChar(name), sqlledger.BigInt(balance)})
	case "delete":
		err = tx.Delete(lt, sqlledger.NVarChar(name))
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s %s\n", who, op, name)
}
