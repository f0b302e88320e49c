// Supplychain: the paper's §2.5.1 forward-integrity story, played out.
//
// Contoso, a car manufacturer, tracks parts in a ledger database. Years
// later a lawsuit alleges defective brake parts went into Bob's car. An
// insider tries to "fix" the records before the audit; the digests Contoso
// had been exporting all along prove the alteration — while the untampered
// records verify cleanly, giving the court cryptographic evidence either
// way. This is forward integrity: the data was trusted when written, and
// protected from that moment on.
//
// Run with: go run ./examples/supplychain
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"sqlledger"
)

func main() {
	dir, err := os.MkdirTemp("", "sqlledger-supplychain")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := sqlledger.Open(sqlledger.Options{Dir: dir, Name: "contoso-parts"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Parts lifecycle: an updateable ledger table keyed by serial number.
	parts, err := db.CreateLedgerTable("parts", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("serial", sqlledger.TypeNVarChar),
		sqlledger.Col("kind", sqlledger.TypeNVarChar),
		sqlledger.Col("batch", sqlledger.TypeNVarChar),
		sqlledger.Col("installed_in", sqlledger.TypeNVarChar),
		sqlledger.Col("status", sqlledger.TypeNVarChar),
	}, "serial"), sqlledger.Updateable)
	if err != nil {
		log.Fatal(err)
	}
	// Inspections are append-only: an audit trail that even the
	// application cannot rewrite.
	inspections, err := db.CreateLedgerTable("inspections", sqlledger.MustSchema([]sqlledger.Column{
		sqlledger.Col("id", sqlledger.TypeBigInt),
		sqlledger.Col("serial", sqlledger.TypeNVarChar),
		sqlledger.Col("result", sqlledger.TypeNVarChar),
		sqlledger.Col("at", sqlledger.TypeDateTime),
	}, "id"), sqlledger.AppendOnly)
	if err != nil {
		log.Fatal(err)
	}

	// 2018: manufacturing. Bob's car gets brakes from the GOOD batch.
	mfg := db.Begin("assembly-line")
	for i, spec := range []struct{ serial, batch, car string }{
		{"BRK-1001", "BATCH-GOOD-07", "VIN-BOB"},
		{"BRK-1002", "BATCH-BAD-13", "VIN-BOB"}, // the part the lawsuit is about
		{"BRK-2001", "BATCH-BAD-13", "VIN-OTHER-1"},
		{"BRK-2002", "BATCH-BAD-13", "VIN-OTHER-2"},
	} {
		must(mfg.Insert(parts, sqlledger.Row{
			sqlledger.NVarChar(spec.serial), sqlledger.NVarChar("brake"),
			sqlledger.NVarChar(spec.batch), sqlledger.NVarChar(spec.car),
			sqlledger.NVarChar("installed"),
		}))
		must(mfg.Insert(inspections, sqlledger.Row{
			sqlledger.BigInt(int64(i + 1)), sqlledger.NVarChar(spec.serial),
			sqlledger.NVarChar("pass"), sqlledger.DateTime(time.Now()),
		}))
	}
	must(mfg.Commit())

	// Digests go to immutable storage continuously; one is also handed to
	// the regulator (outside Microsoft's — here, Contoso's — trust
	// boundary, as §2.4 suggests).
	store := sqlledger.NewMemoryBlobStore()
	digest2018, err := db.UploadDigest(store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2018: parts recorded; digest for block %d escrowed with the regulator\n", digest2018.BlockID)

	// 2019: the recall marks the bad batch.
	recall := db.Begin("recall-team")
	for _, serial := range []string{"BRK-1002", "BRK-2001", "BRK-2002"} {
		r, ok, err := recall.Get(parts, sqlledger.NVarChar(serial))
		if err != nil || !ok {
			log.Fatal(err)
		}
		r = r.Clone() // Get returns a read-only view of the stored row
		r[4] = sqlledger.NVarChar("recalled")
		must(recall.Update(parts, r))
	}
	must(recall.Commit())
	if _, err := db.UploadDigest(store); err != nil {
		log.Fatal(err)
	}
	fmt.Println("2019: BATCH-BAD-13 recalled; digest uploaded")

	// 2020: the lawsuit. First, show what an honest audit looks like.
	report, err := db.VerifyFromStore(store, sqlledger.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n2020 audit (honest records):", oneLine(report))
	fmt.Println("  court sees: Bob's car's BRK-1002 came from", batchOf(db, parts, "BRK-1002"),
		"(the recalled batch) — verified, reliable evidence.")

	// Liability established, an insider now rewrites history: relabel
	// Bob's bad part as coming from the good batch. They edit the storage
	// directly — no API, no log entry.
	var key []byte
	parts.Table().Scan(func(k []byte, r sqlledger.Row) bool {
		if r[0].Str == "BRK-1002" {
			key = append([]byte(nil), k...)
			return false
		}
		return true
	})
	err = db.Engine().TamperUpdateRow(parts.Table(), key, func(r sqlledger.Row) sqlledger.Row {
		r[2] = sqlledger.NVarChar("BATCH-GOOD-07") // forge the batch
		r[4] = sqlledger.NVarChar("installed")     // and erase the recall mark
		return r
	}, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninsider relabels BRK-1002 as BATCH-GOOD-07 directly in storage...")

	report, err = db.VerifyFromStore(store, sqlledger.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2020 audit (tampered records):", oneLine(report))
	for _, issue := range report.Issues {
		fmt.Println("  ", issue)
	}
	fmt.Println("  the escrowed digests expose the alteration: the forgery is thrown out.")
}

func batchOf(db *sqlledger.DB, parts *sqlledger.LedgerTable, serial string) string {
	tx := db.Begin("court")
	defer tx.Rollback()
	r, ok, err := tx.Get(parts, sqlledger.NVarChar(serial))
	if err != nil || !ok {
		log.Fatal(err)
	}
	return r[2].Str
}

func oneLine(r *sqlledger.Report) string {
	if r.Ok() {
		return "VERIFIED"
	}
	return fmt.Sprintf("TAMPERING DETECTED (%d issues)", len(r.Issues))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
