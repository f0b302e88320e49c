package core

import (
	"fmt"
	"slices"
	"testing"

	"sqlledger/internal/engine"
	"sqlledger/internal/sqltypes"
)

// widenedRowFixture is a ledger of twelve single-insert transactions in
// blocks of two, in which the row the first of them (block 0) inserted
// holds one value more than the table has columns: its hidden columns
// still read, and only serializing it fails.
func widenedRowFixture(t *testing.T) (*DB, Digest) {
	t.Helper()
	l := openTestLedger(t, 2)
	lt := mustLedgerTable(t, l, "accounts", engine.LedgerUpdateable)
	d := seedAccounts(t, l, lt, 12)
	if err := l.Engine().TamperUpdateRow(lt.table, acctKey(0), func(r sqltypes.Row) sqltypes.Row {
		return append(r, sqltypes.NewBigInt(1))
	}, false); err != nil {
		t.Fatal(err)
	}
	return l, d
}

// TestUnwantedVersionRaisesNoFinding: a version whose transaction a pass
// does not want is read only as far as its hidden columns, so a value past
// them that is no value of the table raises a finding exactly when the
// pass wants the transaction — in a block range of Verify and in the
// auditor's sampled pass alike.
func TestUnwantedVersionRaisesNoFinding(t *testing.T) {
	l, d := widenedRowFixture(t)
	bad := []string{
		`inv=4 table="accounts" warning=false detail="stored row acct-A0 is not a row of the table: serial: row of 7 values under a schema of 6 columns"`,
		`inv=4 table="accounts" warning=false detail="transaction 6 recorded updates to this table but no row versions remain"`,
	}
	for _, tc := range []struct {
		blocks *BlockRange
		want   []string
	}{
		{&BlockRange{From: 1, To: 5}, []string{}},
		{&BlockRange{From: 0, To: 0}, bad},
		{nil, bad},
	} {
		for _, p := range []int{1, 4} {
			rep, err := l.Verify([]Digest{d}, VerifyOptions{Blocks: tc.blocks, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenIssues(rep); !slices.Equal(got, tc.want) {
				t.Errorf("blocks %+v, parallelism %d:\n got %q\nwant %q", tc.blocks, p, got, tc.want)
			}
		}
	}

	// At one half, the sampled pass of the first seed samples four blocks
	// and so scans the table, but not block 0; the second samples it.
	const finding = "invariant 4 in accounts: stored row acct-A0 is not a row of the table: serial: row of 7 values under a schema of 6 columns"
	for _, tc := range []struct {
		seed    uint64
		sampled int64
		want    string
	}{
		{0x9e3779b97f4a7c15, 4, "ok"},
		{0x78dde6e5fd29f054, 2, finding},
	} {
		a, err := l.NewAuditor(AuditorOptions{SampleFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		a.rng = tc.seed
		st := a.RunCycle()
		got := "ok"
		if r := st.LastReport; r != nil {
			got = fmt.Sprintf("invariant %d in %s: %s", r.Invariant, r.Table, r.Detail)
		}
		if got != tc.want || st.BlocksCheckedSampled != tc.sampled {
			t.Errorf("sampled pass of seed %#x: %d blocks, %s; want %d, %s", tc.seed, st.BlocksCheckedSampled, got, tc.sampled, tc.want)
		}
	}
}
