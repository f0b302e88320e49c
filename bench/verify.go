package main

import (
	"crypto/ed25519"
	"fmt"
	"path/filepath"
	"time"

	"sqlledger"
)

// The verify workload: the auditor's cost (the paper's Figure 9). Set-up
// builds a ledger of the history shape in verifyBlocks blocks, uploading
// a digest to an in-memory blob store every verifyDigestEvery blocks; one
// operation is a full DB.Verify against every stored digest. Nothing
// commits and the WAL is idle: only verification, re-hashing and table
// scans run. The regular twin, which has nothing to verify, reads every
// row of the same tables once - the cheapest audit a regular table
// allows - so ledger_tax here is verification time over full-read time.
const (
	verifyTxFull       = 8000 // at -scale 1; README.md says why not the issue's 60k
	verifyBlocks       = 60
	verifyDigestEvery  = 10  // blocks
	verifyOpsPerSecond = 0.5 // full verifications per round per second of -seconds
	// verifyReadsPerVerify is how many full reads the regular twin does per
	// verification: one read takes about a hundredth of the time, too
	// little to time well four at a go.
	verifyReadsPerVerify = 50
	auditDeltaBlocks     = 8
	receiptProbes        = 20
)

type verifyState struct {
	st      *store
	t       *histTables
	writer  *client
	txs     int64
	block   int
	digests []sqlledger.Digest
	txIDs   []uint64
	last    *sqlledger.Report
}

// buildHistory runs n transactions of the history shape on st. On the
// ledger twin it uploads a digest every verifyDigestEvery blocks.
func buildHistory(st *store, g *gen, n int64, blockSize int) (*verifyState, error) {
	t, err := histSchema(st)
	if err != nil {
		return nil, err
	}
	s := &verifyState{st: st, t: t, writer: &client{st: st, g: g}, block: blockSize}
	blobs := sqlledger.NewMemoryBlobStore()
	every := int64(verifyDigestEvery * blockSize)
	for s.txs < n {
		s.txs++
		id, err := histTx(s.writer, t, s.txs)
		if err != nil {
			return nil, err
		}
		s.txIDs = append(s.txIDs, id)
		if st.ledger && (s.txs%every == 0 || s.txs == n) {
			if _, err := st.db.UploadDigest(blobs); err != nil {
				return nil, fmt.Errorf("upload digest at tx %d: %w", s.txs, err)
			}
		}
	}
	if st.ledger {
		if s.digests, err = st.db.StoredDigests(blobs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// verifyOp is one full verification against every stored digest.
func (s *verifyState) verifyOp(c *client) opResult {
	t0 := c.start()
	rep, err := s.st.db.Verify(s.digests, sqlledger.VerifyOptions{})
	if c.rec != nil {
		c.rec.child(kindVerify, t0, true, false, 0)
	}
	if err != nil {
		return opResult{err: err}
	}
	s.last = rep
	if !rep.Ok() {
		return opResult{err: fmt.Errorf("verification of untouched data failed: %v", rep.Issues[0])}
	}
	if int64(rep.TransactionsChecked) < s.txs || rep.DigestsChecked != len(s.digests) {
		return opResult{err: fmt.Errorf("verification covered %d transactions and %d digests, want %d and %d",
			rep.TransactionsChecked, rep.DigestsChecked, s.txs, len(s.digests))}
	}
	return opResult{work: int(s.txs)}
}

// readAllOp is the regular twin's operation: read every row once.
func (s *verifyState) readAllOp(c *client) opResult {
	c.begin("auditor")
	want := []int64{s.txs, s.txs, s.txs}
	for i, tb := range []*table{s.t.a, s.t.b, s.t.log} {
		n, err := c.scan(tb, func(sqlledger.Row) bool { return true })
		if err == nil && int64(n) != want[i] {
			err = fmt.Errorf("%s holds %d rows, want %d", tb.name, n, want[i])
		}
		if err != nil {
			c.abort()
			return opResult{err: err}
		}
	}
	return opResult{work: int(s.txs), err: c.commit()}
}

// tamper rewrites one stored row behind the ledger's back, as an
// attacker with storage access would (test-only: proves the output
// check is live).
func (s *verifyState) tamper() error {
	tb := s.t.a.lt.Table()
	key := tb.KeyFor(sqlledger.Row{bigint(1)})
	return s.st.db.Engine().TamperUpdateRow(tb, key, func(r sqlledger.Row) sqlledger.Row {
		r = r.Clone()
		r[2] = bigint(r[2].Int() + 1)
		return r
	}, true)
}

// probes measures, after the measured phase, what the auditor and the
// receipt path cost on this ledger: an incremental audit cycle after
// auditDeltaBlocks new blocks, a 10% sampled cycle, and transaction
// receipts.
func (s *verifyState) probes(m metricSet) error {
	db := s.st.db
	inc, err := db.NewAuditor(sqlledger.AuditorOptions{})
	if err != nil {
		return err
	}
	if st := inc.RunCycle(); !st.Ok {
		return fmt.Errorf("audit catch-up: %v", st.LastReport)
	}
	for i := 0; i < auditDeltaBlocks*s.block; i++ {
		s.txs++
		id, err := histTx(s.writer, s.t, s.txs)
		if err != nil {
			return err
		}
		s.txIDs = append(s.txIDs, id)
	}
	if _, err := db.GenerateDigest(); err != nil {
		return err
	}
	t0 := time.Now()
	if st := inc.RunCycle(); !st.Ok {
		return fmt.Errorf("incremental audit: %v", st.LastReport)
	}
	m.set("core.audit_incremental_ms", float64(time.Since(t0))/1e6)

	sampled, err := db.NewAuditor(sqlledger.AuditorOptions{SampleFraction: 0.1})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if st := sampled.RunCycle(); !st.Ok {
		return fmt.Errorf("sampled audit: %v", st.LastReport)
	}
	m.set("core.audit_sampled_ms", float64(time.Since(t0))/1e6)

	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return err
	}
	step := len(s.txIDs) / receiptProbes
	if step == 0 {
		step = 1
	}
	var n int
	t0 = time.Now()
	for i := 0; i < len(s.txIDs); i += step {
		rc, err := db.GenerateReceipt(s.txIDs[i], priv)
		if err == nil {
			err = sqlledger.VerifyReceipt(rc, pub)
		}
		if err != nil {
			return fmt.Errorf("receipt for transaction %d: %w", s.txIDs[i], err)
		}
		n++
	}
	m.set("core.receipt_us", float64(time.Since(t0))/1e3/float64(n))
	return nil
}

var verifyWorkload = workload{
	name: "verify",
	why:  "full DB.Verify of a prebuilt ledger (5 row operations per transaction, 60 blocks, a digest every 10 blocks): the auditor's cost, the paper's Figure 9; no commits, no WAL, only re-hashing and scans",
	setup: func(e *env) (*run, error) {
		n := int64(e.cfg.rows(verifyTxFull, 2*verifyBlocks))
		blockSize := int(n) / verifyBlocks
		r := &run{
			opsPerRound: e.cfg.ops(verifyOpsPerSecond, 1),
			workUnit:    "tx verified",
		}
		r.counts = map[string]int{
			"clients": 1, "ops_per_client_per_round": r.opsPerRound, "rounds": measuredRounds,
			"warmup_rounds": warmupRounds, "transactions": int(n), "block_size": blockSize,
		}
		var states [2]*verifyState
		for i, ledger := range []bool{true, false} {
			name := twinName(ledger)
			st, err := openStore(filepath.Join(e.dir, name), ledger, storeOptions{blockSize: uint32(blockSize)})
			if err != nil {
				r.close()
				return nil, err
			}
			r.closers = append(r.closers, func() { _ = st.close() }) // nothing left to report a close error to
			s, err := buildHistory(st, newGen(e.cfg.seed, "verify", 0), n, blockSize)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("verify: build %s twin: %w", name, err)
			}
			states[i] = s
		}
		led, reg := states[0], states[1]
		r.buildUserBytes = led.writer.userBytes
		var err error
		if r.buildDirBytes, err = dirBytes(led.st.dir); err != nil {
			r.close()
			return nil, err
		}
		if e.cfg.tamper {
			if err := led.tamper(); err != nil {
				r.close()
				return nil, err
			}
		}
		epoch := time.Now()
		lc := &client{st: led.st, g: led.writer.g}
		if e.traced {
			lc.rec = newRecorder(epoch, 0, 4*measuredRounds*r.opsPerRound)
		}
		rc := &client{st: reg.st, g: reg.writer.g}
		if e.traced {
			rc.rec = newRecorder(epoch, 0, 16*measuredRounds*r.opsPerRound)
		}
		r.variants = []*variant{
			{name: "ledger", st: led.st, clients: []*client{lc}, ops: []func(*client) opResult{led.verifyOp}},
			{name: "regular", st: reg.st, clients: []*client{rc}, ops: []func(*client) opResult{reg.readAllOp}, opsMult: verifyReadsPerVerify},
		}
		if e.traced {
			// Verification writes nothing, so the untraced copy that prices
			// the tracing can share the ledger twin's database.
			shared := &store{db: led.st.db, dir: led.st.dir, ledger: true, shared: true}
			r.variants = append(r.variants, &variant{name: "ledger-untraced", st: shared,
				clients: []*client{{st: shared, g: led.writer.g}}, ops: []func(*client) opResult{led.verifyOp}})
		}
		r.kernel = kernelParams{schema: wideSchema(), row: wideRow, leavesPerTx: 3, blockSize: blockSize, tableRows: int(n)}
		r.extras = func(m metricSet) error {
			if led.last != nil {
				setVerifyTiming(m, led.last.Timing)
			}
			return led.probes(m)
		}
		return r, nil
	},
}
