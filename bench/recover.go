package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sqlledger"
	"sqlledger/internal/obs"
	"sqlledger/internal/wal"
)

// The recover workload: the operator's restart time. Set-up builds a
// crash image under SyncFull - transactions of the history shape, a
// Checkpoint() half way, then a byte copy of the directory taken while
// the database is still open, right after the last acknowledged commit,
// with a torn half-record appended to the copy's WAL. One operation is
// one sqlledger.Open of a fresh copy of that image (the copy is not
// timed) at the default RecoveryWorkers. After every open each
// acknowledged transaction must be visible and the digest must equal the
// one taken before the crash. The regular twin is the same stream built
// into regular tables, so ledger_tax here is what the ledger adds to a
// restart.
const (
	recoverTxFull       = 3000 // at -scale 1; README.md says why not the issue's 40k
	recoverBlockSize    = 1000
	recoverOpsPerSecond = 0.5 // opens per round per second of -seconds
	walFile             = "wal.log"
)

type crashImage struct {
	dir    string // the image; never opened in place
	work   string // where copies are opened
	ledger bool
	opts   storeOptions
	txs    int64
	txIDs  []uint64 // acknowledged before the crash
	digest sqlledger.Digest
	g      *gen

	userBytes       int64
	copies          int
	verified        bool
	held            *sqlledger.DB // left open for the heap figure and the final check
	lastRecoverySum map[string]float64
}

// buildImage runs the build and cuts the crash image.
func buildImage(e *env, name string, ledger bool, n int64) (*crashImage, error) {
	im := &crashImage{
		dir: filepath.Join(e.dir, name+"-image"), work: filepath.Join(e.dir, name+"-work"),
		ledger: ledger, txs: n, g: newGen(e.cfg.seed, "recover", 0),
		opts: storeOptions{blockSize: recoverBlockSize},
	}
	src := filepath.Join(e.dir, name+"-src")
	build := im.opts
	if ledger {
		// The regular twin logs the same records whatever the sync mode;
		// only the image the workload is about pays for the fsyncs.
		build.sync = sqlledger.SyncFull
	}
	st, err := openStore(src, ledger, build)
	if err != nil {
		return nil, err
	}
	defer st.close()
	t, err := histSchema(st)
	if err != nil {
		return nil, err
	}
	writer := &client{st: st, g: im.g}
	for i := int64(1); i <= n; i++ {
		id, err := histTx(writer, t, i)
		if err != nil {
			return nil, err
		}
		im.txIDs = append(im.txIDs, id)
		if i == n/2 {
			if err := st.db.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	im.userBytes = writer.userBytes
	if ledger {
		// The last acknowledged operation before the crash: a digest,
		// which also closes the open block, so that the digest a recovered
		// database generates is a pure read and must match it exactly.
		if im.digest, err = st.db.GenerateDigest(); err != nil {
			return nil, err
		}
	}
	// The crash: whatever is in the directory now is all a restart gets.
	if err := copyDir(src, im.dir); err != nil {
		return nil, err
	}
	torn, err := tornRecord(e.dir)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(im.dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	return im, os.RemoveAll(src)
}

// tornRecord returns the first half of a well-formed WAL record: what a
// crash in the middle of an append leaves at the tail of the log.
func tornRecord(dir string) ([]byte, error) {
	path := filepath.Join(dir, "torn.wal")
	defer os.Remove(path)
	l, err := wal.Open(path, wal.SyncNone)
	if err != nil {
		return nil, err
	}
	if _, err := l.Append(wal.RecInsert, 1<<40, make([]byte, 240)); err != nil {
		l.Close()
		return nil, err
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return b[:len(b)/2], nil
}

// copyDir copies the regular files of src (no subdirectories: a database
// directory is flat) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openCopy recovers a fresh copy of the image and checks the result.
// Only the Open is timed.
func (im *crashImage) openCopy(c *client, opts storeOptions, keep bool) (time.Duration, error) {
	im.copies++
	dir := filepath.Join(im.work, fmt.Sprintf("copy-%d", im.copies))
	if err := copyDir(im.dir, dir); err != nil {
		return 0, err
	}
	traced := c != nil && c.rec != nil
	var s0 int64
	if traced {
		c.rec.beginOp()
		s0 = c.rec.now()
	}
	t0 := time.Now()
	db, err := opts.open(dir)
	d := time.Since(t0)
	if traced {
		c.rec.child(kindOpen, s0, im.ledger, false, 0)
		c.rec.endOp()
	}
	if err != nil {
		return d, fmt.Errorf("open crash image: %w", err)
	}
	err = im.checkRecovered(db)
	if keep && err == nil {
		im.held = db
		return d, nil
	}
	im.lastRecoverySum = recoveryPhases(db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return d, err
}

// checkRecovered is the output check of one open.
func (im *crashImage) checkRecovered(db *sqlledger.DB) error {
	if !im.ledger {
		for _, name := range []string{"hist_a", "hist_b", "hist_log"} {
			t, err := db.Engine().Table(name)
			if err != nil {
				return err
			}
			if n := t.RowCount(); int64(n) != im.txs {
				return fmt.Errorf("recovered %s holds %d rows, want %d", name, n, im.txs)
			}
		}
		return nil
	}
	for _, id := range im.txIDs {
		if _, _, _, ok := db.TransactionInfo(id); !ok {
			return fmt.Errorf("acknowledged transaction %d is missing after recovery", id)
		}
	}
	d, err := db.GenerateDigest()
	if err != nil {
		return err
	}
	if d.BlockID != im.digest.BlockID || d.Hash != im.digest.Hash {
		return fmt.Errorf("digest after recovery is block %d %s, before the crash it was block %d %s",
			d.BlockID, d.Hash, im.digest.BlockID, im.digest.Hash)
	}
	if !im.verified {
		im.verified = true
		rep, err := db.Verify([]sqlledger.Digest{im.digest}, sqlledger.VerifyOptions{})
		if err != nil {
			return err
		}
		if !rep.Ok() {
			return fmt.Errorf("verification after recovery failed: %v", rep.Issues[0])
		}
	}
	return nil
}

func (im *crashImage) op(c *client) opResult {
	d, err := im.openCopy(c, im.opts, false)
	return opResult{work: int(im.txs), dur: d, err: err}
}

// recoveryPhases reads the recovery phase timers of a just-opened
// database from its registry.
func recoveryPhases(db *sqlledger.DB) map[string]float64 {
	out := make(map[string]float64)
	snap := db.Snapshot()
	for _, phase := range []string{"snapshot", "replay", "install"} {
		if h, ok := snap.Histogram(obs.RecoverySeconds, sqlledger.MetricLabel{Key: "phase", Value: phase}); ok {
			out[phase] = h.Sum
		}
	}
	return out
}

var recoverWorkload = workload{
	name: "recover",
	why:  "sqlledger.Open of a crash image (SyncFull build, checkpoint half way, torn WAL tail), checked for every acknowledged transaction and the pre-crash digest: the operator's restart time",
	setup: func(e *env) (*run, error) {
		n := int64(e.cfg.rows(recoverTxFull, 40))
		r := &run{opsPerRound: e.cfg.ops(recoverOpsPerSecond, 1), workUnit: "tx recovered"}
		r.counts = map[string]int{
			"clients": 1, "ops_per_client_per_round": r.opsPerRound, "rounds": measuredRounds,
			"warmup_rounds": warmupRounds, "transactions": int(n), "block_size": recoverBlockSize,
		}
		led, err := buildImage(e, "ledger", true, n)
		if err != nil {
			return nil, fmt.Errorf("recover: build ledger image: %w", err)
		}
		reg, err := buildImage(e, "regular", false, n)
		if err != nil {
			return nil, fmt.Errorf("recover: build regular image: %w", err)
		}
		r.buildUserBytes = led.userBytes
		if r.buildDirBytes, err = dirBytes(led.dir); err != nil {
			return nil, err
		}
		epoch := time.Now()
		for _, im := range []*crashImage{led, reg} {
			name := twinName(im.ledger)
			c := &client{st: &store{dir: im.dir, ledger: im.ledger}, g: im.g}
			if e.traced {
				c.rec = newRecorder(epoch, 0, 2*measuredRounds*r.opsPerRound)
			}
			r.variants = append(r.variants, &variant{name: name, st: c.st, clients: []*client{c},
				ops: []func(*client) opResult{im.op}, selfTimed: true})
		}
		if e.traced {
			c := &client{st: &store{dir: led.dir, ledger: true}, g: led.g}
			r.variants = append(r.variants, &variant{name: "ledger-untraced", st: c.st, clients: []*client{c},
				ops: []func(*client) opResult{led.op}, selfTimed: true})
		}
		ledVariant := r.variants[0]
		r.beforeHeap = func() error {
			// One more recovery, left open: the heap figure and the final
			// digest-and-verify check describe a recovered database.
			if _, err := led.openCopy(nil, led.opts, true); err != nil {
				return err
			}
			ledVariant.st.db = led.held
			return nil
		}
		r.closers = append(r.closers, func() { _ = ledVariant.st.close() }) // nothing left to report a close error to
		r.kernel = kernelParams{schema: wideSchema(), row: wideRow, leavesPerTx: 3, blockSize: recoverBlockSize, tableRows: int(n)}
		r.extras = func(m metricSet) error {
			m.set("engine.recover_snapshot_s", led.lastRecoverySum["snapshot"])
			m.set("engine.recover_replay_s", led.lastRecoverySum["replay"])
			m.set("engine.recover_install_s", led.lastRecoverySum["install"])
			m.set("core.open_s", ledVariant.perOp())
			serial := led.opts
			serial.recoveryWorkers = 1
			d, err := led.openCopy(nil, serial, false)
			m.set("engine.recover_serial_s", d.Seconds())
			return err
		}
		return r, nil
	},
}
