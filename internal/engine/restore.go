package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sqlledger/internal/wal"
)

// RestoreToTime implements point-in-time restore (§3.6): it materializes,
// in dstDir, a new database whose state is the source database as of
// targetTS (unix nanoseconds). Transactions with a commit timestamp after
// targetTS — and any DDL that followed them — are discarded.
//
// The restored directory contains only a rewritten WAL (checkpoint records
// are stripped since their snapshots are not copied); opening it replays
// the log from the beginning. The caller opens the result with Open,
// supplying a fresh hook; the ledger core treats the restored database as
// a new "incarnation" for digest management.
//
// The source database must be quiescent (closed, or checkpoint-free while
// restoring); RestoreToTime reads the WAL file directly.
func RestoreToTime(srcDir, dstDir string, targetTS int64) error {
	srcWAL := filepath.Join(srcDir, walFileName)
	if _, err := os.Stat(srcWAL); err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("engine: restore mkdir: %w", err)
	}
	dst, err := wal.Open(filepath.Join(dstDir, walFileName), wal.SyncBuffered)
	if err != nil {
		return err
	}
	defer dst.Close()
	if dst.Size() != wal.HeaderLen {
		return fmt.Errorf("engine: restore destination %s is not empty", dstDir)
	}
	r, err := wal.NewReader(srcWAL, 0, -1)
	if err != nil {
		return err
	}
	defer r.Close()

	// A transaction's records reach the destination as one frame, and only
	// once its COMMIT with ts <= target is seen: a plain commit's frame is
	// copied as is, a two-phase participant's PREPARE frame (which other
	// transactions' frames may separate from its COMMIT) is merged with the
	// decision. The first commit past the target ends the restore:
	// everything after it is "the future", undecided prepares included.
	pending := make(map[uint64][]wal.Record)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("engine: restore read: %w", err)
		}
		switch rec.Type {
		case wal.RecCheckpoint:
			continue // snapshots are not carried over
		case wal.RecDDL:
			if _, err := dst.Append(rec.Type, rec.TxID, rec.Payload); err != nil {
				return err
			}
		case wal.RecCommit:
			p, err := wal.DecodeCommit(rec.Payload)
			if err != nil {
				return fmt.Errorf("engine: restore commit: %w", err)
			}
			if p.CommitTS > targetTS {
				return dst.Flush()
			}
			if _, err := dst.AppendBatch(append(pending[rec.TxID], rec)); err != nil {
				return err
			}
			delete(pending, rec.TxID)
		case wal.RecAbort:
			delete(pending, rec.TxID)
		default:
			pending[rec.TxID] = append(pending[rec.TxID], rec)
		}
	}
	return dst.Flush()
}
