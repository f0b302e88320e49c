package core

import (
	"fmt"
	"strings"
	"time"
)

// finding is one inconsistency a check of the verification kernel
// (kernel.go) found. The two public report types, Issue (Verify) and
// TamperReport (Auditor), are renderings of it.
type finding struct {
	// invariant is the ledger invariant (1-5, §3.4.1) that failed; 0 for
	// the ledger-view definitions, outside the numbered invariants.
	invariant int
	block     int64  // -1 when the finding is not tied to a block
	tx        uint64 // 0 when it is not tied to a transaction
	table     string
	// key names the damaged row (decoded primary key) or index entry
	// (hex-encoded entry key) when a check could pin one.
	key    string
	detail string
	// warning marks findings that do not fail a verification by
	// themselves (digests pointing past a restore or truncation point).
	warning bool
}

// emitFn receives findings as a check produces them. Returning false
// stops the check: the Auditor wants the first finding, Verify wants all.
type emitFn func(finding) bool

// Issue is one inconsistency found by verification. Warning-class issues
// (e.g. digests that point past a restore or truncation point) do not fail
// the verification by themselves.
type Issue struct {
	// Invariant is the ledger invariant (1-5, §3.4.1) that failed; 0 for
	// issues outside the numbered invariants (view definitions, inputs).
	Invariant int
	Table     string
	Detail    string
	Warning   bool
}

func (i Issue) String() string {
	kind := "TAMPER"
	if i.Warning {
		kind = "WARNING"
	}
	if i.Table != "" {
		return fmt.Sprintf("[%s inv%d table=%s] %s", kind, i.Invariant, i.Table, i.Detail)
	}
	return fmt.Sprintf("[%s inv%d] %s", kind, i.Invariant, i.Detail)
}

// issue renders the finding for a Verify report.
func (f finding) issue() Issue {
	return Issue{Invariant: f.invariant, Table: f.table, Detail: f.detail, Warning: f.warning}
}

// TamperReport localizes a detected ledger mutation: which shard (-1 on a
// one-shard database), block, transaction, table and
// row the mismatch bisected down to. Zero/empty fields mean the damage
// could not be narrowed further in that dimension.
type TamperReport struct {
	Shard int `json:"shard"`
	// Invariant is the ledger invariant (1-5, §3.4.1) that failed; 0 for
	// a ledger-view definition, outside the numbered invariants.
	Invariant int    `json:"invariant"`
	Block     int64  `json:"block"` // -1 when unknown
	TxID      uint64 `json:"tx_id,omitempty"`
	Table     string `json:"table,omitempty"`
	// Key names the damaged row (decoded primary key, or hex-encoded
	// entry key for index entries).
	Key string `json:"key,omitempty"`
	// Mode records which audit pass detected it: incremental, sampled,
	// watermark or superblock.
	Mode       string `json:"mode"`
	Detail     string `json:"detail"`
	DetectedAt int64  `json:"detected_at_unix_nano"`
}

func (r *TamperReport) String() string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tamper[%s]", r.Mode)
	if r.Shard >= 0 {
		fmt.Fprintf(&b, " shard=%d", r.Shard)
	}
	if r.Block >= 0 {
		fmt.Fprintf(&b, " block=%d", r.Block)
	}
	if r.TxID != 0 {
		fmt.Fprintf(&b, " tx=%d", r.TxID)
	}
	if r.Table != "" {
		fmt.Fprintf(&b, " table=%s", r.Table)
	}
	if r.Key != "" {
		fmt.Fprintf(&b, " key=%s", r.Key)
	}
	return b.String() + ": " + r.Detail
}

// sameSite reports whether two reports localize the same damage (used to
// emit tamper_localized events only on change, not every cycle).
func (r *TamperReport) sameSite(o *TamperReport) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Shard == o.Shard && r.Block == o.Block && r.TxID == o.TxID &&
		r.Table == o.Table && r.Key == o.Key && r.Detail == o.Detail
}

// report renders the finding for an auditor: stamped with its shard, the
// pass that detected it, and the clock.
func (a *chainAuditor) report(mode string, f finding) *TamperReport {
	return &TamperReport{
		Shard:      a.shard,
		Invariant:  f.invariant,
		Block:      f.block,
		TxID:       f.tx,
		Table:      f.table,
		Key:        f.key,
		Mode:       mode,
		Detail:     f.detail,
		DetectedAt: time.Now().UnixNano(),
	}
}
