package core

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"

	"sqlledger/internal/engine"
	"sqlledger/internal/merkle"
	"sqlledger/internal/serial"
	"sqlledger/internal/wal"
)

// ReadReceipt proves that every row a snapshot read returned is committed
// ledger content (§5.1 extended from transactions to query results). The
// proof chains three levels, all checkable offline with only the signer's
// public key:
//
//	row bytes → (transaction, table) Merkle root   (Rows[i].Proof)
//	transaction entry → block transactions root    (Entries[i].Proof)
//	block root → ed25519 signature                 (Blocks[i].Signature)
//
// Rows carry the canonical insert-operation serialization of each row
// version; its hash is the exact leaf the creating transaction committed
// to, so altering any returned byte breaks the chain. Entries and Blocks
// are deduplicated: rows created by one transaction share an entry, and
// entries in one block share a root signature.
type ReadReceipt struct {
	DatabaseName string            `json:"database_name"`
	SnapshotTS   int64             `json:"snapshot_time"`
	Rows         []ReadReceiptRow  `json:"rows"`
	Entries      []ReadReceiptTx   `json:"transactions"`
	Blocks       []ReadReceiptBlk  `json:"blocks"`
	PublicKey    ed25519.PublicKey `json:"public_key"`
}

// ReadReceiptRow proves one returned row version: RowData is the canonical
// insert-op serialization (hidden ledger columns included, end columns
// skipped), and Proof links its hash into the creating transaction's
// per-table Merkle tree, whose root is recorded in Entries[Entry].
type ReadReceiptRow struct {
	Table   string       `json:"table"`
	TableID uint32       `json:"table_id"`
	RowData []byte       `json:"row_data"`
	Entry   int          `json:"transaction_index"`
	Proof   ReceiptProof `json:"merkle_proof"`
}

// ReadReceiptTx is a deduplicated transaction entry plus its inclusion
// proof in the transactions tree of Blocks[Block].
type ReadReceiptTx struct {
	Entry ReceiptEntry `json:"transaction"`
	Block int          `json:"block_index"`
	Proof ReceiptProof `json:"merkle_proof"`
}

// ReadReceiptBlk is a signed block transactions root.
type ReadReceiptBlk struct {
	BlockID   uint64 `json:"block_id"`
	Root      string `json:"transactions_root"`
	Signature []byte `json:"signature"`
}

// JSON renders the read receipt.
func (r ReadReceipt) JSON() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("core: read receipt marshal: %v", err))
	}
	return b
}

// ParseReadReceipt parses a read receipt JSON document.
func ParseReadReceipt(b []byte) (ReadReceipt, error) {
	var r ReadReceipt
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("core: bad read receipt: %w", err)
	}
	return r, nil
}

// buildReadReceipt assembles the receipt for a snapshot read set taken at
// rtx's snapshot. A row is proven in the tree of the transaction that
// created it, rebuilt from the one WAL frame that logged that
// transaction's DML (frames.go) — no table is scanned, so what concurrent
// writers do to the tables cannot matter — and each block's tree is built
// once, from entry hashes kept after the first receipt that needs them.
func (db *DB) buildReadReceipt(reads []readRecord, rtx *engine.ReadTx, priv ed25519.PrivateKey) (ReadReceipt, error) {
	r := ReadReceipt{
		DatabaseName: db.opts.Name,
		SnapshotTS:   rtx.TS(),
		PublicKey:    append(ed25519.PublicKey(nil), priv.Public().(ed25519.PublicKey)...),
	}
	if len(reads) == 0 {
		return r, nil
	}

	// Force-close the open block so every read row's creating transaction
	// lives in a closed, signable block (same move as digest generation).
	if target := db.entries.seal(); target >= 0 {
		if err := db.closeBlocksThrough(target, true); err != nil {
			return ReadReceipt{}, err
		}
	}

	// Group the read set by (table, creating transaction): rows of one
	// group are proven against one rebuilt Merkle tree in one pass.
	type txTable struct {
		tableID uint32
		txID    uint64
	}
	groups := make(map[txTable][]int)
	var groupOrder []txTable
	entries := make(map[uint64]*wal.LedgerEntry) // by creating transaction
	for i, rec := range reads {
		k := txTable{tableID: rec.lt.ID(), txID: rec.txID}
		if _, ok := groups[k]; !ok {
			groupOrder = append(groupOrder, k)
		}
		groups[k] = append(groups[k], i)
		entries[k.txID] = nil
	}

	// Resolve every creating transaction's ledger entry, then prove all
	// entries of one block in a single tree construction.
	if err := db.entries.get(entries); err != nil {
		return ReadReceipt{}, err
	}
	entryIdx := make(map[uint64]int)
	byBlock := make(map[uint64][]uint64) // block → txIDs, first-seen order
	var blockOrder []uint64
	for _, k := range groupOrder {
		if _, seen := entryIdx[k.txID]; seen {
			continue
		}
		entryIdx[k.txID] = -1 // assigned with its block, below
		blockID := entries[k.txID].BlockID
		if _, ok := byBlock[blockID]; !ok {
			blockOrder = append(blockOrder, blockID)
		}
		byBlock[blockID] = append(byBlock[blockID], k.txID)
	}
	for _, blockID := range blockOrder {
		txIDs := byBlock[blockID]
		indices := make([]uint64, len(txIDs))
		for i, txID := range txIDs {
			indices[i] = uint64(entries[txID].Ordinal)
		}
		root, proofs, err := db.blockProofs(blockID, indices)
		if err != nil {
			return ReadReceipt{}, err
		}
		r.Blocks = append(r.Blocks, ReadReceiptBlk{
			BlockID:   blockID,
			Root:      root.String(),
			Signature: ed25519.Sign(priv, signedMessage(db.opts.Name, blockID, root)),
		})
		bi := len(r.Blocks) - 1
		for i, txID := range txIDs {
			r.Entries = append(r.Entries, ReadReceiptTx{
				Entry: toReceiptEntry(entries[txID]),
				Block: bi,
				Proof: encodeProof(proofs[i]),
			})
			entryIdx[txID] = len(r.Entries) - 1
		}
	}

	// Prove every read row inside its (transaction, table) tree, rebuilt
	// from the creating transaction's frame — read once however many of
	// its tables the read set touches — and cross-checked against the root
	// recorded in its ledger entry before any proof is emitted.
	frames := make(map[uint64][]wal.Record, len(entries))
	r.Rows = make([]ReadReceiptRow, len(reads))
	for _, k := range groupOrder {
		lt := reads[groups[k][0]].lt
		recs, ok := frames[k.txID]
		var err error
		if !ok {
			recs, err = db.txFrame(entries[k.txID])
			frames[k.txID] = recs
		}
		var leaves []merkle.Hash
		var root merkle.Hash
		if err == nil {
			leaves, root, err = lt.frameTree(k.txID, recs)
		}
		if err != nil {
			return ReadReceipt{}, fmt.Errorf("core: table %s, transaction %d: %w", lt.Name(), k.txID, err)
		}
		if want, found := recordedRoot(entries[k.txID], k.tableID); !found || len(leaves) == 0 || root != want {
			return ReadReceipt{}, fmt.Errorf(
				"core: table %s, transaction %d: its log frame does not rebuild its recorded Merkle root",
				lt.Name(), k.txID)
		}
		layout := lt.shape.Load().layout
		idxs := make([]uint64, len(groups[k]))
		for gi, i := range groups[k] {
			rowData, err := layout.AppendEncoded(nil, reads[i].stored, serial.OpInsert, lt.skipEnd)
			if err != nil {
				return ReadReceipt{}, fmt.Errorf("core: stored row of %s: %w", lt.Name(), err)
			}
			h := merkle.HashLeaf(rowData)
			pos := -1
			for li, leaf := range leaves {
				if leaf == h {
					pos = li
					break
				}
			}
			if pos < 0 {
				return ReadReceipt{}, fmt.Errorf(
					"core: row read from %s is not covered by transaction %d's Merkle tree",
					lt.Name(), k.txID)
			}
			idxs[gi] = uint64(pos)
			r.Rows[i] = ReadReceiptRow{
				Table:   lt.Name(),
				TableID: k.tableID,
				RowData: rowData,
				Entry:   entryIdx[k.txID],
			}
		}
		_, proofs, err := merkle.BuildProofs(leaves, idxs)
		if err != nil {
			return ReadReceipt{}, err
		}
		for gi, i := range groups[k] {
			r.Rows[i].Proof = encodeProof(proofs[gi])
		}
	}
	return r, nil
}

// VerifyReadReceipt checks a read receipt offline: every block root
// signature must verify under pub, every transaction entry must prove into
// its signed block root, and every row's data hash must prove into its
// transaction's recorded per-table root. It needs no database access.
func VerifyReadReceipt(r ReadReceipt, pub ed25519.PublicKey) error {
	blockRoots := make([]merkle.Hash, len(r.Blocks))
	for i, b := range r.Blocks {
		root, err := merkle.ParseHash(b.Root)
		if err != nil {
			return err
		}
		if !ed25519.Verify(pub, signedMessage(r.DatabaseName, b.BlockID, root), b.Signature) {
			return fmt.Errorf("core: read receipt: block %d signature is invalid", b.BlockID)
		}
		blockRoots[i] = root
	}
	for _, en := range r.Entries {
		if en.Block < 0 || en.Block >= len(r.Blocks) {
			return fmt.Errorf("core: read receipt: transaction %d references unknown block index %d",
				en.Entry.TxID, en.Block)
		}
		if ok, err := en.Entry.provenIn(r.Blocks[en.Block].BlockID, blockRoots[en.Block], en.Proof); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("core: read receipt: transaction %d proof does not verify", en.Entry.TxID)
		}
	}
	for i, row := range r.Rows {
		if row.Entry < 0 || row.Entry >= len(r.Entries) {
			return fmt.Errorf("core: read receipt: row %d references unknown transaction index %d",
				i, row.Entry)
		}
		en := r.Entries[row.Entry]
		var tableRoot merkle.Hash
		found := false
		for _, tr := range en.Entry.Roots {
			if tr.TableID == row.TableID {
				h, err := merkle.ParseHash(tr.Root)
				if err != nil {
					return err
				}
				tableRoot, found = h, true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: read receipt: transaction %d recorded no root for table %d",
				en.Entry.TxID, row.TableID)
		}
		p, err := decodeProof(row.Proof)
		if err != nil {
			return err
		}
		if !p.Verify(tableRoot, merkle.HashLeaf(row.RowData)) {
			return fmt.Errorf("core: read receipt: row %d of table %s does not verify", i, row.Table)
		}
	}
	return nil
}
