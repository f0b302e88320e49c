package core

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"

	"sqlledger/internal/merkle"
	"sqlledger/internal/serial"
	"sqlledger/internal/wal"
)

// Receipt proves that a transaction is part of the ledger (§5.1,
// non-repudiation): it carries the transaction entry, a Merkle inclusion
// proof of the entry in its block's transactions tree, and a signature
// over the block root. One signing operation covers every transaction in
// the block, so generating receipts stays cheap even at the paper's 100K
// transactions per block.
//
// A receipt is verifiable offline — even after the ledger has been
// tampered with or destroyed — with only the signer's public key.
type Receipt struct {
	DatabaseName string            `json:"database_name"`
	Entry        ReceiptEntry      `json:"transaction"`
	BlockID      uint64            `json:"block_id"`
	BlockRoot    string            `json:"block_transactions_root"`
	Proof        ReceiptProof      `json:"merkle_proof"`
	Signature    []byte            `json:"signature"`
	PublicKey    ed25519.PublicKey `json:"public_key"`
}

// ReceiptEntry is the transaction entry embedded in a receipt.
type ReceiptEntry struct {
	TxID     uint64             `json:"transaction_id"`
	Ordinal  uint32             `json:"ordinal_in_block"`
	CommitTS int64              `json:"commit_time"`
	User     string             `json:"principal"`
	Roots    []ReceiptTableRoot `json:"table_roots"`
}

// ReceiptTableRoot is a per-table Merkle root inside a receipt.
type ReceiptTableRoot struct {
	TableID uint32 `json:"table_id"`
	Root    string `json:"root"`
}

// ReceiptProof is the Merkle inclusion proof inside a receipt.
type ReceiptProof struct {
	Index     uint64   `json:"index"`
	LeafCount uint64   `json:"leaf_count"`
	Siblings  []string `json:"siblings"`
}

// JSON renders the receipt.
func (r Receipt) JSON() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("core: receipt marshal: %v", err))
	}
	return b
}

// ParseReceipt parses a receipt JSON document.
func ParseReceipt(b []byte) (Receipt, error) {
	var r Receipt
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("core: bad receipt: %w", err)
	}
	return r, nil
}

// signedMessage is what the block signer signs: the database name, block
// id and transactions root, bound together canonically.
func signedMessage(dbName string, blockID uint64, root merkle.Hash) []byte {
	h := serial.HashBytes([]byte("sqlledger-block-receipt"), []byte(dbName), u64le(blockID), root[:])
	return h[:]
}

// entryOfTx returns txID's ledger entry.
func (db *DB) entryOfTx(txID uint64) (*wal.LedgerEntry, error) {
	want := map[uint64]*wal.LedgerEntry{txID: nil}
	err := db.entries.get(want)
	return want[txID], err
}

// toReceiptEntry converts a ledger entry to its receipt form.
func toReceiptEntry(e *wal.LedgerEntry) ReceiptEntry {
	roots := make([]ReceiptTableRoot, len(e.Roots))
	for i, tr := range e.Roots {
		roots[i] = ReceiptTableRoot{TableID: tr.TableID, Root: tr.Root.String()}
	}
	return ReceiptEntry{TxID: e.TxID, Ordinal: e.Ordinal, CommitTS: e.CommitTS, User: e.User, Roots: roots}
}

// provenIn reports whether proof links the entry, as a transaction of
// block blockID, to that block's transactions root. It is the offline
// verifiers' half of the tree the ledger builds at block close.
func (e ReceiptEntry) provenIn(blockID uint64, root merkle.Hash, proof ReceiptProof) (bool, error) {
	roots := make([]wal.TableRoot, len(e.Roots))
	for i, tr := range e.Roots {
		h, err := merkle.ParseHash(tr.Root)
		if err != nil {
			return false, err
		}
		roots[i] = wal.TableRoot{TableID: tr.TableID, Root: h}
	}
	leaf := entryHash(&wal.LedgerEntry{
		TxID: e.TxID, BlockID: blockID, Ordinal: e.Ordinal,
		CommitTS: e.CommitTS, User: e.User, Roots: roots,
	})
	p, err := decodeProof(proof)
	if err != nil {
		return false, err
	}
	return p.Verify(root, leaf), nil
}

// encodeProof converts a Merkle proof to its receipt form.
func encodeProof(p merkle.Proof) ReceiptProof {
	sibs := make([]string, len(p.Siblings))
	for i, s := range p.Siblings {
		sibs[i] = s.String()
	}
	return ReceiptProof{Index: p.Index, LeafCount: p.LeafCount, Siblings: sibs}
}

// decodeProof parses a receipt proof back to a Merkle proof.
func decodeProof(p ReceiptProof) (merkle.Proof, error) {
	sibs := make([]merkle.Hash, len(p.Siblings))
	for i, s := range p.Siblings {
		h, err := merkle.ParseHash(s)
		if err != nil {
			return merkle.Proof{}, err
		}
		sibs[i] = h
	}
	return merkle.Proof{Index: p.Index, LeafCount: p.LeafCount, Siblings: sibs}, nil
}

// GenerateReceipt produces a receipt for txID, signing the block root with
// priv. The transaction's block must already be closed (generate a digest
// first to force-close the current block).
func (db *DB) GenerateReceipt(txID uint64, priv ed25519.PrivateKey) (Receipt, error) {
	e, err := db.entryOfTx(txID)
	if err != nil {
		return Receipt{}, err
	}
	db.closeMu.Lock()
	closed := db.closedThrough
	db.closeMu.Unlock()
	if int64(e.BlockID) > closed {
		return Receipt{}, fmt.Errorf("%w: transaction %d is in open block %d", ErrBlockNotClosed, txID, e.BlockID)
	}
	root, proofs, err := db.blockProofs(e.BlockID, []uint64{uint64(e.Ordinal)})
	if err != nil {
		return Receipt{}, err
	}
	return Receipt{
		DatabaseName: db.opts.Name,
		Entry:        toReceiptEntry(e),
		BlockID:      e.BlockID,
		BlockRoot:    root.String(),
		Proof:        encodeProof(proofs[0]),
		Signature:    ed25519.Sign(priv, signedMessage(db.opts.Name, e.BlockID, root)),
		PublicKey:    append(ed25519.PublicKey(nil), priv.Public().(ed25519.PublicKey)...),
	}, nil
}

// VerifyReceipt checks a receipt offline: the signature over the block
// root must verify under pub, and the Merkle proof must link the
// transaction entry to that root. It needs no database access.
func VerifyReceipt(r Receipt, pub ed25519.PublicKey) error {
	root, err := merkle.ParseHash(r.BlockRoot)
	if err != nil {
		return err
	}
	if !ed25519.Verify(pub, signedMessage(r.DatabaseName, r.BlockID, root), r.Signature) {
		return fmt.Errorf("core: receipt signature is invalid")
	}
	if ok, err := r.Entry.provenIn(r.BlockID, root, r.Proof); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("core: receipt Merkle proof does not verify")
	}
	return nil
}
