// Package blobstore simulates Azure Immutable Blob Storage (§2.4, §3.6):
// a write-once, append-only blob namespace that rejects any modification
// or deletion after a blob is written — including by the "cloud provider".
// SQL Ledger uploads database digests here so that even an adversary with
// full control of the database server cannot rewrite history undetected.
//
// Two implementations are provided: an in-memory store for tests and
// simulations, and a file-backed store whose trust boundary is a separate
// directory (in a real deployment: a separate service).
package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sqlledger/internal/wal"
)

// Store errors.
var (
	// ErrImmutable is returned on any attempt to overwrite or delete an
	// existing blob.
	ErrImmutable = errors.New("blobstore: blobs are immutable")
	// ErrNotFound is returned when a blob does not exist.
	ErrNotFound = errors.New("blobstore: blob not found")
)

// Store is an immutable, append-only blob store.
type Store interface {
	// Put writes a new blob. Writing to an existing name fails with
	// ErrImmutable.
	Put(name string, data []byte) error
	// Get reads a blob.
	Get(name string) ([]byte, error)
	// List returns the names of all blobs with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// Memory is an in-memory Store. The zero value is ready to use.
type Memory struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{m: make(map[string][]byte)} }

// Put implements Store.
func (s *Memory) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string][]byte)
	}
	if _, exists := s.m[name]; exists {
		return fmt.Errorf("%w: %s", ErrImmutable, name)
	}
	s.m[name] = append([]byte(nil), data...)
	return nil
}

// Get implements Store.
func (s *Memory) Get(name string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return append([]byte(nil), b...), nil
}

// List implements Store.
func (s *Memory) List(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name := range s.m {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Dir is a file-backed Store rooted at a directory. Blob names map to
// file paths; path separators in names create subdirectories. Existing
// files are never overwritten.
type Dir struct {
	root string
	mu   sync.Mutex
}

// NewDir returns a file-backed store rooted at root (created if needed).
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	return &Dir{root: root}, nil
}

func (s *Dir) path(name string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(name))
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("blobstore: invalid blob name %q", name)
	}
	return filepath.Join(s.root, clean), nil
}

// Put implements Store.
func (s *Dir) Put(name string, data []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(p); err == nil {
		return fmt.Errorf("%w: %s", ErrImmutable, name)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	// Durably: a blob left empty by a crash would, being immutable, read as
	// a different digest forever.
	return wal.WriteFileAtomic(p, 0o444, data)
}

// Get implements Store.
func (s *Dir) Get(name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return b, err
}

// List implements Store.
func (s *Dir) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.Walk(s.root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.HasSuffix(p, ".tmp") {
			return err
		}
		rel, rerr := filepath.Rel(s.root, p)
		if rerr != nil {
			return rerr
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
