package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	d, err := NewDir(filepath.Join(t.TempDir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"memory": NewMemory(), "dir": d}
}

func TestPutGetList(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("db/1/block-1.json", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("db/1/block-2.json", []byte("two")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("other/x", []byte("y")); err != nil {
				t.Fatal(err)
			}
			b, err := s.Get("db/1/block-1.json")
			if err != nil || string(b) != "one" {
				t.Fatalf("get = %q, %v", b, err)
			}
			names, err := s.List("db/")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(names) != "[db/1/block-1.json db/1/block-2.json]" {
				t.Fatalf("list = %v", names)
			}
		})
	}
}

func TestImmutability(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("a", []byte("original")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("a", []byte("overwrite")); !errors.Is(err, ErrImmutable) {
				t.Fatalf("overwrite: %v", err)
			}
			b, _ := s.Get("a")
			if string(b) != "original" {
				t.Fatalf("blob changed: %q", b)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing get: %v", err)
			}
		})
	}
}

func TestCallerCannotMutateStoredBytes(t *testing.T) {
	s := NewMemory()
	data := []byte("abc")
	s.Put("k", data)
	data[0] = 'X' // caller mutates the slice after Put
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("Put did not copy the data")
	}
	got[0] = 'Y' // caller mutates the slice from Get
	got2, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Fatal("Get did not copy the data")
	}
}

func TestDirRejectsEscapingNames(t *testing.T) {
	d, err := NewDir(filepath.Join(t.TempDir(), "root"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("../escape", []byte("x")); err == nil {
		t.Fatal("path escape accepted")
	}
	if err := d.Put("/abs", []byte("x")); err == nil {
		t.Fatal("absolute path accepted")
	}
}

// TestDirFailedPutLeavesNothing: a Put whose write fails — the disk is full
// where its temporary file goes — leaves neither the blob nor the
// temporary file, so the next Put of the name stores it whole.
func TestDirFailedPutLeavesNothing(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	root := filepath.Join(t.TempDir(), "blobs")
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(root, "digest.json.tmp")
	if err := os.Symlink("/dev/full", tmp); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("digest.json", []byte("digest")); err == nil {
		t.Fatal("a Put onto a full disk succeeded")
	}
	if _, err := d.Get("digest.json"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after a failed Put, Get = %v; want ErrNotFound", err)
	}
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Fatalf("a failed Put left its temporary file: %v", err)
	}
	if err := d.Put("digest.json", []byte("digest")); err != nil {
		t.Fatal(err)
	}
	if b, err := d.Get("digest.json"); err != nil || string(b) != "digest" {
		t.Fatalf("Get = %q, %v", b, err)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := NewMemory()
	var wg sync.WaitGroup
	wins := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins <- s.Put("contested", []byte(fmt.Sprint(i)))
		}(i)
	}
	wg.Wait()
	close(wins)
	ok := 0
	for err := range wins {
		if err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Fatalf("%d concurrent puts succeeded, want exactly 1", ok)
	}
}

func TestZeroValueMemoryUsable(t *testing.T) {
	var s Memory
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if names, err := s.List(""); err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v; want one name", names, err)
	}
}
