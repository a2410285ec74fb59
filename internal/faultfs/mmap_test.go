package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOSMmap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	f, err := OS{}.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	content := bytes.Repeat([]byte("abcdefgh"), 512)
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	m, ok := f.(Mapper)
	if !ok {
		t.Fatal("os-backed File does not implement Mapper")
	}
	mp, err := m.Mmap(int64(len(content)))
	if errors.Is(err, ErrMmapUnsupported) {
		t.Skip("os files do not map here (non-unix platform or the nommap build tag)")
	}
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if !bytes.Equal(mp.Bytes(), content) {
		t.Fatal("mapped bytes differ from written bytes")
	}
	// MAP_SHARED: later writes to already-written ranges are coherent.
	if _, err := f.WriteAt([]byte("XXXX"), 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mp.Bytes()[8:12], []byte("XXXX")) {
		t.Fatal("os mapping not coherent with a later WriteAt")
	}
	if err := mp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := m.Mmap(0); !errors.Is(err, ErrMmapUnsupported) {
		t.Fatalf("Mmap(0) = %v, want ErrMmapUnsupported", err)
	}
}

// TestMemMmapLends: a MemFS mapping is the file's own bytes, not a copy (an
// in-memory store holds a rolled segment once), and it stays what it was when
// a later append moves the file to a larger array.
func TestMemMmapLends(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.OpenFile("seg", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("12345678"), 16)
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	mp, err := f.(Mapper).Mmap(int64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mp.Bytes(), content) {
		t.Fatal("mapped bytes differ")
	}
	if &mp.Bytes()[0] != &f.(*memFile).node.data[0] {
		t.Fatal("the mapping is a copy of the file, not a loan of it")
	}
	if _, err := f.(Mapper).Mmap(int64(len(content)) + 1); !errors.Is(err, ErrMmapUnsupported) {
		t.Fatal("mapping past EOF must be refused")
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("z"), 1<<16), int64(len(content))); err != nil {
		t.Fatal(err)
	}
	if len(mp.Bytes()) != len(content) || !bytes.Equal(mp.Bytes(), content) {
		t.Fatal("an append behind the mapped prefix changed the mapping")
	}
	mp.Close()
}

func TestInjectorMmap(t *testing.T) {
	fs := NewMemFS()
	inj := NewInjector(fs, 1, FailMmap(1))
	f, err := inj.OpenFile("seg", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("x"), 128), 0); err != nil {
		t.Fatal(err)
	}
	m := f.(Mapper)
	if _, err := m.Mmap(128); !errors.Is(err, ErrInjected) {
		t.Fatalf("first Mmap = %v, want ErrInjected", err)
	}
	mp, err := m.Mmap(128)
	if err != nil {
		t.Fatalf("second Mmap should delegate cleanly: %v", err)
	}
	if len(mp.Bytes()) != 128 {
		t.Fatalf("mapped %d bytes, want 128", len(mp.Bytes()))
	}
	mp.Close()
	if got := inj.Count(OpMmap); got != 2 {
		t.Fatalf("Count(OpMmap) = %d, want 2", got)
	}
}
