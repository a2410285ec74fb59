package segio

import (
	"bytes"
	"testing"
)

func TestInstallMappingAndRange(t *testing.T) {
	content := bytes.Repeat([]byte("segment!"), 64)
	r := memReader(t, 0, content)
	r.SetSize(256)

	unmapped := 0
	if !r.InstallMapping(content, func() { unmapped++ }) {
		t.Fatal("InstallMapping failed on a live reader")
	}
	if !r.Mapped() {
		t.Fatal("Mapped() = false after install")
	}
	// A second install must be refused (the first owns teardown).
	if r.InstallMapping(content, func() {}) {
		t.Fatal("second InstallMapping succeeded")
	}

	got, ok := r.MappedRange(8, 16)
	if !ok || !bytes.Equal(got, content[8:24]) {
		t.Fatalf("MappedRange(8,16) = %v, %v", got, ok)
	}
	// Bounded by the published size, not the mapping length.
	if _, ok := r.MappedRange(250, 10); ok {
		t.Fatal("MappedRange crossed the published size")
	}
	if _, ok := r.MappedRange(-1, 4); ok {
		t.Fatal("MappedRange accepted a negative offset")
	}

	// unmap runs exactly once, when the refcount drains.
	if unmapped != 0 {
		t.Fatalf("unmap ran before drain (%d times)", unmapped)
	}
	r.unref() // drop the table reference; refs drain to zero
	if unmapped != 1 {
		t.Fatalf("unmap ran %d times after drain, want 1", unmapped)
	}
}

func TestInstallMappingAfterDrain(t *testing.T) {
	r := memReader(t, 0, []byte("abcd"))
	r.unref() // drained
	if r.InstallMapping([]byte("abcd"), func() {}) {
		t.Fatal("InstallMapping succeeded on a drained reader")
	}
}

func TestMappingOutlivesRetireWhilePinned(t *testing.T) {
	content := bytes.Repeat([]byte("x"), 128)
	tb := NewTable()
	r := memReader(t, 3, content)
	tb.Install(r)
	unmapped := 0
	if !r.InstallMapping(content, func() { unmapped++ }) {
		t.Fatal("install failed")
	}

	pinned, ok := tb.Pin(3)
	if !ok {
		t.Fatal("pin failed")
	}
	tb.Retire(3)
	// Retired but pinned: the mapping must still serve reads.
	if unmapped != 0 {
		t.Fatal("mapping torn down while a pin is outstanding")
	}
	if got, ok := pinned.MappedRange(0, 128); !ok || !bytes.Equal(got, content) {
		t.Fatal("mapped read failed on a retired-but-pinned segment")
	}
	tb.Unpin(pinned)
	if unmapped != 1 {
		t.Fatalf("unmap ran %d times after the last unpin, want 1", unmapped)
	}
}
