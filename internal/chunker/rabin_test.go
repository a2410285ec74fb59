package chunker

import (
	"bytes"
	"math/rand"
	"testing"
)

// directFingerprint is the Rabin fingerprint of data with no sliding: every
// byte appended, none evicted.
func directFingerprint(t *rabinTable, data []byte) uint64 {
	var fp uint64
	for _, b := range data {
		top := byte(fp >> 56)
		fp = (fp<<8 | uint64(b)) ^ t.mod[top]
	}
	return fp
}

func TestRollingMatchesDirect(t *testing.T) {
	// The fingerprint of a full window maintained by roll must equal the
	// direct fingerprint of those window bytes.
	const win = 16
	tbl := newRabinTable(win)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 500)
	rng.Read(data)

	h := tbl.newHasher()
	for i, b := range data {
		got := h.roll(b)
		lo := i + 1 - win
		if lo < 0 {
			lo = 0
		}
		want := directFingerprint(tbl, data[lo:i+1])
		if got != want {
			t.Fatalf("pos %d: rolling fp %#x != direct fp %#x", i, got, want)
		}
	}
}

func TestRollWindowIndependence(t *testing.T) {
	// Once the window is full, the fingerprint must depend only on the
	// last `win` bytes, not on anything earlier.
	const win = 32
	tbl := newRabinTable(win)
	suffix := []byte("the last thirty-two bytes matter")
	if len(suffix) != win {
		t.Fatalf("suffix must be %d bytes, got %d", win, len(suffix))
	}

	fpFor := func(prefix []byte) uint64 {
		h := tbl.newHasher()
		for _, b := range prefix {
			h.roll(b)
		}
		for _, b := range suffix {
			h.roll(b)
		}
		return h.fp
	}

	base := fpFor(nil)
	for _, prefix := range [][]byte{
		[]byte("x"),
		[]byte("completely different prefix data"),
		bytes.Repeat([]byte{0xff}, 1000),
	} {
		if got := fpFor(prefix); got != base {
			t.Errorf("fingerprint depends on bytes outside the window: %#x != %#x", got, base)
		}
	}
}

func TestHasherReset(t *testing.T) {
	tbl := newRabinTable(8)
	h := tbl.newHasher()
	for _, b := range []byte("some data to dirty the state") {
		h.roll(b)
	}
	h.reset()
	if h.fp != 0 {
		t.Fatalf("fp after reset = %#x, want 0", h.fp)
	}
	var want uint64
	{
		h2 := tbl.newHasher()
		for _, b := range []byte("abc") {
			want = h2.roll(b)
		}
	}
	var got uint64
	for _, b := range []byte("abc") {
		got = h.roll(b)
	}
	if got != want {
		t.Fatalf("post-reset fingerprint %#x != fresh fingerprint %#x", got, want)
	}
}
