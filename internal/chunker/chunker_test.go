package chunker

import (
	"math/rand"
	"testing"
)

// xorshift fills n bytes from a fixed xorshift64 stream — deterministic
// across Go versions, unlike math/rand's generator contract.
func xorshift(n int) []byte {
	var s uint64 = 0x9e3779b97f4a7c15
	b := make([]byte, n)
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(cfg)
	}
	mustPanic("non-power-of-two", Config{AvgSize: 100})
	mustPanic("avg too small", Config{AvgSize: 1})
	for _, alg := range []Algorithm{Rabin, Gear} {
		if c := New(Config{Algorithm: alg}); c.Algorithm() != alg {
			t.Errorf("Algorithm() = %v, want %v", c.Algorithm(), alg)
		}
	}
	if got := New(Config{}).Algorithm(); got != Gear {
		t.Errorf("zero Config built %v, want gear", got)
	}
	for _, n := range []int{0, 2, 64, 1 << 20} {
		if err := CheckAvgSize(n); err != nil {
			t.Errorf("CheckAvgSize(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-64, 1, 3, 100} {
		if err := CheckAvgSize(n); err == nil {
			t.Errorf("CheckAvgSize(%d) = nil, want an error", n)
		}
	}
}

// checkCover asserts the chunk-stream contract every implementation must
// honour: chunks are contiguous, non-empty, cover data exactly, never exceed
// maxSize, and only the final chunk may be shorter than minSize.
func checkCover(t *testing.T, chunks []Chunk, n, min, max int) {
	t.Helper()
	if n == 0 {
		if len(chunks) != 0 {
			t.Fatalf("empty input produced %d chunks", len(chunks))
		}
		return
	}
	off := 0
	for i, c := range chunks {
		if c.Offset != off {
			t.Fatalf("chunk %d: offset %d, want %d", i, c.Offset, off)
		}
		if c.Length <= 0 {
			t.Fatalf("chunk %d: empty", i)
		}
		if c.Length > max {
			t.Fatalf("chunk %d: length %d > max %d", i, c.Length, max)
		}
		if c.Length < min && i != len(chunks)-1 {
			t.Fatalf("chunk %d: length %d < min %d and not final", i, c.Length, min)
		}
		off += c.Length
	}
	if off != n {
		t.Fatalf("chunks cover %d bytes, input has %d", off, n)
	}
}

func TestChunkStreamInvariants(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0x42},
		xorshift(10),
		xorshift(255),
		xorshift(256),
		xorshift(257),
		make([]byte, 5000),           // zero run
		xorshift(64 * 1024),          // bulk random
		[]byte("abcabcabcabcabcabc"), // short period
	}
	for _, alg := range []Algorithm{Rabin, Gear} {
		for _, avg := range []int{64, 1024} {
			cfg := Config{Algorithm: alg, AvgSize: avg}.withDefaults()
			c := New(cfg)
			for i, in := range inputs {
				chunks := c.Chunks(in, nil)
				checkCover(t, chunks, len(in), cfg.minSize(), cfg.maxSize())
				if t.Failed() {
					t.Fatalf("alg=%v avg=%d input %d", alg, avg, i)
				}
			}
		}
	}
}

func TestChunksAppendSemantics(t *testing.T) {
	c := New(Config{Algorithm: Gear, AvgSize: 64})
	data := xorshift(4096)
	scratch := make([]Chunk, 0, 128)
	a := c.Chunks(data, scratch)
	b := c.Chunks(data, nil)
	if len(a) != len(b) {
		t.Fatalf("scratch reuse changed chunk count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs with scratch reuse: %v vs %v", i, a[i], b[i])
		}
	}
	// Appending after a prefix preserves the prefix.
	pre := []Chunk{{Offset: -1, Length: -1}}
	out := c.Chunks(data, pre)
	if out[0] != pre[0] {
		t.Fatal("Chunks overwrote existing dst elements")
	}
}

func TestMeanChunkSizeNearTarget(t *testing.T) {
	data := xorshift(4 << 20)
	for _, alg := range []Algorithm{Rabin, Gear} {
		for _, avg := range []int{64, 1024} {
			c := New(Config{Algorithm: alg, AvgSize: avg})
			chunks := c.Chunks(data, nil)
			mean := float64(len(data)) / float64(len(chunks))
			if mean < float64(avg)/2 || mean > 2*float64(avg) {
				t.Errorf("alg=%v avg=%d: mean chunk size %.1f outside [avg/2, 2avg]",
					alg, avg, mean)
			}
		}
	}
}

// TestShiftResilience pins the property content-defined chunking exists for:
// inserting bytes near the front must leave most downstream chunk content
// unchanged, for both algorithms.
func TestShiftResilience(t *testing.T) {
	base := xorshift(256 << 10)
	edited := append([]byte(nil), base[:1000]...)
	edited = append(edited, []byte("INSERTED-SEQUENCE")...)
	edited = append(edited, base[1000:]...)

	for _, alg := range []Algorithm{Rabin, Gear} {
		c := New(Config{Algorithm: alg, AvgSize: 1024})
		contents := func(data []byte) map[string]struct{} {
			m := make(map[string]struct{})
			for _, ch := range c.Chunks(data, nil) {
				m[string(data[ch.Offset:ch.Offset+ch.Length])] = struct{}{}
			}
			return m
		}
		a, b := contents(base), contents(edited)
		shared := 0
		for k := range a {
			if _, ok := b[k]; ok {
				shared++
			}
		}
		if frac := float64(shared) / float64(len(a)); frac < 0.80 {
			t.Errorf("alg=%v: only %.0f%% of chunks survive a 17-byte insertion; want >= 80%%",
				alg, frac*100)
		}
	}
}

// TestBoundariesRealignAfterEdit is the stricter form of the same property:
// an insertion mid-stream moves no boundary before it, and past one forget
// horizon (4 KiB is generous for both algorithms) at least 95% of the old
// boundaries reappear, shifted by the insertion length.
func TestBoundariesRealignAfterEdit(t *testing.T) {
	data := xorshift(128 << 10)
	half := len(data) / 2
	edited := append([]byte(nil), data[:half]...)
	edited = append(edited, []byte("INSERTED EDIT PAYLOAD")...)
	edited = append(edited, data[half:]...)
	shift := len(edited) - len(data)

	for _, alg := range []Algorithm{Rabin, Gear} {
		c := New(Config{Algorithm: alg, AvgSize: 256})
		after := make(map[int]bool)
		for _, ch := range c.Chunks(edited, nil) {
			after[ch.Offset] = true
		}
		realigned, total := 0, 0
		for _, ch := range c.Chunks(data, nil) {
			switch {
			case ch.Offset+ch.Length <= half:
				if !after[ch.Offset] {
					t.Errorf("alg=%v: boundary at %d, before the edit, moved", alg, ch.Offset)
				}
			case ch.Offset >= half+4096:
				total++
				if after[ch.Offset+shift] {
					realigned++
				}
			}
		}
		if total == 0 {
			t.Fatal("test corpus too small")
		}
		if frac := float64(realigned) / float64(total); frac < 0.95 {
			t.Errorf("alg=%v: only %.2f of boundaries re-aligned after the edit, want >= 0.95", alg, frac)
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 1<<20)
	rng.Read(data)
	for _, alg := range []Algorithm{Rabin, Gear} {
		c1 := New(Config{Algorithm: alg, AvgSize: 64})
		c2 := New(Config{Algorithm: alg, AvgSize: 64})
		a := c1.Chunks(data, nil)
		b := c2.Chunks(data, nil)
		if len(a) != len(b) {
			t.Fatalf("alg=%v: chunk count differs across instances", alg)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("alg=%v: chunk %d differs across instances", alg, i)
			}
		}
	}
}

func TestSplitHelper(t *testing.T) {
	c := New(Config{Algorithm: Gear, AvgSize: 64})
	if got := Split(c, nil); got != nil {
		t.Errorf("Split(empty) = %v, want nil", got)
	}
	data := xorshift(1024)
	if got := Split(c, data); len(got) == 0 {
		t.Error("Split(data) returned no chunks")
	}
}
