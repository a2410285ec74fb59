package murmur

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Reference vectors for MurmurHash3_x64_128 from the canonical implementation.
func TestSum128Vectors(t *testing.T) {
	tests := []struct {
		in     string
		seed   uint64
		wantH1 uint64
		wantH2 uint64
	}{
		{"", 0, 0, 0},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"The quick brown fox jumps over the lazy dog", 0, 0xe34bbc7bbc071b6c, 0x7a433ca9c49a9347},
	}
	for _, tt := range tests {
		h1, h2 := Sum128([]byte(tt.in), tt.seed)
		if h1 != tt.wantH1 || h2 != tt.wantH2 {
			t.Errorf("Sum128(%q, %d) = (%#x, %#x), want (%#x, %#x)",
				tt.in, tt.seed, h1, h2, tt.wantH1, tt.wantH2)
		}
	}
}

func TestSum64MatchesSum128FirstWord(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		h1, _ := Sum128(data, seed)
		return Sum64(data, seed) == h1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		a1, a2 := Sum128(data, seed)
		b1, b2 := Sum128(data, seed)
		return a1 == b1 && a2 == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Different seeds should (essentially always) yield different hashes; this is
// what lets the cuckoo index derive independent hash functions from seeds.
func TestSeedIndependence(t *testing.T) {
	data := []byte("dbdedup feature index seed independence probe")
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 64; seed++ {
		h := Sum64(data, seed)
		if seen[h] {
			t.Fatalf("seed %d collided with an earlier seed", seed)
		}
		seen[h] = true
	}
}

// All tail lengths 0..16 must be handled; cross-check incremental property:
// hashing data[:n] for each n must not panic and must differ from data[:n-1]
// almost surely.
func TestTailLengths(t *testing.T) {
	data := []byte("0123456789abcdefX")
	prev64 := uint64(0)
	for n := 0; n <= len(data); n++ {
		h64 := Sum64(data[:n], 7)
		if n > 0 && h64 == prev64 {
			t.Errorf("prefix %d hashed identically to prefix %d", n, n-1)
		}
		prev64 = h64
	}
}

func TestAvalanche(t *testing.T) {
	base := bytes.Repeat([]byte("x"), 64)
	h0 := Sum64(base, 0)
	flipped := 0
	trials := 0
	for i := 0; i < len(base); i++ {
		mod := append([]byte(nil), base...)
		mod[i] ^= 1
		h := Sum64(mod, 0)
		diff := h0 ^ h
		for b := 0; b < 64; b++ {
			if diff&(1<<b) != 0 {
				flipped++
			}
			trials++
		}
	}
	// A good hash flips ~50% of output bits per input-bit flip. Accept a
	// generous 40-60% band.
	frac := float64(flipped) / float64(trials)
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("avalanche fraction = %.3f, want within [0.40, 0.60]", frac)
	}
}

func BenchmarkSum64_1K(b *testing.B)  { benchSum64(b, 1024) }
func BenchmarkSum64_64B(b *testing.B) { benchSum64(b, 64) }

func benchSum64(b *testing.B, n int) {
	data := bytes.Repeat([]byte("abcdefgh"), n/8)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum64(data, 0)
	}
}
