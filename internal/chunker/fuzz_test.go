package chunker

import "testing"

// FuzzChunkersCover differentially checks both algorithms against the shared
// chunk-stream contract: for arbitrary input, every implementation must emit
// contiguous, non-empty chunks that cover the input exactly, respect maxSize,
// and fall below minSize only in the final position.
func FuzzChunkersCover(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("hello world"))
	f.Add(xorshift(255))
	f.Add(xorshift(4096))
	f.Add(make([]byte, 3000))

	type under struct {
		c   Chunker
		cfg Config
	}
	var chunkers []under
	for _, alg := range []Algorithm{Rabin, Gear} {
		for _, avg := range []int{64, 1024} {
			cfg := Config{Algorithm: alg, AvgSize: avg}.withDefaults()
			chunkers = append(chunkers, under{New(cfg), cfg})
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, u := range chunkers {
			chunks := u.c.Chunks(data, nil)
			if len(data) == 0 {
				if len(chunks) != 0 {
					t.Fatalf("%v/%d: empty input produced chunks", u.cfg.Algorithm, u.cfg.AvgSize)
				}
				continue
			}
			off := 0
			for i, ch := range chunks {
				switch {
				case ch.Offset != off:
					t.Fatalf("%v/%d: chunk %d offset %d, want %d", u.cfg.Algorithm, u.cfg.AvgSize, i, ch.Offset, off)
				case ch.Length <= 0:
					t.Fatalf("%v/%d: chunk %d empty", u.cfg.Algorithm, u.cfg.AvgSize, i)
				case ch.Length > u.cfg.maxSize():
					t.Fatalf("%v/%d: chunk %d length %d > max", u.cfg.Algorithm, u.cfg.AvgSize, i, ch.Length)
				case ch.Length < u.cfg.minSize() && i != len(chunks)-1:
					t.Fatalf("%v/%d: chunk %d length %d < min and not final", u.cfg.Algorithm, u.cfg.AvgSize, i, ch.Length)
				}
				off += ch.Length
			}
			if off != len(data) {
				t.Fatalf("%v/%d: covered %d of %d bytes", u.cfg.Algorithm, u.cfg.AvgSize, off, len(data))
			}
		}
	})
}
