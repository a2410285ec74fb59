// Package chunker is the content-defined chunking stage of sketching: a
// Chunker turns byte buffers into contiguous, non-empty chunk streams that
// cover the input exactly. It holds two algorithms and no way to choose
// between them at run time:
//
//   - Gear (gear.go) is the chunker. Every node, daemon and harness runs it:
//     one shift and one byte-indexed table add per byte, no sliding-window
//     bookkeeping, the sub-minSize region of every chunk skipped entirely.
//
//   - Rabin (rabin.go) is the reference: the paper's rolling-polynomial
//     fingerprint chunker. The paper-fidelity experiments and the trad-dedup
//     baseline pin it so their figures stay on the paper's algorithm, and the
//     tests hold gear to its contract and its dedup ratios.
//
// Chunk boundaries differ between the two (each defines its own notion of
// "content-defined"), but both are deterministic, both respect the same
// Min/Avg/Max size bounds, and both yield statistically equivalent dedup
// ratios, verified by the ratio-parity test in internal/experiments. Which
// one sketched a record is recorded nowhere: sketches only steer which
// similar record is found, so stored deltas and oplog entries decode the
// same whatever chunked them.
package chunker

import "fmt"

// Chunk describes one content-defined chunk of an input buffer.
type Chunk struct {
	// Offset is the byte offset of the chunk within the input.
	Offset int
	// Length is the chunk length in bytes.
	Length int
}

// Algorithm names a chunking algorithm.
type Algorithm int

const (
	// Gear is Gear-hash chunking with skip-ahead: the production chunker,
	// and the zero value.
	Gear Algorithm = iota
	// Rabin is rolling-polynomial fingerprint chunking: the reference
	// implementation.
	Rabin
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == Rabin {
		return "rabin"
	}
	return "gear"
}

// Chunker splits byte buffers into content-defined chunks. Implementations
// are immutable after construction and safe for concurrent use.
type Chunker interface {
	// Algorithm identifies the implementation.
	Algorithm() Algorithm
	// Chunks appends the chunks of data to dst and returns the extended
	// slice (append semantics, so callers can reuse scratch buffers).
	// The appended chunks are contiguous, non-empty, and cover data
	// exactly; an empty input appends nothing.
	Chunks(data []byte, dst []Chunk) []Chunk
}

// Config controls content-defined chunking, independent of algorithm.
type Config struct {
	// Algorithm picks the implementation; the zero value is Gear.
	Algorithm Algorithm
	// AvgSize is the target average chunk size in bytes. It must be a
	// power of two >= 2. Defaults to 1024. It fixes the chunk bounds too:
	// no boundary is declared before AvgSize/4 bytes (minSize), and one is
	// forced at AvgSize*4 (maxSize).
	AvgSize int
}

// CheckAvgSize reports whether n is usable as Config.AvgSize: zero (the
// default) or a power of two >= 2. Callers that take the chunk size from an
// operator check it with this before building anything.
func CheckAvgSize(n int) error {
	if n != 0 && (n < 2 || n&(n-1) != 0) {
		return fmt.Errorf("chunker: chunk size %d is not a power of two >= 2", n)
	}
	return nil
}

// withDefaults validates cfg and fills in defaults. It panics on invalid
// sizes: by this point configuration is programmer input, not runtime data
// (operator-supplied sizes go through CheckAvgSize first).
func (cfg Config) withDefaults() Config {
	if err := CheckAvgSize(cfg.AvgSize); err != nil {
		panic(err)
	}
	if cfg.AvgSize == 0 {
		cfg.AvgSize = 1024
	}
	return cfg
}

// minSize is the shortest chunk a boundary may end: AvgSize/4, at least 1.
func (cfg Config) minSize() int { return max(cfg.AvgSize/4, 1) }

// maxSize is the length at which a boundary is forced: AvgSize*4.
func (cfg Config) maxSize() int { return cfg.AvgSize * 4 }

// New builds the configured chunker.
func New(cfg Config) Chunker {
	cfg = cfg.withDefaults()
	if cfg.Algorithm == Rabin {
		return newRabinChunker(cfg)
	}
	return newGearChunker(cfg)
}

// Split is a convenience wrapper allocating a fresh chunk slice.
func Split(c Chunker, data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	return c.Chunks(data, nil)
}
