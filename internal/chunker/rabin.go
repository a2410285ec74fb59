package chunker

import "sync"

// Rabin-fingerprint content-defined chunking, the paper's algorithm and this
// package's reference implementation.
//
// A Rabin fingerprint treats a byte string as a polynomial over GF(2) and
// reduces it modulo a fixed irreducible polynomial P of degree 64. Because
// the fingerprint of a sliding window can be updated in O(1) as the window
// advances one byte (add the incoming byte, subtract the outgoing byte's
// precomputed contribution), it is the standard tool for content-defined
// chunking: a chunk boundary is declared wherever the low n bits of the
// window fingerprint match a fixed pattern, which yields an expected chunk
// size of 2^n bytes regardless of insertions or deletions elsewhere in the
// stream (paper §2.2, §3.1.1).

const (
	// rabinPoly is the irreducible polynomial popularised by LBFS, with
	// the degree-64 coefficient implicit.
	rabinPoly uint64 = 0xbfe6b8a5bf378d83
	// rabinWindow is the sliding-window size in bytes. 48 is the
	// conventional choice (LBFS, and typical dedup systems): large enough
	// to make boundary decisions content-stable and small enough to keep
	// per-byte cost low.
	rabinWindow = 48
	// rabinPattern is the value the masked fingerprint bits are compared
	// with. Any fixed value works; a non-zero pattern avoids degenerate
	// behaviour on runs of zero bytes.
	rabinPattern = 0x78
)

// rabinTable holds the precomputed lookup tables for one window size. It is
// immutable after construction and safe for concurrent use.
type rabinTable struct {
	win int
	// mod[b] is the reduction of b<<64 mod P: appending a byte is
	//   fp = ((fp << 8) | b) mod P
	// computed as table lookup on the byte shifted out of the top.
	mod [256]uint64
	// undo[b] is the contribution of byte b at the leading (oldest)
	// position of the window, i.e. b * x^(8*(win-1)) mod P, so the oldest
	// byte can be cancelled in O(1) when the window slides.
	undo [256]uint64
}

func newRabinTable(window int) *rabinTable {
	t := &rabinTable{win: window}
	for b := 0; b < 256; b++ {
		t.mod[b] = shiftLeftMod(uint64(b), 64)
		t.undo[b] = shiftLeftMod(uint64(b), 8*(window-1))
	}
	return t
}

// shiftLeftMod returns (v * x^shift) mod P.
func shiftLeftMod(v uint64, shift int) uint64 {
	for i := 0; i < shift; i++ {
		if v&(1<<63) != 0 {
			v = v<<1 ^ rabinPoly
		} else {
			v <<= 1
		}
	}
	return v
}

// rabinHasher maintains the rolling fingerprint of the last win bytes
// written.
type rabinHasher struct {
	t   *rabinTable
	fp  uint64
	buf []byte // circular window contents
	pos int    // next write position in buf
	n   int    // bytes written so far, capped at window size
}

func (t *rabinTable) newHasher() *rabinHasher {
	return &rabinHasher{t: t, buf: make([]byte, t.win)}
}

// reset clears the window.
func (h *rabinHasher) reset() {
	h.fp = 0
	h.pos = 0
	h.n = 0
	for i := range h.buf {
		h.buf[i] = 0
	}
}

// roll appends one byte to the window, evicting the oldest byte once the
// window is full, and returns the updated fingerprint.
func (h *rabinHasher) roll(b byte) uint64 {
	if h.n == h.t.win {
		old := h.buf[h.pos]
		h.fp ^= h.t.undo[old]
	} else {
		h.n++
	}
	h.buf[h.pos] = b
	h.pos++
	if h.pos == h.t.win {
		h.pos = 0
	}
	top := byte(h.fp >> 56)
	h.fp = (h.fp<<8 | uint64(b)) ^ h.t.mod[top]
	return h.fp
}

type rabinChunker struct {
	table   *rabinTable
	mask    uint64
	pattern uint64
	min     int
	max     int
	// hashers recycles rolling-hash state across Chunks calls: the hasher
	// and its window buffer are the only per-call heap state.
	hashers sync.Pool
}

func newRabinChunker(cfg Config) *rabinChunker {
	// The window is clamped to the minimum chunk size so tiny-chunk
	// configurations (the 64 B chunks in the paper's experiments) still
	// make content-local boundary decisions.
	window := min(rabinWindow, cfg.minSize())
	mask := uint64(cfg.AvgSize - 1)
	c := &rabinChunker{
		table:   newRabinTable(window),
		mask:    mask,
		pattern: rabinPattern & mask,
		min:     cfg.minSize(),
		max:     cfg.maxSize(),
	}
	c.hashers.New = func() interface{} { return c.table.newHasher() }
	return c
}

func (c *rabinChunker) Algorithm() Algorithm { return Rabin }

func (c *rabinChunker) Chunks(data []byte, dst []Chunk) []Chunk {
	h := c.hashers.Get().(*rabinHasher)
	defer c.hashers.Put(h)
	h.reset()
	start := 0
	for i := 0; i < len(data); i++ {
		fp := h.roll(data[i])
		n := i - start + 1
		if n >= c.max || (n >= c.min && fp&c.mask == c.pattern) {
			dst = append(dst, Chunk{Offset: start, Length: n})
			start = i + 1
			h.reset()
		}
	}
	if start < len(data) {
		dst = append(dst, Chunk{Offset: start, Length: len(data) - start})
	}
	return dst
}
