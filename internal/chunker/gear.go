package chunker

// Gear-hash content-defined chunking in the FastCDC/SeqCDC style.
//
// The rolling hash is
//
//	h = (h << shift) + gearTable[b]
//
// — one shift and one byte-indexed table add per byte. The shift ages out
// old bytes implicitly (a byte's contribution leaves the register after
// 64/shift bytes), so there is no sliding-window buffer to maintain, unlike
// the circular buffer rabinHasher.roll keeps. Boundaries test the
// *high* bits of h (h & mask == 0), which accumulate contributions from the
// most recent 64/shift bytes: the decision is content-local, which is what
// makes chunking shift-resistant.
//
// Three details matter for matching rabin's dedup quality while keeping the
// speed (all three were tuned against dedup-ratio parity on the fig-series
// workloads; see DESIGN.md):
//
//   - Skip-ahead with warm-up: no boundary may fire while a chunk is
//     shorter than minSize, so the scan starts at the first eligible
//     boundary position — but the hash register is warmed up over the
//     64/shift bytes *preceding* it. Without the warm-up the register state
//     at every position depends on where the chunk started, and one edit
//     desynchronises boundaries for dozens of chunks (measured: a 6-byte
//     edit rewrote 21 downstream chunks instead of 1, costing 25-30% dedup
//     ratio at 64 B chunks). With it, every boundary decision is a function
//     of the trailing window alone, like rabin's. Bytes before the warm-up
//     window are still never hashed.
//
//   - Adaptive shift: at small chunk sizes the 64-byte forget horizon of a
//     1-bit shift exceeds minSize, so no warm-up inside the chunk could
//     make decisions start-independent. The shift widens (up to 8) until
//     the horizon fits: 64 B chunks use shift 4, a 16-byte horizon —
//     matching the window rabin itself clamps to at that size.
//
//   - Normalization strength 0: the scan keeps FastCDC's two-phase
//     normalized-mask structure (harder mask before the AvgSize point,
//     easier after), but both masks are currently log2(AvgSize) bits.
//     Nonzero strengths concentrate sizes near AvgSize at the price of a
//     start-relative mask schedule and fewer small chunks; measured at 8
//     MiB scale they cost up to 10% dedup ratio on fine-grained corpora
//     (Enron, 64 B) while equal masks hold every fig-series cell within a
//     few percent of rabin. Equal masks reproduce rabin's geometric size
//     distribution exactly: same per-byte probability, same minSize offset,
//     same maxSize truncation.
type gearChunker struct {
	min    int
	max    int
	normal int  // boundary position where maskS hands over to maskL
	shift  uint // per-byte register shift; horizon = 64/shift bytes
	warm   int  // warm-up bytes hashed before the first eligible boundary
	maskS  uint64
	maskL  uint64
}

// gearNormalization is the FastCDC normalized-chunking strength: maskS uses
// log2(AvgSize)+strength bits, maskL log2(AvgSize)-strength bits. Kept at 0
// for dedup-ratio parity with rabin (see the package comment above); the
// two-phase scan stays in place so the tradeoff can be revisited by changing
// one constant.
const gearNormalization = 0

// gearTable maps each byte value to a fixed 64-bit random constant
// (splitmix64 of the byte index). It is deterministic by construction: the
// same build always chunks the same way, which golden-vector tests pin.
var gearTable = func() (t [256]uint64) {
	var s uint64 = 0x853c49e6748fea9b
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		t[i] = z
	}
	return t
}()

// topMask returns a mask selecting the n most-significant bits, clamped to
// [1, 63].
func topMask(n int) uint64 {
	if n < 1 {
		n = 1
	}
	if n > 63 {
		n = 63
	}
	return ^uint64(0) << (64 - n)
}

func newGearChunker(cfg Config) *gearChunker {
	bits := 0
	for 1<<(bits+1) <= cfg.AvgSize {
		bits++
	}
	minSize := cfg.minSize()
	// Widen the shift until the forget horizon fits inside the minimum
	// chunk size, so the warm-up below can fully determine the register
	// state at the first eligible boundary.
	shift := uint(1)
	for 64/int(shift) > minSize && shift < 8 {
		shift++
	}
	return &gearChunker{
		min:    minSize,
		max:    cfg.maxSize(),
		normal: cfg.AvgSize,
		shift:  shift,
		warm:   min(64/int(shift), minSize),
		maskS:  topMask(bits + gearNormalization),
		maskL:  topMask(bits - gearNormalization),
	}
}

func (c *gearChunker) Algorithm() Algorithm { return Gear }

func (c *gearChunker) Chunks(data []byte, dst []Chunk) []Chunk {
	g := &gearTable
	n := len(data)
	start := 0
	k := c.shift
outer:
	for start < n {
		rem := n - start
		if rem <= c.min {
			// The tail cannot host a boundary; skip hashing it.
			dst = append(dst, Chunk{Offset: start, Length: rem})
			break
		}
		maxEnd := start + c.max
		if maxEnd > n {
			maxEnd = n
		}
		// first is the earliest position where a chunk of length >=
		// minSize ends. Warm the register up over the preceding window so
		// the state at first — and every later position — depends on
		// content alone, not on where this chunk happens to start. Bytes
		// before the warm-up window are never hashed.
		first := start + c.min - 1
		var h uint64
		for i := first - c.warm + 1; i < first; i++ {
			h = h<<k + g[data[i]]
		}
		i := first
		limit := start + c.normal
		if limit > maxEnd {
			limit = maxEnd
		}
		for ; i < limit; i++ {
			h = h<<k + g[data[i]]
			if h&c.maskS == 0 {
				dst = append(dst, Chunk{Offset: start, Length: i - start + 1})
				start = i + 1
				continue outer
			}
		}
		for ; i < maxEnd; i++ {
			h = h<<k + g[data[i]]
			if h&c.maskL == 0 {
				dst = append(dst, Chunk{Offset: start, Length: i - start + 1})
				start = i + 1
				continue outer
			}
		}
		// Either the chunk reached maxSize (forced boundary) or the input
		// ended (final chunk).
		dst = append(dst, Chunk{Offset: start, Length: maxEnd - start})
		start = maxEnd
	}
	return dst
}
