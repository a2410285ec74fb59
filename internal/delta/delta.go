// Package delta implements dbDedup's byte-level delta compression
// (paper §4.2), an adaptation of the classic xDelta copy/insert algorithm.
//
// Forward encoding expresses a target byte stream as a sequence of COPY
// instructions (ranges of the source) and INSERT instructions (literal
// bytes). dbDedup's variant samples the offsets it indexes and probes —
// "anchors", positions whose rolling checksum matches a pattern — which
// trades a small compression loss for a large speedup over xDelta's
// every-offset probing (Fig. 15). Because matches are extended byte-wise in
// both directions from each anchor hit, the loss stays small.
//
// The package also implements re-encoding (paper Algorithm 2): converting a
// forward delta into the backward delta (source expressed in terms of the
// target) at memory speed by reusing the already-discovered COPY segments,
// with no checksum or index work. dbDedup uses the forward delta for
// replication and the backward delta for storage (two-way encoding, §3.2.1).
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// windowSize is the match-detection window, the same 16-byte default xDelta
// uses for its source blocks.
const windowSize = 16

// minCopyLen is the shortest COPY worth emitting; shorter matches cost more
// to encode than the literal bytes they save, so they are folded into the
// surrounding INSERTs.
const minCopyLen = 8

// DefaultAnchorInterval is the default sampling interval for anchor
// selection. The paper finds 64 gives ~80% higher throughput than xDelta at
// ~7% compression-ratio loss and uses it as the default (§5.6).
const DefaultAnchorInterval = 64

// Op identifies an instruction type.
type Op byte

const (
	// OpInsert writes literal bytes into the output.
	OpInsert Op = 0
	// OpCopy copies a byte range from the base (source) object.
	OpCopy Op = 1
)

// Instruction is one step of a delta program.
type Instruction struct {
	Op Op
	// Off is the source offset for OpCopy; unused for OpInsert.
	Off int
	// Len is the number of bytes copied or inserted.
	Len int
	// Data holds the literal bytes for OpInsert; nil for OpCopy.
	Data []byte
}

// Delta is a complete delta program: applying it to the base object yields
// the target object.
type Delta struct {
	Insts []Instruction
	// TargetLen is the length of the object the delta reconstructs.
	TargetLen int
}

// Options tunes Compress.
type Options struct {
	// AnchorInterval is the expected gap in bytes between sampled
	// offsets; must be a power of two >= 1. 1 probes every offset
	// (maximum ratio, slowest). Zero means DefaultAnchorInterval.
	AnchorInterval int
}

// CompressionStats counts the index work one encode performed — the cost
// the anchor interval is designed to reduce (Fig. 15's mechanism).
type CompressionStats struct {
	// IndexPuts is the number of source-index insertions (pass 1).
	IndexPuts int
	// IndexGets is the number of source-index probes (pass 2).
	IndexGets int
	// PositionsScanned counts rolling-hash steps across both passes.
	PositionsScanned int
}

// Compress computes the forward delta turning src into tgt using dbDedup's
// anchor-sampled variant of xDelta.
func Compress(src, tgt []byte, opts Options) Delta {
	d, _ := CompressWithStats(src, tgt, opts)
	return d
}

// CompressWithStats is Compress plus index-work accounting.
func CompressWithStats(src, tgt []byte, opts Options) (Delta, CompressionStats) {
	var st CompressionStats
	interval := opts.AnchorInterval
	if interval == 0 {
		interval = DefaultAnchorInterval
	}
	if interval < 1 || interval&(interval-1) != 0 {
		panic("delta: AnchorInterval must be a power of two >= 1")
	}
	mask := uint32(interval - 1)
	pattern := uint32(0x2a) & mask
	// Anchor selection tests the *raw* rolling state — content-defined
	// and nearly free — so non-anchor positions skip both the checksum
	// mixing and every index operation. This is where the speedup over
	// xDelta's probe-every-offset scan comes from (Fig. 15).

	e := encoder{src: src, tgt: tgt}

	if len(src) < windowSize || len(tgt) < windowSize {
		// Too small for windowed matching: emit the target verbatim.
		e.insert(0, len(tgt))
		return e.finish(), st
	}

	// Pass 1: index the checksums of anchor offsets in src. Low-entropy
	// content (long repeats) can leave the anchor condition unsatisfied
	// almost everywhere — the rolling state only takes period-many
	// distinct values — so the interval is densified until the anchor
	// yield is reasonable.
	var idx *offsetTable
	var rs rollsum
	for {
		idx = newOffsetTable(len(src)/interval + 8)
		rs = newRollsum(windowSize)
		rs.init(src[:windowSize])
		for i := 0; ; i++ {
			st.PositionsScanned++
			if rs.raw()&mask == pattern {
				idx.put(rs.sum(), int32(i))
				st.IndexPuts++
			}
			if i+windowSize >= len(src) {
				break
			}
			rs.roll(src[i], src[i+windowSize])
		}
		// Expect ~len/interval anchor hits; retry denser when the
		// yield falls below an eighth of that.
		if interval == 1 || st.IndexPuts >= (len(src)-windowSize)/(interval*8)+1 {
			break
		}
		interval /= 4
		if interval < 1 {
			interval = 1
		}
		mask = uint32(interval - 1)
		pattern = uint32(0x2a) & mask
		st.IndexPuts = 0
	}

	// Pass 2: scan tgt; at anchors, probe the source index and extend
	// matches byte-wise in both directions.
	pos := 0 // first unencoded target offset
	j := 0   // scan position (window start)
	rs.init(tgt[:windowSize])
	for {
		st.PositionsScanned++
		if rs.raw()&mask == pattern {
			st.IndexGets++
			if soff, ok := idx.get(rs.sum()); ok {
				s, t, l := extendMatch(src, tgt, int(soff), j, pos)
				if l >= minCopyLen {
					if pos < t {
						e.insert(pos, t-pos)
					}
					e.copy(s, l)
					pos = t + l
					j = t + l
					if j+windowSize > len(tgt) {
						break
					}
					rs.init(tgt[j : j+windowSize])
					continue
				}
			}
		}
		if j+windowSize >= len(tgt) {
			break
		}
		rs.roll(tgt[j], tgt[j+windowSize])
		j++
	}
	if pos < len(tgt) {
		e.insert(pos, len(tgt)-pos)
	}
	return e.finish(), st
}

// CompressXDelta is the faithful xDelta baseline: it indexes the checksum of
// every non-overlapping 16-byte block of src and probes the index at every
// target offset. It exists as the comparison point for Fig. 15.
func CompressXDelta(src, tgt []byte) Delta {
	d, _ := CompressXDeltaWithStats(src, tgt)
	return d
}

// CompressXDeltaWithStats is CompressXDelta plus index-work accounting.
func CompressXDeltaWithStats(src, tgt []byte) (Delta, CompressionStats) {
	var st CompressionStats
	e := encoder{src: src, tgt: tgt}
	if len(src) < windowSize || len(tgt) < windowSize {
		e.insert(0, len(tgt))
		return e.finish(), st
	}

	idx := newOffsetTable(len(src)/windowSize + 8)
	for i := 0; i+windowSize <= len(src); i += windowSize {
		idx.put(sumOf(src[i:i+windowSize]), int32(i))
		st.IndexPuts++
		st.PositionsScanned++
	}

	pos := 0
	j := 0
	rs := newRollsum(windowSize)
	rs.init(tgt[:windowSize])
	for {
		st.PositionsScanned++
		st.IndexGets++
		if soff, ok := idx.get(rs.sum()); ok {
			s, t, l := extendMatch(src, tgt, int(soff), j, pos)
			if l >= minCopyLen {
				if pos < t {
					e.insert(pos, t-pos)
				}
				e.copy(s, l)
				pos = t + l
				j = t + l
				if j+windowSize > len(tgt) {
					break
				}
				rs.init(tgt[j : j+windowSize])
				continue
			}
		}
		if j+windowSize >= len(tgt) {
			break
		}
		rs.roll(tgt[j], tgt[j+windowSize])
		j++
	}
	if pos < len(tgt) {
		e.insert(pos, len(tgt)-pos)
	}
	return e.finish(), st
}

// extendMatch verifies a candidate match at src[soff:]/tgt[toff:] and widens
// it byte-wise in both directions. The backward extension stops at floor in
// the target (the first not-yet-encoded offset). It returns the widened
// (soff, toff, length); length 0 means the candidate was a checksum false
// positive.
func extendMatch(src, tgt []byte, soff, toff, floor int) (int, int, int) {
	// Verify the window actually matches (the rolling checksum is weak).
	if soff+windowSize > len(src) || toff+windowSize > len(tgt) {
		return 0, 0, 0
	}
	for k := 0; k < windowSize; k++ {
		if src[soff+k] != tgt[toff+k] {
			return 0, 0, 0
		}
	}
	// Backward.
	for soff > 0 && toff > floor && src[soff-1] == tgt[toff-1] {
		soff--
		toff--
	}
	// Forward, 8 bytes at a time while both sides allow it.
	l := windowSize
	for soff+l+8 <= len(src) && toff+l+8 <= len(tgt) &&
		binary.LittleEndian.Uint64(src[soff+l:]) == binary.LittleEndian.Uint64(tgt[toff+l:]) {
		l += 8
	}
	for soff+l < len(src) && toff+l < len(tgt) && src[soff+l] == tgt[toff+l] {
		l++
	}
	return soff, toff, l
}

// encoder accumulates instructions with coalescing.
type encoder struct {
	src, tgt []byte
	insts    []Instruction
}

func (e *encoder) insert(tgtOff, n int) {
	if n <= 0 {
		return
	}
	data := e.tgt[tgtOff : tgtOff+n]
	if k := len(e.insts); k > 0 && e.insts[k-1].Op == OpInsert {
		last := &e.insts[k-1]
		// Extend in place when the literals are contiguous in tgt
		// (the common case); otherwise concatenate.
		last.Data = append(last.Data[:len(last.Data):len(last.Data)], data...)
		last.Len += n
		return
	}
	e.insts = append(e.insts, Instruction{Op: OpInsert, Len: n, Data: data})
}

func (e *encoder) copy(srcOff, n int) {
	if n <= 0 {
		return
	}
	if k := len(e.insts); k > 0 {
		last := &e.insts[k-1]
		if last.Op == OpCopy && last.Off+last.Len == srcOff {
			last.Len += n
			return
		}
	}
	e.insts = append(e.insts, Instruction{Op: OpCopy, Off: srcOff, Len: n})
}

func (e *encoder) finish() Delta {
	n := 0
	for _, in := range e.insts {
		n += in.Len
	}
	return Delta{Insts: e.insts, TargetLen: n}
}

// Reencode transforms the forward delta fwd (which produces tgt from src)
// into the backward delta that produces src from tgt, without any checksum
// computation or index lookups (paper Algorithm 2). It reuses fwd's COPY
// segments: a region copied src→tgt is equally present in tgt, so the
// backward delta copies it tgt→src and fills the gaps with literals from
// src. Overlapping segments are trimmed, which can cost a few bytes versus
// a from-scratch encoding but runs at memory speed.
func Reencode(src, tgt []byte, fwd Delta) Delta {
	type seg struct{ sOff, tOff, length int }
	segs := make([]seg, 0, len(fwd.Insts))
	tPos := 0
	for _, inst := range fwd.Insts {
		if inst.Op == OpCopy {
			segs = append(segs, seg{sOff: inst.Off, tOff: tPos, length: inst.Len})
		}
		tPos += inst.Len
	}
	// Sort by source offset (insertion sort: segment lists are short and
	// usually already nearly sorted, since edits rarely reorder content).
	for i := 1; i < len(segs); i++ {
		for k := i; k > 0 && segs[k].sOff < segs[k-1].sOff; k-- {
			segs[k], segs[k-1] = segs[k-1], segs[k]
		}
	}

	e := encoder{src: tgt, tgt: src} // roles swap: output reconstructs src
	sPos := 0
	for _, g := range segs {
		if g.sOff < sPos {
			// Overlap with the previous segment in src: trim the head.
			d := sPos - g.sOff
			if d >= g.length {
				continue
			}
			g.sOff += d
			g.tOff += d
			g.length -= d
		}
		if sPos < g.sOff {
			e.insert(sPos, g.sOff-sPos)
		}
		if g.length >= minCopyLen {
			e.copy(g.tOff, g.length)
		} else {
			e.insert(g.sOff, g.length)
		}
		sPos = g.sOff + g.length
	}
	if sPos < len(src) {
		e.insert(sPos, len(src)-sPos)
	}
	return e.finish()
}

// Apply reconstructs the target object from the base object and a delta.
// Every instruction is checked, and their lengths summed against TargetLen,
// before the output is sized: what a corrupt delta claims is never allocated.
func Apply(base []byte, d Delta) ([]byte, error) {
	total := 0
	for i, inst := range d.Insts {
		if err := checkInst(i, inst, len(base)); err != nil {
			return nil, err
		}
		total += inst.Len
	}
	if total != d.TargetLen {
		return nil, errors.New("delta: reconstructed length mismatch")
	}
	out := make([]byte, 0, total)
	for _, inst := range d.Insts {
		out = appendInst(out, base, inst)
	}
	return out, nil
}

// checkInst reports whether instruction i can be applied to a base of baseLen
// bytes and would produce exactly inst.Len bytes.
func checkInst(i int, inst Instruction, baseLen int) error {
	switch inst.Op {
	case OpInsert:
		if inst.Len != len(inst.Data) {
			return fmt.Errorf("delta: instruction %d: INSERT len %d != data %d", i, inst.Len, len(inst.Data))
		}
	case OpCopy:
		if inst.Off < 0 || inst.Len < 0 || inst.Off > baseLen || inst.Len > baseLen-inst.Off {
			return fmt.Errorf("delta: instruction %d: COPY of %d bytes at %d outside base of %d bytes",
				i, inst.Len, inst.Off, baseLen)
		}
	default:
		return fmt.Errorf("delta: instruction %d: unknown op %d", i, inst.Op)
	}
	return nil
}

// appendInst appends the output of one checked instruction.
func appendInst(out, base []byte, inst Instruction) []byte {
	if inst.Op == OpInsert {
		return append(out, inst.Data...)
	}
	return append(out, base[inst.Off:inst.Off+inst.Len]...)
}

// CopiedBytes returns how many target bytes the delta sources from the
// base — a direct measure of detected redundancy.
func (d Delta) CopiedBytes() int {
	n := 0
	for _, inst := range d.Insts {
		if inst.Op == OpCopy {
			n += inst.Len
		}
	}
	return n
}

// offsetTable is a small open-addressed hash table mapping checksum -> first
// source offset, used during encoding. It keeps the first offset seen for a
// checksum (earlier offsets give slightly more stable matches for versioned
// data, and first-wins is what xDelta does).
type offsetTable struct {
	keys []uint32
	vals []int32
	used []bool
	mask uint32
	n    int // occupied slots
	max  int // occupancy cap; inserts beyond it are dropped
}

func newOffsetTable(capacity int) *offsetTable {
	n := 8
	for n < capacity*2 {
		n <<= 1
	}
	return &offsetTable{
		keys: make([]uint32, n),
		vals: make([]int32, n),
		used: make([]bool, n),
		mask: uint32(n - 1),
		max:  n * 3 / 4,
	}
}

func (t *offsetTable) put(key uint32, val int32) {
	if t.n >= t.max {
		// Anchor density exceeded the sizing estimate (adversarial
		// data); dropping extra anchors only costs compression, never
		// correctness.
		return
	}
	i := key & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			return // first-wins
		}
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.keys[i] = key
	t.vals[i] = val
	t.n++
}

func (t *offsetTable) get(key uint32) (int32, bool) {
	i := key & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}
