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
	"sync"
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
}

// Anchor is one sampled window of a byte string: its offset and the
// checksum key pass 1 indexes it under.
type Anchor struct {
	Key uint32
	Off int32
}

// Anchors is a byte string's anchor list: every window whose rolling state
// passes the anchor test at DefaultAnchorInterval, in offset order. Pass 1
// builds the source index from exactly this list (first offset wins, the ¾
// cap drops the rest), so an encode that is handed its source's list builds
// the same index without rolling the source. A list costs 8 B per anchor,
// about an eighth of the bytes it describes.
type Anchors []Anchor

// Compress computes the forward delta turning src into tgt using dbDedup's
// anchor-sampled variant of xDelta.
func Compress(src, tgt []byte, opts Options) Delta {
	d, _, _ := compress(src, nil, tgt, opts, false)
	return d
}

// CompressWithStats is Compress plus index-work accounting.
func CompressWithStats(src, tgt []byte, opts Options) (Delta, CompressionStats) {
	d, st, _ := compress(src, nil, tgt, opts, false)
	return d, st
}

// CompressAnchored is Compress given src's anchor list, returning tgt's. A
// non-nil srcAnchors must be src's list, as an earlier CompressAnchored
// returned it for src as its target; pass 1 then indexes the list instead of
// rolling src, and the delta is byte-identical to Compress's. The returned
// list is tgt's, derived during pass 2: from the windows pass 2 rolls, from
// the source's list over each copied range, and by rolling the few windows
// that straddle a copy's end. It is nil when the encode could not derive it:
// a non-default interval, a source too uniform for the default interval (pass
// 1 densified), or an input shorter than a window.
func CompressAnchored(src []byte, srcAnchors Anchors, tgt []byte, opts Options) (Delta, Anchors) {
	d, _, out := compress(src, srcAnchors, tgt, opts, true)
	return d, out
}

// compress is every anchor-sampled encode. srcAnchors, if non-nil, is src's
// anchor list; with emit it also returns tgt's list when it can.
func compress(src []byte, srcAnchors Anchors, tgt []byte, opts Options, emit bool) (Delta, CompressionStats, Anchors) {
	var st CompressionStats
	interval := opts.AnchorInterval
	if interval == 0 {
		interval = DefaultAnchorInterval
	}
	if interval < 1 || interval&(interval-1) != 0 {
		panic("delta: AnchorInterval must be a power of two >= 1")
	}
	if len(src) < windowSize || len(tgt) < windowSize {
		// Too small for windowed matching: emit the target verbatim.
		return verbatim(tgt), st, nil
	}
	// Anchor selection tests the *raw* rolling state — content-defined
	// and nearly free — so non-anchor positions skip both the checksum
	// mixing and every index operation. This is where the speedup over
	// xDelta's probe-every-offset scan comes from (Fig. 15).
	//
	// Pass 1: index the checksums of anchor offsets in src. Low-entropy
	// content (long repeats) can leave the anchor condition unsatisfied
	// almost everywhere — the rolling state only takes period-many
	// distinct values — so the interval is densified until the anchor
	// yield is reasonable. At the default interval a list of src's
	// anchors, handed in or rolled here because pass 2 is to list tgt's,
	// is indexed in its order, which builds the roll's index.
	idx := tablePool.Get().(*offsetTable)
	defer tablePool.Put(idx)
	list := srcAnchors
	if emit && interval == DefaultAnchorInterval && !denseEnough(len(list), len(src), interval) {
		// Pass 2 takes a copied range's anchors from the source's list, so
		// list the source's anchors before indexing them.
		scratch := listPool.Get().(*Anchors)
		defer listPool.Put(scratch)
		mask, pattern := anchorMask(interval)
		list = appendAnchors((*scratch)[:0], src, mask, pattern)
		*scratch = list // keep any grown capacity
	}
	if interval == DefaultAnchorInterval && denseEnough(len(list), len(src), interval) {
		idx.reset(len(src)/interval + 8)
		for _, a := range list {
			idx.put(a.Key, a.Off)
		}
		st.IndexPuts = len(list)
	} else {
		list = nil
		for {
			mask, pattern := anchorMask(interval)
			idx.reset(len(src)/interval + 8)
			st.IndexPuts = indexAnchors(idx, src, mask, pattern)
			if denseEnough(st.IndexPuts, len(src), interval) {
				break
			}
			interval = max(interval/4, 1)
		}
	}
	// Pass 2: scan tgt; at anchors, probe the source index and extend
	// matches byte-wise in both directions. Only an encode at the default
	// interval can list tgt's anchors: pass 2 rolls and tests the same
	// condition the list is defined by.
	var srcList Anchors
	if emit && interval == DefaultAnchorInterval {
		srcList = list
	}
	mask, pattern := anchorMask(interval)
	d, gets, out := scanTarget(src, tgt, idx, mask, pattern, srcList)
	st.IndexGets = gets
	return d, st, out
}

// anchorMask returns the anchor test of an interval: a window is an anchor
// when its raw s2 under mask equals pattern.
func anchorMask(interval int) (mask, pattern uint32) {
	mask = uint32(interval - 1)
	return mask, 0x2a & mask
}

// denseEnough reports whether n anchors over a source of srcLen bytes are
// enough at interval: about srcLen/interval are expected, and pass 1 densifies
// when it finds fewer than an eighth of that.
func denseEnough(n, srcLen, interval int) bool {
	return interval == 1 || n >= (srcLen-windowSize)/(interval*8)+1
}

// listPool recycles pass 1's anchor lists between encodes.
var listPool = sync.Pool{New: func() any { return new(Anchors) }}

// indexAnchors is pass 1: it rolls the checksum over every window of src and
// puts each offset whose raw state matches pattern under mask into idx,
// returning how many it put. The sums live in locals and the window's
// leaving and entering bytes come from two equal-length views of src, so the
// per-byte step is three additions, a test and no bounds check.
func indexAnchors(idx *offsetTable, src []byte, mask, pattern uint32) int {
	puts := 0
	s1, s2 := windowSums(src[:windowSize])
	if s2&mask == pattern {
		idx.put(mixSums(s1, s2), 0)
		puts++
	}
	in := src[windowSize:]
	out := src[:len(in)]
	for i := range in {
		o := uint32(out[i])
		s1 += uint32(in[i]) - o
		s2 += s1 - windowSize*o
		if s2&mask == pattern {
			idx.put(mixSums(s1, s2), int32(i+1))
			puts++
		}
	}
	return puts
}

// appendAnchors is indexAnchors's roll appending to a list instead of
// putting into an index: it appends every window of b whose raw state matches
// pattern under mask, in offset order. The two loops stay apart because one
// loop doing both, a list or not, made Compress measurably slower.
func appendAnchors(dst Anchors, b []byte, mask, pattern uint32) Anchors {
	s1, s2 := windowSums(b[:windowSize])
	if s2&mask == pattern {
		dst = append(dst, Anchor{mixSums(s1, s2), 0})
	}
	in := b[windowSize:]
	out := b[:len(in)]
	for i := range in {
		o := uint32(out[i])
		s1 += uint32(in[i]) - o
		s2 += s1 - windowSize*o
		if s2&mask == pattern {
			dst = append(dst, Anchor{mixSums(s1, s2), int32(i + 1)})
		}
	}
	return dst
}

// scanTarget is pass 2 of both encoders: it rolls the checksum over tgt,
// probes idx at every window whose raw state matches pattern under mask (every
// window when mask is 0), extends each verified hit byte-wise in both
// directions and returns the delta and the number of probes. Between anchors
// the roll runs in a tight loop over two equal-length views of tgt, as in
// indexAnchors. Given srcList, src's anchor list under the same test, it also
// returns tgt's.
func scanTarget(src, tgt []byte, idx *offsetTable, mask, pattern uint32, srcList Anchors) (Delta, int, Anchors) {
	// Eight instructions cover three deltas in four between revisions.
	e := encoder{tgt: tgt, insts: make([]Instruction, 0, 8)}
	var anchors Anchors
	if srcList != nil {
		anchors = make(Anchors, 0, len(tgt)/DefaultAnchorInterval+8)
	}
	gets := 0
	pos := 0 // first unencoded target offset
	j := 0   // scan position (window start)
	s1, s2 := windowSums(tgt[:windowSize])
	for {
		if s2&mask == pattern {
			gets++
			key := mixSums(s1, s2)
			if srcList != nil {
				anchors = append(anchors, Anchor{key, int32(j)})
			}
			if soff, ok := idx.get(key); ok {
				s, t, l := extendMatch(src, tgt, int(soff), j, pos)
				if l >= minCopyLen {
					if pos < t {
						e.insert(pos, t-pos)
					}
					e.copy(s, l)
					if srcList != nil {
						anchors = appendCopied(anchors, srcList, tgt, s, t, l, j, mask, pattern)
					}
					pos = t + l
					j = t + l
					if j+windowSize > len(tgt) {
						break
					}
					s1, s2 = windowSums(tgt[j : j+windowSize])
					continue
				}
			}
		}
		// Roll to the next anchor, or to the last window.
		in := tgt[j+windowSize:]
		out := tgt[j : j+len(in)]
		k := 0
		for k < len(in) {
			o := uint32(out[k])
			s1 += uint32(in[k]) - o
			s2 += s1 - windowSize*o
			k++
			if s2&mask == pattern {
				break
			}
		}
		j += k
		if s2&mask != pattern || k == 0 {
			break
		}
	}
	if pos < len(tgt) {
		e.insert(pos, len(tgt)-pos)
	}
	return e.finish(), gets, anchors
}

// appendCopied appends the anchors of tgt that pass 2 skips by copying
// tgt[t:t+l] from src[s:s+l] after its hit at window j: pass 2 rolled every
// window up to j and resumes at t+l. A window inside the copy is the source's
// window shifted by t-s, so it is an anchor exactly when srcList lists that
// one; the windows that straddle the copy's end are rolled here.
func appendCopied(out, srcList Anchors, tgt []byte, s, t, l, j int, mask, pattern uint32) Anchors {
	from, to, shift := int32(j+1-t+s), int32(s+l-windowSize), int32(t-s)
	lo, hi := 0, len(srcList)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if srcList[m].Off < from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for _, a := range srcList[lo:] {
		if a.Off > to {
			break
		}
		out = append(out, Anchor{a.Key, a.Off + shift})
	}
	// The window at t+l-windowSize lies inside the copy; roll from it
	// through the windows that end past the copy, as far as tgt has windows.
	w := t + l - windowSize
	last := min(t+l-1, len(tgt)-windowSize)
	s1, s2 := windowSums(tgt[w : w+windowSize])
	for w < last {
		o := uint32(tgt[w])
		s1 += uint32(tgt[w+windowSize]) - o
		s2 += s1 - windowSize*o
		w++
		if s2&mask == pattern {
			out = append(out, Anchor{mixSums(s1, s2), int32(w)})
		}
	}
	return out
}

// verbatim is the delta of a target too small for windowed matching: one
// INSERT of all of it.
func verbatim(tgt []byte) Delta {
	e := encoder{tgt: tgt}
	e.insert(0, len(tgt))
	return e.finish()
}

// CompressXDelta is the faithful xDelta baseline: it indexes the checksum of
// every non-overlapping 16-byte block of src and probes the index at every
// target offset. It exists as the comparison point for Fig. 15.
func CompressXDelta(src, tgt []byte) Delta {
	d, _ := CompressXDeltaWithStats(src, tgt)
	return d
}

// CompressXDeltaWithStats is CompressXDelta plus index-work accounting. It
// shares pass 2 and the index with CompressWithStats, so Fig. 15 compares the
// sampling and nothing else.
func CompressXDeltaWithStats(src, tgt []byte) (Delta, CompressionStats) {
	var st CompressionStats
	if len(src) < windowSize || len(tgt) < windowSize {
		return verbatim(tgt), st
	}
	idx := tablePool.Get().(*offsetTable)
	defer tablePool.Put(idx)
	idx.reset(len(src)/windowSize + 8)
	for i := 0; i+windowSize <= len(src); i += windowSize {
		idx.put(mixSums(windowSums(src[i:i+windowSize])), int32(i))
		st.IndexPuts++
	}
	var d Delta
	d, st.IndexGets, _ = scanTarget(src, tgt, idx, 0, 0, nil)
	return d, st
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

// encoder accumulates instructions with coalescing. Its INSERTs take their
// literals from tgt.
type encoder struct {
	tgt   []byte
	insts []Instruction
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
	sp := segPool.Get().(*[]seg)
	defer segPool.Put(sp)
	segs := (*sp)[:0]
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

	*sp = segs // keep any grown capacity

	// Roles swap: the output reconstructs src. Each segment adds at most a
	// gap and a copy, and one literal may close the delta.
	e := encoder{tgt: src, insts: make([]Instruction, 0, 2*len(segs)+1)}
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

// seg is one COPY of a forward delta as Reencode sees it: length bytes at
// sOff in the source, landing at tOff in the target.
type seg struct{ sOff, tOff, length int }

// segPool recycles Reencode's segment lists between calls.
var segPool = sync.Pool{New: func() any { return new([]seg) }}

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
// data, and first-wins is what xDelta does). Its slots are one array of
// {key, offset+1} pairs, so a probe touches one cache line and a zero slot is
// empty; encodes take tables from tablePool.
type offsetTable struct {
	slots []slot
	mask  uint32
	n     int // occupied slots
	max   int // occupancy cap; inserts beyond it are dropped
}

type slot struct {
	key uint32
	off int32 // source offset + 1; 0 marks an empty slot
}

// tablePool recycles source indexes between encodes.
var tablePool = sync.Pool{New: func() any { return new(offsetTable) }}

// reset empties t and sizes it for capacity entries.
func (t *offsetTable) reset(capacity int) {
	n := 8
	for n < capacity*2 {
		n <<= 1
	}
	if cap(t.slots) < n {
		t.slots = make([]slot, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	t.mask = uint32(n - 1)
	t.n = 0
	t.max = n * 3 / 4
}

func (t *offsetTable) put(key uint32, off int32) {
	if t.n >= t.max {
		// Anchor density exceeded the sizing estimate (adversarial
		// data); dropping extra anchors only costs compression, never
		// correctness.
		return
	}
	i := key & t.mask
	for t.slots[i].off != 0 {
		if t.slots[i].key == key {
			return // first-wins
		}
		i = (i + 1) & t.mask
	}
	t.slots[i] = slot{key: key, off: off + 1}
	t.n++
}

func (t *offsetTable) get(key uint32) (int32, bool) {
	i := key & t.mask
	for t.slots[i].off != 0 {
		if t.slots[i].key == key {
			return t.slots[i].off - 1, true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}
