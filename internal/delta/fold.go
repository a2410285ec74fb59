package delta

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Fold composes a chain of marshalled deltas into one: the deltas are added
// innermost first, each against what the ones before it produce, and the
// result is a list of fragments of the first delta's base and of a literal
// arena that the fold keeps. Only AppendTo needs the base, and it writes each
// byte of the target once. Sequential application (Apply per delta)
// rebuilds the whole intermediate target at every delta; a fold's work per
// delta is its instructions and the fragments they select, which on a
// revision chain is a small fraction of the document. Mercurial's mpatch
// folds a revlog's patches the same way before it touches the text.
//
// A Fold is reusable: Reset empties it and keeps its memory. Each delta is
// read during Add alone (its literals are copied into the arena), so the
// caller may lend wire bytes for exactly that long. What Unmarshal and
// Apply check is checked too, with one difference in timing: the first
// delta's copies are checked against the base's length only in AppendTo. So a chain folds and
// builds without error exactly when applying it delta by delta does. A fold
// holds at most one fragment per byte of the longest target a delta
// declares, as sequential application holds that target.
type Fold struct {
	frags, next []frag
	arena       []byte
	// length is the folded target's length, and baseEnd the furthest byte
	// of the base any copy of the first delta reads.
	length, baseEnd int
	started         bool
	// hint is the fragment the last copy ended in: copies mostly come in
	// target order, so the next one usually starts there.
	hint int
}

// frag is a run of the folded target: from offset at up to the next
// fragment's at (the last one, to the target's end), taken from offset src of
// the base or, when src is negative, from offset ^src of the arena. No
// fragment is empty, and none continues the one before it in the same source.
type frag struct{ at, src int }

// continues reports whether a fragment at at taking from src continues fr.
func (fr frag) continues(at, src int) bool {
	n := at - fr.at
	if fr.src < 0 {
		return src < 0 && ^fr.src+n == ^src
	}
	return src >= 0 && fr.src+n == src
}

// Reset empties f for a new chain.
func (f *Fold) Reset() {
	f.frags, f.next, f.arena = f.frags[:0], f.next[:0], f.arena[:0]
	f.length, f.baseEnd, f.started, f.hint = 0, 0, false, 0
}

// CopyFrom makes f a copy of g that shares no memory with it.
func (f *Fold) CopyFrom(g *Fold) {
	f.frags = append(f.frags[:0], g.frags...)
	f.arena = append(f.arena[:0], g.arena...)
	f.next = f.next[:0]
	f.length, f.baseEnd, f.started, f.hint = g.length, g.baseEnd, g.started, 0
}

// Add folds in the next delta outward, whose base is the target of the
// deltas added so far (the base itself, before the first). On an error f is
// spoilt until the next Reset.
func (f *Fold) Add(wire []byte) error {
	tl, count, p, err := header(wire)
	if err != nil {
		return err
	}
	if tl > math.MaxInt { // no instructions add up to it: Unmarshal fails too
		return errCorrupt
	}
	baseLen := f.length
	if !f.started {
		baseLen = math.MaxInt // checked in AppendTo
	}
	out := f.next[:0]
	total := 0
	for i := uint64(0); i < count; i++ {
		// readInst and checkInst, inline: this loop is most of a fold.
		if len(p) == 0 {
			return errCorrupt
		}
		op := Op(p[0])
		p = p[1:]
		var off, n uint64
		var k int
		switch op {
		case OpCopy:
			if off, k = binary.Uvarint(p); k <= 0 {
				return errCorrupt
			}
			p = p[k:]
			if n, k = binary.Uvarint(p); k <= 0 {
				return errCorrupt
			}
			p = p[k:]
			if off > uint64(baseLen) || n > uint64(baseLen)-off {
				return fmt.Errorf("delta: instruction %d: COPY of %d bytes at %d outside base of %d bytes", i, n, off, baseLen)
			}
			if !f.started {
				f.baseEnd = max(f.baseEnd, int(off+n)) // an empty copy's offset too
			}
		case OpInsert:
			if n, k = binary.Uvarint(p); k <= 0 || n > uint64(len(p)-k) {
				return errCorrupt
			}
			p = p[k:]
		default:
			return fmt.Errorf("delta: unknown op %d", op)
		}
		if n > tl-uint64(total) {
			return errCorrupt
		}
		at := total
		total += int(n)
		switch {
		case n == 0:
		case op == OpInsert:
			out = appendFrag(out, frag{at, ^len(f.arena)})
			f.arena = append(f.arena, p[:n]...)
			p = p[n:]
		case !f.started:
			out = appendFrag(out, frag{at, int(off)})
		default:
			out = f.appendRange(out, at, int(off), int(n))
		}
	}
	if len(p) != 0 || uint64(total) != tl {
		return errCorrupt
	}
	f.frags, f.next = out, f.frags
	f.length, f.started, f.hint = total, true, 0
	return nil
}

// appendRange appends to out the fragments that make up bytes [off, off+n)
// of the current target, placed at offset at of the next one. The fragments
// wholly inside the range are moved in one copy and shifted.
func (f *Fold) appendRange(out []frag, at, off, n int) []frag {
	i := f.hint
	if i >= len(f.frags) || f.frags[i].at > off || i+1 < len(f.frags) && f.frags[i+1].at <= off {
		i = f.find(0, off)
	}
	first := f.frags[i]
	src := first.src + (off - first.at)
	if first.src < 0 {
		src = first.src - (off - first.at)
	}
	out = appendFrag(out, frag{at, src})
	j := i
	if last := off + n - 1; i+1 < len(f.frags) && f.frags[i+1].at <= last {
		j = f.find(i+1, last)
		k, shift := len(out), at-off
		out = append(out, f.frags[i+1:j+1]...)
		for x := k; x < len(out); x++ {
			out[x].at += shift
		}
	}
	f.hint = j
	return out
}

// find returns the fragment of f.frags, from, that holds byte off of the
// current target.
func (f *Fold) find(from, off int) int {
	lo, hi := from, len(f.frags)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.frags[m].at <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// appendFrag appends fr to out unless it continues out's last fragment.
func appendFrag(out []frag, fr frag) []frag {
	if k := len(out) - 1; k >= 0 && out[k].continues(fr.at, fr.src) {
		return out
	}
	return append(out, fr)
}

// AppendTo appends the folded target to dst, reading base, the base of the
// first delta added, and returns the extended slice; with no delta added the
// target is base. On an error dst comes back unextended.
func (f *Fold) AppendTo(dst, base []byte) ([]byte, error) {
	if !f.started {
		return append(dst, base...), nil
	}
	if f.baseEnd > len(base) {
		return dst, fmt.Errorf("delta: COPY up to byte %d of a base of %d bytes", f.baseEnd, len(base))
	}
	out := slices.Grow(dst, f.length)
	for i, fr := range f.frags {
		end := f.length
		if i+1 < len(f.frags) {
			end = f.frags[i+1].at
		}
		if fr.src < 0 {
			out = append(out, f.arena[^fr.src:^fr.src+end-fr.at]...)
		} else {
			out = append(out, base[fr.src:fr.src+end-fr.at]...)
		}
	}
	return out, nil
}
