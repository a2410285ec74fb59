package delta

// The reference encoders below are the straightforward forms of Compress and
// CompressXDelta: a rolling-checksum object stepped one byte at a time, an
// index of three parallel arrays, every counter kept in the stats struct. The
// package's encoders must produce exactly their output (the same
// instructions, hence the same marshalled bytes) and the same index-operation
// counts; FuzzCompressMatchesReference holds them to it.

type refRollsum struct {
	s1, s2 uint32
	win    uint32
}

func (r *refRollsum) init(window []byte) {
	r.s1, r.s2 = 0, 0
	for _, b := range window {
		r.s1 += uint32(b)
		r.s2 += r.s1
	}
}

func (r *refRollsum) roll(out, in byte) {
	r.s1 += uint32(in) - uint32(out)
	r.s2 += r.s1 - r.win*uint32(out)
}

func (r *refRollsum) sum() uint32 {
	v := r.s2<<16 | r.s1&0xffff
	v ^= v >> 15
	v *= 0x2c1b3c6d
	v ^= v >> 12
	return v
}

// refTable maps checksum -> first source offset, first-wins, dropping
// inserts beyond three quarters occupancy.
type refTable struct {
	keys []uint32
	vals []int32
	used []bool
	mask uint32
	n    int
	max  int
}

func newRefTable(capacity int) *refTable {
	n := 8
	for n < capacity*2 {
		n <<= 1
	}
	return &refTable{
		keys: make([]uint32, n),
		vals: make([]int32, n),
		used: make([]bool, n),
		mask: uint32(n - 1),
		max:  n * 3 / 4,
	}
}

func (t *refTable) put(key uint32, val int32) {
	if t.n >= t.max {
		return
	}
	i := key & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			return
		}
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.keys[i] = key
	t.vals[i] = val
	t.n++
}

func (t *refTable) get(key uint32) (int32, bool) {
	i := key & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// refScan is both reference encoders' pass 2: probe the index at every
// offset whose raw rolling state matches pattern under mask (every offset
// when mask is 0) and extend hits byte-wise.
func refScan(src, tgt []byte, idx *refTable, mask, pattern uint32, st *CompressionStats) Delta {
	e := encoder{tgt: tgt}
	pos, j := 0, 0
	rs := refRollsum{win: windowSize}
	rs.init(tgt[:windowSize])
	for {
		if rs.s2&mask == pattern {
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
	return e.finish()
}

func referenceCompress(src, tgt []byte, interval int) (Delta, CompressionStats) {
	var st CompressionStats
	if interval == 0 {
		interval = DefaultAnchorInterval
	}
	e := encoder{tgt: tgt}
	if len(src) < windowSize || len(tgt) < windowSize {
		e.insert(0, len(tgt))
		return e.finish(), st
	}
	mask := uint32(interval - 1)
	pattern := uint32(0x2a) & mask
	var idx *refTable
	for {
		idx = newRefTable(len(src)/interval + 8)
		rs := refRollsum{win: windowSize}
		rs.init(src[:windowSize])
		for i := 0; ; i++ {
			if rs.s2&mask == pattern {
				idx.put(rs.sum(), int32(i))
				st.IndexPuts++
			}
			if i+windowSize >= len(src) {
				break
			}
			rs.roll(src[i], src[i+windowSize])
		}
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
	return refScan(src, tgt, idx, mask, pattern, &st), st
}

func referenceXDelta(src, tgt []byte) (Delta, CompressionStats) {
	var st CompressionStats
	e := encoder{tgt: tgt}
	if len(src) < windowSize || len(tgt) < windowSize {
		e.insert(0, len(tgt))
		return e.finish(), st
	}
	idx := newRefTable(len(src)/windowSize + 8)
	for i := 0; i+windowSize <= len(src); i += windowSize {
		rs := refRollsum{win: windowSize}
		rs.init(src[i : i+windowSize])
		idx.put(rs.sum(), int32(i))
		st.IndexPuts++
	}
	return refScan(src, tgt, idx, 0, 0, &st), st
}

// referenceAnchors is the reference anchor list: every window of b whose raw
// rolling state passes the default-interval anchor test, in offset order,
// stepped one byte at a time.
func referenceAnchors(b []byte) Anchors {
	if len(b) < windowSize {
		return nil
	}
	mask := uint32(DefaultAnchorInterval - 1)
	pattern := uint32(0x2a) & mask
	var out Anchors
	rs := refRollsum{win: windowSize}
	rs.init(b[:windowSize])
	for i := 0; ; i++ {
		if rs.s2&mask == pattern {
			out = append(out, Anchor{Key: rs.sum(), Off: int32(i)})
		}
		if i+windowSize >= len(b) {
			return out
		}
		rs.roll(b[i], b[i+windowSize])
	}
}
