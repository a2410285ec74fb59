// Package blockcomp implements a fast LZ77 block compressor in the style of
// Snappy, the block-level compressor the paper pairs with dbDedup (MongoDB's
// WiredTiger default). Like Snappy it favours speed over ratio: a greedy
// byte-oriented match search over a 64 KiB window, no entropy coding, and a
// tag-stream output of literal runs and copies.
//
// The store (internal/docstore) applies it to the blocks it seals, each
// behind its segment's dictionary; the oplog is not compressed. The
// experiments use it to measure how block compression stacks with dedup
// ("Additional compression from Snappy" in Figs. 1 and 10).
//
// The store's blocks are small, so that a point read inflates little, and a
// small block on its own finds few matches. Dict is what keeps the ratio: a
// preset dictionary, the first bytes the store wrote to the same segment,
// which a block is encoded behind (AppendEncodeDict) and decoded behind
// (DecodeDict) as if the dictionary had been decoded in front of it. That is
// a departure from plain per-page Snappy, which has no such thing; zlib's and
// zstd's preset dictionaries are the precedent. The tag format is unchanged:
// a copy's offset may simply exceed the bytes decoded so far. Encode, Decode
// and DecodeInto take no dictionary.
//
// # Parse
//
// The encoder is greedy. At each position it looks up the last position
// whose first five bytes hashed alike (hashLen; Snappy keys by four, LZ4 by
// five), takes it if their first four bytes agree (minMatch), extends the
// match as far as it goes, and after the copy puts only the match's last
// position into the table. A block carries no trace of how it was parsed, so
// blocks an earlier parse wrote decode unchanged.
//
// Format (not Snappy-compatible on the wire, same structure):
//
//	uvarint decodedLen
//	sequence of tags:
//	  literal: 0x00 | (n-1)<<2 for n<=60, else 60/61 marker + 1-2 extra
//	           length bytes, followed by n literal bytes
//	  copy:    0x01 | (len)<<2, 2-byte little-endian offset
//
// # Kernels
//
// Both directions work a word (8 bytes) at a time where the format allows,
// and neither changes a byte of it. The encoder extends a match by comparing
// words and counting the trailing zero bits of their XOR; its output is the
// byte-at-a-time encoder's, which the tests keep as the oracle. The decoder
// moves matches and literals as whole words under one invariant, the slack: a
// word store may overshoot the end of its tag's output by up to 7 bytes, so
// the word path is taken only when dst has at least 8 bytes left past that
// end. The overshoot lands on bytes a later tag has yet to write, and the
// block is accepted only if its tags write every byte up to len(dst) exactly.
// A copy or literal of at most 16 bytes, which is nearly every tag of the
// store's blocks, is two unconditional words whenever 16 bytes of dst are
// left (and, for a literal, of block). A copy additionally needs its source
// at least 8 bytes back in dst, so that each word it loads lies entirely
// before the word it stores and is therefore final output, or at least 16
// bytes back in the dictionary, so that both words lie inside it. Copies that
// overlap their own output more tightly (offset < 8, the run-length case) and
// whatever ends within the last 8 bytes of the block go byte by byte.
package blockcomp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	tagLiteral = 0x00
	tagCopy    = 0x01

	// maxOffset is the LZ window: copies reach at most this far back.
	maxOffset = 1 << 16
	// maxCopyLen is the longest single copy tag: the 6-bit length field
	// holds len-minMatch, so 63+minMatch.
	maxCopyLen = 63 + minMatch
	// minMatch is the shortest match worth a copy tag (tag+offset = 3
	// bytes, so 4 is the break-even point).
	minMatch = 4

	// hashLen is how many bytes key the encoder's table. Under a 4-byte
	// key, common short strings crowd the slots and turn into 4-byte
	// copies that save nothing once their tag and the literal run they
	// split are paid for; a 6-byte key misses matches in the workload
	// families' text and in ingest_versioned's blocks (EXPERIMENTS.md,
	// PR 54).
	hashLen  = 5
	hashBits = 14
	hashSize = 1 << hashBits
	// prime5 is the multiplier of the 5-byte hash (LZ4's).
	prime5 = 889523592379

	// wordLen is how many bytes the kernels move or compare at a time.
	wordLen = 8
)

var errCorrupt = errors.New("blockcomp: corrupt input")

// MaxEncodedLen returns an upper bound on the size of Encode(src): the
// literal-only encoding plus tag overhead.
func MaxEncodedLen(srcLen int) int {
	return binary.MaxVarintLen64 + srcLen + srcLen/60 + 4
}

// Encode compresses src and returns the compressed block.
func Encode(src []byte) []byte {
	return AppendEncode(make([]byte, 0, MaxEncodedLen(len(src))), src)
}

// tablePool holds the encoder's hash tables: position+1 of the last
// occurrence of each 4-byte hash. 64 KiB is too much for a stack frame (it
// would grow every goroutine that seals a block to a 128 KiB stack), so a
// call borrows one and clears it.
var tablePool = sync.Pool{New: func() any { return new([hashSize]int32) }}

// AppendEncode compresses src and appends the compressed block to dst, so a
// caller that seals block after block can reuse one buffer.
func AppendEncode(dst, src []byte) []byte {
	out, d := encodeHeader(dst, src)
	if len(src) >= minMatch+4 {
		table := tablePool.Get().(*[hashSize]int32)
		clear(table[:])
		d = encodeTags(out, d, src, 0, table)
		tablePool.Put(table)
	}
	return out[:d]
}

// encodeHeader makes room behind dst for the worst case once, so that every
// tag is written by index instead of paying an append growth check, and
// writes the length header, and all of a src too short to hold a match.
func encodeHeader(dst, src []byte) (out []byte, d int) {
	out = slices.Grow(dst, MaxEncodedLen(len(src)))
	out = out[:cap(out)]
	d = len(dst) + binary.PutUvarint(out[len(dst):], uint64(len(src)))
	if len(src) < minMatch+4 {
		d = putLiteral(out, d, src)
	}
	return out, d
}

// MaxDictLen is the longest dictionary: half the window, so that a block of
// up to the other half behind it has positions that fit 16 bits.
const MaxDictLen = maxOffset / 2

// Dict is a preset dictionary and the state of an encoder behind it: bytes
// that a block's copies may reach back into as if they had been decoded just
// before the block's first byte. A store that cuts its data into small blocks
// encodes each behind one shared dictionary and gets back the matches a large
// block finds in itself. The dictionary is indexed once, when the Dict is
// made; a block starts from a copy of that table, 16-bit positions in
// dictionary‖block, and is encoded in place behind the dictionary, so the
// loop is the one that encodes a block on its own. Decoding needs the
// dictionary's bytes and no Dict. A Dict holds the encoder's scratch: one
// goroutine at a time encodes behind it.
type Dict struct {
	buf   []byte           // the dictionary and, behind it, the block being encoded
	n     int              // how much of buf is dictionary
	table [hashSize]uint16 // an encoder's table when it has been through the dictionary
	work  [hashSize]uint16 // the table of the block being encoded
}

// NewDict copies and indexes data. Of more than MaxDictLen bytes the last
// MaxDictLen are used: offsets count back from the dictionary's end, so a
// decoder may be given all of data.
func NewDict(data []byte) *Dict {
	if len(data) > MaxDictLen {
		data = data[len(data)-MaxDictLen:]
	}
	d := &Dict{buf: make([]byte, maxOffset), n: len(data)}
	copy(d.buf, data)
	for i := 0; i+hashLen <= len(data); i++ {
		d.table[hash5(load5(data[i:]))] = uint16(i + 1)
	}
	return d
}

// AppendEncodeDict is AppendEncode behind a preset dictionary (nil: none): a
// match found in the dictionary is written as a copy whose offset reaches
// back past the block's first byte. DecodeDict with the same dictionary bytes
// reads the result. A block too long for 16-bit positions behind this
// dictionary is encoded without it, which DecodeDict reads just the same.
func AppendEncodeDict(dst, src []byte, dict *Dict) []byte {
	if dict == nil || dict.n+len(src) >= maxOffset {
		return AppendEncode(dst, src)
	}
	out, d := encodeHeader(dst, src)
	if len(src) >= minMatch+4 {
		all := dict.buf[:dict.n+copy(dict.buf[dict.n:], src)]
		dict.work = dict.table
		d = encodeTags(out, d, all, dict.n, &dict.work)
	}
	return out[:d]
}

// encodeTags writes the tags of src[start:] at out[d:] and returns the new
// end. table holds position+1 of the last position whose hashLen bytes had
// each hash: the caller has filled it for src[:start], the dictionary
// (cleared it, without one), and src's positions fit its entries.
//
// A candidate is taken if its first minMatch bytes agree. After a copy only
// the match's last position goes into the table: the bytes inside it are
// their source's, whose positions the table holds already, and seeding them
// made the encoder 10-25 % slower on the store's blocks for under 0.2 % of
// its output, either way. What that gives up is a near-copy of a near-copy
// within one block, whose matches then run back to the older text rather
// than to the nearer copy.
func encodeTags[T uint16 | int32](out []byte, d int, src []byte, start int, table *[hashSize]T) int {
	litStart := start // start of the pending literal run
	i := start
	limit := len(src) - hashLen // the last position with hashLen bytes to hash
	for i <= limit {
		v := load5(src[i:])
		cur := uint32(v)
		h := hash5(v)
		cand := int(table[h]) - 1
		table[h] = T(i + 1)
		if cand < 0 || i-cand >= maxOffset || binary.LittleEndian.Uint32(src[cand:]) != cur {
			i++
			continue
		}
		// Extend the match a word at a time: the first set bit of the XOR
		// is the first byte that differs.
		mlen := minMatch
		for i+mlen+wordLen <= len(src) {
			x := binary.LittleEndian.Uint64(src[cand+mlen:]) ^ binary.LittleEndian.Uint64(src[i+mlen:])
			if x != 0 {
				mlen += bits.TrailingZeros64(x) >> 3
				goto extended
			}
			mlen += wordLen
		}
		for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
	extended:
		if litStart < i {
			d = putLiteral(out, d, src[litStart:i])
		}
		d = putCopy(out, d, i-cand, mlen)
		i += mlen
		litStart = i
		if last := i - 1; last <= limit {
			table[hash5(load5(src[last:]))] = T(i)
		}
	}
	if litStart < len(src) {
		d = putLiteral(out, d, src[litStart:])
	}
	return d
}

// load5 returns a word whose low hashLen bytes are the first of p: the
// first eight bytes of p when it has them, so that most positions are one
// load.
func load5(p []byte) uint64 {
	if len(p) >= wordLen {
		return binary.LittleEndian.Uint64(p)
	}
	return uint64(binary.LittleEndian.Uint32(p)) | uint64(p[4])<<32
}

// hash5 hashes the low hashLen bytes of v.
func hash5(v uint64) uint32 {
	return uint32((v << (64 - 8*hashLen)) * prime5 >> (64 - hashBits))
}

// putLiteral writes lit as literal tags at out[d:] and returns the new end.
// The caller has made room (MaxEncodedLen).
func putLiteral(out []byte, d int, lit []byte) int {
	for len(lit) > 0 {
		n := len(lit)
		switch {
		case n <= 60:
			out[d] = byte(n-1)<<2 | tagLiteral
			d++
		case n <= 1<<8:
			out[d], out[d+1] = 60<<2|tagLiteral, byte(n-1)
			d += 2
		default:
			if n > 1<<16 {
				n = 1 << 16
			}
			out[d], out[d+1], out[d+2] = 61<<2|tagLiteral, byte(n-1), byte((n-1)>>8)
			d += 3
		}
		d += copy(out[d:], lit[:n])
		lit = lit[n:]
	}
	return d
}

// putCopy writes a match of length bytes at distance offset as copy tags at
// out[d:] and returns the new end.
func putCopy(out []byte, d, offset, length int) int {
	for length > 0 {
		n := length
		if n > maxCopyLen {
			n = maxCopyLen
			// Avoid leaving a sub-minMatch remainder that could not
			// be emitted as a copy.
			if length-n < minMatch {
				n = length - minMatch
			}
		}
		out[d], out[d+1], out[d+2] = byte(n-minMatch)<<2|tagCopy, byte(offset), byte(offset>>8)
		d += 3
		length -= n
	}
	return d
}

// maxExpansion bounds how many bytes one byte of tag stream can decode to:
// the densest tag is a 3-byte copy of maxCopyLen bytes.
const maxExpansion = (maxCopyLen + 2) / 3

// DecodedLen returns the decompressed size recorded in the block header. It
// rejects a size the block's tag stream cannot produce, so a corrupt header
// is an error before anyone allocates what it claims.
func DecodedLen(block []byte) (int, error) {
	v, n := binary.Uvarint(block)
	if n <= 0 || v > uint64(len(block)-n)*maxExpansion {
		return 0, errCorrupt
	}
	return int(v), nil
}

// Decode decompresses a block produced by Encode.
func Decode(block []byte) ([]byte, error) {
	n, err := DecodedLen(block)
	if err != nil {
		return nil, err
	}
	return DecodeInto(make([]byte, n), block)
}

// DecodeInto decompresses block into dst and returns dst. len(dst) must be
// the block's decoded length: a caller that knows the length from elsewhere
// (the store's block header) passes a buffer of exactly that size, and any
// other declared or actual length is an error. Nothing is allocated.
func DecodeInto(dst, block []byte) ([]byte, error) { return DecodeDict(dst, block, nil) }

// DecodeDict is DecodeInto for a block encoded behind a preset dictionary:
// a copy whose offset reaches back past dst's first byte takes its bytes from
// the end of dict, and runs on into dst[0:] if it is longer than what is left
// of dict, exactly as if dict had been decoded in front of the block. With an
// empty dict such a copy is the error it is to DecodeInto. dict is only read,
// and only dict and block are: a corrupt block is an error, never a read
// outside them or a write outside dst.
func DecodeDict(dst, block, dict []byte) ([]byte, error) {
	declared, s := binary.Uvarint(block)
	if s <= 0 {
		return nil, errCorrupt
	}
	if declared != uint64(len(dst)) {
		return nil, fmt.Errorf("blockcomp: header declares %d bytes, caller expects %d", declared, len(dst))
	}
	d := 0
	// Nearly every tag is a copy or literal of at most 16 bytes: with 16
	// bytes of dst left, and of block behind the tag, it is two unconditional
	// words.
	fastS, fastD := len(block)-3-2*wordLen, len(dst)-2*wordLen
	for s < len(block) {
		tag := block[s]
		if s <= fastS && d <= fastD {
			to := dst[d : d+2*wordLen]
			switch {
			case tag&0x03 == tagLiteral && tag < 2*wordLen<<2:
				from := block[s+1 : s+1+2*wordLen]
				binary.LittleEndian.PutUint64(to, binary.LittleEndian.Uint64(from))
				binary.LittleEndian.PutUint64(to[wordLen:], binary.LittleEndian.Uint64(from[wordLen:]))
				n := int(tag>>2) + 1
				s, d = s+1+n, d+n
				continue
			case tag&0x03 == tagCopy && tag < (2*wordLen-minMatch+1)<<2:
				offset := int(block[s+1]) | int(block[s+2])<<8
				if offset >= wordLen && offset <= d {
					// The source lies a word back or more: the first
					// load is final output, the second at most what the
					// first store wrote.
					from := dst[d-offset : d-offset+2*wordLen]
					binary.LittleEndian.PutUint64(to, binary.LittleEndian.Uint64(from))
					binary.LittleEndian.PutUint64(to[wordLen:], binary.LittleEndian.Uint64(from[wordLen:]))
				} else if back := offset - d; back >= 2*wordLen && back <= len(dict) {
					from := dict[len(dict)-back : len(dict)-back+2*wordLen]
					binary.LittleEndian.PutUint64(to, binary.LittleEndian.Uint64(from))
					binary.LittleEndian.PutUint64(to[wordLen:], binary.LittleEndian.Uint64(from[wordLen:]))
				} else {
					break // closer than a word, or across the dictionary's end
				}
				n := int(tag>>2) + minMatch
				s, d = s+3, d+n
				continue
			}
		}
		switch tag & 0x03 {
		case tagCopy:
			if len(block)-s < 3 {
				return nil, errCorrupt
			}
			length := int(tag>>2) + minMatch
			offset := int(block[s+1]) | int(block[s+2])<<8
			s += 3
			if offset == 0 || length > len(dst)-d {
				return nil, errCorrupt
			}
			if offset > d {
				back := offset - d
				if back > len(dict) {
					return nil, errCorrupt
				}
				if back >= length+wordLen && len(dst)-d >= length+wordLen {
					// Whole words, as below, from the dictionary: slack
					// behind the copy on both sides.
					end := d + length
					for from := len(dict) - back; d < end; d, from = d+wordLen, from+wordLen {
						binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dict[from:]))
					}
					d = end
					continue
				}
				n := copy(dst[d:d+length], dict[len(dict)-back:])
				d += n
				if length -= n; length == 0 {
					continue
				}
				// The dictionary is used up and offset == d: the rest of
				// the copy starts at dst[0].
			}
			if offset >= wordLen && len(dst)-d >= length+wordLen {
				// Whole words: each load ends at or before the byte its
				// store begins at, and the last store's overshoot lands
				// in the slack.
				end := d + length
				for from := d - offset; d < end; d, from = d+wordLen, from+wordLen {
					binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dst[from:]))
				}
				d = end
				continue
			}
			// Byte by byte: the copy overlaps its own output
			// (run-length-style references) or ends the block.
			for end := d + length; d < end; d++ {
				dst[d] = dst[d-offset]
			}
		case tagLiteral:
			code := int(tag >> 2)
			var litLen int
			switch {
			case code < 60:
				litLen = code + 1
				s++
			case code == 60:
				if len(block)-s < 2 {
					return nil, errCorrupt
				}
				litLen = int(block[s+1]) + 1
				s += 2
			case code == 61:
				if len(block)-s < 3 {
					return nil, errCorrupt
				}
				litLen = int(block[s+1]) | int(block[s+2])<<8
				litLen++
				s += 3
			default:
				return nil, errCorrupt
			}
			if litLen > len(block)-s || litLen > len(dst)-d {
				return nil, errCorrupt
			}
			copy(dst[d:], block[s:s+litLen])
			d += litLen
			s += litLen
		default:
			return nil, fmt.Errorf("blockcomp: unknown tag %#x", tag&0x03)
		}
	}
	if d != len(dst) {
		return nil, fmt.Errorf("blockcomp: decoded %d bytes, header declared %d", d, len(dst))
	}
	return dst, nil
}
