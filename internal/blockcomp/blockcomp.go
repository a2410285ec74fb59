// Package blockcomp implements a fast LZ77 block compressor in the style of
// Snappy, the block-level compressor the paper pairs with dbDedup (MongoDB's
// WiredTiger default). Like Snappy it favours speed over ratio: a greedy
// byte-oriented match search over a 64 KiB window, no entropy coding, and a
// tag-stream output of literal runs and copies.
//
// The DBMS substrate applies it to storage blocks and oplog batches; the
// experiments use it to measure how block compression stacks with dedup
// ("Additional compression from Snappy" in Figs. 1 and 10).
//
// Format (not Snappy-compatible on the wire, same structure):
//
//	uvarint decodedLen
//	sequence of tags:
//	  literal: 0x00 | (n-1)<<2 for n<=60, else 60/61 marker + 1-2 extra
//	           length bytes, followed by n literal bytes
//	  copy:    0x01 | (len)<<2, 2-byte little-endian offset
package blockcomp

import (
	"encoding/binary"
	"errors"
	"fmt"
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

	hashBits = 14
	hashSize = 1 << hashBits
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

// AppendEncode compresses src and appends the compressed block to dst, so a
// caller that seals block after block can reuse one buffer.
func AppendEncode(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < minMatch+4 {
		return emitLiteral(dst, src)
	}

	var table [hashSize]int32 // position+1 of the last occurrence of a 4-byte hash
	litStart := 0             // start of the pending literal run
	i := 0
	limit := len(src) - minMatch
	for i <= limit {
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand >= 0 && i-cand < maxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:]) {
			// Extend the match.
			mlen := minMatch
			for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
				mlen++
			}
			if litStart < i {
				dst = emitLiteral(dst, src[litStart:i])
			}
			dst = emitCopy(dst, i-cand, mlen)
			// Seed the table inside the match sparsely so later
			// data can still find it.
			end := i + mlen
			for j := i + 1; j < end-minMatch && j <= limit; j += 4 {
				table[hash4(binary.LittleEndian.Uint32(src[j:]))] = int32(j) + 1
			}
			i = end
			litStart = end
			continue
		}
		i++
	}
	if litStart < len(src) {
		dst = emitLiteral(dst, src[litStart:])
	}
	return dst
}

func hash4(v uint32) uint32 {
	return (v * 0x1e35a7bd) >> (32 - hashBits)
}

func emitLiteral(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := len(lit)
		switch {
		case n <= 60:
			dst = append(dst, byte(n-1)<<2|tagLiteral)
		case n <= 1<<8:
			dst = append(dst, 60<<2|tagLiteral, byte(n-1))
		default:
			if n > 1<<16 {
				n = 1 << 16
			}
			dst = append(dst, 61<<2|tagLiteral, byte(n-1), byte((n-1)>>8))
		}
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

func emitCopy(dst []byte, offset, length int) []byte {
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
		dst = append(dst, byte(n-minMatch)<<2|tagCopy, byte(offset), byte(offset>>8))
		length -= n
	}
	return dst
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
func DecodeInto(dst, block []byte) ([]byte, error) {
	declared, n := binary.Uvarint(block)
	if n <= 0 {
		return nil, errCorrupt
	}
	if declared != uint64(len(dst)) {
		return nil, fmt.Errorf("blockcomp: header declares %d bytes, caller expects %d", declared, len(dst))
	}
	p := block[n:]
	o := 0 // bytes of dst written
	for len(p) > 0 {
		tag := p[0]
		switch tag & 0x03 {
		case tagLiteral:
			code := int(tag >> 2)
			var litLen int
			switch {
			case code < 60:
				litLen = code + 1
				p = p[1:]
			case code == 60:
				if len(p) < 2 {
					return nil, errCorrupt
				}
				litLen = int(p[1]) + 1
				p = p[2:]
			case code == 61:
				if len(p) < 3 {
					return nil, errCorrupt
				}
				litLen = int(p[1]) | int(p[2])<<8
				litLen++
				p = p[3:]
			default:
				return nil, errCorrupt
			}
			if litLen > len(p) || litLen > len(dst)-o {
				return nil, errCorrupt
			}
			o += copy(dst[o:], p[:litLen])
			p = p[litLen:]
		case tagCopy:
			if len(p) < 3 {
				return nil, errCorrupt
			}
			length := int(tag>>2) + minMatch
			offset := int(p[1]) | int(p[2])<<8
			p = p[3:]
			if offset == 0 || offset > o || length > len(dst)-o {
				return nil, errCorrupt
			}
			// Byte-by-byte: copies may overlap their own output
			// (run-length-style references).
			for end := o + length; o < end; o++ {
				dst[o] = dst[o-offset]
			}
		default:
			return nil, fmt.Errorf("blockcomp: unknown tag %#x", tag&0x03)
		}
	}
	if o != len(dst) {
		return nil, fmt.Errorf("blockcomp: decoded %d bytes, header declared %d", o, len(dst))
	}
	return dst, nil
}
