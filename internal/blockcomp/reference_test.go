package blockcomp

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// The encoder and the tag loop one byte per step, nothing clever. The tests
// hold the kernels to them, byte for byte on the way in and error for error
// on the way out.

// A refParse is one way of finding matches, run one byte per step: which
// bytes key the table, and which positions of a match go into it.
type refParse struct {
	hashLen    int
	hash       func(p []byte) uint32 // of the first hashLen bytes of p
	seedInside bool                  // every fourth position inside a match, not only its last
}

var (
	// parse5 is the encoder's: a 5-byte hash, and a match seeds only its
	// last position.
	parse5 = refParse{hashLen: 5, hash: func(p []byte) uint32 { return hash5(uint64(binary.LittleEndian.Uint32(p)) | uint64(p[4])<<32) }}
	// parse4 is the parse the encoder had before: a 4-byte hash, and every
	// fourth position inside a match seeded. What is on disk was written by
	// either; the tests measure the gain against it.
	parse4 = refParse{hashLen: 4, seedInside: true, hash: func(p []byte) uint32 {
		return binary.LittleEndian.Uint32(p) * 0x1e35a7bd >> (32 - hashBits)
	}}
)

func refAppendEncode(dst, src []byte) []byte { return parse5.encode(dst, src, 0) }

// refAppendEncodeDict is the dictionary encoder one byte per step, over one
// buffer holding dict‖src and one table of positions in it: every position of
// the dictionary goes in first.
func refAppendEncodeDict(dst, dict, src []byte) []byte { return parse5.encodeDict(dst, dict, src) }

func (rp refParse) encodeDict(dst, dict, src []byte) []byte {
	if len(dict) > MaxDictLen {
		dict = dict[len(dict)-MaxDictLen:]
	}
	if len(dict)+len(src) >= maxOffset {
		return rp.encode(dst, src, 0)
	}
	return rp.encode(dst, append(append([]byte(nil), dict...), src...), len(dict))
}

// encode writes the block all[base:] behind all[:base], a dictionary or
// nothing.
func (rp refParse) encode(dst, all []byte, base int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(all)-base))
	if len(all)-base < minMatch+4 {
		return refEmitLiteral(dst, all[base:])
	}
	var table [hashSize]int32 // position+1 of the last occurrence of a hash
	for p := 0; p+rp.hashLen <= base; p++ {
		table[rp.hash(all[p:])] = int32(p) + 1
	}
	litStart := base // start of the pending literal run
	i := base
	limit := len(all) - rp.hashLen
	for i <= limit {
		h := rp.hash(all[i:])
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand < 0 || i-cand >= maxOffset || !bytes.Equal(all[cand:cand+minMatch], all[i:i+minMatch]) {
			i++
			continue
		}
		mlen := minMatch
		for i+mlen < len(all) && all[cand+mlen] == all[i+mlen] {
			mlen++
		}
		if litStart < i {
			dst = refEmitLiteral(dst, all[litStart:i])
		}
		dst = refEmitCopy(dst, i-cand, mlen)
		end := i + mlen
		if rp.seedInside {
			for j := i + 1; j < end-minMatch && j <= limit; j += 4 {
				table[rp.hash(all[j:])] = int32(j) + 1
			}
		} else if end-1 <= limit {
			table[rp.hash(all[end-1:])] = int32(end)
		}
		i = end
		litStart = end
	}
	if litStart < len(all) {
		dst = refEmitLiteral(dst, all[litStart:])
	}
	return dst
}

func refEmitLiteral(dst, lit []byte) []byte {
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

func refEmitCopy(dst []byte, offset, length int) []byte {
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

func refDecodeInto(dst, block []byte) ([]byte, error) {
	if err := refDecodeTags(dst, 0, block); err != nil {
		return nil, err
	}
	return dst, nil
}

// refDecodeTags decodes block into all[o:], one byte per step, with all[:o]
// (a dictionary, or nothing) already in place in front of it.
func refDecodeTags(all []byte, o int, block []byte) error {
	declared, n := binary.Uvarint(block)
	if n <= 0 {
		return errCorrupt
	}
	if declared != uint64(len(all)-o) {
		return fmt.Errorf("blockcomp: header declares %d bytes, caller expects %d", declared, len(all)-o)
	}
	p := block[n:]
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
					return errCorrupt
				}
				litLen = int(p[1]) + 1
				p = p[2:]
			case code == 61:
				if len(p) < 3 {
					return errCorrupt
				}
				litLen = int(p[1]) | int(p[2])<<8
				litLen++
				p = p[3:]
			default:
				return errCorrupt
			}
			if litLen > len(p) || litLen > len(all)-o {
				return errCorrupt
			}
			o += copy(all[o:], p[:litLen])
			p = p[litLen:]
		case tagCopy:
			if len(p) < 3 {
				return errCorrupt
			}
			length := int(tag>>2) + minMatch
			offset := int(p[1]) | int(p[2])<<8
			p = p[3:]
			if offset == 0 || offset > o || length > len(all)-o {
				return errCorrupt
			}
			// Byte-by-byte: copies may overlap their own output
			// (run-length-style references).
			for end := o + length; o < end; o++ {
				all[o] = all[o-offset]
			}
		default:
			return fmt.Errorf("blockcomp: unknown tag %#x", tag&0x03)
		}
	}
	if o != len(all) {
		return fmt.Errorf("blockcomp: decoded %d bytes, header declared %d", o-(len(all)-int(declared)), declared)
	}
	return nil
}
