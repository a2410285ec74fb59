package blockcomp

import (
	"encoding/binary"
	"fmt"
)

// The encoder and the tag loop as they were before the word-at-a-time
// kernels: one byte per step, nothing clever. The tests hold the kernels to
// them, byte for byte on the way in and error for error on the way out.

func refAppendEncode(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if len(src) < minMatch+4 {
		return refEmitLiteral(dst, src)
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
				dst = refEmitLiteral(dst, src[litStart:i])
			}
			dst = refEmitCopy(dst, i-cand, mlen)
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
		dst = refEmitLiteral(dst, src[litStart:])
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
