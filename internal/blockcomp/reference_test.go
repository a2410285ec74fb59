package blockcomp

import (
	"bytes"
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
	if err := refDecodeTags(dst, 0, block); err != nil {
		return nil, err
	}
	return dst, nil
}

// refAppendEncodeDict is the dictionary encoder one byte per step, over one
// buffer holding dict‖src and one table of positions in it: every position of
// the dictionary goes in first.
func refAppendEncodeDict(dst, dict, src []byte) []byte {
	if len(dict) > MaxDictLen {
		dict = dict[len(dict)-MaxDictLen:]
	}
	if len(dict)+len(src) >= maxOffset {
		return refAppendEncode(dst, src)
	}
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) < minMatch+4 {
		return refEmitLiteral(dst, src)
	}
	all := append(append([]byte(nil), dict...), src...)
	base := len(dict)
	hash := func(pos int) uint32 { return hash4(binary.LittleEndian.Uint32(all[pos:])) }
	var table [hashSize]int32
	for p := 0; p+minMatch <= base; p++ {
		table[hash(p)] = int32(p) + 1
	}
	litStart := base
	i := base
	limit := len(all) - minMatch
	for i <= limit {
		h := hash(i)
		cand := int(table[h]) - 1
		table[h] = int32(i) + 1
		if cand < 0 || !bytes.Equal(all[cand:cand+minMatch], all[i:i+minMatch]) {
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
		for j := i + 1; j < end-minMatch && j <= limit; j += 4 {
			table[hash(j)] = int32(j) + 1
		}
		i = end
		litStart = end
	}
	if litStart < len(all) {
		dst = refEmitLiteral(dst, all[litStart:])
	}
	return dst
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
