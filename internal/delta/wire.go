package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire format (all integers unsigned varints):
//
//	magic byte 0xD5
//	version byte 0x01
//	targetLen
//	instCount
//	repeated instructions:
//	  OpCopy:   0x01, off, len
//	  OpInsert: 0x00, len, <len literal bytes>
//
// The encoded size of a delta is what dbDedup charges against storage and
// network budgets, so Marshal is also the canonical "delta size" measure.

const (
	wireMagic   = 0xd5
	wireVersion = 0x01
)

var errCorrupt = errors.New("delta: corrupt encoding")

// Marshal serialises the delta into a compact binary form.
func (d Delta) Marshal() []byte {
	return d.AppendMarshal(nil)
}

// AppendMarshal appends Marshal's bytes to dst, growing it at most once.
func (d Delta) AppendMarshal(dst []byte) []byte {
	out := slices.Grow(dst, d.marshalSize())
	out = append(out, wireMagic, wireVersion)
	out = binary.AppendUvarint(out, uint64(d.TargetLen))
	out = binary.AppendUvarint(out, uint64(len(d.Insts)))
	for _, inst := range d.Insts {
		out = append(out, byte(inst.Op))
		switch inst.Op {
		case OpCopy:
			out = binary.AppendUvarint(out, uint64(inst.Off))
			out = binary.AppendUvarint(out, uint64(inst.Len))
		case OpInsert:
			out = binary.AppendUvarint(out, uint64(inst.Len))
			out = append(out, inst.Data...)
		}
	}
	return out
}

// EncodedSize returns len(d.Marshal()) without building the buffer.
func (d Delta) EncodedSize() int { return d.marshalSize() }

func (d Delta) marshalSize() int {
	n := 2 + uvarintLen(uint64(d.TargetLen)) + uvarintLen(uint64(len(d.Insts)))
	for _, inst := range d.Insts {
		n++
		switch inst.Op {
		case OpCopy:
			n += uvarintLen(uint64(inst.Off)) + uvarintLen(uint64(inst.Len))
		case OpInsert:
			n += uvarintLen(uint64(inst.Len)) + len(inst.Data)
		}
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// header parses the fixed part of a marshalled delta and returns the declared
// target length, the instruction count and the instruction bytes.
func header(buf []byte) (targetLen, count uint64, rest []byte, err error) {
	if len(buf) < 2 || buf[0] != wireMagic {
		return 0, 0, nil, errCorrupt
	}
	if buf[1] != wireVersion {
		return 0, 0, nil, fmt.Errorf("delta: unsupported version %d", buf[1])
	}
	p := buf[2:]
	targetLen, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, errCorrupt
	}
	p = p[n:]
	count, n = binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, errCorrupt
	}
	if count > uint64(len(buf)) {
		return 0, 0, nil, errCorrupt // cheap sanity bound: >=1 byte per instruction
	}
	return targetLen, count, p[n:], nil
}

// readInst parses one instruction off the front of p. An INSERT's Data
// aliases p.
func readInst(p []byte) (Instruction, []byte, error) {
	if len(p) == 0 {
		return Instruction{}, nil, errCorrupt
	}
	op := Op(p[0])
	p = p[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	switch op {
	case OpCopy:
		off, ok := next()
		if !ok {
			return Instruction{}, nil, errCorrupt
		}
		l, ok := next()
		if !ok {
			return Instruction{}, nil, errCorrupt
		}
		return Instruction{Op: OpCopy, Off: int(off), Len: int(l)}, p, nil
	case OpInsert:
		l, ok := next()
		if !ok || l > uint64(len(p)) {
			return Instruction{}, nil, errCorrupt
		}
		return Instruction{Op: OpInsert, Len: int(l), Data: p[:l]}, p[l:], nil
	default:
		return Instruction{}, nil, fmt.Errorf("delta: unknown op %d", op)
	}
}

// Unmarshal parses a delta previously produced by Marshal. The returned
// delta's INSERT data aliases buf.
func Unmarshal(buf []byte) (Delta, error) {
	tl, count, p, err := header(buf)
	if err != nil {
		return Delta{}, err
	}
	d := Delta{TargetLen: int(tl), Insts: make([]Instruction, 0, count)}
	for i := uint64(0); i < count; i++ {
		var inst Instruction
		if inst, p, err = readInst(p); err != nil {
			return Delta{}, err
		}
		d.Insts = append(d.Insts, inst)
	}
	if len(p) != 0 {
		return Delta{}, errCorrupt
	}
	// The declared target length must equal the instructions' total
	// output; rejecting mismatches here keeps corrupt lengths from
	// reaching Apply at all.
	total := 0
	for _, inst := range d.Insts {
		if inst.Len < 0 || total > d.TargetLen {
			return Delta{}, errCorrupt
		}
		total += inst.Len
	}
	if total != d.TargetLen {
		return Delta{}, errCorrupt
	}
	return d, nil
}
