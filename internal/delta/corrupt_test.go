package delta

import (
	"runtime"
	"testing"
)

// hugeCopy is a well-formed 17-byte delta whose single COPY claims 2^40
// bytes: Unmarshal accepts it (the lengths agree with each other), only the
// base it is applied to shows that it lies.
var hugeCopy = []byte{wireMagic, wireVersion,
	0x80, 0x80, 0x80, 0x80, 0x80, 0x20, // targetLen 1<<40
	0x01,                                                   // one instruction
	byte(OpCopy), 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, // COPY off 0 len 1<<40
}

// TestApplySizesNothingFromACorruptLength: Apply used to preallocate up to
// 1 MiB from TargetLen before looking at a single instruction.
func TestApplySizesNothingFromACorruptLength(t *testing.T) {
	d, err := Unmarshal(hugeCopy)
	if err != nil {
		t.Fatalf("the seed is meant to parse: %v", err)
	}
	base := []byte("a base far shorter than the delta claims")
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if n := allocated(func() {
		if _, err := Apply(base, d); err == nil {
			t.Error("Apply accepted a COPY past the end of its base")
		}
	}); n > 4<<10 {
		t.Errorf("Apply allocated %d bytes on the word of a corrupt 17-byte delta", n)
	}
	// A fold reads the lengths off the wire itself: Add takes the COPY on
	// trust (the base is not known yet), AppendTo must refuse it unsized.
	if n := allocated(func() {
		var f Fold
		if err := f.Add(hugeCopy); err != nil {
			return
		}
		if _, err := f.AppendTo(nil, base); err == nil {
			t.Error("Fold accepted a COPY past the end of its base")
		}
	}); n > 4<<10 {
		t.Errorf("Fold allocated %d bytes on the word of a corrupt 17-byte delta", n)
	}
	// A length the instructions do not add up to is rejected before sizing too.
	short := Delta{Insts: []Instruction{{Op: OpCopy, Off: 0, Len: 2}}, TargetLen: 1 << 30}
	if n := allocated(func() {
		if _, err := Apply(base, short); err == nil {
			t.Error("Apply accepted a TargetLen its instructions do not produce")
		}
	}); n > 4<<10 {
		t.Errorf("Apply allocated %d bytes for a mismatched TargetLen", n)
	}
}
