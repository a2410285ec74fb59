package delta

import (
	"bytes"
	"math/rand"
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
	if n := allocated(func() {
		if _, err := ApplyInto(nil, base, hugeCopy); err == nil {
			t.Error("ApplyInto accepted a COPY past the end of its base")
		}
	}); n > 4<<10 {
		t.Errorf("ApplyInto allocated %d bytes on the word of a corrupt 17-byte delta", n)
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

// applyBoth holds ApplyInto to Unmarshal followed by Apply: the same bytes,
// or an error from both.
func applyBoth(t *testing.T, base, wire []byte) {
	t.Helper()
	var want []byte
	d, wantErr := Unmarshal(wire)
	if wantErr == nil {
		want, wantErr = Apply(base, d)
	}
	got, err := ApplyInto(nil, base, wire)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ApplyInto error %v, Unmarshal+Apply error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatal("ApplyInto and Unmarshal+Apply produce different bytes")
	}
}

func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	scratch := make([]byte, 0, 16<<10)
	for trial := 0; trial < 50; trial++ {
		src := makeText(rng, 100+rng.Intn(4000))
		tgt := edit(rng, src, 1+rng.Intn(8))
		wire := Compress(src, tgt, Options{}).Marshal()
		applyBoth(t, src, wire)

		got, err := ApplyInto(scratch, src, wire)
		if err != nil || !bytes.Equal(got, tgt) {
			t.Fatalf("ApplyInto into a scratch buffer: %v", err)
		}
		if &got[:1][0] != &scratch[:1][0] {
			t.Fatal("ApplyInto left a large enough dst unused")
		}
		if avg := testing.AllocsPerRun(5, func() { ApplyInto(scratch, src, wire) }); avg != 0 {
			t.Fatalf("ApplyInto into a large enough dst allocates %.1f times", avg)
		}
		// Too small a dst is replaced, not overrun.
		if got, err := ApplyInto(make([]byte, 0, 8), src, wire); err != nil || !bytes.Equal(got, tgt) {
			t.Fatalf("ApplyInto into a short dst: %v", err)
		}
		// Every single-byte corruption: same verdict, same bytes.
		if trial < 5 {
			for i := range wire {
				mut := append([]byte(nil), wire...)
				mut[i] ^= 0x5a
				applyBoth(t, src, mut)
			}
		}
	}
	applyBoth(t, []byte("base"), nil)
	applyBoth(t, []byte("base"), append(Compress(nil, []byte("x"), Options{}).Marshal(), 0xff))
}
