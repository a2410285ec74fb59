package delta

import (
	"bytes"
	"testing"
)

// FuzzCompressRoundTrip feeds arbitrary source/target pairs through both
// compressors, re-encoding, and decode, asserting byte-exact round trips.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte("the quick brown fox"), []byte("the quick red fox jumps"))
	f.Add([]byte(""), []byte("only target"))
	f.Add(bytes.Repeat([]byte("ab"), 100), bytes.Repeat([]byte("ab"), 101))
	f.Add(make([]byte, 64), make([]byte, 65))
	f.Fuzz(func(t *testing.T, src, tgt []byte) {
		for _, interval := range []int{16, 64} {
			d := Compress(src, tgt, Options{AnchorInterval: interval})
			got, err := Apply(src, d)
			if err != nil || !bytes.Equal(got, tgt) {
				t.Fatalf("interval %d: forward round trip failed: %v", interval, err)
			}
			bwd := Reencode(src, tgt, d)
			back, err := Apply(tgt, bwd)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("interval %d: backward round trip failed: %v", interval, err)
			}
			// Wire round trip.
			d2, err := Unmarshal(d.Marshal())
			if err != nil {
				t.Fatalf("unmarshal own marshal: %v", err)
			}
			got2, err := Apply(src, d2)
			if err != nil || !bytes.Equal(got2, tgt) {
				t.Fatal("wire round trip failed")
			}
		}
		dx := CompressXDelta(src, tgt)
		got, err := Apply(src, dx)
		if err != nil || !bytes.Equal(got, tgt) {
			t.Fatalf("xdelta round trip failed: %v", err)
		}
	})
}

// FuzzUnmarshal feeds arbitrary bytes to the wire decoder; it must never
// panic, anything it accepts must be safely appliable whatever length it
// declares, and a fold, which reads the wire itself, must agree with it.
func FuzzUnmarshal(f *testing.F) {
	good := Compress([]byte("source content here"), []byte("target content here too"), Options{})
	f.Add(good.Marshal())
	f.Add([]byte{0xd5, 0x01})
	f.Add([]byte{})
	f.Add(hugeCopy)
	f.Fuzz(func(t *testing.T, buf []byte) {
		base := []byte("arbitrary base content for fuzzed deltas")
		// Every input reaches the decoder, a corrupt declared length
		// included; foldBoth skips the cases whose targets are too long
		// to build twice.
		if d, err := Unmarshal(buf); err == nil {
			Apply(base, d)
		}
		var f Fold
		foldBoth(t, &f, base, [][]byte{buf})
	})
}
