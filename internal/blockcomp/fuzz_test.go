package blockcomp

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip asserts Encode/Decode is the identity for arbitrary input, and
// that Encode still writes what the byte-at-a-time encoder writes.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 70000))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 10000))
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := Encode(src)
		if !bytes.Equal(enc, refAppendEncode(nil, src)) {
			t.Fatal("encoded bytes differ from the reference encoder's")
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode own encode: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the decoder; errors are fine, panics
// and out-of-bounds reads are not.
func FuzzDecode(f *testing.F) {
	f.Add(Encode([]byte("some compressible content content content")))
	f.Add([]byte{0x05, 0x00, 0xff})
	f.Add(hugeHeader)
	f.Fuzz(func(t *testing.T, block []byte) {
		_, _ = Decode(block)
		_, _ = DecodedLen(block)
	})
}
