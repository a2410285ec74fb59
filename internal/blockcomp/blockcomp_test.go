package blockcomp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("hello, hello, hello, hello"),
		bytes.Repeat([]byte("x"), 100000),
		bytes.Repeat([]byte("abcdefgh"), 5000),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200)),
	}
	for i, src := range cases {
		enc := Encode(src)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		got, err := Decode(Encode(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, 65535, 65536, 65537, 1 << 20} {
		src := make([]byte, n)
		rng.Read(src)
		got, err := Decode(Encode(src))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
	}
}

func TestRoundTripTextCorpus(t *testing.T) {
	// Text with a long repeat distance close to the window boundary.
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(2))
	para := make([]byte, 60000)
	rng.Read(para)
	buf.Write(para)
	buf.Write(para) // repeat at offset 60000 < 64K window
	buf.WriteString("tail")
	src := buf.Bytes()
	got, err := Decode(Encode(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestCompressesText(t *testing.T) {
	src := []byte(strings.Repeat("database systems store many similar records. ", 500))
	enc := Encode(src)
	if len(enc) > len(src)/4 {
		t.Errorf("repetitive text compressed to %d/%d bytes; want <= 25%%", len(enc), len(src))
	}
}

func TestIncompressibleOverheadBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<16)
	rng.Read(src)
	enc := Encode(src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d bytes > MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
	if len(enc) > len(src)+len(src)/32 {
		t.Errorf("incompressible data expanded to %d/%d", len(enc), len(src))
	}
}

func TestDecodedLen(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 1000)
	enc := Encode(src)
	n, err := DecodedLen(enc)
	if err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	if _, err := DecodedLen(nil); err == nil {
		t.Error("DecodedLen(nil) succeeded")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	src := []byte(strings.Repeat("hello world ", 100))
	good := Encode(src)

	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		// Must not panic; errors are fine, and a "successful" decode of
		// mutated input must at least not crash downstream length checks.
		_, _ = Decode(mut)
	}
	for _, bad := range [][]byte{nil, {}, {0x05, 0x03}, good[:len(good)-1]} {
		if _, err := Decode(bad); err == nil && len(bad) > 0 {
			// nil/empty could decode to empty only if header says 0.
			t.Errorf("Decode(%v) accepted corrupt input", bad)
		}
	}
}

// hugeHeader declares 2^63-1 decoded bytes over a two-byte tag stream. Decode
// used to size its output from the header alone and died in makeslice.
var hugeHeader = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00, 'a'}

func TestDecodeRejectsImpossibleLength(t *testing.T) {
	if _, err := Decode(hugeHeader); err == nil {
		t.Fatal("Decode accepted a declared length its tag stream cannot produce")
	}
	if _, err := DecodedLen(hugeHeader); err == nil {
		t.Fatal("DecodedLen accepted a declared length its tag stream cannot produce")
	}
	// The bound is on what the stream could produce, not on what it does:
	// the densest block (copy tags only) still decodes.
	rle := bytes.Repeat([]byte{7}, 1<<20)
	got, err := Decode(Encode(rle))
	if err != nil || !bytes.Equal(got, rle) {
		t.Fatalf("densest block rejected: %v", err)
	}
}

func TestAppendEncodeAndDecodeInto(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox ", 400))
	want := Encode(src)
	buf := make([]byte, 0, 16)
	for i := 0; i < 3; i++ { // one buffer, block after block
		buf = AppendEncode(buf[:0], src)
		if !bytes.Equal(buf, want) {
			t.Fatalf("AppendEncode round %d differs from Encode", i)
		}
	}
	if got := AppendEncode([]byte("prefix"), src); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
		t.Fatal("AppendEncode did not append after the existing bytes")
	}

	dst := make([]byte, len(src))
	got, err := DecodeInto(dst, want)
	if err != nil || !bytes.Equal(got, src) || &got[0] != &dst[0] {
		t.Fatalf("DecodeInto: err %v, equal %v", err, bytes.Equal(got, src))
	}
	for _, n := range []int{0, len(src) - 1, len(src) + 1} {
		if _, err := DecodeInto(make([]byte, n), want); err == nil {
			t.Errorf("DecodeInto accepted a %d-byte buffer for a %d-byte block", n, len(src))
		}
	}
	if avg := testing.AllocsPerRun(20, func() { DecodeInto(dst, want) }); avg != 0 {
		t.Errorf("DecodeInto allocates %.1f times per call", avg)
	}
}

func TestOverlappingCopies(t *testing.T) {
	// RLE-style: a 1-byte offset copy replicates the previous byte.
	src := append([]byte("start"), bytes.Repeat([]byte{0x7}, 1000)...)
	got, err := Decode(Encode(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("overlapping-copy round trip failed: %v", err)
	}
}
