package blockcomp

import (
	"bytes"
	"math/rand"
	"testing"

	"dbdedup/internal/workload"
)

// textBlocks returns n blocks of blockLen bytes as the store seals them:
// records of the four workload families back to back (cf. benchmark/ladder.go).
func textBlocks(tb testing.TB, n, blockLen int) [][]byte {
	tb.Helper()
	var all []byte
	for i, kind := range workload.Kinds {
		tr := workload.New(workload.Config{Kind: kind, Seed: int64(20 + i), InsertBytes: int64(n*blockLen)/int64(len(workload.Kinds)) + 1})
		for _, op := range tr.Records() {
			all = append(all, op.Payload...)
		}
	}
	if len(all) < n*blockLen {
		tb.Fatalf("workload produced %d bytes, need %d", len(all), n*blockLen)
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = all[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]
	}
	return blocks
}

// TestEncodeByteIdentical holds the encoder to the byte-at-a-time one: the
// golden segments, results_csv/ and every stored ratio rest on its output not
// moving by a byte.
func TestEncodeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var inputs [][]byte
	inputs = append(inputs, textBlocks(t, 8, 32<<10)...)
	inputs = append(inputs, textBlocks(t, 1, 200<<10)...) // matches at every distance up to the window
	for n := 0; n <= 64; n++ {
		inputs = append(inputs, random(n), make([]byte, n), bytes.Repeat([]byte("ab"), n)[:n])
	}
	for _, n := range []int{1 << 16, 1<<16 + 1, 70000, 1 << 20} {
		inputs = append(inputs, random(n), make([]byte, n))
	}
	// A long literal run before a match, a match longer than one copy tag, and
	// a match that runs to the last byte.
	long := random(70000)
	inputs = append(inputs, append(long, long[:5000]...))
	period := append(random(37), random(37)...)
	inputs = append(inputs, bytes.Repeat(period, 40))

	for i, src := range inputs {
		want := refAppendEncode(nil, src)
		if got := AppendEncode(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): encoded %d bytes, the reference encoder %d, or different ones", i, len(src), len(got), len(want))
		}
		// Appending after existing bytes, with and without spare capacity.
		prefix := []byte("prefix")
		for _, dst := range [][]byte{prefix, append(make([]byte, 0, len(src)+64), prefix...)} {
			got := AppendEncode(dst, src)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("input %d: AppendEncode after a prefix differs", i)
			}
		}
		got, err := Decode(want)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("input %d: round trip: %v", i, err)
		}
	}
}

// TestEncodeTableNotOnStack: the hash table is 64 KiB, which as a stack array
// took the sealing goroutine to a 128 KiB stack. It is pooled, so a call into
// a sized buffer allocates nothing either.
func TestEncodeTableNotOnStack(t *testing.T) {
	src := textBlocks(t, 1, 32<<10)[0]
	dst := make([]byte, 0, MaxEncodedLen(len(src)))
	AppendEncode(dst, src) // fill the pool
	if avg := testing.AllocsPerRun(50, func() { AppendEncode(dst, src) }); avg > 0.1 {
		t.Errorf("AppendEncode into a sized buffer allocates %.2f times per call", avg)
	}
}

// decodeBoth runs the kernel and the reference tag loop over one block and
// fails unless they agree: the same bytes, or an error from both.
func decodeBoth(t *testing.T, block []byte) {
	t.Helper()
	n, lenErr := DecodedLen(block)
	if lenErr != nil {
		if _, err := Decode(block); err == nil {
			t.Fatal("Decode accepted a block DecodedLen rejects")
		}
		return
	}
	got, err := DecodeInto(make([]byte, n), block)
	want, refErr := refDecodeInto(make([]byte, n), block)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("kernel error %v, reference error %v", err, refErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatal("kernel and reference decode to different bytes")
	}
}

// kernelEdgeBlocks are hand-built tag streams at the kernel's seams: copies
// at every overlap distance around the word length, and copies and literals
// that end within a word of the block end.
func kernelEdgeBlocks() [][]byte {
	var out [][]byte
	build := func(decoded int, tags ...byte) []byte {
		return append(append([]byte(nil), byte(decoded)), tags...)
	}
	lit := func(n int) []byte {
		b := []byte{byte(n-1) << 2}
		for i := 0; i < n; i++ {
			b = append(b, byte('a'+i%26))
		}
		return b
	}
	cp := func(length, offset int) []byte {
		return []byte{byte(length-minMatch)<<2 | tagCopy, byte(offset), byte(offset >> 8)}
	}
	for offset := 1; offset <= 9; offset++ {
		for _, length := range []int{4, 7, 8, 9, 17, 67} {
			for tail := 0; tail <= 9; tail++ {
				// 20 literal bytes, one copy, then tail literal bytes.
				tags := append(lit(20), cp(length, offset)...)
				if tail > 0 {
					tags = append(tags, lit(tail)...)
				}
				out = append(out, build(20+length+tail, tags...))
			}
		}
	}
	for n := 1; n <= 17; n++ { // a short literal that ends the block
		out = append(out, build(20+n, append(lit(20), lit(n)...)...))
	}
	return out
}

func TestDecodeMatchesReferenceAtTheSeams(t *testing.T) {
	for _, b := range kernelEdgeBlocks() {
		decodeBoth(t, b)
		if _, err := Decode(b); err != nil {
			t.Fatalf("hand-built block %x rejected: %v", b, err)
		}
	}
	for _, src := range textBlocks(t, 4, 32<<10) {
		decodeBoth(t, Encode(src))
	}
}

// FuzzDecodeMatchesReference feeds arbitrary tag streams to the kernel and to
// the reference loop: the same bytes or an error from both, never a panic.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, b := range kernelEdgeBlocks() {
		f.Add(b)
	}
	f.Add(Encode(bytes.Repeat([]byte("abcdefghij"), 100)))
	f.Add(Encode(make([]byte, 300)))
	f.Add(hugeHeader)
	f.Fuzz(func(t *testing.T, block []byte) {
		decodeBoth(t, block)
	})
}

// resumeBoth decodes block once with DecodeInto and once in the steps given
// (each byte of steps asks for that many bytes past what is already there, zero
// included), and fails unless resuming is the full decode cut into pieces: the
// same bytes, a prefix that never changes once returned, an error from some
// step when and only when the full decode errs, and nothing written outside
// dst.
func resumeBoth(t *testing.T, block, steps []byte) {
	t.Helper()
	n, lenErr := DecodedLen(block)
	if lenErr != nil {
		// Nothing is sized from such a header: the caller's buffer is the
		// only length there is, and it does not match.
		if _, _, err := DecodeResume(make([]byte, 16), block, 0, 0, 1); err == nil {
			t.Fatal("DecodeResume accepted a block DecodedLen rejects")
		}
		return
	}
	full, fullErr := DecodeInto(make([]byte, n), block)
	const guard = 0xa5
	buf := bytes.Repeat([]byte{guard}, n+32)
	dst := buf[:n:n]
	s, d := 0, 0
	step := func(want int) bool {
		before := append([]byte(nil), dst[:d]...)
		ns, nd, err := DecodeResume(dst, block, s, d, want)
		if !bytes.Equal(dst[:d], before) {
			t.Fatalf("bytes [0,%d) changed after they were returned", d)
		}
		if bytes.Count(buf[n:], []byte{guard}) != 32 {
			t.Fatal("DecodeResume wrote past len(dst)")
		}
		if err != nil {
			if fullErr == nil {
				t.Fatalf("resume to %d failed where the full decode succeeds: %v", want, err)
			}
			if ns != s || nd != d {
				t.Fatalf("failed call moved the positions (%d,%d) -> (%d,%d)", s, d, ns, nd)
			}
			return false
		}
		if nd < d || nd < want && nd < n {
			t.Fatalf("asked for %d of %d bytes from %d, got %d", want, n, d, nd)
		}
		if fullErr == nil && !bytes.Equal(dst[:nd], full[:nd]) {
			t.Fatalf("resumed bytes [0,%d) differ from the full decode's", nd)
		}
		s, d = ns, nd
		return true
	}
	for _, by := range steps {
		if !step(d + int(by)) {
			return
		}
	}
	if step(n) && fullErr != nil {
		t.Fatalf("resumed decode accepted a block the full decode rejects: %v", fullErr)
	}
}

func TestDecodeResumeAtTheSeams(t *testing.T) {
	for _, b := range kernelEdgeBlocks() {
		for by := 0; by < 24; by++ {
			resumeBoth(t, b, bytes.Repeat([]byte{byte(by)}, len(b)))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, src := range textBlocks(t, 4, 32<<10) {
		steps := make([]byte, 400)
		rng.Read(steps)
		resumeBoth(t, Encode(src), steps)
		resumeBoth(t, Encode(src), nil)
	}
	// Tags behind the block's last byte are the full decode's error, so they
	// are the error of whichever call gets to the end.
	lit20 := append([]byte{19 << 2}, "abcdefghijklmnopqrst"...)
	long := append(append(append([]byte{40}, lit20...), lit20...), 0x00, 'x')
	resumeBoth(t, long, []byte{3, 3})
	if _, err := DecodeInto(make([]byte, 40), long); err == nil {
		t.Fatal("full decode accepted tags behind the last byte")
	}
	if s, d, err := DecodeResume(make([]byte, 40), long, 0, 0, 4); err != nil || d != 20 {
		t.Fatalf("a frame in front of the damage: (%d,%d) %v", s, d, err)
	}
}

// FuzzDecodeResume cuts the decode of arbitrary tag streams at arbitrary
// points and holds the pieces to DecodeInto.
func FuzzDecodeResume(f *testing.F) {
	for _, b := range kernelEdgeBlocks() {
		f.Add(b, []byte{0, 1, 7, 8, 9, 16})
	}
	f.Add(Encode(bytes.Repeat([]byte("abcdefghij"), 100)), []byte{255, 0, 255})
	f.Add(Encode(make([]byte, 300)), []byte{1, 1, 1, 1})
	f.Add([]byte{0x05, 0x00, 0xff}, []byte{1})
	f.Add(hugeHeader, []byte{1})
	f.Fuzz(resumeBoth)
}

var benchSink []byte

// The codec benchmarks run on what the store compresses: 32 KiB blocks of
// workload records, ratio about 0.46. (One repeated sentence compresses to
// 0.02 and flatters both directions 2.4-2.8x.)
func BenchmarkEncodeText(b *testing.B) {
	blocks := textBlocks(b, 32, 32<<10)
	dst := make([]byte, 0, MaxEncodedLen(32<<10))
	b.SetBytes(32 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = AppendEncode(dst, blocks[i%len(blocks)])
	}
}

func BenchmarkDecodeText(b *testing.B) {
	blocks := textBlocks(b, 32, 32<<10)
	packed := make([][]byte, len(blocks))
	var in, out int
	for i, blk := range blocks {
		packed[i] = Encode(blk)
		in, out = in+len(blk), out+len(packed[i])
	}
	dst := make([]byte, 32<<10)
	b.ReportMetric(float64(out)/float64(in), "ratio")
	b.SetBytes(32 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = DecodeInto(dst, packed[i%len(packed)]); err != nil {
			b.Fatal(err)
		}
	}
}
