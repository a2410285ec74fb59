package blockcomp

import (
	"bytes"
	"fmt"
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
	for offset := 1; offset <= 17; offset++ {
		for _, length := range []int{4, 7, 8, 9, 15, 16, 17, 67} {
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

// dictCases pairs dictionaries with blocks as a store meets them: the bytes a
// segment began with and a small block from further on in the same stream
// (matches in the dictionary, in the block itself, and across the seam), plus
// the degenerate shapes.
func dictCases(tb testing.TB) (cases [][2][]byte) {
	tb.Helper()
	stream := textBlocks(tb, 1, 256<<10)[0]
	for _, blockLen := range []int{100, 1 << 10, 4 << 10, 6000, 40 << 10, 80 << 10} {
		for _, dictLen := range []int{0, 3, 4, 500, 32 << 10} {
			cases = append(cases, [2][]byte{stream[:dictLen], stream[100<<10 : 100<<10+blockLen]})
		}
	}
	rng := rand.New(rand.NewSource(29))
	noise := make([]byte, 5000)
	rng.Read(noise)
	cases = append(cases,
		[2][]byte{noise, noise},                                         // the block is the dictionary
		[2][]byte{noise, noise[4990:]},                                  // shorter than a match
		[2][]byte{noise[:1000], append(noise[900:1000:1000], noise...)}, // a match that runs to the dictionary's end and goes on in the block
		[2][]byte{stream[:50<<10], stream[20<<10 : 24<<10]},             // only the dictionary's last MaxDictLen bytes count
		[2][]byte{bytes.Repeat([]byte("ab"), 300), bytes.Repeat([]byte("ab"), 300)},
		[2][]byte{make([]byte, 64), make([]byte, 64)},
	)
	return cases
}

// TestEncodeDictByteIdentical holds the dictionary encoder to the
// byte-at-a-time one over dict‖src, and both decoders to the stream.
func TestEncodeDictByteIdentical(t *testing.T) {
	for i, c := range dictCases(t) {
		dict, src := c[0], c[1]
		want := refAppendEncodeDict(nil, dict, src)
		got := AppendEncodeDict([]byte("prefix"), src, NewDict(dict))
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("case %d (dict %d, block %d bytes): encoded %d bytes, the reference encoder %d, or different ones",
				i, len(dict), len(src), len(got)-len("prefix"), len(want))
		}
		back, err := DecodeDict(make([]byte, len(src)), want, dict)
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("case %d: round trip: %v", i, err)
		}
		decodeDictBoth(t, want, dict)
	}
	// No dictionary is Encode, to the byte.
	src := textBlocks(t, 1, 32<<10)[0]
	if !bytes.Equal(AppendEncodeDict(nil, src, nil), refAppendEncode(nil, src)) {
		t.Fatal("AppendEncodeDict without a dictionary differs from Encode")
	}
}

// TestDictionaryGivesSmallBlocksTheirMatchesBack is why the dictionary
// exists. On undeduplicated workload text, where a 32 KiB block still holds
// near-copies of its own records, 4 KiB blocks alone lose most of what the
// large block saves and behind the stream's first 32 KiB they get more than
// half of it back. (On what the store seals, where dedup has taken the
// near-copies out first, they end up ahead: EXPERIMENTS.md, PR 29.)
func TestDictionaryGivesSmallBlocksTheirMatchesBack(t *testing.T) {
	blocks := textBlocks(t, 33, 32<<10)
	dict := NewDict(blocks[0])
	var large, small, behind int
	for _, b := range blocks[1:] {
		large += len(Encode(b))
		for off := 0; off < len(b); off += 4 << 10 {
			small += len(Encode(b[off : off+4<<10]))
			behind += len(AppendEncodeDict(nil, b[off:off+4<<10], dict))
		}
	}
	t.Logf("32 blocks of 32 KiB: %d bytes whole, %d as 4 KiB blocks, %d as 4 KiB blocks behind a dictionary", large, small, behind)
	if small < large*13/10 || behind > (large+small)/2 {
		t.Errorf("whole %d, small %d, behind a dictionary %d", large, small, behind)
	}
}

// FuzzEncodeDictMatchesReference holds the dictionary encoder to the
// byte-at-a-time parse over arbitrary dictionaries and blocks, and reads
// what it writes back behind the same dictionary.
func FuzzEncodeDictMatchesReference(f *testing.F) {
	for _, c := range dictCases(f) {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, dict, src []byte) {
		enc := AppendEncodeDict(nil, src, NewDict(dict))
		if want := refAppendEncodeDict(nil, dict, src); !bytes.Equal(enc, want) {
			t.Fatalf("dict %d, block %d bytes: encoded %d bytes, the reference encoder %d, or different ones",
				len(dict), len(src), len(enc), len(want))
		}
		back, err := DecodeDict(make([]byte, len(src)), enc, dict)
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("round trip behind a dictionary: %v", err)
		}
	})
}

// TestParseBeatsThe4ByteParse pins what the 5-byte hash and end-only seeding
// bought: each workload family's records, cut into 4 KiB blocks behind the
// family's first 32 KiB as the store seals them, take at most 0.99 of what
// the encoder's earlier parse wrote over all four families, and no family
// takes more.
func TestParseBeatsThe4ByteParse(t *testing.T) {
	const dictLen, blockLen = 32 << 10, 4 << 10
	var now, before int
	for i, kind := range workload.Kinds {
		tr := workload.New(workload.Config{Kind: kind, Seed: int64(20 + i), InsertBytes: 512 << 10})
		var stream []byte
		for _, op := range tr.Records() {
			stream = append(stream, op.Payload...)
		}
		dict := NewDict(stream[:dictLen])
		var n, b int
		for off := dictLen; off+blockLen <= len(stream); off += blockLen {
			blk := stream[off : off+blockLen]
			n += len(AppendEncodeDict(nil, blk, dict))
			b += len(parse4.encodeDict(nil, stream[:dictLen], blk))
		}
		t.Logf("%v: %d bytes, %d under the 4-byte parse (%.4f)", kind, n, b, float64(n)/float64(b))
		if n > b {
			t.Errorf("%v: %d bytes, more than the 4-byte parse's %d", kind, n, b)
		}
		now, before = now+n, before+b
	}
	if now*100 > before*99 {
		t.Errorf("all families: %d bytes, %.4f of the 4-byte parse's %d; want at most 0.99", now, float64(now)/float64(before), before)
	}
}

// decodeDictBoth runs the kernel and a byte-at-a-time oracle over one block
// and its dictionary: the same bytes or an error from both, and nothing
// written outside dst.
func decodeDictBoth(t *testing.T, block, dict []byte) {
	t.Helper()
	n, err := DecodedLen(block)
	if err != nil {
		return
	}
	const guard = 0xa5
	buf := bytes.Repeat([]byte{guard}, n+32)
	got, err := DecodeDict(buf[:n:n], block, dict)
	if bytes.Count(buf[n:], []byte{guard}) != 32 {
		t.Fatal("DecodeDict wrote past len(dst)")
	}
	// The oracle decodes dict‖block's output in one buffer, where a copy
	// into the dictionary is an ordinary copy.
	all := append(append([]byte(nil), dict...), make([]byte, n)...)
	refErr := refDecodeTags(all, len(dict), block)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("kernel error %v, oracle error %v", err, refErr)
	}
	if err == nil && !bytes.Equal(got, all[len(dict):]) {
		t.Fatal("kernel and oracle decode to different bytes")
	}
	if len(dict) == 0 {
		plain, plainErr := DecodeInto(make([]byte, n), block)
		if (plainErr == nil) != (err == nil) || err == nil && !bytes.Equal(plain, got) {
			t.Fatalf("an empty dictionary is not DecodeInto: %v / %v", err, plainErr)
		}
	}
}

// TestDecodeDictMatchesOracleAtTheSeams: copies that reach into the
// dictionary from every distance around the two-word move's seam, at every
// short length, with and without the block's slack behind them.
func TestDecodeDictMatchesOracleAtTheSeams(t *testing.T) {
	dict := []byte("0123456789abcdefghijklmnopqrstuv")
	for lead := 0; lead <= 9; lead += 9 {
		for back := 1; back <= 20; back++ {
			for length := minMatch; length <= 17; length++ {
				for tail := 0; tail <= 17; tail++ {
					tags := []byte{}
					if lead > 0 {
						tags = append(tags, byte(lead-1)<<2)
						tags = append(tags, dict[:lead]...)
					}
					tags = append(tags, byte(length-minMatch)<<2|tagCopy, byte(lead+back), 0)
					if tail > 0 {
						tags = append(tags, byte(tail-1)<<2)
						tags = append(tags, dict[:tail]...)
					}
					decodeDictBoth(t, append([]byte{byte(lead + length + tail)}, tags...), dict)
				}
			}
		}
	}
}

// FuzzDecodeDict feeds arbitrary tag streams and dictionaries to DecodeDict
// and to the oracle, and round-trips the fuzzer's bytes as a block behind
// the dictionary.
func FuzzDecodeDict(f *testing.F) {
	for _, b := range kernelEdgeBlocks() {
		f.Add(b, []byte("0123456789abcdefghij"))
	}
	for _, c := range dictCases(f)[:12] {
		f.Add(AppendEncodeDict(nil, c[1], NewDict(c[0])), c[0])
	}
	f.Add([]byte{8, 1<<2 | tagCopy, 3, 0, 3 << 2, 'w', 'x', 'y', 'z'}, []byte("abc")) // a copy across the seam
	f.Add(hugeHeader, []byte("abc"))
	f.Fuzz(func(t *testing.T, block, dict []byte) {
		decodeDictBoth(t, block, dict)
		decodeDictBoth(t, block, nil)
		enc := AppendEncodeDict(nil, block, NewDict(dict))
		if !bytes.Equal(enc, refAppendEncodeDict(nil, dict, block)) {
			t.Fatal("encoded bytes differ from the reference encoder's")
		}
		back, err := DecodeDict(make([]byte, len(block)), enc, dict)
		if err != nil || !bytes.Equal(back, block) {
			t.Fatalf("round trip behind a dictionary: %v", err)
		}
	})
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

// The same bytes as the store seals them since blocks became small: 4 KiB
// behind the first 32 KiB of the stream.
func BenchmarkEncodeDictText(b *testing.B) {
	blocks := textBlocks(b, 33, 32<<10)
	dict := NewDict(blocks[0])
	dst := make([]byte, 0, MaxEncodedLen(4<<10))
	b.SetBytes(4 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[1+i/8%32]
		benchSink = AppendEncodeDict(dst, blk[i%8*4<<10:][:4<<10], dict)
	}
}

// BenchmarkAppendEncodeDict encodes blocks of three sizes behind a 32 KiB
// dictionary. Each block starts from a copy of the dictionary's whole hash
// table (32 KiB) whatever its size, so the 16-byte block is about that copy
// alone, and its time over the 4 KiB block's is the copy's share of what the
// store pays to seal a block.
func BenchmarkAppendEncodeDict(b *testing.B) {
	blocks := textBlocks(b, 33, 32<<10)
	dict := NewDict(blocks[0])
	for _, size := range []int{16, 1 << 10, 4 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			dst := make([]byte, 0, MaxEncodedLen(size))
			per := (32 << 10) / size
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				blk := blocks[1+i/per%32]
				benchSink = AppendEncodeDict(dst, blk[i%per*size:][:size], dict)
			}
		})
	}
}

func BenchmarkDecodeDictText(b *testing.B) {
	blocks := textBlocks(b, 33, 32<<10)
	dict := NewDict(blocks[0])
	var packed [][]byte
	var out int
	for _, blk := range blocks[1:] {
		for off := 0; off < len(blk); off += 4 << 10 {
			packed = append(packed, AppendEncodeDict(nil, blk[off:off+4<<10], dict))
			out += len(packed[len(packed)-1])
		}
	}
	dst := make([]byte, 4<<10)
	b.ReportMetric(float64(out)/float64(32*32<<10), "ratio")
	b.SetBytes(4 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = DecodeDict(dst, packed[i%len(packed)], blocks[0]); err != nil {
			b.Fatal(err)
		}
	}
}
