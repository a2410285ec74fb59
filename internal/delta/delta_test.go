package delta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeText produces compressible, text-like data.
func makeText(rng *rand.Rand, n int) []byte {
	words := []string{"the", "record", "database", "version", "of", "and",
		"revision", "content", "chunk", "update", "a", "delta", "page",
		"storage", "replica", "query", "index", "value", "field"}
	var buf bytes.Buffer
	for buf.Len() < n {
		buf.WriteString(words[rng.Intn(len(words))])
		buf.WriteByte(' ')
	}
	return buf.Bytes()[:n]
}

// edit applies k small dispersed edits (the paper's characterisation of
// database-record mutations: 10s-100s of bytes, spread out).
func edit(rng *rand.Rand, data []byte, k int) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < k; i++ {
		switch rng.Intn(3) {
		case 0: // overwrite
			if len(out) < 20 {
				continue
			}
			pos := rng.Intn(len(out) - 16)
			copy(out[pos:], makeText(rng, 8+rng.Intn(8)))
		case 1: // insert
			pos := rng.Intn(len(out) + 1)
			ins := makeText(rng, 10+rng.Intn(40))
			out = append(out[:pos:pos], append(ins, out[pos:]...)...)
		case 2: // delete
			if len(out) < 64 {
				continue
			}
			pos := rng.Intn(len(out) - 40)
			n := 10 + rng.Intn(30)
			out = append(out[:pos:pos], out[pos+n:]...)
		}
	}
	return out
}

func TestCompressApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		src := makeText(rng, 100+rng.Intn(8000))
		tgt := edit(rng, src, 1+rng.Intn(10))
		for _, interval := range []int{1, 16, 64, 128} {
			d := Compress(src, tgt, Options{AnchorInterval: interval})
			got, err := Apply(src, d)
			if err != nil {
				t.Fatalf("trial %d interval %d: %v", trial, interval, err)
			}
			if !bytes.Equal(got, tgt) {
				t.Fatalf("trial %d interval %d: reconstruction mismatch", trial, interval)
			}
		}
	}
}

func TestCompressApplyRandomInputs(t *testing.T) {
	// Totally unrelated random buffers: must still round-trip (delta will
	// be mostly INSERT).
	f := func(src, tgt []byte) bool {
		d := Compress(src, tgt, Options{})
		got, err := Apply(src, d)
		return err == nil && bytes.Equal(got, tgt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestXDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		src := makeText(rng, 100+rng.Intn(8000))
		tgt := edit(rng, src, 1+rng.Intn(10))
		d := CompressXDelta(src, tgt)
		got, err := Apply(src, d)
		if err != nil || !bytes.Equal(got, tgt) {
			t.Fatalf("trial %d: xdelta round trip failed: %v", trial, err)
		}
	}
}

func TestReencodeRoundTrip(t *testing.T) {
	// The defining property of two-way encoding: the backward delta
	// derived from the forward delta reconstructs the source from the
	// target exactly.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		src := makeText(rng, 50+rng.Intn(8000))
		tgt := edit(rng, src, 1+rng.Intn(12))
		fwd := Compress(src, tgt, Options{})
		bwd := Reencode(src, tgt, fwd)
		got, err := Apply(tgt, bwd)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("trial %d: backward reconstruction mismatch", trial)
		}
	}
}

func TestReencodeRandomInputs(t *testing.T) {
	f := func(src, tgt []byte) bool {
		fwd := Compress(src, tgt, Options{})
		bwd := Reencode(src, tgt, fwd)
		got, err := Apply(tgt, bwd)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReencodeCompressionComparable(t *testing.T) {
	// Backward deltas from re-encoding may be slightly larger than a
	// from-scratch backward encoding, but must stay in the same ballpark
	// (the paper accepts "slightly sub-optimal" for memory-speed
	// transform).
	rng := rand.New(rand.NewSource(4))
	var re, scratch int
	for trial := 0; trial < 30; trial++ {
		src := makeText(rng, 4096)
		tgt := edit(rng, src, 5)
		fwd := Compress(src, tgt, Options{})
		re += Reencode(src, tgt, fwd).EncodedSize()
		scratch += Compress(tgt, src, Options{}).EncodedSize()
	}
	if re > scratch*3/2 {
		t.Errorf("re-encoded deltas total %d bytes vs %d from scratch (>1.5x)", re, scratch)
	}
}

func TestCompressionEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := makeText(rng, 8192)
	tgt := edit(rng, src, 4)
	d := Compress(src, tgt, Options{})
	if sz := d.EncodedSize(); sz > len(tgt)/4 {
		t.Errorf("delta of lightly edited 8KB record is %d bytes, want < %d", sz, len(tgt)/4)
	}
	if cb := d.CopiedBytes(); cb < len(tgt)*3/4 {
		t.Errorf("only %d/%d bytes copied from source", cb, len(tgt))
	}
}

func TestIdenticalInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := makeText(rng, 4096)
	d := Compress(data, data, Options{})
	if sz := d.EncodedSize(); sz > 64 {
		t.Errorf("self-delta is %d bytes, want tiny", sz)
	}
	got, err := Apply(data, d)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("self-delta did not round trip")
	}
}

func TestSmallAndEmptyInputs(t *testing.T) {
	cases := []struct{ src, tgt []byte }{
		{nil, nil},
		{nil, []byte("x")},
		{[]byte("x"), nil},
		{[]byte("short"), []byte("also short")},
		{[]byte("0123456789abcdef"), []byte("0123456789abcdef")}, // exactly one window
	}
	for i, c := range cases {
		d := Compress(c.src, c.tgt, Options{})
		got, err := Apply(c.src, d)
		if err != nil || !bytes.Equal(got, c.tgt) {
			t.Errorf("case %d: forward round trip failed: %v", i, err)
		}
		bwd := Reencode(c.src, c.tgt, d)
		got, err = Apply(c.tgt, bwd)
		if err != nil || !bytes.Equal(got, c.src) {
			t.Errorf("case %d: backward round trip failed: %v", i, err)
		}
	}
}

func TestAnchorIntervalTradeoff(t *testing.T) {
	// Larger anchor intervals must not catastrophically lose compression
	// on the versioned-record workload (Fig. 15: 7% loss at 64, 15% at
	// 128 relative to 16).
	rng := rand.New(rand.NewSource(7))
	sizes := map[int]int{}
	for trial := 0; trial < 40; trial++ {
		src := makeText(rng, 8192)
		tgt := edit(rng, src, 6)
		for _, interval := range []int{16, 64, 128} {
			sizes[interval] += Compress(src, tgt, Options{AnchorInterval: interval}).EncodedSize()
		}
	}
	if sizes[64] > sizes[16]*2 {
		t.Errorf("interval 64 deltas (%d B) more than 2x interval 16 (%d B)", sizes[64], sizes[16])
	}
	if sizes[128] > sizes[16]*3 {
		t.Errorf("interval 128 deltas (%d B) more than 3x interval 16 (%d B)", sizes[128], sizes[16])
	}
}

func TestCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := makeText(rng, 4096)
	tgt := edit(rng, src, 3)
	d := Compress(src, tgt, Options{})
	for i := 1; i < len(d.Insts); i++ {
		prev, cur := d.Insts[i-1], d.Insts[i]
		if prev.Op == OpInsert && cur.Op == OpInsert {
			t.Fatal("adjacent INSERT instructions not coalesced")
		}
		if prev.Op == OpCopy && cur.Op == OpCopy && prev.Off+prev.Len == cur.Off {
			t.Fatal("adjacent contiguous COPY instructions not coalesced")
		}
	}
	for _, inst := range d.Insts {
		if inst.Op == OpCopy && inst.Len < minCopyLen {
			t.Fatalf("COPY of %d bytes emitted; minimum is %d", inst.Len, minCopyLen)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		src := makeText(rng, 100+rng.Intn(4000))
		tgt := edit(rng, src, 1+rng.Intn(8))
		d := Compress(src, tgt, Options{})

		buf := d.Marshal()
		if len(buf) != d.EncodedSize() {
			t.Fatalf("EncodedSize %d != len(Marshal) %d", d.EncodedSize(), len(buf))
		}
		prefix := []byte("prefix")
		if got := d.AppendMarshal(prefix); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], buf) {
			t.Fatal("AppendMarshal(prefix) is not prefix followed by Marshal's bytes")
		}
		d2, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		got, err := Apply(src, d2)
		if err != nil || !bytes.Equal(got, tgt) {
			t.Fatal("unmarshalled delta did not reconstruct target")
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := makeText(rng, 1024)
	tgt := edit(rng, src, 2)
	good := Compress(src, tgt, Options{}).Marshal()

	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0xd5},
		{0xd5, 0x99},                            // bad version
		good[:len(good)/2],                      // truncated
		append(append([]byte{}, good...), 0xff), // trailing garbage
	}
	for i, buf := range cases {
		if _, err := Unmarshal(buf); err == nil {
			t.Errorf("case %d: Unmarshal accepted corrupt input", i)
		}
	}
	// Flip each byte of a small delta; Unmarshal must never panic, and
	// Apply on whatever parses must never read out of bounds.
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x5a
		d, err := Unmarshal(mut)
		if err != nil {
			continue
		}
		_, _ = Apply(src, d) // must not panic
	}
}

func TestApplyValidation(t *testing.T) {
	src := []byte("0123456789")
	bad := []Delta{
		{Insts: []Instruction{{Op: OpCopy, Off: 5, Len: 10}}, TargetLen: 10},
		{Insts: []Instruction{{Op: OpCopy, Off: -1, Len: 2}}, TargetLen: 2},
		{Insts: []Instruction{{Op: Op(9), Len: 1}}, TargetLen: 1},
		{Insts: []Instruction{{Op: OpInsert, Len: 3, Data: []byte("xy")}}, TargetLen: 3},
		{Insts: []Instruction{{Op: OpCopy, Off: 0, Len: 2}}, TargetLen: 5},
	}
	for i, d := range bad {
		if _, err := Apply(src, d); err == nil {
			t.Errorf("case %d: Apply accepted invalid delta", i)
		}
	}
}

func TestDeltaDirectionAsymmetry(t *testing.T) {
	// Sanity on two-way encoding semantics: forward delta applied to src
	// gives tgt; backward applied to tgt gives src; crossing them fails
	// to reproduce the other object (they are not interchangeable).
	rng := rand.New(rand.NewSource(11))
	src := makeText(rng, 2048)
	tgt := edit(rng, src, 5)
	if bytes.Equal(src, tgt) {
		t.Skip("edit produced identical data")
	}
	fwd := Compress(src, tgt, Options{})
	bwd := Reencode(src, tgt, fwd)
	if got, err := Apply(tgt, fwd); err == nil && bytes.Equal(got, src) {
		t.Error("forward delta applied to target reproduced source; directions are degenerate")
	}
	if got, err := Apply(src, bwd); err == nil && bytes.Equal(got, tgt) {
		t.Error("backward delta applied to source reproduced target; directions are degenerate")
	}
}

func BenchmarkCompressAnchor16(b *testing.B)  { benchCompress(b, 16) }
func BenchmarkCompressAnchor64(b *testing.B)  { benchCompress(b, 64) }
func BenchmarkCompressAnchor128(b *testing.B) { benchCompress(b, 128) }

func benchCompress(b *testing.B, interval int) {
	rng := rand.New(rand.NewSource(1))
	src := makeText(rng, 16*1024)
	tgt := edit(rng, src, 8)
	b.SetBytes(int64(len(tgt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(src, tgt, Options{AnchorInterval: interval})
	}
}

func BenchmarkCompressXDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := makeText(rng, 16*1024)
	tgt := edit(rng, src, 8)
	b.SetBytes(int64(len(tgt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressXDelta(src, tgt)
	}
}

func BenchmarkReencode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := makeText(rng, 16*1024)
	tgt := edit(rng, src, 8)
	fwd := Compress(src, tgt, Options{})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reencode(src, tgt, fwd)
	}
}

func BenchmarkApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := makeText(rng, 16*1024)
	tgt := edit(rng, src, 8)
	d := Compress(src, tgt, Options{})
	b.SetBytes(int64(len(tgt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(src, d); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeriodicContentStillCompresses(t *testing.T) {
	// Perfectly periodic content leaves the rolling state with only
	// period-many distinct values, which can starve anchor selection
	// entirely; the densification fallback must kick in (regression for
	// the strings.Repeat pathology).
	src := bytes.Repeat([]byte("All database records deserve deduplication. "), 200)
	tgt := append(append([]byte{}, src...), []byte("And one appended sentence at the end.")...)
	copy(tgt[1000:], "EDITED")
	for _, interval := range []int{16, 64, 128} {
		d := Compress(src, tgt, Options{AnchorInterval: interval})
		got, err := Apply(src, d)
		if err != nil || !bytes.Equal(got, tgt) {
			t.Fatalf("interval %d: round trip failed: %v", interval, err)
		}
		if d.EncodedSize() > len(tgt)/10 {
			t.Errorf("interval %d: periodic content delta is %d bytes for %d-byte target",
				interval, d.EncodedSize(), len(tgt))
		}
	}
}

func TestZeroBytesCompress(t *testing.T) {
	src := make([]byte, 8192)
	tgt := make([]byte, 8300)
	d := Compress(src, tgt, Options{})
	got, err := Apply(src, d)
	if err != nil || !bytes.Equal(got, tgt) {
		t.Fatalf("all-zero round trip failed: %v", err)
	}
	if d.EncodedSize() > 1024 {
		t.Errorf("all-zero delta is %d bytes", d.EncodedSize())
	}
}

func TestUnmarshalArbitraryBytesNeverPanics(t *testing.T) {
	f := func(buf []byte) bool {
		d, err := Unmarshal(buf)
		if err != nil {
			return true
		}
		// Whatever parses must be safely appliable (errors allowed,
		// panics not).
		_, _ = Apply([]byte("some base data for the fuzzed delta"), d)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
