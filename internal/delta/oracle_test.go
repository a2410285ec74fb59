package delta

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dbdedup/internal/workload"
)

// oracleIntervals are the anchor intervals the oracle checks: every power of
// two from probing each offset to the sparsest the experiments sweep.
var oracleIntervals = []int{1, 2, 4, 8, 16, 32, 64, 128}

// matchReference fails t unless both encoders produce the reference
// encoders' marshalled bytes and index-operation counts on (src, tgt) at
// every oracle interval, and the anchor-list path does at the default one.
func matchReference(t *testing.T, src, tgt []byte) {
	t.Helper()
	matchReferenceAnchored(t, src, tgt)
	for _, iv := range oracleIntervals {
		got, gst := CompressWithStats(src, tgt, Options{AnchorInterval: iv})
		want, wst := referenceCompress(src, tgt, iv)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("interval %d: delta differs from the reference (%d vs %d bytes, src %d, tgt %d)",
				iv, got.EncodedSize(), want.EncodedSize(), len(src), len(tgt))
		}
		if gst != wst {
			t.Fatalf("interval %d: stats %+v, reference %+v", iv, gst, wst)
		}
	}
	got, gst := CompressXDeltaWithStats(src, tgt)
	want, wst := referenceXDelta(src, tgt)
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatalf("xDelta: delta differs from the reference (%d vs %d bytes)", got.EncodedSize(), want.EncodedSize())
	}
	if gst != wst {
		t.Fatalf("xDelta: stats %+v, reference %+v", gst, wst)
	}
}

// matchReferenceAnchored fails t unless CompressAnchored, handed src's
// reference anchor list or none, produces the reference encoder's bytes and
// counts at the default interval and lists exactly tgt's reference anchors,
// and lists none when pass 1 densified or an input is shorter than a window.
func matchReferenceAnchored(t *testing.T, src, tgt []byte) {
	t.Helper()
	want, wst := referenceCompress(src, tgt, DefaultAnchorInterval)
	srcList := referenceAnchors(src)
	listed := len(src) >= windowSize && len(tgt) >= windowSize &&
		denseEnough(len(srcList), len(src), DefaultAnchorInterval)
	for _, given := range []Anchors{nil, srcList} {
		got, gst, list := compress(src, given, tgt, Options{}, true)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("source list given %v: delta differs from the reference (%d vs %d bytes, src %d, tgt %d)",
				given != nil, got.EncodedSize(), want.EncodedSize(), len(src), len(tgt))
		}
		if gst != wst {
			t.Fatalf("source list given %v: stats %+v, reference %+v", given != nil, gst, wst)
		}
		if !listed {
			if list != nil {
				t.Fatalf("source list given %v: listed %d target anchors where none can be derived", given != nil, len(list))
			}
			continue
		}
		if wantList := referenceAnchors(tgt); list == nil || !slices.Equal(list, wantList) {
			t.Fatalf("source list given %v: target list of %d anchors, reference %d", given != nil, len(list), len(wantList))
		}
	}
}

// FuzzCompressMatchesReference holds the encoders to the reference encoders
// byte for byte. The periodic and all-zero seeds starve anchor selection and
// take the densification retry.
func FuzzCompressMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	text := makeText(rng, 1024)
	f.Add(text, edit(rng, text, 8))
	f.Add([]byte("the quick brown fox"), []byte("the quick red fox jumps"))
	f.Add([]byte{}, []byte("only target"))
	f.Add(make([]byte, 15), make([]byte, 16))
	periodic := bytes.Repeat([]byte("All database records deserve deduplication. "), 24)
	f.Add(periodic, append(append([]byte{}, periodic...), "And one more."...))
	f.Add(make([]byte, 1024), make([]byte, 1100))
	f.Add(bytes.Repeat([]byte("ab"), 300), bytes.Repeat([]byte("ba"), 301))
	f.Fuzz(func(t *testing.T, src, tgt []byte) {
		matchReference(t, src, tgt)
	})
}

// FuzzCompressAnchoredMatchesPass1 runs the engine's chain a → b → c: the
// list the first encode emits for b indexes b for the second, whose delta and
// emitted list must equal those of the encode that rolls b itself, and
// Compress's delta.
func FuzzCompressAnchoredMatchesPass1(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	a := makeText(rng, 2048)
	b := edit(rng, a, 6)
	f.Add(a, b, edit(rng, b, 6))
	f.Add(a, a, a)
	f.Add([]byte("short"), b, a)
	periodic := bytes.Repeat([]byte("All database records deserve deduplication. "), 24)
	f.Add(a, periodic, append(append([]byte{}, periodic...), a[:300]...))
	f.Add(make([]byte, 1024), make([]byte, 1100), make([]byte, 900))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		_, listB := CompressAnchored(a, nil, b, Options{})
		if listB != nil && !slices.Equal(listB, referenceAnchors(b)) {
			t.Fatalf("first encode listed %d anchors of b, reference %d", len(listB), len(referenceAnchors(b)))
		}
		want := Compress(b, c, Options{})
		got, list := CompressAnchored(b, listB, c, Options{})
		rolled, rolledList := CompressAnchored(b, nil, c, Options{})
		if !bytes.Equal(got.Marshal(), want.Marshal()) || !bytes.Equal(rolled.Marshal(), want.Marshal()) {
			t.Fatalf("deltas differ: listed %d, rolled %d, Compress %d bytes",
				got.EncodedSize(), rolled.EncodedSize(), want.EncodedSize())
		}
		if !slices.Equal(list, rolledList) || (list == nil) != (rolledList == nil) {
			t.Fatalf("emitted lists differ: %d from b's list, %d from rolling b", len(list), len(rolledList))
		}
	})
}

// revisionPairs returns consecutive revisions of one document from every
// internal/workload kind at seed 1: each record paired with the previous
// record of its document (the key up to its first '/' or '_'). Records over
// 16 KiB are left out, as the repository benchmark leaves them out.
func revisionPairs(bytesPerKind int64) [][2][]byte {
	var pairs [][2][]byte
	for _, kind := range workload.Kinds {
		latest := make(map[string][]byte)
		recs := workload.New(workload.Config{Kind: kind, Seed: 1, InsertBytes: bytesPerKind}).Records()
		for _, r := range recs {
			if len(r.Payload) > 16<<10 {
				continue
			}
			doc := r.Key
			if i := strings.IndexAny(doc, "/_"); i >= 0 {
				doc = doc[:i]
			}
			if prev, ok := latest[doc]; ok {
				pairs = append(pairs, [2][]byte{prev, r.Payload})
			}
			latest[doc] = r.Payload
		}
	}
	return pairs
}

func TestCompressMatchesReferenceOnRevisionPairs(t *testing.T) {
	size := int64(1 << 20)
	if testing.Short() {
		size = 256 << 10
	}
	pairs := revisionPairs(size)
	if len(pairs) < 100 {
		t.Fatalf("only %d revision pairs", len(pairs))
	}
	for _, p := range pairs {
		matchReference(t, p[0], p[1])
		matchReference(t, p[1], p[0]) // the hop write-back direction
	}
}

// BenchmarkCompressRevisionPairs encodes consecutive revisions of one
// document, all four workload kinds, at the default anchor interval; one op
// is one pair.
func BenchmarkCompressRevisionPairs(b *testing.B) {
	pairs := revisionPairs(4 << 20)
	var n int64
	for _, p := range pairs {
		n += int64(len(p[1]))
	}
	b.SetBytes(n / int64(len(pairs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		benchDelta, _ = CompressWithStats(p[0], p[1], Options{})
	}
}

var benchDelta Delta

// BenchmarkCompressRevisionChain is the engine's encode of an insert on a
// revision chain: the source is the previous revision, the target the new
// one. "rolled" runs Compress, whose pass 1 rolls the source; "listed" runs
// CompressAnchored with the source's anchor list, as the source cache keeps
// it, and pays for listing the target. One op is one insert.
func BenchmarkCompressRevisionChain(b *testing.B) {
	pairs := revisionPairs(4 << 20)
	lists := make([]Anchors, len(pairs))
	var n int64
	for i, p := range pairs {
		lists[i] = referenceAnchors(p[0])
		n += int64(len(p[1]))
	}
	b.Run("rolled", func(b *testing.B) {
		b.SetBytes(n / int64(len(pairs)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			benchDelta = Compress(p[0], p[1], Options{})
		}
	})
	b.Run("listed", func(b *testing.B) {
		b.SetBytes(n / int64(len(pairs)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(pairs)
			benchDelta, _ = CompressAnchored(pairs[k][0], lists[k], pairs[k][1], Options{})
		}
	})
}
