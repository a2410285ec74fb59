package delta

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dbdedup/internal/workload"
)

// oracleIntervals are the anchor intervals the oracle checks: every power of
// two from probing each offset to the sparsest the experiments sweep.
var oracleIntervals = []int{1, 2, 4, 8, 16, 32, 64, 128}

// matchReference fails t unless both encoders produce the reference
// encoders' marshalled bytes and index-operation counts on (src, tgt) at
// every oracle interval.
func matchReference(t *testing.T, src, tgt []byte) {
	t.Helper()
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
