package sketch

import (
	"bytes"
	"slices"
	"testing"

	"dbdedup/internal/chunker"
	"dbdedup/internal/murmur"
	"dbdedup/internal/workload"
)

// referenceExtract is consistent sampling the straightforward way: hash every
// chunk, sort the hashes descending, drop repeats and keep the first K.
// ExtractInto must select exactly these features, in this order.
func referenceExtract(e *Extractor, record []byte) Sketch {
	if len(record) == 0 {
		return nil
	}
	var hashes []uint64
	for _, c := range e.chunker.Chunks(record, nil) {
		hashes = append(hashes, murmur.Sum64(record[c.Offset:c.Offset+c.Length], e.seed))
	}
	slices.Sort(hashes)
	slices.Reverse(hashes)
	hashes = slices.Compact(hashes)
	var out Sketch
	for _, h := range hashes[:min(len(hashes), e.k)] {
		out = append(out, Feature(h))
	}
	return out
}

func TestExtractMatchesReferenceOnWorkloadRecords(t *testing.T) {
	size := int64(512 << 10)
	if testing.Short() {
		size = 128 << 10
	}
	var recs [][]byte
	for _, kind := range workload.Kinds {
		for _, r := range workload.New(workload.Config{Kind: kind, Seed: 1, InsertBytes: size}).Records() {
			recs = append(recs, r.Payload)
		}
	}
	// Records whose chunks repeat exercise the distinct check.
	recs = append(recs, bytes.Repeat([]byte("the same sentence, chunk after chunk. "), 200), make([]byte, 5000))
	for _, avg := range []int{64, 1024} {
		for _, k := range []int{1, 4, 8, 16} {
			e := NewExtractor(Config{K: k, ChunkAvgSize: avg, Chunker: chunker.Gear})
			dst := make(Sketch, 0, 1) // grows: capacity below K must not matter
			for i, rec := range recs {
				want := referenceExtract(e, rec)
				dst = e.ExtractInto(dst, rec)
				if !slices.Equal(dst, want) {
					t.Fatalf("avg %d, K %d, record %d (%d B): features %x, reference %x",
						avg, k, i, len(rec), dst, want)
				}
			}
		}
	}
}
