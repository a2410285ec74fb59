package experiments

import (
	"testing"

	"dbdedup/internal/chunker"
	"dbdedup/internal/core"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// TestChunkerDedupRatioParity pins the contract that lets gear be the
// production chunker while the figures stay on rabin: swapping the chunking
// algorithm must not change the dedup ratios behind the fig-series results
// by more than 25% relative, at both paper chunk sizes. The gear defaults
// (warm-up, adaptive shift, equal masks — see internal/chunker/gear.go) were
// tuned until every cell here sits within a few percent of rabin at 8 MiB
// scale; the tolerance is wide only because this test runs at smallScale,
// where per-seed variance in a single cell reaches ~15%. The bound exists so
// a future chunker change cannot silently erode the headline compression
// figures.
func TestChunkerDedupRatioParity(t *testing.T) {
	const tolerance = 0.25

	ratio := func(alg chunker.Algorithm, kind workload.Kind, chunk int) float64 {
		t.Helper()
		// node.Open directly: openNode would pin rabin on both sides.
		n, err := node.Open(node.Options{
			Engine: core.Config{
				Chunker:        alg,
				ChunkAvgSize:   chunk,
				GovernorWindow: 1 << 30,
			},
			SyncEncode:       true,
			DisableAutoFlush: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		tr := workload.New(workload.Config{Kind: kind, Seed: smallScale.Seed, InsertBytes: smallScale.InsertBytes})
		raw, err := ingest(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		st := n.Stats()
		return float64(raw) / float64(max(st.Store.LogicalBytes, 1))
	}

	for _, kind := range []workload.Kind{workload.Wikipedia, workload.Enron} {
		for _, chunk := range []int{64, 1024} {
			rb := ratio(chunker.Rabin, kind, chunk)
			gr := ratio(chunker.Gear, kind, chunk)
			rel := (gr - rb) / rb
			t.Logf("%v/%dB: rabin %.3fx, gear %.3fx (%+.1f%%)", kind, chunk, rb, gr, rel*100)
			if rel < -tolerance || rel > tolerance {
				t.Errorf("%v/%dB: gear dedup ratio %.3fx vs rabin %.3fx — %.0f%% apart, tolerance %.0f%%",
					kind, chunk, gr, rb, rel*100, tolerance*100)
			}
			if rb <= 1.0 || gr <= 1.0 {
				t.Errorf("%v/%dB: dedup ratio not above 1.0 (rabin %.3f, gear %.3f)", kind, chunk, rb, gr)
			}
		}
	}
}
