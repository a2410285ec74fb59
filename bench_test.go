// Ablation benchmarks (DESIGN.md §5): the two design choices whose
// alternative exists only to be measured against.
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures are `dedupbench -experiment <name>` with
// their shapes asserted in internal/experiments; insert, read and
// replica-apply cost on the real path is `bash benchmark/run.sh`.
package dbdedup

import (
	"testing"

	"dbdedup/internal/core"
	"dbdedup/internal/delta"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// BenchmarkAblationSampling compares consistent vs random feature sampling
// end to end: random sampling characterises similarity worse, so the engine
// finds fewer/worse sources and the storage ratio drops.
func BenchmarkAblationSampling(b *testing.B) {
	for _, mode := range []struct {
		name   string
		random bool
	}{{"consistent", false}, {"random", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := node.Open(node.Options{
					SyncEncode: true, DisableAutoFlush: true,
					Engine: core.Config{
						GovernorWindow: 1 << 30,
						SampleRandomly: mode.random,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: 1, InsertBytes: 2 << 20})
				var raw int64
				for {
					op, ok := tr.Next()
					if !ok {
						break
					}
					if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
						b.Fatal(err)
					}
					raw += int64(len(op.Payload))
					if n.PendingWritebacks() > 128 {
						n.FlushWritebacks(-1)
					}
				}
				n.FlushWritebacks(-1)
				if i == b.N-1 {
					st := n.Stats()
					b.ReportMetric(float64(raw)/float64(st.Store.LogicalBytes), "ratio-x")
					b.ReportMetric(float64(st.Engine.Deduped), "dedup-hits")
				}
				n.Close()
			}
		})
	}
}

// BenchmarkAblationReencode compares Algorithm-2 re-encoding against a
// from-scratch second compression pass for producing backward deltas.
func BenchmarkAblationReencode(b *testing.B) {
	recs := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: 1, InsertBytes: 2 << 20}).Records()
	latest := map[string][]byte{}
	var pairs []benchPair
	for _, r := range recs {
		a := r.Key[:7]
		if prev, ok := latest[a]; ok {
			pairs = append(pairs, benchPair{prev, r.Payload})
		}
		latest[a] = r.Payload
	}
	b.Run("reencode", func(b *testing.B) { benchBackward(b, pairs, true) })
	b.Run("scratch", func(b *testing.B) { benchBackward(b, pairs, false) })
}

// benchPair is one (source, target) revision pair.
type benchPair struct{ src, tgt []byte }

// benchBackward measures the cost of producing backward deltas either via
// Algorithm-2 re-encoding of the forward delta or via a from-scratch second
// compression pass (the ablation of DESIGN.md §5).
func benchBackward(b *testing.B, pairs []benchPair, reencode bool) {
	if len(pairs) == 0 {
		b.Skip("no pairs")
	}
	var total int64
	for _, p := range pairs {
		total += int64(len(p.src))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bwdBytes int64
		for _, p := range pairs {
			fwd := delta.Compress(p.src, p.tgt, delta.Options{})
			var bwd delta.Delta
			if reencode {
				bwd = delta.Reencode(p.src, p.tgt, fwd)
			} else {
				bwd = delta.Compress(p.tgt, p.src, delta.Options{})
			}
			bwdBytes += int64(bwd.EncodedSize())
		}
		if i == b.N-1 {
			b.ReportMetric(float64(bwdBytes)/float64(len(pairs)), "bwd-B/pair")
		}
	}
}
