package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dbdedup/internal/delta"
	"dbdedup/internal/workload"
)

// Fig15Row is one delta-compressor configuration.
type Fig15Row struct {
	// Config is "xDelta" or "anchor N".
	Config string
	// CompressionRatio is target-bytes / delta-bytes over the pair set.
	CompressionRatio float64
	// ThroughputMBps is the single-thread encode rate.
	ThroughputMBps float64
	// IndexOps is the total source-index puts+gets — the work the anchor
	// interval is designed to eliminate. This is the stable mechanism
	// metric; wall-clock throughput also depends on the work sampling
	// leaves alone: both compressors pass over the whole source, and the
	// target bytes a COPY covers are skipped, not probed (see
	// EXPERIMENTS.md).
	IndexOps int64
}

// Fig15Result holds the sweep.
type Fig15Result struct {
	Scale Scale
	Pairs int
	Rows  []Fig15Row
}

// Fig15Intervals is the anchor-interval sweep of Fig. 15.
var Fig15Intervals = []int{16, 32, 64, 128}

// RunFig15 reproduces Fig. 15: dbDedup's anchor-sampled delta compressor vs
// the xDelta baseline, on pairs of consecutive Wikipedia-like revisions —
// compression ratio and encode throughput as the anchor interval grows.
func RunFig15(sc Scale) (*Fig15Result, error) {
	// Build revision pairs from the Wikipedia trace: consecutive records
	// of the same article.
	recs := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: sc.Seed, InsertBytes: sc.InsertBytes}).Records()
	latest := make(map[string][]byte)
	type pair struct{ src, tgt []byte }
	var pairs []pair
	for _, r := range recs {
		article := r.Key[:7]
		if prev, ok := latest[article]; ok {
			pairs = append(pairs, pair{src: prev, tgt: r.Payload})
		}
		latest[article] = r.Payload
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("fig15: no revision pairs generated")
	}
	res := &Fig15Result{Scale: sc, Pairs: len(pairs)}

	run := func(config string, compress func(src, tgt []byte) (delta.Delta, delta.CompressionStats)) Fig15Row {
		var tgtBytes, deltaBytes, idxOps int64
		// Start every configuration from a collected heap, so the first
		// one timed does not pay for the garbage of building the pairs.
		runtime.GC()
		start := time.Now()
		for _, p := range pairs {
			d, st := compress(p.src, p.tgt)
			tgtBytes += int64(len(p.tgt))
			deltaBytes += int64(d.EncodedSize())
			idxOps += int64(st.IndexPuts + st.IndexGets)
		}
		elapsed := time.Since(start)
		return Fig15Row{
			Config:           config,
			CompressionRatio: float64(tgtBytes) / float64(max(deltaBytes, 1)),
			ThroughputMBps:   float64(tgtBytes) / (1 << 20) / elapsed.Seconds(),
			IndexOps:         idxOps,
		}
	}

	res.Rows = append(res.Rows, run("xDelta", delta.CompressXDeltaWithStats))
	for _, interval := range Fig15Intervals {
		iv := interval
		res.Rows = append(res.Rows, run(fmt.Sprintf("anchor %d", iv),
			func(src, tgt []byte) (delta.Delta, delta.CompressionStats) {
				return delta.CompressWithStats(src, tgt, delta.Options{AnchorInterval: iv})
			}))
	}
	return res, nil
}

// Row returns the row for config, or nil.
func (r *Fig15Result) Row(config string) *Fig15Row {
	for i := range r.Rows {
		if r.Rows[i].Config == config {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders Fig. 15.
func (r *Fig15Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 15 — Delta compression: anchor interval sweep (%d revision pairs)\n\n", r.Pairs)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config,
			fmtRatio(row.CompressionRatio),
			fmt.Sprintf("%.1f MB/s", row.ThroughputMBps),
			fmt.Sprintf("%d", row.IndexOps),
		})
	}
	sb.WriteString(table([]string{"config", "comp ratio", "throughput", "index ops"}, rows))
	return sb.String()
}
