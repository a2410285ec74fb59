// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each Run* function executes one experiment at a
// configurable scale and returns a structured result whose String method
// prints the same rows/series the paper reports. The cmd/dedupbench binary
// and the repository-root benchmarks are thin wrappers around this package.
//
// Scale note: the paper ingests 1.5-20 GB per dataset on a 3-node cluster;
// the defaults here ingest tens of MB so a full sweep finishes in minutes on
// one machine. Ratios and shapes, not absolute throughput, are the
// reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"strings"

	"dbdedup/internal/blockcomp"
	"dbdedup/internal/chunker"
	"dbdedup/internal/core"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// Scale sets experiment sizes.
type Scale struct {
	// InsertBytes is the ingest volume per dataset/configuration.
	InsertBytes int64
	// Seed makes runs deterministic.
	Seed int64
}

// DefaultScale is the scale every committed results_csv/ figure was run at
// (DESIGN.md §3); the full suite takes minutes on one core.
var DefaultScale = Scale{InsertBytes: 16 << 20, Seed: 1}

// openNode opens every experiment's node. It is the one place that pins the
// paper's chunking algorithm: the service chunks with gear, but the figures
// and the committed results_csv/ reproduce the paper on Rabin fingerprints.
func openNode(opts node.Options) (*node.Node, error) {
	opts.Engine.Chunker = chunker.Rabin
	if opts.Engine.GovernorWindow == 0 {
		// The governor would judge a figure's databases mid-trace (its
		// first window is 2 048 inserts); it gets its own experiment.
		opts.Engine.GovernorWindow = 1 << 30
	}
	return node.Open(opts)
}

// nodeForConfig opens an in-memory node in the deterministic experiment
// configuration.
func nodeForConfig(engine core.Config, disableDedup, compress bool) (*node.Node, error) {
	return openNode(node.Options{
		Engine:           engine,
		DisableDedup:     disableDedup,
		BlockCompression: compress,
		SyncEncode:       true,
		DisableAutoFlush: true,
	})
}

// nodeForConfigWB is nodeForConfig with a specific write-back cache size.
func nodeForConfigWB(engine core.Config, wbBytes int64) (*node.Node, error) {
	return openNode(node.Options{
		Engine:              engine,
		WritebackCacheBytes: wbBytes,
		SyncEncode:          true,
		DisableAutoFlush:    true,
	})
}

// ingest drives a workload's inserts into a node, flushing write-backs
// periodically (as the idle flusher would).
func ingest(n *node.Node, tr *workload.Trace) (int64, error) {
	var raw int64
	i := 0
	for {
		op, ok := tr.Next()
		if !ok {
			break
		}
		if op.Kind != workload.OpInsert {
			continue
		}
		if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
			return 0, err
		}
		raw += int64(len(op.Payload))
		i++
		if i%64 == 0 {
			n.FlushWritebacks(-1)
		}
	}
	n.FlushWritebacks(-1)
	if err := n.Store().Flush(); err != nil {
		return 0, err
	}
	return raw, nil
}

// blockCompressCorpus estimates the block-compression factor over a byte
// corpus fed in storage-block-sized pieces.
type blockCompressCorpus struct {
	buf     []byte
	in, out int64
}

func (b *blockCompressCorpus) add(p []byte) {
	b.buf = append(b.buf, p...)
	for len(b.buf) >= 32<<10 {
		b.flushBlock(32 << 10)
	}
}

func (b *blockCompressCorpus) flushBlock(n int) {
	if n > len(b.buf) {
		n = len(b.buf)
	}
	if n == 0 {
		return
	}
	enc := blockcomp.Encode(b.buf[:n])
	b.in += int64(n)
	b.out += int64(len(enc))
	b.buf = b.buf[n:]
}

func (b *blockCompressCorpus) factor() float64 {
	b.flushBlock(len(b.buf))
	if b.out == 0 {
		return 1
	}
	return float64(b.in) / float64(b.out)
}

// table formats aligned rows.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func fmtRatio(r float64) string { return fmt.Sprintf("%.2fx", r) }

func fmtBytes(n int64) string { return metrics.FormatBytes(n) }
