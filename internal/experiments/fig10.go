package experiments

import (
	"fmt"
	"strings"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/traddedup"
	"dbdedup/internal/workload"
)

// Fig10Row is one bar of Figs. 1/10: a (dataset, configuration) pair.
type Fig10Row struct {
	Dataset workload.Kind
	Config  string // "dbDedup-1KB", "dbDedup-64B", "trad-4KB", "trad-64B", "Snappy"
	// DedupRatio is raw/stored from dedup alone (1.0 for Snappy-only).
	DedupRatio float64
	// SnappyFactor is the extra block-compression multiplier on the
	// post-dedup data.
	SnappyFactor float64
	// CombinedRatio = DedupRatio * SnappyFactor.
	CombinedRatio float64
	// IndexMemoryBytes is the dedup index footprint.
	IndexMemoryBytes int64
	// RawBytes ingested.
	RawBytes int64
}

// Fig10Result holds all rows of the experiment.
type Fig10Result struct {
	Scale Scale
	Rows  []Fig10Row
}

// Fig10Configs lists the five bar configurations of Figs. 1 and 10.
var Fig10Configs = []string{"dbDedup-1KB", "dbDedup-64B", "trad-4KB", "trad-64B", "Snappy"}

// RunFig10 reproduces Fig. 10 (and Fig. 1, which is its Wikipedia panel):
// compression ratio and index memory for dbDedup (1 KiB / 64 B chunks),
// traditional dedup (4 KiB / 64 B chunks) and block compression alone, on
// each dataset.
func RunFig10(sc Scale, kinds ...workload.Kind) (*Fig10Result, error) {
	if len(kinds) == 0 {
		kinds = workload.Kinds
	}
	res := &Fig10Result{Scale: sc}
	for _, kind := range kinds {
		for _, config := range Fig10Configs {
			row, err := runFig10Cell(sc, kind, config)
			if err != nil {
				return nil, fmt.Errorf("fig10 %v/%s: %w", kind, config, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runFig10Cell(sc Scale, kind workload.Kind, config string) (Fig10Row, error) {
	row := Fig10Row{Dataset: kind, Config: config}
	trace := func() *workload.Trace {
		return workload.New(workload.Config{Kind: kind, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
	}

	switch config {
	case "dbDedup-1KB", "dbDedup-64B":
		chunk := 1024
		if config == "dbDedup-64B" {
			chunk = 64
		}
		n, err := nodeForConfig(core.Config{ChunkAvgSize: chunk, Scheme: chain.Backward}, false, true)
		if err != nil {
			return row, err
		}
		defer n.Close()
		raw, err := ingest(n, trace())
		if err != nil {
			return row, err
		}
		st := n.Stats()
		row.RawBytes = raw
		row.DedupRatio = float64(raw) / float64(max(st.Store.LogicalBytes, 1))
		row.SnappyFactor = float64(st.Store.BlockBytesIn) / float64(max(st.Store.BlockBytesOut, 1))
		row.IndexMemoryBytes = st.Engine.IndexMemoryBytes

	case "trad-4KB", "trad-64B":
		chunk := 4096
		if config == "trad-64B" {
			chunk = 64
		}
		d := traddedup.New(traddedup.Config{ChunkAvgSize: chunk})
		var comp blockCompressCorpus
		tr := trace()
		for {
			op, ok := tr.Next()
			if !ok {
				break
			}
			if op.Kind != workload.OpInsert {
				continue
			}
			before := d.Stats().StoredBytes
			d.Ingest(op.Payload)
			// Feed only newly stored unique bytes to the block
			// compressor (references are incompressible metadata).
			if added := d.Stats().StoredBytes - before; added > 0 {
				n := int(added)
				if n > len(op.Payload) {
					n = len(op.Payload)
				}
				comp.add(op.Payload[:n])
			}
		}
		st := d.Stats()
		row.RawBytes = st.IngestedBytes
		row.DedupRatio = d.CompressionRatio()
		row.SnappyFactor = comp.factor()
		row.IndexMemoryBytes = st.IndexMemoryBytes

	case "Snappy":
		n, err := nodeForConfig(core.Config{}, true, true)
		if err != nil {
			return row, err
		}
		defer n.Close()
		raw, err := ingest(n, trace())
		if err != nil {
			return row, err
		}
		st := n.Stats()
		row.RawBytes = raw
		row.DedupRatio = 1.0
		row.SnappyFactor = float64(st.Store.BlockBytesIn) / float64(max(st.Store.BlockBytesOut, 1))
		row.IndexMemoryBytes = 0

	default:
		return row, fmt.Errorf("unknown config %q", config)
	}
	row.CombinedRatio = row.DedupRatio * row.SnappyFactor
	return row, nil
}

// String renders the figure as per-dataset tables.
func (r *Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 10 — Compression ratio and index memory (Fig. 1 = Wikipedia panel)\n\n")
	var cur workload.Kind = -1
	var rows [][]string
	flush := func() {
		if len(rows) > 0 {
			fmt.Fprintf(&sb, "%s (%s ingested)\n", cur, fmtBytes(r.Rows[0].RawBytes))
			sb.WriteString(table([]string{"config", "dedup ratio", "+snappy", "combined", "index memory"}, rows))
			sb.WriteByte('\n')
			rows = nil
		}
	}
	for _, row := range r.Rows {
		if row.Dataset != cur {
			flush()
			cur = row.Dataset
		}
		rows = append(rows, []string{
			row.Config,
			fmtRatio(row.DedupRatio),
			fmt.Sprintf("%.2fx", row.SnappyFactor),
			fmtRatio(row.CombinedRatio),
			fmtBytes(row.IndexMemoryBytes),
		})
	}
	flush()
	return sb.String()
}

// Row returns the row for (kind, config), or nil.
func (r *Fig10Result) Row(kind workload.Kind, config string) *Fig10Row {
	for i := range r.Rows {
		if r.Rows[i].Dataset == kind && r.Rows[i].Config == config {
			return &r.Rows[i]
		}
	}
	return nil
}
