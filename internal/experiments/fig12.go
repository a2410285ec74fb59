package experiments

import (
	"fmt"
	"strings"
	"time"

	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// Fig12Row is the runtime result of one (dataset, configuration) pair.
type Fig12Row struct {
	Dataset workload.Kind
	Config  string // "Original", "dbDedup", "Snappy"
	// OpsPerSec is the end-to-end client operation throughput.
	OpsPerSec float64
	// ReadMean etc. summarise the client latency distribution.
	ReadMean, ReadP999     time.Duration
	InsertMean, InsertP999 time.Duration
	// ReadCDF is the full latency CDF for the dataset (reads+inserts
	// combined would hide the interesting tail; the paper plots client
	// latency, which is read-dominated for three of the datasets).
	ReadCDF []metrics.CDFPoint
	Ops     uint64
}

// Fig12Result holds all rows.
type Fig12Result struct {
	Scale Scale
	Rows  []Fig12Row
}

// Fig12Configs lists the three deployment configurations of Fig. 12.
var Fig12Configs = []string{"Original", "dbDedup", "Snappy"}

// RunFig12 reproduces Fig. 12: DBMS throughput and client latency for the
// four workloads (including their read mixes) under no compression, dbDedup,
// and block compression. dbDedup runs its production setup — background
// encode pipeline and idle write-back flusher — since the claim under test
// is that dedup stays off the critical path.
func RunFig12(sc Scale, kinds ...workload.Kind) (*Fig12Result, error) {
	if len(kinds) == 0 {
		kinds = workload.Kinds
	}
	res := &Fig12Result{Scale: sc}
	for _, kind := range kinds {
		for _, config := range Fig12Configs {
			row, err := runFig12Cell(sc, kind, config)
			if err != nil {
				return nil, fmt.Errorf("fig12 %v/%s: %w", kind, config, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runFig12Cell(sc Scale, kind workload.Kind, config string) (Fig12Row, error) {
	row := Fig12Row{Dataset: kind, Config: config}
	// Production-like: async encoding, the daemon's background idle flusher.
	var opts node.Options
	switch config {
	case "Original":
		opts.DisableDedup = true
	case "Snappy":
		opts.DisableDedup = true
		opts.BlockCompression = true
	case "dbDedup":
	default:
		return row, fmt.Errorf("unknown config %q", config)
	}
	n, err := openNode(opts)
	if err != nil {
		return row, err
	}
	defer n.Close()

	// High-read-ratio mixes are sampled down so a run stays in seconds;
	// the same sampling applies to every configuration, so comparisons
	// hold.
	tr := workload.New(workload.Config{
		Kind: kind, Seed: sc.Seed, InsertBytes: sc.InsertBytes,
		Reads: true, ReadSampling: 20,
	})
	start := time.Now()
	var ops uint64
	for {
		op, ok := tr.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case workload.OpInsert:
			if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
				return row, err
			}
		case workload.OpRead:
			if _, err := n.Read(op.DB, op.Key); err != nil && err != node.ErrNotFound {
				return row, err
			}
		}
		ops++
	}
	n.Barrier()
	elapsed := time.Since(start)

	row.Ops = ops
	row.OpsPerSec = float64(ops) / elapsed.Seconds()
	row.ReadMean = n.ReadLatency().Mean()
	row.ReadP999 = n.ReadLatency().Quantile(0.999)
	row.InsertMean = n.InsertLatency().Mean()
	row.InsertP999 = n.InsertLatency().Quantile(0.999)
	row.ReadCDF = n.ReadLatency().CDF()
	return row, nil
}

// String renders throughput and latency tables.
func (r *Fig12Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 12a — Throughput (client ops/sec; reads sampled 1:20)\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Dataset.String(), row.Config,
			fmt.Sprintf("%.0f", row.OpsPerSec),
			fmt.Sprintf("%d", row.Ops),
		})
	}
	sb.WriteString(table([]string{"dataset", "config", "ops/sec", "ops"}, rows))

	sb.WriteString("\nFig. 12b — Client latency (read path)\n\n")
	rows = nil
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Dataset.String(), row.Config,
			row.ReadMean.String(), row.ReadP999.String(),
			row.InsertMean.String(), row.InsertP999.String(),
		})
	}
	sb.WriteString(table([]string{"dataset", "config", "read mean", "read p99.9", "insert mean", "insert p99.9"}, rows))
	return sb.String()
}

// Row returns the row for (kind, config), or nil.
func (r *Fig12Result) Row(kind workload.Kind, config string) *Fig12Row {
	for i := range r.Rows {
		if r.Rows[i].Dataset == kind && r.Rows[i].Config == config {
			return &r.Rows[i]
		}
	}
	return nil
}
