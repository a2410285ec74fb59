package experiments

import (
	"fmt"
	"strings"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/workload"
)

// Fig11Row compares storage and network compression for one dataset.
type Fig11Row struct {
	Dataset workload.Kind
	// StorageRatio is raw/stored-logical after all write-backs settle.
	StorageRatio float64
	// NetworkRatio is raw/oplog-bytes (what replication ships).
	NetworkRatio float64
	// StorageVsNetwork = StorageRatio / NetworkRatio (the paper plots
	// this normalized pair; storage is within 5% of network).
	StorageVsNetwork float64
}

// Fig11Result holds all rows.
type Fig11Result struct {
	Scale Scale
	Rows  []Fig11Row
}

// RunFig11 reproduces Fig. 11: dbDedup's storage compression is slightly
// below its network compression (overlapped encodings and lossy write-back
// evictions cost a little storage saving; forward encoding loses nothing).
// The write-back cache is kept small relative to the ingest so evictions
// actually occur, as on the paper's loaded systems.
func RunFig11(sc Scale, kinds ...workload.Kind) (*Fig11Result, error) {
	if len(kinds) == 0 {
		kinds = workload.Kinds
	}
	res := &Fig11Result{Scale: sc}
	for _, kind := range kinds {
		n, err := nodeForConfigWB(core.Config{Scheme: chain.Backward}, 512<<10)
		if err != nil {
			return nil, err
		}
		tr := workload.New(workload.Config{Kind: kind, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
		raw, err := ingest(n, tr)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("fig11 %v: %w", kind, err)
		}
		st := n.Stats()
		row := Fig11Row{
			Dataset:      kind,
			StorageRatio: float64(raw) / float64(max(st.Store.LogicalBytes, 1)),
			NetworkRatio: float64(raw) / float64(max(st.OplogBytes, 1)),
		}
		row.StorageVsNetwork = row.StorageRatio / row.NetworkRatio
		res.Rows = append(res.Rows, row)
		n.Close()
	}
	return res, nil
}

// String renders the normalized comparison.
func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 11 — Storage vs network compression (dbDedup 64B chunks)\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Dataset.String(),
			fmtRatio(row.NetworkRatio),
			fmtRatio(row.StorageRatio),
			fmt.Sprintf("%.3f", row.StorageVsNetwork),
			fmt.Sprintf("%+.1f%%", (row.StorageVsNetwork-1)*100),
		})
	}
	sb.WriteString(table([]string{"dataset", "network ratio", "storage ratio", "storage/network", "gap"}, rows))
	return sb.String()
}
