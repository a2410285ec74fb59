package experiments

import (
	"fmt"
	"strings"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/workload"
)

// TieredIdxRow is one budget point of the memory-bounded-index sweep: the
// tiered index (hot cuckoo + Bloom-gated cold runs) and, as the control, the
// classic cuckoo index squeezed into the same number of bytes.
type TieredIdxRow struct {
	// Label is the budget as a fraction of the unbounded index footprint.
	Label string
	// BudgetBytes is the configured bound; MemoryBytes the tiered index's
	// actual in-memory use at the end of the run.
	BudgetBytes, MemoryBytes int64
	// TieredRatio / CuckooRatio are the end-to-end dedup ratios
	// (raw/stored) at this budget; RecoveredFrac is TieredRatio as a
	// fraction of the unbounded ratio.
	TieredRatio, CuckooRatio, RecoveredFrac float64
	// DedupHits counts encode-path dedup decisions of the tiered run.
	DedupHits uint64
	// BloomFPR is false positives / checks across the run's cold probes;
	// ColdEntries and Freezes/Merges describe the cold tier at the end.
	BloomFPR    float64
	ColdEntries int64
	Freezes     uint64
	Merges      uint64
}

// TieredIdxResult holds the sweep plus the unbounded baseline.
type TieredIdxResult struct {
	Scale Scale
	// UnboundedRatio / UnboundedIndexBytes come from the baseline run
	// with the classic cuckoo index and no budget.
	UnboundedRatio      float64
	UnboundedIndexBytes int64
	Rows                []TieredIdxRow
}

// RunTieredIdx sweeps the tiered similarity index across memory budgets
// expressed as fractions of the unbounded cuckoo footprint (measured on the
// same trace), reporting the dedup-ratio-vs-memory curve, the budget-equal
// cuckoo control, and the Bloom-filter false-positive rate at each point.
// This is the evaluation for DESIGN.md §11: dedup quality should degrade
// gracefully as the in-memory index shrinks, because frozen features remain
// reachable through the disk-resident cold runs.
func RunTieredIdx(sc Scale) (*TieredIdxResult, error) {
	res := &TieredIdxResult{Scale: sc}

	run := func(cfg core.Config) (float64, *core.Stats, error) {
		cfg.Scheme = chain.Backward
		n, err := nodeForConfig(cfg, false, false)
		if err != nil {
			return 0, nil, err
		}
		defer n.Close()
		tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
		raw, err := ingest(n, tr)
		if err != nil {
			return 0, nil, err
		}
		st := n.Stats()
		return float64(raw) / float64(max(st.Store.LogicalBytes, 1)), &st.Engine, nil
	}

	ratio, view, err := run(core.Config{})
	if err != nil {
		return nil, err
	}
	res.UnboundedRatio = ratio
	res.UnboundedIndexBytes = view.IndexMemoryBytes

	for _, frac := range []int64{2, 4, 8, 16} {
		budget := res.UnboundedIndexBytes / frac
		tRatio, tView, err := run(core.Config{IndexBudgetBytes: budget})
		if err != nil {
			return nil, err
		}
		cRatio, _, err := run(core.Config{
			IndexEntries: max(int(budget/6), 16), // featidx.EntryBytes
		})
		if err != nil {
			return nil, err
		}
		ti := tView.TieredIdx
		fpr := 0.0
		if ti.BloomChecks > 0 {
			fpr = float64(ti.BloomFalsePositives) / float64(ti.BloomChecks)
		}
		res.Rows = append(res.Rows, TieredIdxRow{
			Label:         fmt.Sprintf("1/%d", frac),
			BudgetBytes:   budget,
			MemoryBytes:   tView.IndexMemoryBytes,
			TieredRatio:   tRatio,
			CuckooRatio:   cRatio,
			RecoveredFrac: tRatio / res.UnboundedRatio,
			DedupHits:     tView.Deduped,
			BloomFPR:      fpr,
			ColdEntries:   ti.ColdEntries,
			Freezes:       ti.Freezes,
			Merges:        ti.Merges,
		})
	}
	return res, nil
}

// String renders the sweep.
func (r *TieredIdxResult) String() string {
	var sb strings.Builder
	sb.WriteString("Tiered index — dedup ratio vs. memory budget (Wikipedia)\n\n")
	fmt.Fprintf(&sb, "unbounded cuckoo: %s, index %d B\n\n",
		fmtRatio(r.UnboundedRatio), r.UnboundedIndexBytes)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%d", row.BudgetBytes),
			fmt.Sprintf("%d", row.MemoryBytes),
			fmtRatio(row.TieredRatio),
			fmt.Sprintf("%.0f%%", row.RecoveredFrac*100),
			fmtRatio(row.CuckooRatio),
			fmt.Sprintf("%.1f%%", row.BloomFPR*100),
			fmt.Sprintf("%d", row.Freezes),
			fmt.Sprintf("%d", row.Merges),
		})
	}
	sb.WriteString(table([]string{"budget", "bytes", "used", "tiered", "recovered", "cuckoo@budget", "bloom FPR", "freezes", "merges"}, rows))
	return sb.String()
}

// WriteCSV persists the sweep for external plotting.
func (r *TieredIdxResult) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, []string{"unbounded", fmt.Sprintf("%d", r.UnboundedIndexBytes),
		fmt.Sprintf("%d", r.UnboundedIndexBytes), fmt.Sprintf("%.4f", r.UnboundedRatio),
		"1.0000", fmt.Sprintf("%.4f", r.UnboundedRatio), "0", "0", "0"})
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%d", row.BudgetBytes),
			fmt.Sprintf("%d", row.MemoryBytes),
			fmt.Sprintf("%.4f", row.TieredRatio),
			fmt.Sprintf("%.4f", row.RecoveredFrac),
			fmt.Sprintf("%.4f", row.CuckooRatio),
			fmt.Sprintf("%.4f", row.BloomFPR),
			fmt.Sprintf("%d", row.Freezes),
			fmt.Sprintf("%d", row.Merges),
		})
	}
	return writeCSV(dir, "tieredidx.csv",
		[]string{"budget_frac", "budget_bytes", "used_bytes", "tiered_ratio", "recovered_frac", "cuckoo_ratio", "bloom_fpr", "freezes", "merges"},
		rows)
}
