package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dbdedup/internal/core"
	"dbdedup/internal/workload"
)

// Fig7Point is one point of the record-size CDFs.
type Fig7Point struct {
	SizeBytes int64
	// RecordFrac is the fraction of records with size <= SizeBytes.
	RecordFrac float64
	// SavingFrac is the fraction of total dedup saving contributed by
	// records with size <= SizeBytes.
	SavingFrac float64
}

// Fig7Dataset is one dataset's curves plus the filter headline numbers.
type Fig7Dataset struct {
	Dataset workload.Kind
	Points  []Fig7Point
	// SavingFracAtP40 is the fraction of savings contributed by the
	// smallest 40% of records — the paper's justification for the
	// size-based filter (skipping them loses 5-10%).
	SavingFracAtP40 float64
	// TotalSaving is the total dedup saving in bytes.
	TotalSaving int64
	Records     int
}

// Fig7Result holds all datasets.
type Fig7Result struct {
	Scale    Scale
	Datasets []Fig7Dataset
}

// RunFig7 reproduces Fig. 7: the CDF of record sizes and the size-weighted
// CDF of dedup savings, which the paper cites for skipping the smallest 40 %
// of records (§3.4.2). The engine's size filter is a 64 B floor, so every
// larger record's saving is measured.
func RunFig7(sc Scale, kinds ...workload.Kind) (*Fig7Result, error) {
	if len(kinds) == 0 {
		kinds = workload.Kinds
	}
	res := &Fig7Result{Scale: sc}
	for _, kind := range kinds {
		ds, err := runFig7Dataset(sc, kind)
		if err != nil {
			return nil, fmt.Errorf("fig7 %v: %w", kind, err)
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, nil
}

type sizeSaving struct {
	size   int64
	saving int64
}

func runFig7Dataset(sc Scale, kind workload.Kind) (Fig7Dataset, error) {
	ds := Fig7Dataset{Dataset: kind}
	n, err := nodeForConfig(core.Config{}, false, false)
	if err != nil {
		return ds, err
	}
	defer n.Close()

	tr := workload.New(workload.Config{Kind: kind, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
	var samples []sizeSaving
	prevForward := int64(0)
	prevDeduped := uint64(0)
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
			return ds, err
		}
		// Per-record saving = payload size minus its forward-delta
		// size when the insert was deduped (the paper's space-saving
		// attribution).
		st := n.Engine().Stats()
		saving := int64(0)
		if st.Deduped > prevDeduped {
			saving = int64(len(op.Payload)) - (st.ForwardBytes - prevForward)
			if saving < 0 {
				saving = 0
			}
		}
		prevForward = st.ForwardBytes
		prevDeduped = st.Deduped
		samples = append(samples, sizeSaving{size: int64(len(op.Payload)), saving: saving})
		i++
		if i%64 == 0 {
			n.FlushWritebacks(-1)
		}
	}

	sort.Slice(samples, func(a, b int) bool { return samples[a].size < samples[b].size })
	var totalSaving int64
	for _, s := range samples {
		totalSaving += s.saving
	}
	ds.TotalSaving = totalSaving
	ds.Records = len(samples)

	// Emit points at every 5% of records.
	var cumSaving int64
	nextMark := 0.05
	for idx, s := range samples {
		cumSaving += s.saving
		frac := float64(idx+1) / float64(len(samples))
		if frac >= nextMark || idx == len(samples)-1 {
			savingFrac := 0.0
			if totalSaving > 0 {
				savingFrac = float64(cumSaving) / float64(totalSaving)
			}
			ds.Points = append(ds.Points, Fig7Point{
				SizeBytes:  s.size,
				RecordFrac: frac,
				SavingFrac: savingFrac,
			})
			for frac >= nextMark {
				nextMark += 0.05
			}
		}
		if frac >= 0.40 && ds.SavingFracAtP40 == 0 && totalSaving > 0 {
			ds.SavingFracAtP40 = float64(cumSaving) / float64(totalSaving)
		}
	}
	return ds, nil
}

// String renders the curves as decile tables.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — Record-size CDF and space-saving-weighted CDF\n\n")
	for _, ds := range r.Datasets {
		fmt.Fprintf(&sb, "%s (%d records, %s total dedup saving)\n",
			ds.Dataset, ds.Records, fmtBytes(ds.TotalSaving))
		var rows [][]string
		for _, p := range ds.Points {
			if int(p.RecordFrac*100)%10 != 0 && p.RecordFrac < 0.999 {
				continue
			}
			rows = append(rows, []string{
				fmtBytes(p.SizeBytes),
				fmt.Sprintf("%.0f%%", p.RecordFrac*100),
				fmt.Sprintf("%.1f%%", p.SavingFrac*100),
			})
		}
		sb.WriteString(table([]string{"record size <=", "records", "of savings"}, rows))
		fmt.Fprintf(&sb, "smallest 40%% of records contribute %.1f%% of savings\n\n",
			ds.SavingFracAtP40*100)
	}
	return sb.String()
}
