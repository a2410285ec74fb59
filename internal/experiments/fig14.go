package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/workload"
)

// Fig14Row is one hop-distance point for one scheme.
type Fig14Row struct {
	Scheme      string
	HopDistance int
	// NormalizedRatio is the measured compression ratio relative to pure
	// backward encoding on the same trace.
	NormalizedRatio float64
	// WorstCaseRetrievals is the analytic worst-case source fetches for
	// a chain of ChainLen records.
	WorstCaseRetrievals int
	// MeasuredOldestRetrievals is the decode-step count a real node
	// performed reading the oldest record of a ChainLen-deep chain —
	// the end-to-end cross-check of the analytic column.
	MeasuredOldestRetrievals int
	// Writebacks is the analytic total write-backs for the chain.
	Writebacks int
}

// Fig14Result holds the sweep plus the backward-encoding baseline ratio.
type Fig14Result struct {
	Scale         Scale
	ChainLen      int
	BackwardRatio float64
	Rows          []Fig14Row
}

// Fig14HopDistances is the swept parameter range (paper: 4..32).
var Fig14HopDistances = []int{4, 8, 12, 16, 20, 24, 28, 32}

// RunFig14 reproduces Fig. 14: hop encoding vs version jumping across hop
// distances — compression ratio (measured, normalized to backward encoding),
// worst-case source retrievals, and number of write-backs (analytic, for the
// paper's 200-record chain).
func RunFig14(sc Scale) (*Fig14Result, error) {
	res := &Fig14Result{Scale: sc, ChainLen: 200}

	measure := func(scheme chain.Scheme, h int) (float64, error) {
		n, err := nodeForConfig(core.Config{
			Scheme: scheme, HopDistance: h,
		}, false, false)
		if err != nil {
			return 0, err
		}
		defer n.Close()
		tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
		raw, err := ingest(n, tr)
		if err != nil {
			return 0, err
		}
		return float64(raw) / float64(max(n.Stats().Store.LogicalBytes, 1)), nil
	}

	var err error
	res.BackwardRatio, err = measure(chain.Backward, 16)
	if err != nil {
		return nil, err
	}

	for _, h := range Fig14HopDistances {
		for _, s := range []chain.Scheme{chain.Hop, chain.VersionJump} {
			ratio, err := measure(s, h)
			if err != nil {
				return nil, fmt.Errorf("fig14 %v H=%d: %w", s, h, err)
			}
			measured, err := measureOldestRead(s, h, res.ChainLen, sc.Seed)
			if err != nil {
				return nil, fmt.Errorf("fig14 %v H=%d decode: %w", s, h, err)
			}
			layout := chain.New(s, h)
			res.Rows = append(res.Rows, Fig14Row{
				Scheme:                   s.String(),
				HopDistance:              h,
				NormalizedRatio:          ratio / res.BackwardRatio,
				WorstCaseRetrievals:      layout.WorstCaseRetrievals(res.ChainLen),
				MeasuredOldestRetrievals: measured,
				Writebacks:               layout.TotalWritebacks(res.ChainLen),
			})
		}
	}
	return res, nil
}

// measureOldestRead builds one chainLen-deep version chain in a real node
// and counts the decode steps a read of the oldest version performs.
func measureOldestRead(scheme chain.Scheme, h, chainLen int, seed int64) (int, error) {
	n, err := nodeForConfig(core.Config{
		Scheme: scheme, HopDistance: h,
		// Keep the source cache from short-circuiting the walk.
		SourceCacheBytes: -1,
	}, false, false)
	if err != nil {
		return 0, err
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(seed))
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < chainLen; i++ {
		if err := n.Insert("chain", fmt.Sprintf("v%05d", i), content); err != nil {
			return 0, err
		}
		content = workload.Revise(rng, content, 2, 0)
		n.FlushWritebacks(-1)
	}
	before := n.Stats().DecodeSteps
	if _, err := n.Read("chain", "v00000"); err != nil {
		return 0, err
	}
	return int(n.Stats().DecodeSteps - before), nil
}

// Row returns the row for (scheme, h), or nil.
func (r *Fig14Result) Row(scheme string, h int) *Fig14Row {
	for i := range r.Rows {
		if r.Rows[i].Scheme == scheme && r.Rows[i].HopDistance == h {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the three panels.
func (r *Fig14Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 14 — Hop encoding vs version jumping (chain length %d; backward baseline %.2fx)\n\n",
		r.ChainLen, r.BackwardRatio)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheme,
			fmt.Sprintf("%d", row.HopDistance),
			fmt.Sprintf("%.3f", row.NormalizedRatio),
			fmt.Sprintf("%d", row.WorstCaseRetrievals),
			fmt.Sprintf("%d", row.MeasuredOldestRetrievals),
			fmt.Sprintf("%d", row.Writebacks),
		})
	}
	sb.WriteString(table([]string{"scheme", "H", "norm. comp ratio", "worst-case retrievals (analytic)", "oldest-read steps (measured)", "writebacks"}, rows))
	return sb.String()
}
