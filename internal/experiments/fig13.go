package experiments

import (
	"fmt"
	"strings"
	"time"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// Fig13aRow is one bar pair of Fig. 13a: a source-record-cache setting.
type Fig13aRow struct {
	// Label is "no cache" or the reward score.
	Label string
	// CompressionRatio is raw/stored for the setting; NormalizedRatio is
	// relative to the best setting (the paper normalizes the Y axis).
	CompressionRatio, NormalizedRatio float64
	// CacheMissRatio is the fraction of encode-path source fetches that
	// had to read the database.
	CacheMissRatio float64
}

// Fig13aResult holds the sweep.
type Fig13aResult struct {
	Scale Scale
	Rows  []Fig13aRow
}

// RunFig13a reproduces Fig. 13a: the effect of the source record cache and
// the cache-aware selection reward score on compression ratio and cache miss
// ratio (Wikipedia workload).
func RunFig13a(sc Scale) (*Fig13aResult, error) {
	res := &Fig13aResult{Scale: sc}
	type setting struct {
		label  string
		cache  int64 // -1 disables
		reward int
	}
	settings := []setting{
		{"no cache", -1, 0},
		{"reward 0", 0, -1}, // -1 sentinel → reward 0 (0 means default)
		{"reward 2", 0, 2},
		{"reward 4", 0, 4},
		{"reward 8", 0, 8},
	}
	best := 0.0
	for _, s := range settings {
		reward := s.reward
		zeroReward := false
		if reward < 0 {
			reward = 0
			zeroReward = true
		}
		cfg := core.Config{Scheme: chain.Backward, SourceCacheBytes: s.cache, RewardScore: reward}
		if zeroReward {
			// core treats 0 as "default"; a tiny epsilon isn't
			// possible for ints, so encode "really zero" as -1 at
			// the engine level... the engine honours negative as 0.
			cfg.RewardScore = -1
		}
		n, err := nodeForConfig(cfg, false, false)
		if err != nil {
			return nil, err
		}
		tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
		raw, err := ingest(n, tr)
		if err != nil {
			n.Close()
			return nil, err
		}
		st := n.Stats()
		hits, misses := st.Engine.SourceCacheHits, st.Engine.SourceCacheMiss
		miss := 1.0
		if hits+misses > 0 {
			miss = float64(misses) / float64(hits+misses)
		}
		ratio := float64(raw) / float64(max(st.Store.LogicalBytes, 1))
		if ratio > best {
			best = ratio
		}
		res.Rows = append(res.Rows, Fig13aRow{
			Label:            s.label,
			CompressionRatio: ratio,
			CacheMissRatio:   miss,
		})
		n.Close()
	}
	for i := range res.Rows {
		res.Rows[i].NormalizedRatio = res.Rows[i].CompressionRatio / best
	}
	return res, nil
}

// String renders Fig. 13a.
func (r *Fig13aResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 13a — Source record cache: reward-score sweep (Wikipedia)\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmtRatio(row.CompressionRatio),
			fmt.Sprintf("%.3f", row.NormalizedRatio),
			fmt.Sprintf("%.1f%%", row.CacheMissRatio*100),
		})
	}
	sb.WriteString(table([]string{"setting", "comp ratio", "normalized", "cache miss ratio"}, rows))
	return sb.String()
}

// Fig13bResult is the bursty-insert throughput trace with and without the
// lossy write-back cache.
type Fig13bResult struct {
	Scale Scale
	// SlotWidth is the sampling slot.
	SlotWidth time.Duration
	// WithCache / WithoutCache are inserts completed per slot.
	WithCache, WithoutCache []int64
	// BurstSlots is how many slots each burst lasted.
	BurstSlots int
}

// RunFig13b reproduces Fig. 13b: insertion throughput over time under a
// bursty workload (insert at full speed, then idle, repeatedly). Without the
// write-back cache's deferral, every insert's write-backs are flushed right
// after it, inside the burst, and contend with inserts for the storage
// device; with it they shift into the idle gaps. The paper ran on HDDs; the
// experiment injects a per-append device delay so the contention under study
// exists at all on fast/in-memory storage (DESIGN.md §1).
func RunFig13b(sc Scale) (*Fig13bResult, error) {
	const (
		burst       = 250 * time.Millisecond
		idle        = 250 * time.Millisecond
		slot        = 50 * time.Millisecond
		burstCount  = 6
		deviceDelay = 2 * time.Millisecond // ~HDD-class append latency
	)
	res := &Fig13bResult{Scale: sc, SlotWidth: slot, BurstSlots: int(burst / slot)}

	run := func(withCache bool) ([]int64, error) {
		n, err := openNode(node.Options{
			SyncEncode:           true, // when write-backs are applied is the variable
			DisableAutoFlush:     true,
			SimulatedAppendDelay: deviceDelay,
		})
		if err != nil {
			return nil, err
		}
		defer n.Close()
		tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: sc.Seed, InsertBytes: 1 << 40})
		series := metrics.NewSeries(slot)
		for b := 0; b < burstCount; b++ {
			end := time.Now().Add(burst)
			for time.Now().Before(end) {
				op, ok := tr.Next()
				if !ok {
					break
				}
				if op.Kind != workload.OpInsert {
					continue
				}
				if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
					return nil, err
				}
				if !withCache {
					n.FlushWritebacks(-1)
				}
				series.Add(1)
			}
			// Idle period: the deferred flusher would run here.
			idleEnd := time.Now().Add(idle)
			for time.Now().Before(idleEnd) {
				if withCache {
					n.FlushWritebacks(8)
				}
				time.Sleep(time.Millisecond)
			}
		}
		return series.Values(), nil
	}

	var err error
	if res.WithCache, err = run(true); err != nil {
		return nil, err
	}
	if res.WithoutCache, err = run(false); err != nil {
		return nil, err
	}
	return res, nil
}

// BurstThroughputs returns mean inserts/slot during bursts for both runs.
func (r *Fig13bResult) BurstThroughputs() (withCache, withoutCache float64) {
	mean := func(vals []int64) float64 {
		sum, n := int64(0), 0
		cycle := 2 * r.BurstSlots
		for i, v := range vals {
			if i%cycle < r.BurstSlots && v > 0 {
				sum += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	return mean(r.WithCache), mean(r.WithoutCache)
}

// String renders Fig. 13b as the two time series.
func (r *Fig13bResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 13b — Bursty inserts: throughput over time (inserts per slot)\n\n")
	var rows [][]string
	n := len(r.WithCache)
	if len(r.WithoutCache) > n {
		n = len(r.WithoutCache)
	}
	at := func(vals []int64, i int) string {
		if i < len(vals) {
			return fmt.Sprintf("%d", vals[i])
		}
		return "-"
	}
	for i := 0; i < n; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%v", time.Duration(i)*r.SlotWidth),
			at(r.WithCache, i),
			at(r.WithoutCache, i),
		})
	}
	sb.WriteString(table([]string{"t", "with write-back cache", "without"}, rows))
	wc, nc := r.BurstThroughputs()
	fmt.Fprintf(&sb, "\nmean burst throughput: with cache %.0f/slot, without %.0f/slot (%.0f%% drop)\n",
		wc, nc, (1-nc/wc)*100)
	return sb.String()
}
