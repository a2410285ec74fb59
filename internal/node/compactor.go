package node

import "time"

// CompactionOptions tunes the background space reclaimer. Backward encoding
// rewrites records constantly (every write-back supersedes a frame), so a
// dedup-heavy node accumulates dead bytes faster than a plain store; the
// compactor keeps disk usage proportional to live data.
type CompactionOptions struct {
	// Enabled starts the background compactor.
	Enabled bool
	// Interval is how often the dead-space ratio is checked (default 1s).
	Interval time.Duration
}

// compactionTrigger is the dead fraction of the stored payload bytes that
// triggers compaction: superseded over superseded plus live, both counted as
// they were before block compression.
const compactionTrigger = 0.5

// startCompactor launches the background compaction loop.
func (n *Node) startCompactor(opts CompactionOptions) {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-n.stopCh:
				return
			case <-ticker.C:
				st := n.store.Stats()
				total := st.DeadBytes + st.LogicalBytes
				if total == 0 || float64(st.DeadBytes)/float64(total) < compactionTrigger {
					continue
				}
				// Compaction failure is not fatal — space simply
				// stays unreclaimed until the next attempt. Dead bytes
				// in the active segment, which is never a victim, can
				// hold the ratio up: the tick then costs one look at
				// the segments and counts as no pass.
				n.Compact()
			}
		}
	}()
}

// Compact runs one synchronous store compaction pass, returning the bytes
// reclaimed, and folds the outcome into the node's counters. A call that found
// no segment worth compacting is not a pass.
func (n *Node) Compact() (int64, error) {
	start := time.Now()
	reclaimed, err := n.store.Compact()
	if err != nil || reclaimed == 0 {
		return 0, err
	}
	n.compm.ObservePass(time.Since(start))
	n.compm.PhysicalBytesReclaimed.Add(reclaimed)
	return reclaimed, nil
}
