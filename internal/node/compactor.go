package node

import "time"

// CompactionOptions tunes the background space reclaimer. Backward encoding
// rewrites records constantly (every write-back supersedes a frame), so a
// dedup-heavy node accumulates dead bytes faster than a plain store; the
// compactor keeps disk usage proportional to live data.
type CompactionOptions struct {
	// Enabled has the node's background tick (tickInterval) check the
	// dead-space ratio and compact once it crosses compactionTrigger.
	Enabled bool
}

// compactionTrigger is the dead fraction of the stored payload bytes that
// triggers compaction: superseded over superseded plus live, both counted as
// they were before block compression.
const compactionTrigger = 0.5

// compactIfDead runs one compaction pass when the dead share has crossed
// compactionTrigger.
func (n *Node) compactIfDead() {
	st := n.store.Stats()
	total := st.DeadBytes + st.LogicalBytes
	if total == 0 || float64(st.DeadBytes)/float64(total) < compactionTrigger {
		return
	}
	// Compaction failure is not fatal — space simply stays unreclaimed until
	// the next attempt. Dead bytes in the active segment, which is never a
	// victim, can hold the ratio up: the tick then costs one look at the
	// segments and counts as no pass.
	n.Compact()
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
