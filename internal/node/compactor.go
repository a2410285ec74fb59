package node

import (
	"time"

	"dbdedup/internal/docstore"
)

// CompactionOptions tunes the background space reclaimer. Backward encoding
// rewrites records constantly (every write-back supersedes a frame), so a
// dedup-heavy node accumulates dead bytes faster than a plain store; the
// compactor keeps disk usage proportional to live data.
type CompactionOptions struct {
	// Enabled starts the background compactor.
	Enabled bool
	// Interval is how often the dead-space ratio is checked (default 1s).
	Interval time.Duration
	// TriggerRatio is the dead/disk fraction that triggers compaction
	// (default 0.5): superseded payload bytes, as they were before block
	// compression, over the bytes the segments hold on disk.
	TriggerRatio float64
	// Rededup enables the compaction-time re-deduplication pass: live raw
	// records moved out of the victim segment are re-sketched against the
	// similarity index, and ones with a good match are rewritten as deltas.
	// This recovers dedup opportunities the insert path missed — most
	// importantly records whose match had been evicted from a bounded
	// feature index at insert time but is resident now.
	Rededup bool
	// RededupMaxChainDepth bounds the delta-chain depth a conversion may
	// create (default 8). Compaction-created references deepen chains that
	// the insert path, which only references raw records, never would.
	RededupMaxChainDepth int
}

const defaultRededupMaxChainDepth = 8

// startCompactor launches the background compaction loop.
func (n *Node) startCompactor(opts CompactionOptions) {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.TriggerRatio <= 0 {
		opts.TriggerRatio = 0.5
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
				disk := n.store.DiskBytes()
				if disk == 0 {
					continue
				}
				if float64(st.DeadBytes)/float64(disk) < opts.TriggerRatio {
					continue
				}
				// Compaction failure is not fatal — space simply
				// stays unreclaimed until the next attempt. Dead bytes
				// in the active segment, which is never a victim, can
				// hold the ratio up: the tick then costs one look at
				// the segments and counts as no pass.
				n.compactOnce()
			}
		}
	}()
}

// Compact triggers one synchronous compaction pass, returning the bytes
// reclaimed.
func (n *Node) Compact() (int64, error) { return n.compactOnce() }

// compactOnce runs one store compaction pass, re-deduplicating what it moves
// when enabled, and folds the outcome into the node's counters. A call that
// found no segment worth compacting is not a pass.
func (n *Node) compactOnce() (int64, error) {
	start := time.Now()
	var move func(docstore.Record)
	if n.opts.Compaction.Rededup && n.eng != nil {
		move = n.rededupMove
	}
	reclaimed, err := n.store.CompactWith(move)
	if err != nil || reclaimed == 0 {
		return 0, err
	}
	n.compm.ObservePass(time.Since(start))
	n.compm.PhysicalBytesReclaimed.Add(reclaimed)
	n.mu.Lock()
	n.stats.Compactions++
	n.mu.Unlock()
	return reclaimed, nil
}

// rededupMove is compaction-time re-deduplication: the store calls it, under
// none of its locks, with each live record it is about to move. It probes for a
// similar record, encodes the record against it and hands the delta to
// rebaseLocked: a conversion is a write-back computed late, and the same checks
// under the same lock decide it. Two things are its own. The depth bound:
// conversions deepen chains that the insert path, which only references raw
// records, never would. And one rule, bases stay raw: only an unreferenced raw
// record converts, so the rewrite cannot deepen any existing chain. Nothing is
// held between decoding the base and the commit; an update or delete of either
// record in that window makes the delta fail to reproduce the record, and the
// store then moves the record as it is.
func (n *Node) rededupMove(rec docstore.Record) {
	if rec.Hidden || rec.Stacked || rec.Form != docstore.FormRaw || n.referenced(rec.ID) {
		return
	}
	maxDepth := n.opts.Compaction.RededupMaxChainDepth
	if maxDepth <= 0 {
		maxDepth = defaultRededupMaxChainDepth
	}
	n.compm.Resketched.Add(1)
	srcID, ok := n.eng.ProbeSimilar(rec.DB, rec.ID, rec.Payload)
	// The walk is advisory here, and saves encoding against a base that
	// rebaseLocked would refuse.
	if !ok || srcID == rec.ID || !n.grounds(rec.ID, srcID, maxDepth) {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	base, err := n.decode(sc, srcID, baseContent)
	if err != nil {
		return // a similarity-index candidate can name a dead record
	}
	d := n.eng.CompressDelta(base, rec.Payload)
	if d.EncodedSize() >= len(rec.Payload) {
		return
	}
	conv := d.Marshal()
	n.applyMu.Lock()
	m, _ := n.store.Meta(rec.ID)
	stored := m.Form == docstore.FormRaw && !n.referenced(rec.ID) &&
		n.rebaseLocked(rec.ID, srcID, conv, maxDepth)
	n.applyMu.Unlock()
	if !stored {
		n.compm.ConversionsSkipped.Add(1)
		return
	}
	n.compm.Conversions.Add(1)
	n.compm.LogicalBytesSaved.Add(int64(len(rec.Payload) - len(conv)))
}

func (n *Node) referenced(id uint64) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.refcnt[id] > 0
}
