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
	var move func(docstore.Record, func(docstore.Record) bool)
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
// none of its locks, with each live record it is about to move, and commit
// stores the form it is given unless a concurrent write has superseded the
// record. A record this returns for without a commit is moved as it is.
// Safety rests on three rules:
//
//   - Only unreferenced raw records convert ("bases stay raw"): nothing
//     decodes through the converted record, so the rewrite cannot deepen
//     any existing chain, and a cycle would need the new base's chain to
//     pass through the record — which requires the record to be referenced.
//   - The base reference is claimed (refcnt++) before the base's content is
//     decoded: once the claim is visible, client updates of the base stack
//     on top of section 0 and deletes hide rather than reclaim, so the
//     decoded content stays the content the delta will resolve against.
//   - The conversion is verified and committed under applyMu — the lock every
//     base-assigning path (write-back apply, hidden-chain repair) holds — by
//     re-running the grounding walk and an end-to-end decode, so it commits
//     only against the authoritative chain state.
//
// A conversion that is not stored (failed verification, superseded record,
// append error) releases the claimed reference.
func (n *Node) rededupMove(rec docstore.Record, commit func(docstore.Record) bool) {
	if rec.Hidden || rec.Stacked || rec.Form != docstore.FormRaw || n.referenced(rec.ID) {
		return
	}
	maxDepth := n.opts.Compaction.RededupMaxChainDepth
	if maxDepth <= 0 {
		maxDepth = defaultRededupMaxChainDepth
	}
	n.compm.Resketched.Add(1)
	srcID, ok := n.eng.ProbeSimilar(rec.DB, rec.ID, rec.Payload)
	if !ok || srcID == rec.ID {
		return
	}
	conv, ok := n.buildConversion(rec, srcID, maxDepth)
	if !ok {
		return
	}
	n.applyMu.Lock()
	// A reference appearing since the probe means another record now decodes
	// through this one — converting it would deepen that chain. The decode is
	// the end-to-end guard of write-back apply: the delta must reproduce
	// exactly the payload it replaces.
	stored := !n.referenced(rec.ID) &&
		n.rededupStillSafe(rec.ID, srcID, maxDepth) &&
		n.reproducesLocked(srcID, conv.Payload, rec.Payload) &&
		commit(conv)
	n.applyMu.Unlock()
	if !stored {
		n.compm.ConversionsSkipped.Add(1)
		n.releaseRef(srcID)
		return
	}
	n.compm.Conversions.Add(1)
	n.compm.LogicalBytesSaved.Add(int64(len(rec.Payload) - len(conv.Payload)))
}

func (n *Node) referenced(id uint64) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.refcnt[id] > 0
}

// buildConversion claims a reference on srcID, decodes its base content, and
// delta-encodes rec against it. On any failure — or an unprofitable delta —
// the claim is released and rec is returned unchanged.
func (n *Node) buildConversion(rec docstore.Record, srcID uint64, maxDepth int) (docstore.Record, bool) {
	// Claim first: once refcnt[srcID] > 0 is visible, a concurrent client
	// update of the base stacks (section 0 preserved) and a delete hides
	// instead of reclaiming, so the content decoded below stays the
	// content the committed delta will resolve against.
	n.mu.Lock()
	n.refcnt[srcID]++
	n.mu.Unlock()

	abort := func() (docstore.Record, bool) {
		n.releaseRef(srcID)
		return rec, false
	}
	// Advisory pre-check; rededupMove repeats it authoritatively under applyMu.
	if !n.rededupStillSafe(rec.ID, srcID, maxDepth) {
		return abort()
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	base, err := n.decode(sc, srcID, baseContent)
	if err != nil {
		// A similarity-index candidate can name a dead record; the stray
		// refcnt entry the claim created is cleaned up by the release.
		return abort()
	}
	d := n.eng.CompressDelta(base, rec.Payload)
	if d.EncodedSize() >= len(rec.Payload) {
		return abort()
	}
	conv := rec
	conv.Form = docstore.FormDelta
	conv.BaseID = srcID
	conv.Payload = d.Marshal()
	return conv, true
}

// rededupStillSafe walks id's prospective chain starting at baseID and
// reports whether it grounds in a raw record within maxDepth hops without
// passing through id itself (which would be a cycle).
func (n *Node) rededupStillSafe(id, baseID uint64, maxDepth int) bool {
	cur := baseID
	for depth := 1; ; depth++ {
		if cur == id || depth > maxDepth {
			return false
		}
		m, ok := n.store.Meta(cur)
		if !ok {
			return false
		}
		if m.Form != docstore.FormDelta {
			return true
		}
		cur = m.BaseID
	}
}
