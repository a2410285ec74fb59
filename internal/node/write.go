package node

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
	"dbdedup/internal/oplog"
)

// ---------------------------------------------------------------- client ops

// errClosed refuses a mutation that arrives once Close began, before it
// touches the store: the pool would drop its oplog job.
var errClosed = errors.New("node: closed")

// Insert stores a new record under (db, key). The record is durable (modulo
// block buffering) when Insert returns; dedup encoding happens behind it.
//
// The admission controller (when configured) is consulted before any
// resource is reserved: a Reject returns ErrOverloaded without touching the
// store or the encode queue, and a ShedRaw admits the write but marks its
// encode job to bypass the dedup workflow — the record is stored, acked,
// and replicated raw.
func (n *Node) Insert(db, key string, payload []byte) error {
	start := time.Now()
	shed := false
	if n.adm != nil {
		switch n.adm.Decide(db, n.encm.QueueDepth.Value(), n.encQueueCap) {
		case admission.Reject:
			n.admRejected.Add(1)
			return ErrOverloaded
		case admission.ShedRaw:
			shed = true
		}
	}
	// The one copy of the caller's payload, made before n.mu: the unsealed
	// block's record, the encode job, the source cache and a raw oplog entry
	// all share it, none modifies it.
	if err := n.finish(n.insertLocalEmit(db, key, append([]byte(nil), payload...), true, shed)); err != nil {
		return err
	}
	n.latIns.Observe(time.Since(start))
	return nil
}

// insertLocalEmit is the one routine that creates a record: every new
// (db, key) on this node, from a client, the replication stream, a snapshot or
// a shard handoff, is stored here in original form (paper §4.1: new records
// are always stored raw; backward encoding touches older records) and encoded,
// if at all, behind it. The node keeps payload. It refuses an existing key
// with ErrDuplicateKey; the append publishes the key, and the insert is counted
// only behind it, so a failed insert leaves nothing to undo. The returned job
// carries the new record's ID and the insert's mutation sequence number.
//
// The append, the publish and the number share one n.mu critical section, and
// with emit (the encoder token reserved first) so does the enqueue, so oplog
// order matches mutation order; shed marks the job to skip the dedup workflow.
// Without emit what follows the insert (ObserveRaw, or the replica's
// re-encode) is the caller's.
func (n *Node) insertLocalEmit(db, key string, payload []byte, emit, shed bool) (encodeJob, error) {
	var sh *fifoShard[encodeJob]
	if emit {
		sh = n.pool.reserve(db)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	job := encodeJob{kind: oplog.OpInsert, db: db, key: key, id: n.nextID, payload: payload, shedRaw: shed}
	var err error
	switch {
	case n.closed:
		err = errClosed
	case n.Has(db, key):
		err = fmt.Errorf("node: %w: %q/%q", ErrDuplicateKey, db, key)
	default:
		n.nextID++
		err = n.store.Append(docstore.Record{ID: job.id, DB: db, Key: key, Payload: payload})
	}
	if err != nil {
		sh.release()
		return encodeJob{}, err
	}
	n.stats.Inserts++
	n.stats.RawInsertBytes += int64(len(payload))
	if shed {
		n.stats.InsertsShedRaw++
	}
	n.recentOps.Add(1)
	return n.numberLocked(sh, job, emit), nil
}

// finish completes a call of one of the three *LocalEmit routines: with
// SyncEncode it waits until a worker has run the job the routine pushed. It
// holds no lock while it waits, applyMu least of all: a worker applying a
// write-back inline (no write-back cache) takes it.
func (n *Node) finish(job encodeJob, err error) error {
	if err == nil && job.done != nil {
		<-job.done
	}
	return err
}

// Update overwrites the record's visible content.
func (n *Node) Update(db, key string, payload []byte) error {
	return n.finish(n.updateLocalEmit(db, key, payload, true))
}

// stampLocked is what an update and a delete share once the record is found
// and nothing can fail any more: count the op, number it and stamp job.id with
// the number. Caller holds n.mu.
func (n *Node) stampLocked(sh *fifoShard[encodeJob], job encodeJob, emit bool, count *uint64) encodeJob {
	*count++
	n.recentOps.Add(1)
	job = n.numberLocked(sh, job, emit)
	n.lastMut[job.id] = job.opSeq
	return job
}

// invalidate drops what was derived from record id's old content: a pending
// write-back, which must never clobber fresh client data, and the source
// cache's copy. Called after the stamp, outside n.mu.
func (n *Node) invalidate(id uint64) {
	if n.wb != nil {
		n.wb.Invalidate(id)
	}
	if n.eng != nil && n.eng.SourceCache() != nil {
		n.eng.SourceCache().Remove(id)
	}
}

// updateLocalEmit performs the update. Like a delete it holds applyMu
// throughout (lock order: encoder token, applyMu, n.mu): a write-back or a
// repair checks a record and the base it points at under that lock and then
// appends, and an update of either landing in between would be
// overwritten by older content, or overwrite what the other record is about to
// decode from. And it has a delete's failure contract: the store write runs
// inside the n.mu section, and the count, the sequence number, the stamp and
// the oplog job come only behind it, so an update the store refuses returns the
// error with nothing changed, counted, stamped or logged, and so does an
// update that arrives once Close began. The new content and its stamp share
// that one section, which is what the encoder's guard on a forward delta
// needs: changedSince takes n.mu, so whoever read the new content finds the
// stamp. The append carries Record.Updated, so the key's updated bit, which
// tells Read not to trust the source cache, is set with the new content.
func (n *Node) updateLocalEmit(db, key string, payload []byte, emit bool) (encodeJob, error) {
	// The one copy of the caller's payload: the oplog job and the stored
	// record share it, and neither modifies it.
	cp := append([]byte(nil), payload...)
	var sh *fifoShard[encodeJob]
	if emit {
		sh = n.pool.reserve(db)
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	id, ok := n.lookup(db, key)
	var was docstore.MetaInfo // the overwritten form, when nothing decodes through the record
	var err error
	switch {
	case n.closed:
		err = errClosed
	case !ok:
		err = ErrNotFound
	case n.refcnt[id] == 0:
		// Nobody decodes through this record: plain overwrite.
		was, _ = n.store.Meta(id)
		err = n.store.Append(docstore.Record{ID: id, DB: db, Key: key, Payload: cp, Updated: true})
	default:
		// Referenced: keep the stored form intact as section 0 and
		// stack the update on top (paper §4.1, Update).
		err = n.stackLocked(id, cp)
	}
	if err != nil {
		n.mu.Unlock()
		sh.release()
		return encodeJob{}, err
	}
	job := n.stampLocked(sh, encodeJob{kind: oplog.OpUpdate, db: db, key: key, id: id, payload: cp},
		emit, &n.stats.Updates)
	n.mu.Unlock()
	n.invalidate(id)
	// If the overwritten form was a delta, its base loses a reference.
	n.moveRefLocked(baseOf(was.Form, was.BaseID), 0)
	return job, nil
}

// stackLocked appends record id with content as its visible section, the last
// one, on top of its stored form, as an update. Caller holds applyMu.
func (n *Node) stackLocked(id uint64, content []byte) error {
	rec, ok, err := n.store.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	stored := rec.Payload
	if rec.Stacked {
		// Replace the visible section.
		if stored, err = stackedSection(rec.Payload, false); err != nil {
			return err
		}
	}
	rec.Stacked, rec.Updated, rec.Payload = true, true, stackPayload(stored, content)
	return n.store.Append(rec)
}

// Delete removes the record from the client's view. If other records decode
// through it, it is hidden rather than destroyed and reclaimed later.
func (n *Node) Delete(db, key string) error {
	return n.finish(n.deleteLocalEmit(db, key, true))
}

// deleteLocalEmit performs the delete, under applyMu for an update's reason: a
// tombstone landing between a write-back's check and its append would be
// undone by the append. The store write that makes the delete durable, the
// tombstone or the record's hidden form, runs inside the n.mu section and
// unpublishes the key: a delete the store refuses, or one that arrives once
// Close began, returns the error with nothing unpublished, counted, stamped or
// logged.
func (n *Node) deleteLocalEmit(db, key string, emit bool) (encodeJob, error) {
	var sh *fifoShard[encodeJob]
	if emit {
		sh = n.pool.reserve(db)
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	id, ok := n.lookup(db, key)
	refs := n.refcnt[id]
	var was docstore.MetaInfo // the record, when nothing decodes through it and it goes
	var err error
	switch {
	case n.closed:
		err = errClosed
	case !ok:
		err = ErrNotFound
	case refs == 0:
		was, _ = n.store.Meta(id)
		err = n.store.Delete(id)
	default:
		rec, found, getErr := n.store.Get(id)
		if err = getErr; err == nil && found { // a key without a record has nothing to hide
			rec.Hidden = true
			err = n.store.Append(rec)
		}
	}
	if err != nil {
		n.mu.Unlock()
		sh.release()
		return encodeJob{}, err
	}
	job := n.stampLocked(sh, encodeJob{kind: oplog.OpDelete, db: db, key: key, id: id},
		emit, &n.stats.Deletes)
	n.mu.Unlock()
	n.invalidate(id)
	if refs == 0 {
		n.removedLocked(id, was)
	}
	return job, nil
}

// removedLocked settles the books for record id, whose tombstone is written
// and which was stored as was: its mutation stamp goes with it (lastMut
// follows live records; a guard that finds no stamp finds no record either,
// and IDs are not reused), and the base it decoded from loses a reference.
// Caller holds applyMu.
func (n *Node) removedLocked(id uint64, was docstore.MetaInfo) {
	n.mu.Lock()
	delete(n.lastMut, id)
	n.mu.Unlock()
	n.moveRefLocked(baseOf(was.Form, was.BaseID), 0)
}

// baseOf returns the record a stored form decodes from, 0 (no record's ID)
// for a raw form.
func baseOf(form docstore.Form, baseID uint64) uint64 {
	if form != docstore.FormDelta {
		return 0
	}
	return baseID
}

// putLocked appends rec, the new stored form of a record that was stored as
// was, and moves the record's reference from the old form's base to the new
// one's. Caller holds applyMu and not n.mu.
func (n *Node) putLocked(rec docstore.Record, was docstore.MetaInfo) error {
	if err := n.store.Append(rec); err != nil {
		return err
	}
	n.moveRefLocked(baseOf(was.Form, was.BaseID), baseOf(rec.Form, rec.BaseID))
	return nil
}

// moveRefLocked is where reference counts change once recover has built them:
// a stored form that decoded from record from is gone or replaced by one that
// decodes from record to (0: from nothing, a raw form). The new reference is
// counted before the old one is dropped. A record left unreferenced is
// settled: reclaimed if the client had deleted it (hidden), or written back
// in plain form if it carries stacked client updates (paper §4.1: "when the
// reference count reaches zero, dbDedup compacts all the updates to the record
// and replaces it with the new data"); either cascades into that record's own
// base. A store error down the cascade leaves an unreferenced hidden or
// stacked record behind, not an error for the caller, whose own write is
// done. Caller holds applyMu, under which every count is written, and not
// n.mu, which guards the map for the readers outside applyMu.
func (n *Node) moveRefLocked(from, to uint64) {
	if from == to {
		return
	}
	n.mu.Lock()
	if to != 0 {
		n.refcnt[to]++
	}
	settle := false
	if from != 0 {
		n.refcnt[from]--
		if settle = n.refcnt[from] <= 0; settle {
			delete(n.refcnt, from)
		}
	}
	n.mu.Unlock()
	if !settle {
		return
	}
	switch m, _ := n.store.Meta(from); {
	case m.Hidden:
		if n.store.Delete(from) == nil {
			n.removedLocked(from, m)
		}
	case m.Stacked:
		n.compactStackedLocked(from, m)
	}
}

// ------------------------------------------------------------------- encode

// process runs the dedup workflow for one queued mutation and emits its
// oplog entry. It runs on the job's encoder worker, and then releases a
// SyncEncode caller waiting in finish.
func (n *Node) process(job encodeJob) {
	e := oplog.Entry{Seq: job.opSeq, TS: time.Now().UnixNano(), Op: job.kind,
		DB: job.db, Key: job.key, Payload: job.payload}
	if job.kind == oplog.OpInsert {
		n.processInsert(job, e)
	} else {
		n.appendOplog(e)
	}
	if job.done != nil {
		close(job.done)
	}
}

func (n *Node) processInsert(job encodeJob, entry oplog.Entry) {
	// A shed insert ships raw: no sketch, no index probe, no delta — the
	// whole point of shedding is that the worker's time per job collapses
	// to an oplog append so the queue drains. The record is already in the
	// store, and stays raw: its share of the ratio is given up.
	if job.shedRaw {
		n.appendOplog(entry)
		return
	}

	if n.eng != nil && !n.changedSince(job.id, job.opSeq) {
		if n.opts.SimulatedEncodeDelay > 0 {
			time.Sleep(n.opts.SimulatedEncodeDelay)
		}
		res, err := n.eng.Encode(job.db, job.id, job.payload)
		// If the record was client-mutated while encoding, the engine
		// may have cached its stale insert payload as a dedup source;
		// scrub it. The content-verifying write-back guard below makes
		// any remaining staleness harmless.
		if n.eng.SourceCache() != nil && n.changedSince(job.id, job.opSeq) {
			n.eng.SourceCache().Remove(job.id)
		}
		if res.GovernorDisabled {
			// The replica takes the verdict from this entry.
			entry.Form = oplog.FormRawDisabled
		}
		if err == nil && res.Deduped {
			// The forward delta was computed against the source's
			// *current* content. The secondary decodes it against the
			// source content as of this entry's position in the oplog,
			// so if the source was client-mutated after this insert was
			// accepted, the two differ: ship raw instead. The local
			// write-backs carry the same guard.
			srcKey, ok := n.keyOf(res.SourceID)
			if ok && !n.changedSince(res.SourceID, job.opSeq) {
				entry.Form = oplog.FormDelta
				entry.BaseKey = srcKey
				entry.Payload = res.Forward.Marshal()
			}
			n.queueWritebacks(res.Writebacks, job.opSeq)
		}
	}
	n.appendOplog(entry)
}

// keyOf returns the client key of record id (hidden records excluded).
func (n *Node) keyOf(id uint64) (string, bool) {
	m, ok := n.store.Meta(id)
	if !ok || m.Hidden {
		return "", false
	}
	return m.Key, true
}

// appendOplog fills the slot numberLocked reserved for e.
func (n *Node) appendOplog(e oplog.Entry) {
	n.log.Fill(e)
	n.oplogBytes.Add(int64(e.MarshalledSize()))
}

// changedSince reports whether record id was updated or deleted after mutation
// seq: its stamp is newer, or the record is gone and its stamp with it. The
// stamp is read first: a delete writes its tombstone before it stamps, and the
// stamp is dropped only after that.
func (n *Node) changedSince(id, seq uint64) bool {
	n.mu.RLock()
	stamp := n.lastMut[id]
	n.mu.RUnlock()
	if stamp > seq {
		return true
	}
	_, ok := n.store.Meta(id)
	return !ok
}

// queueWritebacks routes the engine's write-back decisions through the lossy
// cache (or applies them inline when the cache is disabled). seq is the
// sequence number of the insert they were computed for: the deltas were built
// from that record's insert payload and from what the others held at the
// time, so a client mutation of either side after seq must invalidate them.
func (n *Node) queueWritebacks(wbs []core.Writeback, seq uint64) {
	for _, wb := range wbs {
		w := dedupcache.Writeback{ID: wb.ID, Base: wb.Base, Seq: seq,
			Payload: wb.Delta.Marshal(), Saving: wb.EstimatedSaving}
		if n.wb == nil {
			n.applyWriteback(w)
			continue
		}
		n.wb.Add(w)
	}
}

// FlushWritebacks applies up to max pending write-backs (all of them when
// max < 0), returning how many were applied. The cache picks the batch by
// saving, and the batch is applied chain by chain (chainOrder): a chain's
// deltas land as neighbouring frames, so an old revision's hops are read from
// one or two blocks, and each rebase's proof decodes a base this flush has not
// re-encoded yet.
func (n *Node) FlushWritebacks(max int) int {
	if n.wb == nil {
		return 0
	}
	if max < 0 {
		max = n.wb.Len()
	}
	batch := n.wb.DrainBest(max)
	links := make([]wbLink, len(batch))
	for i, wb := range batch {
		links[i] = wbLink{id: wb.ID, base: wb.Base}
	}
	applied := 0
	for _, i := range chainOrder(links) {
		if n.applyWriteback(batch[i]) {
			applied++
		}
	}
	return applied
}

// wbLink is one write-back of a batch as chainOrder sees it: record id is to
// decode from record base.
type wbLink struct{ id, base uint64 }

// chainOrder returns the order in which to apply a batch of write-backs, as
// indices into links. A write-back's chain is found by following base links
// through the batch's own write-backs up to the first base that has none in
// the batch, the chain's root. Chains go in their roots' ID order and, within
// a chain, write-backs go in ascending record ID, oldest first. Links are
// data: a walk that meets a record it passed (a cycle, a self-base) ends
// there, and the cycle's smallest ID stands for its root, which no real root
// can be, as a real root has no write-back in the batch. An ID listed twice
// keeps its last base, and its entries keep their batch order.
func chainOrder(links []wbLink) []int {
	base := make(map[uint64]uint64, len(links))
	for _, l := range links {
		base[l.id] = l.base
	}
	root := make(map[uint64]uint64, len(base))
	onWalk := make(map[uint64]int, len(base)) // position in this walk's path
	var path []uint64
	for _, l := range links {
		path = path[:0]
		var r uint64
		for id := l.id; ; {
			if known, ok := root[id]; ok {
				r = known
				break
			}
			b, ok := base[id]
			if !ok {
				r = id
				break
			}
			if at, ok := onWalk[id]; ok {
				r = slices.Min(path[at:])
				break
			}
			onWalk[id] = len(path)
			path = append(path, id)
			id = b
		}
		for _, id := range path {
			root[id] = r
		}
	}
	order := make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := links[order[a]], links[order[b]]
		if ra, rb := root[la.id], root[lb.id]; ra != rb {
			return ra < rb
		}
		return la.id < lb.id
	})
	return order
}

// PendingWritebacks returns the size of the write-back backlog.
func (n *Node) PendingWritebacks() int {
	if n.wb == nil {
		return 0
	}
	return n.wb.Len()
}

// applyWriteback replaces record wb.ID's stored form with the backward delta,
// unless the record — or the base it would decode from — changed since the
// delta was computed, at wb.Seq. Skipping is always safe: the record just stays in its
// older, larger form (the "lossy" property of §3.3.2). The stamps are the fast
// filter; rebaseLocked is the proof.
func (n *Node) applyWriteback(wb dedupcache.Writeback) bool {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	applied := !n.changedSince(wb.ID, wb.Seq) && !n.changedSince(wb.Base, wb.Seq) &&
		n.rebaseLocked(wb.ID, wb.Base, wb.Payload)
	n.mu.Lock()
	if applied {
		n.stats.WritebacksApplied++
	} else {
		n.stats.WritebacksSkipped++
	}
	n.mu.Unlock()
	return applied
}

// maxChainWalk bounds grounds' walk down a chain, so that a cycle ends it.
const maxChainWalk = 1 << 20

// rebaseLocked is the one way an existing record comes to decode from another:
// it stores record id as the marshalled delta deltaBytes against record base
// and moves the reference with it, or reports false and changes nothing.
// Write-back apply ends here, with a delta computed outside applyMu from
// content that may be stale by now, so everything is checked against the store
// as it is under the lock, which every writer of an existing record holds.
//
// The chain the new form creates must ground in a raw record without passing
// through id. A write-back re-encodes an older record against a newer one, so
// one that finds the newer record already decoding from the older would close
// a cycle, which recovery refuses to ground, losing the whole chain: it sees
// the committed form here and yields.
//
// And the new form must decode to exactly what the record decodes to now:
// the delta applied to the base's current bytes reproduces the record's
// current content. That catches every staleness, of the record or of the base,
// whatever caused it; failing it costs only compression. Caller holds applyMu.
func (n *Node) rebaseLocked(id, base uint64, deltaBytes []byte) bool {
	was, ok := n.store.Meta(id)
	if !ok || was.Stacked || was.Hidden || !n.grounds(id, base) {
		return false
	}
	cur, err := n.decode(&n.applyScratch[0], id, baseContentNoRepair)
	if err != nil {
		return false
	}
	baseContent, err := n.decode(&n.applyScratch[1], base, baseContentNoRepair)
	if err != nil {
		return false
	}
	got, err := delta.ApplyInto(n.applyCheck, baseContent, deltaBytes)
	if err != nil {
		return false
	}
	n.applyCheck = got
	if !bytes.Equal(got, cur) {
		return false
	}
	return n.putLocked(docstore.Record{ID: id, DB: was.DB, Key: was.Key,
		Form: docstore.FormDelta, BaseID: base, Payload: deltaBytes}, was) == nil
}

// grounds walks the chain record id would have with baseID as its base and
// reports whether it reaches a raw record within maxChainWalk hops without
// passing through id itself (which would be a cycle).
func (n *Node) grounds(id, baseID uint64) bool {
	cur := baseID
	for depth := 1; ; depth++ {
		if cur == id || depth > maxChainWalk {
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

// compactStackedLocked rewrites stacked record id, stored as was, which
// nothing decodes through any more, as a plain raw record holding its visible
// content. Caller holds applyMu.
func (n *Node) compactStackedLocked(id uint64, was docstore.MetaInfo) {
	var visible []byte // the store keeps it: a slice of its own
	err := n.lend(id, was, true, func(stored []byte) error {
		visible = append([]byte(nil), stored...)
		return nil
	})
	if err != nil {
		return
	}
	// Not an error for the caller, whose own write is done: the record stays
	// stacked.
	_ = n.putLocked(docstore.Record{ID: id, DB: was.DB, Key: was.Key, Hidden: was.Hidden, Payload: visible}, was)
}

// flushLoop applies write-backs when the node looks idle (the paper's I/O
// queue length signal; our proxy is the client op rate plus the encode
// queue depth).
func (n *Node) flushLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
			busy := n.recentOps.Swap(0) > 4
			if busy {
				continue
			}
			if n.encm.QueueDepth.Value() > 0 {
				continue
			}
			n.FlushWritebacks(idleFlushBatch)
		}
	}
}
