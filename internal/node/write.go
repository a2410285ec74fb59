package node

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/dedupcache"
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

// insertLocalEmit is the one routine that creates a key (an update gives an
// existing one a new record, mutateLocalEmit): every new (db, key) on this node, from a client, the replication stream, a snapshot or
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

// finish completes a call of insertLocalEmit or mutateLocalEmit: with
// SyncEncode it waits until a worker has run the job the routine pushed. It
// holds no lock while it waits, applyMu least of all: a worker's source fetch
// may repair a hidden chain, which takes it.
func (n *Node) finish(job encodeJob, err error) error {
	if err == nil && job.done != nil {
		<-job.done
	}
	return err
}

// Update replaces the record's content. The key gets a new record and the old
// one is retired as a delete retires it, so a record's content never changes.
func (n *Node) Update(db, key string, payload []byte) error {
	return n.finish(n.mutateLocalEmit(oplog.OpUpdate, db, key, payload, true))
}

// Delete removes the record from the client's view. If other records decode
// through it, it is hidden rather than destroyed and reclaimed later.
func (n *Node) Delete(db, key string) error {
	return n.finish(n.mutateLocalEmit(oplog.OpDelete, db, key, nil, true))
}

// mutateLocalEmit performs an update (op OpUpdate, to content payload) or a
// delete (OpDelete) of (db, key). Both retire the record the key names
// (retirementLocked); an update first appends payload as a new record under
// the key, in the same Store.Append, so no other append falls between the two
// frames. A crash can still keep the first frame alone, and recover retires the
// old record then. The new record is never sketched: an update ships raw, and
// no delta involves it as a source.
//
// It holds applyMu throughout (lock order: encoder token, applyMu, n.mu): a
// write-back or a repair checks a record and the base it points at under that
// lock and then appends, and a retirement of either landing in between would
// be undone by the append. The store write runs inside the n.mu section and
// moves the key or unpublishes it, and the count, the sequence number and the
// oplog job come only behind it, so a mutation the store refuses, or one that
// arrives once Close began, returns the error with nothing changed, counted or
// logged.
func (n *Node) mutateLocalEmit(op oplog.OpType, db, key string, payload []byte, emit bool) (encodeJob, error) {
	// The one copy of an update's payload: the oplog job and the stored
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
	job := encodeJob{kind: op, db: db, key: key, id: id, payload: cp}
	var release uint64
	var err error
	switch {
	case n.closed:
		err = errClosed
	case !ok:
		err = ErrNotFound
	default:
		var retire docstore.Record
		if retire, release, err = n.retirementLocked(id); err != nil {
			break
		}
		var frames []docstore.Record
		if op == oplog.OpUpdate {
			job.id = n.nextID
			n.nextID++
			frames = append(frames, docstore.Record{ID: job.id, DB: db, Key: key, Payload: cp})
		}
		err = n.store.Append(append(frames, retire)...)
	}
	if err != nil {
		n.mu.Unlock()
		sh.release()
		return encodeJob{}, err
	}
	if op == oplog.OpUpdate {
		n.stats.Updates++
	} else {
		n.stats.Deletes++
	}
	n.recentOps.Add(1)
	job = n.numberLocked(sh, job, emit)
	n.mu.Unlock()
	n.invalidate(id)
	n.moveRefLocked(release, 0)
	return job, nil
}

// retirementLocked returns the frame that takes record id out of the client's
// view, for an update or a delete to append, and the base that loses a
// reference once it is written (0 for none): a tombstone if nothing decodes
// through the record, and then the base of its stored form, or else its hidden
// re-append, which keeps it decodable for the records that do until repair
// or their own end releases it (paper §4.1). Caller holds applyMu and n.mu.
func (n *Node) retirementLocked(id uint64) (docstore.Record, uint64, error) {
	if n.refcnt[id] == 0 {
		was, _ := n.store.Meta(id)
		return docstore.Record{ID: id, Tombstone: true}, baseOf(was.Form, was.BaseID), nil
	}
	rec, ok, err := n.store.Get(id)
	if err == nil && !ok {
		err = ErrNotFound
	}
	if err != nil {
		return rec, 0, err
	}
	rec.Hidden = true
	if rec.Stacked {
		// A record an older node stacked an update onto (recover upgrades
		// it): what decodes through it is its stored form, section 0.
		rec.Stacked = false
		rec.Payload, err = stackedSection(rec.Payload, false)
	}
	return rec, 0, err
}

// invalidate drops what was derived from record id: a pending write-back and
// the source cache's copy. Both are hygiene: a write-back of a record that is
// no longer its key's is refused when it is applied (asInserted), and a read
// of the key no longer reaches the record's ID. Called outside n.mu.
func (n *Node) invalidate(id uint64) {
	n.wb.Invalidate(id)
	if n.eng != nil && n.eng.SourceCache() != nil {
		n.eng.SourceCache().Remove(id)
	}
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
// counted before the old one is dropped. A record left unreferenced that the
// client had retired (hidden) is reclaimed, which cascades into its own base.
// A store error down the cascade leaves an unreferenced hidden record behind,
// not an error for the caller, whose own write is done. Caller holds applyMu,
// under which every count is written, and not n.mu, which guards the map for
// the readers outside applyMu.
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
	if m, _ := n.store.Meta(from); m.Hidden && n.store.Delete(from) == nil {
		n.moveRefLocked(baseOf(m.Form, m.BaseID), 0)
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

	if _, ok := n.asInserted(job.id); n.eng != nil && ok {
		if n.opts.SimulatedEncodeDelay > 0 {
			time.Sleep(n.opts.SimulatedEncodeDelay)
		}
		res, err := n.eng.Encode(job.db, job.id, job.payload)
		if res.GovernorDisabled {
			// The replica takes the verdict from this entry.
			entry.Form = oplog.FormRawDisabled
		}
		if err == nil && res.Deduped {
			// The secondary decodes the forward delta against the
			// source key's visible content at this entry's position in
			// the oplog. A source its key still names held its insert
			// payload then, which is what the delta was computed from;
			// any other ships raw. The write-backs meet the same rule
			// when they are applied.
			if src, ok := n.asInserted(res.SourceID); ok {
				entry.Form = oplog.FormDelta
				entry.BaseKey = src.Key
				entry.Payload = res.Forward.Marshal()
			}
			n.queueWritebacks(res.Writebacks)
		}
	}
	n.appendOplog(entry)
}

// appendOplog fills the slot numberLocked reserved for e.
func (n *Node) appendOplog(e oplog.Entry) {
	n.log.Fill(e)
	n.oplogBytes.Add(int64(e.MarshalledSize()))
}

// asInserted is the one rule a delta obeys: it involves only records that their
// key names. A record's content is its insert payload for as long as it lives,
// whichever read of it a delta was computed from: write-backs, repair and
// compaction change how a record is stored, not what it holds, and an update
// or a delete retires the record in the n.mu section that moves its key away,
// to a new record or to none. IDs are not reused, so a record the rule refuses
// once it refuses for good. It returns the record's metadata.
func (n *Node) asInserted(id uint64) (docstore.MetaInfo, bool) {
	m, ok := n.store.Meta(id)
	if !ok {
		return m, false
	}
	cur, ok := n.store.Lookup(m.DB, m.Key)
	return m, ok && cur == id
}

// queueWritebacks hands the engine's write-backs to the lossy cache, which
// FlushWritebacks drains.
func (n *Node) queueWritebacks(wbs []dedupcache.Writeback) {
	for _, wb := range wbs {
		n.wb.Add(wb)
	}
}

// FlushWritebacks applies up to max pending write-backs (all of them when
// max < 0), returning how many were applied. The cache picks the batch by
// saving, and the batch is applied chain by chain (chainOrder): a chain's
// deltas land as neighbouring frames, so an old revision's hops are read from
// one or two blocks.
func (n *Node) FlushWritebacks(max int) int {
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
	return n.wb.Len()
}

// applyWriteback replaces record wb.ID's stored form with the backward delta,
// unless rebaseLocked refuses it. Skipping is always safe: the record just
// stays in its older, larger form (the "lossy" property of §3.3.2).
func (n *Node) applyWriteback(wb dedupcache.Writeback) bool {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	applied := n.rebaseLocked(wb.ID, wb.Base, wb.Payload)
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
// Write-back apply ends here, with a delta computed outside applyMu, so it is
// checked against the store as it is under the lock, which every writer of an
// existing record holds.
//
// The record and the base must both be named by their keys (asInserted): the
// delta was computed from their contents, which never change, and a record an
// update or a delete has retired since keeps no place that a write-back of it
// could save, whatever became of the stored forms after.
//
// And the chain the new form creates must ground in a raw record without
// passing through id. A write-back re-encodes an older record against a newer
// one, so one that finds the newer record already decoding from the older
// would close a cycle, which recovery refuses to ground, losing the whole
// chain: it sees the committed form here and yields. Caller holds applyMu.
func (n *Node) rebaseLocked(id, base uint64, deltaBytes []byte) bool {
	was, ok := n.asInserted(id)
	if _, baseOK := n.asInserted(base); !ok || !baseOK || !n.grounds(id, base) {
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
