package node

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dbdedup/internal/metrics"
	"dbdedup/internal/oplog"
)

// Applier is the secondary-side counterpart of the node's encoder pool: the
// same fifoPool (pool.go), applying replicated oplog entries. Mutations to
// one database apply in sequence order while independent databases apply
// concurrently, so a secondary can keep up with a parallel primary (cf. the
// pipeline-parallel apply designs of FOLD and Li et al., PAPERS.md).
//
// The replication layer is the single dispatcher: it feeds entries in
// sequence order via EnqueueEntry/EnqueueSnapshotRecord and uses Barrier
// around snapshot frames (which touch arbitrary databases and must not
// interleave with in-flight entries). The applied sequence number becomes a
// low-water mark: LowWater reports the largest seq S such that every
// dispatched entry with seq ≤ S has been applied, however the per-shard
// completions interleave.
//
// A record that arrives whole, a snapshot record or a fetch answer, carries
// the stamp the primary read it at, and the applier keeps one rule: an entry
// whose key holds a stamp ≥ its Seq is already reflected and is skipped, and
// a forward-encoded insert whose base holds one is fetched whole, since the
// base here may be newer than the one the primary encoded against. The stamps
// are forgotten at each snapshot, and once the low-water mark reaches the
// largest of them: no entry still to come is numbered at or below it.
//
// Enqueue methods and Reset must be called from the dispatcher goroutine.
// Barrier is additionally safe to call concurrently with Close and from
// other goroutines (it then orders arbitrarily against concurrent
// enqueues); all remaining methods are safe for concurrent use.
type Applier struct {
	n     *Node
	fetch func(db, key string) (Stamped, error)
	m     *metrics.ApplyMetrics
	pool  *fifoPool[applyJob]

	mu      sync.Mutex
	errv    error
	base    uint64       // all dispatched seqs <= base are applied
	pending []*applySlot // dispatched tracked seqs > base, dispatch order
	// stamps holds the stamp of every key that arrived whole since the last
	// snapshot began, and maxStamp the largest. Guarded by mu.
	stamps   map[dbKey]uint64
	maxStamp uint64
}

// dbKey names a key across databases.
type dbKey struct{ db, key string }

// ApplierOptions configures an apply pool.
type ApplierOptions struct {
	// Fetch reads a record whole, with its stamp, for a forward-encoded
	// insert whose delta base is missing here or newer than the encoding's
	// (normally from the primary over the replication fetch connection). It
	// is called from multiple workers concurrently and must be safe for
	// that, and it retries transport faults itself: any error poisons the
	// pool. nil disables the fallback: such an insert becomes a terminal
	// apply error.
	Fetch func(db, key string) (Stamped, error)
}

type applyJob struct {
	entry oplog.Entry
	rec   *Stamped   // a snapshot record of entry's DB and Key; untracked
	slot  *applySlot // low-water tracking (nil for snapshot records)
}

// applySlot tracks one dispatched entry in the low-water window.
type applySlot struct {
	seq  uint64
	done bool
}

// NewApplier starts an apply pool over n. afterSeq seeds the low-water mark
// (the last sequence number already applied before this pool took over).
// The pool is shaped like n's encoder pool: EncodeWorkers shards, entries
// hashed to them by database name, each queue EncodeQueue deep. The
// dispatcher blocks when a shard is full — backpressure onto the replication
// stream instead of unbounded memory growth.
func NewApplier(n *Node, afterSeq uint64, opts ApplierOptions) *Applier {
	a := &Applier{n: n, fetch: opts.Fetch, m: n.ApplyMetrics(), base: afterSeq, stamps: make(map[dbKey]uint64)}
	a.pool = newFIFOPool(n.opts.EncodeWorkers, n.opts.EncodeQueue, a.run, &a.m.Workers, &a.m.QueueDepth, &a.m.QueueOverflows)
	return a
}

// EnqueueEntry dispatches one replicated oplog entry to its database's
// shard, blocking while the shard is at capacity. Entries must be enqueued
// in sequence order. The second argument is ignored.
func (a *Applier) EnqueueEntry(e oplog.Entry, _ bool) {
	slot := &applySlot{seq: e.Seq}
	a.mu.Lock()
	a.pending = append(a.pending, slot)
	a.mu.Unlock()
	a.dispatch(e.DB, applyJob{entry: e, slot: slot})
}

// EnqueueSnapshotRecord dispatches one snapshot record, present or absent,
// to its database's shard; it is installed and its key stamped.
func (a *Applier) EnqueueSnapshotRecord(db, key string, r Stamped) {
	a.dispatch(db, applyJob{entry: oplog.Entry{DB: db, Key: key}, rec: &r})
}

// dispatch reserves and pushes in one step: the single dispatcher is what
// fixes the order. A stopped pool drops the job, so its slot stays pending
// and the low-water mark does not advance over it.
func (a *Applier) dispatch(db string, job applyJob) {
	a.pool.push(a.pool.reserve(db), job)
}

// Barrier blocks until every job enqueued before the call has been applied.
// The replication layer brackets snapshot frames with it: a snapshot
// replaces state across arbitrary databases and must not interleave with
// in-flight entries on any shard.
//
// Barrier is safe to call concurrently with Close (e.g. from WaitForSeq
// while the secondary shuts down); see fifoPool.plant.
func (a *Applier) Barrier() { a.pool.plant().Wait() }

// BeginSnapshot forgets every stamp: the snapshot restates every key, in the
// numbers of the log it comes from. Callers must Barrier first.
func (a *Applier) BeginSnapshot() {
	a.mu.Lock()
	clear(a.stamps)
	a.maxStamp = 0
	a.mu.Unlock()
}

// EndSnapshot completes a snapshot whose records are all applied (callers
// must Barrier first): it deletes every local key the snapshot did not list,
// which was absent on the primary at cursor, then rebases the low-water mark
// to cursor. A delete that fails returns its error with the mark unmoved.
func (a *Applier) EndSnapshot(cursor uint64) error {
	a.mu.Lock()
	listed := a.stamps // no worker runs to change it: callers Barrier first
	a.mu.Unlock()
	for _, db := range a.n.DBNames() {
		if _, err := a.n.Retain(db, func(key string) bool { _, ok := listed[dbKey{db, key}]; return ok }, false); err != nil {
			return fmt.Errorf("reconciling %q after snapshot: %w", db, err)
		}
	}
	a.Reset(cursor)
	return nil
}

// Reset rebases the low-water mark: the snapshot defines the stream position
// outright (an epoch-mismatch resync can rebase it downward). Callers must
// Barrier first so no tracked entries are in flight.
func (a *Applier) Reset(seq uint64) {
	a.mu.Lock()
	a.base = seq
	a.pending = a.pending[:0]
	a.forgetStampsLocked()
	a.mu.Unlock()
}

// forgetStampsLocked drops every stamp once the low-water mark has reached
// the largest: no entry still to come is numbered at or below it. Caller
// holds mu.
func (a *Applier) forgetStampsLocked() {
	if len(a.stamps) > 0 && a.base >= a.maxStamp {
		clear(a.stamps)
		a.maxStamp = 0
	}
}

// covers reports whether (db, key) holds a stamp ≥ seq.
func (a *Applier) covers(db, key string, seq uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stamps[dbKey{db, key}] >= seq
}

// LowWater returns the applied-sequence low-water mark: every dispatched
// entry with seq at or below it has been applied.
func (a *Applier) LowWater() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.base
}

// Err returns the first terminal apply error. Once set, remaining queued
// jobs are drained without being applied (order past a failed entry is
// meaningless) and the replication stream is expected to stop.
func (a *Applier) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.errv
}

func (a *Applier) fail(err error) {
	a.mu.Lock()
	if a.errv == nil {
		a.errv = err
	}
	a.mu.Unlock()
}

// Close drains the shard queues and stops the workers. The dispatcher must
// have stopped enqueueing first.
func (a *Applier) Close() { a.pool.close() }

// run applies one job and, on success, advances the low-water window. A
// failed entry — and every entry drained after the pool is poisoned —
// leaves its slot pending, so the low-water mark freezes at the first
// unapplied sequence: AppliedSeq never reports entries that were not
// actually applied, and a secondary that resumes from the mark (repl states
// it with its epoch in every hello) cannot skip them.
func (a *Applier) run(job applyJob) {
	if a.Err() != nil {
		return // poisoned: drain without applying
	}
	start := time.Now()
	e := job.entry
	var err error
	switch {
	case job.rec != nil:
		err = a.install(e.DB, e.Key, *job.rec)
	case a.covers(e.DB, e.Key, e.Seq):
		// The key arrived whole at or after this entry: already reflected.
	case e.Op == oplog.OpInsert && e.Form == oplog.FormDelta && a.covers(e.DB, e.BaseKey, e.Seq):
		// The base arrived whole after this insert was encoded, so the copy
		// here can be newer than the primary's, and delta.Apply checks only
		// ranges and length: decoding would store wrong bytes.
		err = a.fetchWhole(e, fmt.Errorf("%w: %q/%q is newer than insert %d of %q", ErrBaseMissing, e.DB, e.BaseKey, e.Seq, e.Key))
	default:
		if err = a.n.ApplyReplicated(e); errors.Is(err, ErrBaseMissing) {
			err = a.fetchWhole(e, err)
		}
	}
	a.m.Latency.Observe(time.Since(start))
	if err != nil {
		a.m.ApplyFailures.Add(1)
		if job.rec != nil {
			a.fail(fmt.Errorf("snapshot record %s/%s: %w", e.DB, e.Key, err))
		} else {
			a.fail(fmt.Errorf("applying seq %d: %w", e.Seq, err))
		}
		return
	}
	a.m.Applied.Add(1)
	a.complete(job)
}

// fetchWhole applies forward-encoded insert e, which could not be decoded
// here (miss says why), as the record the primary holds now (paper §4.1
// fn. 4). The fetched record's stamp covers the insert and whatever followed
// it up to the read, a delete included.
func (a *Applier) fetchWhole(e oplog.Entry, miss error) error {
	if a.fetch == nil {
		return miss
	}
	r, err := a.fetch(e.DB, e.Key)
	if errors.Is(err, ErrFetchRefused) {
		// The primary is no longer in e's log. The snapshot its reconnect
		// brings restates the key; until then the key stays absent and no
		// entry of the old log touches it.
		r, err = Stamped{Stamp: math.MaxUint64}, nil
	}
	if err != nil {
		// The fetch rides out transport faults itself, so it gave up for
		// good (the replication fetcher only when closing).
		return fmt.Errorf("%w (fetch fallback: %w)", miss, err)
	}
	if err = a.install(e.DB, e.Key, r); err == nil && r.Present {
		a.m.BaseFetches.Add(1)
	}
	return err
}

// install stores a record that arrived whole, upserting it or deleting the
// key if it was absent, and stamps the key. The upsert counts an insert
// exactly once: a failed insert counted nothing.
func (a *Applier) install(db, key string, r Stamped) error {
	var err error
	if r.Present {
		err = a.n.Upsert(db, key, r.Content, false)
	} else if _, err = a.n.mutateLocalEmit(oplog.OpDelete, db, key, nil, false); errors.Is(err, ErrNotFound) {
		err = nil
	}
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stamps[dbKey{db, key}], a.maxStamp = r.Stamp, max(a.maxStamp, r.Stamp)
	return nil
}

// complete marks an applied job's slot done and advances the low-water mark
// over the applied prefix of the dispatch window. It is only called for
// jobs that applied successfully; an unapplied slot stays pending and pins
// the mark.
func (a *Applier) complete(job applyJob) {
	if job.slot == nil {
		return
	}
	a.mu.Lock()
	job.slot.done = true
	for len(a.pending) > 0 && a.pending[0].done {
		a.base = a.pending[0].seq
		a.pending = a.pending[1:]
	}
	a.forgetStampsLocked()
	a.mu.Unlock()
}
