// Package node implements a dbDedup DBMS node: the document store, oplog,
// dedup engine, and caches wired together per paper §4.1 (Fig. 8).
//
// Inserts are stored raw and acknowledged immediately; the dedup encoder
// runs behind a pool of background workers, off the critical path, and
// produces (a) the forward-encoded oplog entry that replication ships and
// (b) backward write-backs that the lossy write-back cache applies when the
// node is idle. Encode jobs go through a fifoPool (pool.go): mutations to one
// database are processed in the order they took effect (the invariant oplog
// correctness rests on), independent databases encode in parallel, and a
// client mutation that finds its database's bounded queue full blocks until
// the encoder catches up (backpressure).
// Reads decode through backward-delta chains, consulting the source record
// cache. Reference counts protect every record that serves as a decode base:
// updates to referenced records append ("stack") instead of overwriting, and
// deletes hide instead of removing, with opportunistic chain repair on reads.
package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/metrics"
	"dbdedup/internal/oplog"
)

// ErrNotFound is returned for reads/updates/deletes of absent records.
var ErrNotFound = errors.New("node: record not found")

// ErrOverloaded is returned for inserts refused by admission control: the
// server is in overload and the caller's tenant is past its fair share. The
// insert did not happen; the client may retry with backoff or against
// another shard.
var ErrOverloaded = errors.New("node: overloaded, insert rejected by admission control")

// ErrDuplicateKey is returned for inserts whose (db, key) already exists.
var ErrDuplicateKey = errors.New("duplicate key")

// Options configures a node.
type Options struct {
	// Dir is the storage directory ("" = in-memory).
	Dir string
	// Engine configures the dedup engine.
	Engine core.Config
	// DisableDedup turns the dedup engine off entirely (the "Original"
	// baseline configuration in Fig. 12).
	DisableDedup bool
	// BlockCompression enables block-level compression in the store (the
	// "Snappy" configuration).
	BlockCompression bool
	// BlockSize, SegmentSize, CacheBlocks, CacheShards pass through to
	// the store.
	BlockSize, SegmentSize, CacheBlocks, CacheShards int
	// SyncWrites passes through to the store: fsync each sealed block, so
	// an acknowledged Flush survives a crash.
	SyncWrites bool
	// FS is the filesystem the store runs on (nil = direct os-backed).
	// Crash tests install a faultfs.Injector here.
	FS faultfs.FS
	// OplogCapacity bounds the retained oplog entries.
	OplogCapacity int
	// WritebackCacheBytes bounds the lossy write-back cache (default
	// 8 MiB; negative disables the cache, applying write-backs inline —
	// the Fig. 13b "without write-back cache" configuration).
	WritebackCacheBytes int64
	// SyncEncode makes the encoder run inline with Insert instead of
	// behind the background queue. Deterministic; used by tests and the
	// compression-ratio experiments.
	SyncEncode bool
	// EncodeQueue bounds each encoder shard's queue (default 1024). A
	// client mutation that finds its database's shard full blocks until
	// the encoder drains a slot — caller backpressure instead of unbounded
	// memory growth; such stalls are counted in Stats.EncodeOverflows.
	EncodeQueue int
	// EncodeWorkers is the number of background encoder workers, each
	// owning one queue shard; jobs are hashed by database name so
	// per-database encode order always matches mutation order. Defaults
	// to GOMAXPROCS.
	EncodeWorkers int
	// DisableAutoFlush stops the background idle flusher; callers drive
	// FlushWritebacks manually (experiments do).
	DisableAutoFlush bool
	// FlushInterval is the idle-detection period (default 10ms).
	FlushInterval time.Duration
	// SimulatedAppendDelay injects per-append device latency into the
	// store (experiments emulating slow disks).
	SimulatedAppendDelay time.Duration
	// SimulatedEncodeDelay injects per-insert latency into the dedup
	// encode stage (the storm harness uses it to pin the encoder pool's
	// capacity independent of host speed). Shed-raw inserts skip it, like
	// they skip the real encode work it stands in for.
	SimulatedEncodeDelay time.Duration
	// Admission configures overload protection in front of the encoder
	// pool: admission control, per-tenant fair share, and shed-to-raw
	// degradation. Zero value = no controller (admit everything).
	Admission admission.Options
	// Compaction configures background dead-space reclamation.
	Compaction CompactionOptions
}

// idleFlushBatch is how many write-backs one idle tick applies.
const idleFlushBatch = 64

// Stats is a node-level snapshot.
type Stats struct {
	Store  docstore.Stats
	Engine core.Stats
	// RawInsertBytes is the total client payload bytes inserted.
	RawInsertBytes int64
	// OplogBytes is the marshalled size of all oplog entries produced —
	// what replication would ship.
	OplogBytes int64
	// Oplog is what the log retains right now and what it has discarded,
	// split by the bound that was hit. A secondary further behind than the
	// retained window resyncs from a snapshot.
	Oplog oplog.Stats
	// Inserts/Reads/Updates/Deletes count client operations.
	Inserts, Reads, Updates, Deletes uint64
	// WritebacksApplied / WritebacksSkipped count flush outcomes.
	WritebacksApplied, WritebacksSkipped uint64
	// DecodeSteps counts base fetches performed by reads.
	DecodeSteps uint64
	// HiddenRepaired counts hidden records spliced out of decode chains.
	HiddenRepaired uint64
	// Compactions counts segment compaction passes; CompactionBytes the
	// disk bytes they reclaimed.
	Compactions     uint64
	CompactionBytes int64
	// EncodeWorkers is the size of the background encoder pool (0 in
	// synchronous mode).
	EncodeWorkers int
	// EncodeQueueDepth is the number of encode jobs queued or in flight.
	EncodeQueueDepth int64
	// EncodeOverflows counts client mutations that found their encoder
	// shard full and had to wait for it to drain.
	EncodeOverflows int64
	// InsertsShedRaw counts acknowledged inserts whose dedup encoding was
	// shed by admission control (stored and replicated raw; recoverable by
	// compaction-time re-dedup). Included in Inserts.
	InsertsShedRaw uint64
	// InsertsRejected counts inserts refused with ErrOverloaded. Not
	// included in Inserts — the write did not happen.
	InsertsRejected uint64
	// Admission is the admission controller's snapshot (zero when no
	// controller is configured).
	Admission admission.Snapshot
}

// Node is a single DBMS node (primary or secondary).
type Node struct {
	opts  Options
	store *docstore.Store
	log   *oplog.Log
	eng   *core.Engine
	wb    *dedupcache.WritebackCache

	mu sync.RWMutex
	// keys is lock-free for readers (see keyDir): Read/Has resolve keys
	// without touching n.mu. Writers stay serialised — by n.mu on the
	// client path, by the applier's per-database FIFO on the replica path
	// — and publish a key only after its record is appended.
	keys    keyDir
	refcnt  map[uint64]int    // decode-base reference counts
	version map[uint64]uint32 // bumped on client update/delete
	nextID  uint64
	stats   Stats
	latIns  *metrics.Histogram
	latRead *metrics.Histogram
	opSeq   uint64
	lastMut map[uint64]uint64 // record id -> opSeq of last update/delete

	// Read-path counters are atomics so the lock-free store read path is
	// not re-serialised by bookkeeping; Stats() folds them into the
	// snapshot.
	readsTotal  atomic.Uint64
	decodeSteps atomic.Uint64
	oplogBytes  atomic.Int64 // Stats.OplogBytes; encoder workers add to it
	recentOps   atomic.Int64 // ops since last idle check (idleness proxy)

	// applyMu serialises form-changing rewrites (write-back application
	// and hidden-chain repair) so their refcount updates stay coherent. It
	// also guards the working memory those paths decode into: one scratch
	// per content held at a time (a record and the base it would decode
	// from), and the buffer a candidate delta is applied into for checking.
	applyMu      sync.Mutex
	applyScratch [2]scratch
	applyCheck   []byte

	// Admission controller (nil = admit everything) and the encoder
	// pool's total queue capacity, its occupancy denominator.
	adm         *admission.Controller
	encQueueCap int64
	admRejected atomic.Uint64

	// Encoder pool (nil with SyncEncode). Jobs are pushed under n.mu, so
	// per-shard job order is the order client mutations took effect.
	pool       *fifoPool[encodeJob]
	encWorkers metrics.Gauge              // Stats.EncodeWorkers
	encm       *metrics.EncodeMetrics     // queue gauges; engine's bundle when dedup is on
	applym     *metrics.ApplyMetrics      // replication apply-path instrumentation
	replm      *metrics.ReplMetrics       // replication transport hardening counters
	compm      *metrics.CompactionMetrics // compaction pass / re-dedup counters

	wg     sync.WaitGroup
	stopCh chan struct{}
	closed bool
}

type encodeJob struct {
	kind    oplog.OpType
	db, key string
	id      uint64
	payload []byte
	// version is the record's version counter at the time the mutation
	// took effect; write-backs against this record as a base carry it so
	// later client mutations invalidate them.
	version uint32
	// opSeq orders this job among all client mutations; the encoder uses
	// it to detect sources mutated after this insert was accepted.
	opSeq uint64
	// shedRaw marks an insert whose dedup encoding was shed by admission
	// control: the worker emits the raw oplog entry without touching the
	// engine.
	shedRaw bool
}

// Open creates a node.
func Open(opts Options) (*Node, error) {
	if opts.EncodeQueue <= 0 {
		opts.EncodeQueue = 1024
	}
	if opts.EncodeWorkers <= 0 {
		opts.EncodeWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 10 * time.Millisecond
	}
	store, err := docstore.Open(docstore.Options{
		Dir:         opts.Dir,
		BlockSize:   opts.BlockSize,
		Compress:    opts.BlockCompression,
		SegmentSize: opts.SegmentSize,
		CacheBlocks: opts.CacheBlocks,
		CacheShards: opts.CacheShards,
		AppendDelay: opts.SimulatedAppendDelay,
		SyncWrites:  opts.SyncWrites,
		FS:          opts.FS,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{
		opts:    opts,
		store:   store,
		log:     oplog.New(opts.OplogCapacity),
		refcnt:  make(map[uint64]int),
		version: make(map[uint64]uint32),
		lastMut: make(map[uint64]uint64),
		nextID:  1,
		latIns:  metrics.NewHistogram(),
		latRead: metrics.NewHistogram(),
		stopCh:  make(chan struct{}),
	}
	if !opts.DisableDedup {
		ecfg := opts.Engine
		// Tiered-index cold runs live next to the store (under the same
		// fault seam) unless the caller picked a directory explicitly.
		if ecfg.IndexDir == "" && opts.Dir != "" {
			ecfg.IndexDir = filepath.Join(opts.Dir, "featidx")
		}
		if ecfg.IndexFS == nil {
			ecfg.IndexFS = opts.FS
		}
		n.eng = core.NewEngine(ecfg, fetcher{n})
		n.encm = n.eng.EncodeMetrics()
	} else {
		n.encm = metrics.NewEncodeMetrics()
	}
	n.applym = metrics.NewApplyMetrics()
	n.compm = metrics.NewCompactionMetrics()
	n.replm = &metrics.ReplMetrics{}
	if opts.WritebackCacheBytes >= 0 {
		n.wb = dedupcache.NewWritebackCache(opts.WritebackCacheBytes)
	}
	if err := n.recover(); err != nil {
		store.Close()
		return nil, err
	}
	n.adm = admission.New(opts.Admission)
	if !opts.SyncEncode {
		n.encQueueCap = int64(opts.EncodeWorkers) * int64(opts.EncodeQueue)
		n.pool = newFIFOPool(opts.EncodeWorkers, opts.EncodeQueue, n.process,
			&n.encWorkers, &n.encm.QueueDepth, &n.encm.QueueOverflows)
	}
	if !opts.DisableAutoFlush && n.wb != nil {
		n.wg.Add(1)
		go n.flushLoop()
	}
	if opts.Compaction.Enabled {
		n.startCompactor(opts.Compaction)
	}
	return n, nil
}

// recover rebuilds key maps and reference counts from the store, dropping
// any record whose delta chain no longer reaches a raw base. Crash tears
// only remove a segment suffix — bases always precede their dependants, so
// a tear cannot orphan a survivor — but mid-file corruption (a bad block
// inside an earlier segment) can erase a base out from under later records;
// keeping such a record would leave a key→ID mapping whose reads can never
// decode.
func (n *Node) recover() error {
	maxID := uint64(0)
	var ids []uint64
	err := n.store.Range(func(rec docstore.Record) bool {
		if rec.ID > maxID {
			maxID = rec.ID
		}
		ids = append(ids, rec.ID)
		return true
	})
	if err != nil {
		return err
	}
	// Classify each record by whether its chain grounds in a raw record.
	// Memoised; the depth bound turns corruption-induced base cycles into
	// "broken" instead of unbounded recursion.
	grounded := make(map[uint64]bool, len(ids))
	var walk func(id uint64, depth int) bool
	walk = func(id uint64, depth int) bool {
		if v, ok := grounded[id]; ok {
			return v
		}
		if depth > len(ids) {
			return false
		}
		m, ok := n.store.Meta(id)
		if !ok {
			return false
		}
		ok = m.Form != docstore.FormDelta || walk(m.BaseID, depth+1)
		grounded[id] = ok
		return ok
	}
	for _, id := range ids {
		if !walk(id, 0) {
			// Undecodable: drop it now, and tombstone it so the next
			// replay does not resurface it either.
			if err := n.store.Delete(id); err != nil {
				return err
			}
		}
	}
	for _, id := range ids {
		if !grounded[id] {
			continue
		}
		m, ok := n.store.Meta(id)
		if !ok {
			continue
		}
		if !m.Hidden {
			n.keys.put(m.DB, m.Key, id)
		}
		if m.Form == docstore.FormDelta {
			n.refcnt[m.BaseID]++
		}
	}
	n.nextID = maxID + 1
	return nil
}

// Close drains the encode queues, flushes pending write-backs, and closes
// the store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	if n.pool != nil {
		n.pool.close() // runs every accepted job first
	}
	close(n.stopCh)
	n.wg.Wait()
	if n.wb != nil {
		n.FlushWritebacks(-1)
	}
	if n.eng != nil {
		n.eng.Close() // encoders drained above; releases tiered cold runs
	}
	return n.store.Close()
}

// Barrier waits until all encode work queued before the call has been
// processed. Tests and experiments use it to observe a settled state. It is
// a no-op in synchronous mode and returns on a closed node.
func (n *Node) Barrier() {
	if n.pool == nil {
		return
	}
	// Planted under n.mu so each sentinel lands after every mutation
	// accepted so far; waited for outside it, since those jobs take n.mu.
	n.mu.Lock()
	reached := n.pool.plant()
	n.mu.Unlock()
	reached.Wait()
}

// enqueueLocked stamps the job with its mutation order and pushes it on sh,
// the reservation the caller took from n.pool.reserve before n.mu; caller
// holds n.mu. In synchronous mode the job is returned for the caller to run
// after releasing the lock.
func (n *Node) enqueueLocked(sh *fifoShard[encodeJob], job encodeJob) (encodeJob, bool) {
	n.opSeq++
	job.opSeq = n.opSeq
	if n.pool == nil {
		return job, true
	}
	n.pool.push(sh, job)
	return job, false
}

// ---------------------------------------------------------------- client ops

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
	elapsed := time.Since(start)
	n.adm.ObserveLatency(elapsed)
	n.latIns.Observe(elapsed)
	return nil
}

// insertLocalEmit is the one routine that creates a record: every new
// (db, key) on this node, from a client, the replication stream, a snapshot or
// a shard handoff, is stored here in original form (paper §4.1: new records
// are always stored raw; backward encoding touches older records) and encoded,
// if at all, behind it. The node keeps payload. It refuses an existing key
// with ErrDuplicateKey, publishes the key only after the append succeeded
// (lock-free readers must never resolve a key to a record the store does not
// hold) and counts the insert only then, so a failed insert leaves nothing to
// undo. The returned job carries the new record's ID and version.
//
// With emit the encoder token is reserved first and append, publish and
// enqueue share one n.mu critical section, so oplog order matches mutation
// order; shed marks the job to skip the dedup workflow. Without emit the
// applier's per-database FIFO is the order: n.mu covers only the ID and the
// counters, and what follows the insert (ObserveRaw, or the replica's
// re-encode) is the caller's.
func (n *Node) insertLocalEmit(db, key string, payload []byte, emit, shed bool) (encodeJob, bool, error) {
	var sh *fifoShard[encodeJob]
	if emit {
		sh = n.pool.reserve(db)
	}
	n.mu.Lock()
	fail := func(err error) (encodeJob, bool, error) {
		n.mu.Unlock()
		sh.release()
		return encodeJob{}, false, err
	}
	if n.closed {
		return fail(errors.New("node: closed"))
	}
	dbm := n.keys.dbMap(db)
	if _, exists := dbm.Load(key); exists {
		return fail(fmt.Errorf("node: %w: %q/%q", ErrDuplicateKey, db, key))
	}
	job := encodeJob{kind: oplog.OpInsert, db: db, key: key, id: n.nextID, payload: payload,
		version: n.version[n.nextID], shedRaw: shed}
	n.nextID++
	if !emit {
		n.mu.Unlock()
	}
	err := n.store.Append(docstore.Record{ID: job.id, DB: db, Key: key, Payload: payload})
	if err == nil {
		dbm.Store(key, job.id)
	}
	if !emit {
		n.mu.Lock()
	}
	if err != nil {
		return fail(err)
	}
	n.stats.Inserts++
	n.stats.RawInsertBytes += int64(len(payload))
	inline := false
	if emit {
		if shed {
			n.stats.InsertsShedRaw++
		}
		n.recentOps.Add(1)
		job, inline = n.enqueueLocked(sh, job)
	}
	n.mu.Unlock()
	return job, inline, nil
}

// finish completes a call of one of the three *LocalEmit routines: in
// synchronous mode the job it returned is processed here, outside n.mu.
func (n *Node) finish(job encodeJob, inline bool, err error) error {
	if err == nil && inline {
		n.process(job)
	}
	return err
}

// Update overwrites the record's visible content.
func (n *Node) Update(db, key string, payload []byte) error {
	return n.finish(n.updateLocalEmit(db, key, payload, true))
}

// updateLocalEmit performs the update and, when emit is set, queues the
// oplog job in the same critical section as the version bump so entry order
// matches mutation order. Without emit it is the storage-side half alone (the
// replication apply path).
func (n *Node) updateLocalEmit(db, key string, payload []byte, emit bool) (encodeJob, bool, error) {
	var job encodeJob
	inline := false
	var sh *fifoShard[encodeJob]
	if emit {
		sh = n.pool.reserve(db)
	}
	// The one copy of the caller's payload: the oplog job and the stored
	// record share it, and neither modifies it.
	cp := append([]byte(nil), payload...)
	n.mu.Lock()
	id, ok := n.lookup(db, key)
	if !ok {
		n.mu.Unlock()
		sh.release()
		return job, false, ErrNotFound
	}
	n.version[id]++
	n.stats.Updates++
	n.recentOps.Add(1)
	refs := n.refcnt[id]
	if emit {
		job, inline = n.enqueueLocked(sh, encodeJob{kind: oplog.OpUpdate, db: db, key: key,
			id: id, payload: cp})
	} else {
		n.opSeq++
	}
	n.lastMut[id] = n.opSeq
	n.mu.Unlock()

	// A pending deferred write-back must never clobber fresh client data.
	if n.wb != nil {
		n.wb.Invalidate(id)
	}
	// The cached decode/dedup-source content is stale now.
	if n.eng != nil && n.eng.SourceCache() != nil {
		n.eng.SourceCache().Remove(id)
	}

	if refs == 0 {
		// Nobody decodes through this record: plain overwrite. If the
		// old form was a delta, its base loses a reference.
		var oldBase uint64
		hadBase := false
		if m, okM := n.store.Meta(id); okM && m.Form == docstore.FormDelta {
			oldBase, hadBase = m.BaseID, true
		}
		if err := n.store.Append(docstore.Record{ID: id, DB: db, Key: key, Payload: cp}); err != nil {
			return job, inline, err
		}
		if hadBase {
			n.releaseRef(oldBase)
		}
	} else {
		// Referenced: keep the stored form intact as section 0 and
		// stack the update on top (paper §4.1, Update).
		rec, okRec, err := n.store.Get(id)
		if err != nil {
			return job, inline, err
		}
		if !okRec {
			return job, inline, ErrNotFound
		}
		var stacked []byte
		if rec.Stacked {
			// Replace the visible (last) section.
			sections, err := splitSections(rec.Payload)
			if err != nil {
				return job, inline, err
			}
			sections[len(sections)-1] = cp
			stacked = joinSections(sections)
		} else {
			stacked = joinSections([][]byte{rec.Payload, cp})
		}
		rec.Stacked = true
		rec.Payload = stacked
		if err := n.store.Append(rec); err != nil {
			return job, inline, err
		}
	}
	return job, inline, nil
}

// Delete removes the record from the client's view. If other records decode
// through it, it is hidden rather than destroyed and reclaimed later.
func (n *Node) Delete(db, key string) error {
	return n.finish(n.deleteLocalEmit(db, key, true))
}

// deleteLocalEmit is updateLocalEmit's counterpart for a delete.
func (n *Node) deleteLocalEmit(db, key string, emit bool) (encodeJob, bool, error) {
	var job encodeJob
	inline := false
	var sh *fifoShard[encodeJob]
	if emit {
		sh = n.pool.reserve(db)
	}
	n.mu.Lock()
	id, ok := n.lookup(db, key)
	if !ok {
		n.mu.Unlock()
		sh.release()
		return job, false, ErrNotFound
	}
	n.keys.delete(db, key)
	n.version[id]++
	n.stats.Deletes++
	n.recentOps.Add(1)
	refs := n.refcnt[id]
	if emit {
		job, inline = n.enqueueLocked(sh, encodeJob{kind: oplog.OpDelete, db: db, key: key, id: id})
	} else {
		n.opSeq++
	}
	n.lastMut[id] = n.opSeq
	n.mu.Unlock()

	if n.wb != nil {
		n.wb.Invalidate(id)
	}
	if n.eng != nil && n.eng.SourceCache() != nil {
		n.eng.SourceCache().Remove(id)
	}

	if refs == 0 {
		if err := n.reclaim(id); err != nil {
			return job, inline, err
		}
	} else {
		rec, okRec, err := n.store.Get(id)
		if err != nil {
			return job, inline, err
		}
		if okRec {
			rec.Hidden = true
			if err := n.store.Append(rec); err != nil {
				return job, inline, err
			}
		}
	}
	return job, inline, nil
}

// reclaim removes record id from the store and releases its base reference,
// cascading into hidden bases whose last reference disappears and compacting
// stacked ones. It acquires applyMu; use reclaimLocked when already holding
// it.
func (n *Node) reclaim(id uint64) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	return n.reclaimLocked(id)
}

func (n *Node) reclaimLocked(id uint64) error {
	for {
		rec, ok := n.store.Meta(id)
		if !ok {
			return nil
		}
		if err := n.store.Delete(id); err != nil {
			return err
		}
		n.mu.Lock()
		// Note: the version entry is retained (not deleted) so pending
		// write-backs that name this record as base keep failing their
		// version check.
		var nextID uint64
		freed := false
		if rec.Form == docstore.FormDelta {
			n.refcnt[rec.BaseID]--
			if n.refcnt[rec.BaseID] <= 0 {
				delete(n.refcnt, rec.BaseID)
				nextID = rec.BaseID
				freed = true
			}
		}
		n.mu.Unlock()
		if !freed {
			return nil
		}
		m, okMeta := n.store.Meta(nextID)
		switch {
		case okMeta && m.Hidden:
			id = nextID // cascade into the deleted base
		case okMeta && m.Stacked:
			n.compactStackedLocked(nextID)
			return nil
		default:
			return nil
		}
	}
}

// Read returns the record's visible content. The key lookup is lock-free
// (keyDir); Read never touches n.mu.
func (n *Node) Read(db, key string) ([]byte, error) {
	start := time.Now()
	id, ok := n.lookup(db, key)
	n.readsTotal.Add(1)
	n.recentOps.Add(1)
	if !ok {
		return nil, ErrNotFound
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	content, err := n.decode(sc, id, visibleContent)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), content...) // the caller's own: the one copy of a read
	n.latRead.Observe(time.Since(start))
	return out, nil
}

// lookup resolves (db, key) to a record ID. Lock-free; safe with or
// without n.mu held.
func (n *Node) lookup(db, key string) (uint64, bool) {
	return n.keys.load(db, key)
}

// Has reports whether (db, key) exists. Lock-free.
func (n *Node) Has(db, key string) bool {
	_, ok := n.lookup(db, key)
	return ok
}

// ------------------------------------------------------------------- encode

// process runs the dedup workflow for one queued mutation and emits its
// oplog entry. It runs on the encode goroutine (or inline with SyncEncode).
func (n *Node) process(job encodeJob) {
	switch job.kind {
	case oplog.OpInsert:
		n.processInsert(job)
	case oplog.OpUpdate:
		e := oplog.Entry{TS: time.Now().UnixNano(), Op: oplog.OpUpdate,
			DB: job.db, Key: job.key, Payload: job.payload}
		n.appendOplog(e)
	case oplog.OpDelete:
		e := oplog.Entry{TS: time.Now().UnixNano(), Op: oplog.OpDelete,
			DB: job.db, Key: job.key}
		n.appendOplog(e)
	}
}

func (n *Node) processInsert(job encodeJob) {
	entry := oplog.Entry{TS: time.Now().UnixNano(), Op: oplog.OpInsert,
		DB: job.db, Key: job.key, Form: oplog.FormRaw, Payload: job.payload}

	// A shed insert ships raw: no sketch, no index probe, no delta — the
	// whole point of shedding is that the worker's time per job collapses
	// to an oplog append so the queue drains. The record is already in the
	// store; compaction-time re-dedup can recover the ratio later.
	if job.shedRaw {
		n.appendOplog(entry)
		return
	}

	n.mu.RLock()
	alreadyMutated := n.version[job.id] != job.version || n.lastMut[job.id] > job.opSeq
	n.mu.RUnlock()
	if n.eng != nil && !alreadyMutated {
		if n.opts.SimulatedEncodeDelay > 0 {
			time.Sleep(n.opts.SimulatedEncodeDelay)
		}
		res, err := n.eng.Encode(job.db, job.id, job.payload)
		// If the record was client-mutated while encoding, the engine
		// may have cached its stale insert payload as a dedup source;
		// scrub it. The content-verifying write-back guard below makes
		// any remaining staleness harmless.
		n.mu.RLock()
		mutatedDuring := n.version[job.id] != job.version
		n.mu.RUnlock()
		if mutatedDuring && n.eng.SourceCache() != nil {
			n.eng.SourceCache().Remove(job.id)
		}
		if err == nil && res.Deduped {
			// The forward delta was computed against the source's
			// *current* content. The secondary decodes it against the
			// source content as of this entry's position in the oplog,
			// so if the source was client-mutated after this insert was
			// accepted, the two differ: ship raw instead. The local
			// write-backs stay valid (they are version-guarded).
			n.mu.RLock()
			srcMutatedSince := n.lastMut[res.SourceID] > job.opSeq
			n.mu.RUnlock()
			srcKey, ok := n.keyOf(res.SourceID)
			if ok && !srcMutatedSince {
				entry.Form = oplog.FormDelta
				entry.BaseKey = srcKey
				entry.Payload = res.Forward.Marshal()
			}
			n.queueWritebacks(res.Writebacks, job.id, job.version)
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

func (n *Node) appendOplog(e oplog.Entry) {
	n.log.Append(e)
	n.oplogBytes.Add(int64(e.MarshalledSize()))
}

// queueWritebacks routes the engine's write-back decisions through the lossy
// cache (or applies them inline when the cache is disabled). newID/newVer
// identify the just-inserted record and its version at insert time: deltas
// were computed against its insert payload, so client mutations to it in
// the meantime (version[newID] != newVer) must invalidate them — the stored
// version guard captures exactly that.
func (n *Node) queueWritebacks(wbs []core.Writeback, newID uint64, newVer uint32) {
	for _, wb := range wbs {
		n.mu.RLock()
		ver := n.version[wb.ID]
		baseVer := n.version[wb.Base]
		if wb.Base == newID {
			baseVer = newVer
		}
		n.mu.RUnlock()
		payload := encodeWritebackPayload(wb, ver, baseVer)
		if n.wb == nil {
			n.applyWriteback(wb.ID, payload)
			continue
		}
		n.wb.Add(dedupcache.Writeback{ID: wb.ID, Payload: payload, Saving: wb.EstimatedSaving})
	}
}

// Write-back payloads carry (base, version-of-record, version-of-base,
// delta) so the flusher can validate, long after the encode decision, that
// neither the record nor the content it would decode from has been changed
// by the client in the meantime.
func encodeWritebackPayload(wb core.Writeback, version, baseVersion uint32) []byte {
	out := binary.AppendUvarint(nil, wb.Base)
	out = binary.AppendUvarint(out, uint64(version))
	out = binary.AppendUvarint(out, uint64(baseVersion))
	return append(out, wb.Delta.Marshal()...)
}

func decodeWritebackPayload(p []byte) (base uint64, version, baseVersion uint32, deltaBytes []byte, err error) {
	base, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, 0, nil, errors.New("node: bad write-back payload")
	}
	p = p[k:]
	v, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, 0, nil, errors.New("node: bad write-back payload")
	}
	p = p[k:]
	bv, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, 0, nil, errors.New("node: bad write-back payload")
	}
	return base, uint32(v), uint32(bv), p[k:], nil
}

// FlushWritebacks applies up to max pending write-backs (all of them when
// max < 0), returning how many were applied.
func (n *Node) FlushWritebacks(max int) int {
	if n.wb == nil {
		return 0
	}
	if max < 0 {
		max = n.wb.Len()
	}
	applied := 0
	for _, wb := range n.wb.DrainBest(max) {
		if n.applyWriteback(wb.ID, wb.Payload) {
			applied++
		}
	}
	return applied
}

// PendingWritebacks returns the size of the write-back backlog.
func (n *Node) PendingWritebacks() int {
	if n.wb == nil {
		return 0
	}
	return n.wb.Len()
}

// applyWriteback replaces record id's stored form with the backward delta,
// unless the record — or the base it would decode from — changed since the
// delta was computed. Skipping is always safe: the record just stays in its
// older, larger form (the "lossy" property of §3.3.2).
func (n *Node) applyWriteback(id uint64, payload []byte) bool {
	base, ver, baseVer, deltaBytes, err := decodeWritebackPayload(payload)
	if err != nil {
		return false
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	n.mu.Lock()
	if n.version[id] != ver || n.version[base] != baseVer {
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}
	n.mu.Unlock()

	rec, ok := n.store.Meta(id)
	if !ok {
		return false
	}
	skip := func() bool {
		n.mu.Lock()
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}
	if rec.Stacked || rec.Hidden {
		// Changed shape since encode; leave it alone (lossy is fine).
		return skip()
	}
	// The chain this re-encoding creates must still ground in a raw record.
	// Write-backs alone cannot cycle (they re-encode an older record
	// against a newer one and the newest stays raw), but a compaction-time
	// re-dedup conversion can point a newer record at an older one — a
	// queued write-back in the opposite direction would then close a
	// cycle, which recovery refuses to ground, losing the whole chain.
	// Both writers walk under applyMu, so whichever commits second sees
	// the other's committed form and skips (lossy is fine).
	if !n.rededupStillSafe(id, base, int(n.store.Stats().LiveRecords)+1) {
		return skip()
	}

	// End-to-end guard: the re-encoding must reproduce exactly the
	// content this record currently decodes to. The version checks above
	// are fast-path filters; this catches every residual staleness
	// (e.g. a delta computed from a cache entry that a concurrent client
	// mutation invalidated mid-encode). Skipping costs only compression.
	cur, err := n.decode(&n.applyScratch[0], id, baseContentNoRepair)
	if err != nil {
		return false
	}
	if !n.reproducesLocked(base, deltaBytes, cur) {
		return skip()
	}

	err = n.store.Append(docstore.Record{ID: id, DB: rec.DB, Key: rec.Key,
		Form: docstore.FormDelta, BaseID: base, Payload: deltaBytes})
	if err != nil {
		return false
	}

	n.mu.Lock()
	n.refcnt[base]++
	n.stats.WritebacksApplied++
	n.mu.Unlock()
	if rec.Form == docstore.FormDelta {
		n.releaseRefLocked(rec.BaseID)
	}
	return true
}

// reproducesLocked reports whether the marshalled delta, applied to what
// record base decodes to, yields exactly want: the check every path that
// assigns a base runs before it commits. Caller holds applyMu; want may live
// in applyScratch[0].
func (n *Node) reproducesLocked(base uint64, deltaBytes, want []byte) bool {
	baseContent, err := n.decode(&n.applyScratch[1], base, baseContentNoRepair)
	if err != nil {
		return false
	}
	got, err := delta.ApplyInto(n.applyCheck, baseContent, deltaBytes)
	if err != nil {
		return false
	}
	n.applyCheck = got
	return bytes.Equal(got, want)
}

// releaseRef decrements a base's reference count. A record that becomes
// unreferenced is reclaimed if the client had deleted it (hidden), or
// compacted back to plain form if it carries stacked client updates
// (paper §4.1: "when the reference count reaches zero, dbDedup compacts all
// the updates to the record and replaces it with the new data").
// It acquires applyMu; use releaseRefLocked when already holding it.
func (n *Node) releaseRef(baseID uint64) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.releaseRefLocked(baseID)
}

func (n *Node) releaseRefLocked(baseID uint64) {
	n.mu.Lock()
	n.refcnt[baseID]--
	gone := n.refcnt[baseID] <= 0
	if gone {
		delete(n.refcnt, baseID)
	}
	n.mu.Unlock()
	if !gone {
		return
	}
	m, ok := n.store.Meta(baseID)
	if !ok {
		return
	}
	switch {
	case m.Hidden:
		n.reclaimLocked(baseID)
	case m.Stacked:
		n.compactStackedLocked(baseID)
	}
}

// compactStackedLocked rewrites an unreferenced stacked record as a plain
// raw record holding its visible content. Caller holds applyMu.
func (n *Node) compactStackedLocked(id uint64) {
	n.mu.RLock()
	refs := n.refcnt[id]
	n.mu.RUnlock()
	if refs > 0 {
		return // re-referenced concurrently
	}
	rec, ok := n.store.Meta(id)
	if !ok || !rec.Stacked {
		return
	}
	var visible []byte // the store keeps it: a slice of its own
	err := n.lend(id, rec, true, func(stored []byte) error {
		visible = append([]byte(nil), stored...)
		return nil
	})
	if err != nil {
		return
	}
	err = n.store.Append(docstore.Record{ID: id, DB: rec.DB, Key: rec.Key, Hidden: rec.Hidden, Payload: visible})
	if err != nil {
		return
	}
	if rec.Form == docstore.FormDelta {
		n.releaseRefLocked(rec.BaseID)
	}
}

// flushLoop applies write-backs when the node looks idle (the paper's I/O
// queue length signal; our proxy is the client op rate plus the encode
// queue depth).
func (n *Node) flushLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opts.FlushInterval)
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

// ------------------------------------------------------------------- decode

// fetcher adapts the node to core.Fetcher. The engine needs the content a
// delta against this record would decode from — the record's base content
// (original, pre-stacked-update).
type fetcher struct{ n *Node }

// FetchDecoded returns a copy of its own: the engine builds deltas whose
// literals alias the content, and keeps them past this call.
func (f fetcher) FetchDecoded(id uint64) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	content, err := f.n.decode(sc, id, baseContent)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), content...), nil
}

// scratch is the working memory of one chain decode: the plan of the walk and
// the two buffers its deltas alternate between, each delta reading the one and
// writing the other. What decode returns lives in a scratch (or in the source
// cache) and is good until the scratch is used again. Who owns which: the
// paths applyMu serialises (write-back apply, hidden-chain repair, the
// re-dedup verify) use the node's own applyScratch; Read, replica apply, the
// fetcher, VerifyAll and the re-dedup rewrite take one from scratchPool for
// the call and copy out at most once, into the slice they hand on.
type scratch struct {
	hops []hop
	buf  [2][]byte
}

// hop is one delta-encoded record on a planned walk, outermost first, as
// Store.Meta showed it.
type hop struct {
	id, base uint64
	hidden   bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// decodeMode says which content of a record decode produces, and whether it
// may repair the chain it walked.
type decodeMode int

const (
	// visibleContent is what a client read yields: the last stacked
	// section if there is one, ErrNotFound for a hidden record.
	visibleContent decodeMode = iota
	// baseContent is what other records decode through: the original
	// content, ignoring stacked client updates, hidden or not.
	baseContent
	// baseContentNoRepair is baseContent without the opportunistic splice
	// of a hidden record, for callers that already hold applyMu.
	baseContentNoRepair
)

// errReplan reports that a record was no longer stored the way the plan saw
// it: a write-back, repair or client write got in between.
var errReplan = errors.New("node: stored form changed under a chain walk")

// decode returns the content of record id in memory that belongs to sc or to
// the source cache: valid until sc is used again, not to be modified or kept.
//
// The walk is planned from Store.Meta alone (form, base, stacked and hidden
// need no payload), stopping at a raw record or at a base the source cache
// holds. Then the base is copied into sc and every delta on the path is
// applied straight from its stored bytes, lent by Store.View for exactly that
// long, so a k-step chain costs k applies and no copy of any delta. A View
// shows one consistent version of a record but the plan is older than it, so
// each View checks that the record is still stored as planned; if not, the
// walk is planned again. Base contents never change while referenced, which
// is what makes any consistent plan decode to the same bytes.
func (n *Node) decode(sc *scratch, id uint64, mode decodeMode) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		w, err := n.planWalk(sc, id, mode)
		if err != nil {
			return nil, err
		}
		content, err := n.runWalk(sc, w)
		if err != errReplan {
			return content, err
		}
		switch {
		case attempt < 4:
			runtime.Gosched()
		case attempt < 200:
			// A writer is mid-append (Meta and the record maps are a
			// version apart), possibly descheduled: give it time.
			time.Sleep(50 * time.Microsecond)
		default:
			return nil, fmt.Errorf("node: record %d: %w", id, errReplan)
		}
	}
}

// walk is a planned chain walk: the record it ends at, as Store.Meta showed
// it, and what to do on the way. The delta records it passes are sc.hops.
type walk struct {
	baseID uint64
	base   docstore.MetaInfo
	// cached is the base's content when the source cache holds it; the base
	// is then not read at all.
	cached []byte
	// last marks a client read of a stacked record: its content is the
	// base's last section, not the stored form underneath.
	last bool
	// keep indexes the hop whose content repair needs (-1 for none), and
	// hidID is the hidden record right behind it.
	keep  int
	hidID uint64
}

// planWalk collects into sc.hops the delta records from id inward, until a
// record that can be read without decoding another.
func (n *Node) planWalk(sc *scratch, id uint64, mode decodeMode) (walk, error) {
	sc.hops = sc.hops[:0]
	w := walk{baseID: id, keep: -1}
	var ok bool
	w.base, ok = n.store.Meta(id)
	if mode == visibleContent {
		if !ok || w.base.Hidden {
			return w, ErrNotFound
		}
		if w.base.Stacked {
			w.last = true
			return w, nil
		}
	} else if !ok {
		return w, fmt.Errorf("node: decode base %d missing", id)
	}
	for w.base.Form == docstore.FormDelta {
		if len(sc.hops) > 1<<20 {
			return w, errors.New("node: decode chain cycle")
		}
		sc.hops = append(sc.hops, hop{id: w.baseID, base: w.base.BaseID, hidden: w.base.Hidden})
		from := w.baseID
		w.baseID = w.base.BaseID
		if w.base, ok = n.store.Meta(w.baseID); !ok {
			return w, fmt.Errorf("node: record %d: base %d missing", from, w.baseID)
		}
		// Source record cache: a decoded base short-circuits the walk.
		// Cached content is the record's base content only when it has no
		// stacked updates.
		if n.eng != nil && n.eng.SourceCache() != nil && !w.base.Stacked {
			if c, hit := n.eng.SourceCache().Get(w.baseID); hit {
				w.cached = c
				break
			}
		}
		n.decodeSteps.Add(1)
	}

	// Opportunistic repair (paper §4.1, Garbage Collection): the first
	// hidden record on the path gets spliced out by re-binding its dependant
	// directly to the record behind it (or to raw form when the hidden
	// record terminates the chain). The dependant's content is the one thing
	// repair needs from the walk, so the plan marks which step to keep. At
	// most one repair per read.
	if mode != baseContentNoRepair {
		if w.cached == nil || !w.base.Hidden {
			for i := 0; i+1 < len(sc.hops); i++ {
				if sc.hops[i+1].hidden {
					w.keep, w.hidID = i, sc.hops[i+1].id
					break
				}
			}
		}
		if w.keep < 0 && w.base.Hidden && len(sc.hops) > 0 {
			w.keep, w.hidID = len(sc.hops)-1, w.baseID
		}
	}
	return w, nil
}

// runWalk produces the content w was planned for: the base, then the deltas
// of sc.hops from the base outward. It returns errReplan if a record is no
// longer stored the way the plan saw it.
func (n *Node) runWalk(sc *scratch, w walk) ([]byte, error) {
	content, next := w.cached, 0 // next: the buffer the next result goes into
	if w.cached == nil {
		err := n.lend(w.baseID, w.base, w.last, func(stored []byte) error {
			sc.buf[0] = append(sc.buf[0][:0], stored...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		content, next = sc.buf[0], 1
	}
	var kept []byte
	for i := len(sc.hops) - 1; i >= 0; i-- {
		h := sc.hops[i]
		planned := docstore.MetaInfo{Form: docstore.FormDelta, BaseID: h.base, Hidden: h.hidden}
		err := n.lend(h.id, planned, false, func(stored []byte) error {
			out, err := delta.ApplyInto(sc.buf[next], content, stored)
			if err != nil {
				return fmt.Errorf("node: applying delta for record %d: %w", h.id, err)
			}
			sc.buf[next] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		content, next = sc.buf[next], next^1
		if i == w.keep {
			kept = append([]byte(nil), content...)
		}
	}
	if w.keep >= 0 {
		n.repairPastHidden(sc.hops[w.keep].id, w.hidID, kept)
	}
	return content, nil
}

// lend calls fn with record id's stored bytes, borrowed from the store for
// the length of the call (Store.View's leaf rule applies to fn): the record's
// own stored form, which is section 0 of a stacked record, or with last set
// the last section of a stacked record, which is what a client sees of it. It
// returns errReplan when the record is gone or no longer has the form, base
// and hidden flag that planned shows (and, with last set, is no longer
// stacked).
func (n *Node) lend(id uint64, planned docstore.MetaInfo, last bool, fn func(stored []byte) error) error {
	err := errReplan
	_, viewErr := n.store.View(id, func(v docstore.Stored) {
		if v.Form != planned.Form || v.Form == docstore.FormDelta && v.BaseID != planned.BaseID ||
			v.Hidden != planned.Hidden || last && !v.Stacked {
			return
		}
		stored := v.Payload
		if v.Stacked {
			if stored, err = stackedSection(stored, last); err != nil {
				return
			}
		}
		err = fn(stored)
	})
	if viewErr != nil {
		return viewErr
	}
	return err
}

// repairPastHidden re-binds record depID (whose decoded content is
// depContent, which the store keeps when the dependant goes back to raw) past
// the hidden record hidID: to hidID's own base when hidID is delta-encoded,
// or back to raw form when hidID terminates the chain. One reference to hidID
// is released, eventually reclaiming it.
func (n *Node) repairPastHidden(depID, hidID uint64, depContent []byte) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	// Re-verify under the lock: the dependant must still decode through
	// the hidden record, and the hidden record must still be hidden.
	depMeta, ok := n.store.Meta(depID)
	if !ok || depMeta.Form != docstore.FormDelta || depMeta.BaseID != hidID {
		return
	}
	hidMeta, ok := n.store.Meta(hidID)
	if !ok || !hidMeta.Hidden {
		return
	}
	dep, ok, err := n.store.Get(depID)
	if err != nil || !ok {
		return
	}

	var newPayload []byte
	newForm := docstore.FormRaw
	var newBaseID uint64
	if hidMeta.Form == docstore.FormDelta {
		// Splice: delta the dependant directly against the hidden
		// record's own base.
		newBaseID = hidMeta.BaseID
		baseContent, err := n.decode(&n.applyScratch[0], newBaseID, baseContentNoRepair)
		if err != nil {
			return
		}
		d := delta.Compress(baseContent, depContent, delta.Options{})
		newPayload = d.Marshal()
		newForm = docstore.FormDelta
	} else {
		// The hidden record terminates the chain: the dependant goes
		// back to raw form.
		newPayload = depContent
	}

	if dep.Stacked {
		sections, err := splitSections(dep.Payload)
		if err != nil {
			return
		}
		sections[0] = newPayload
		dep.Payload = joinSections(sections)
	} else {
		dep.Payload = newPayload
	}
	dep.Form = newForm
	dep.BaseID = newBaseID
	if err := n.store.Append(dep); err != nil {
		return
	}
	n.mu.Lock()
	if newForm == docstore.FormDelta {
		n.refcnt[newBaseID]++
	}
	n.stats.HiddenRepaired++
	n.mu.Unlock()
	n.releaseRefLocked(hidID)
}

// ------------------------------------------------------------------ getters

// Oplog exposes the node's operation log to the replication layer.
func (n *Node) Oplog() *oplog.Log { return n.log }

// LastAssignedSeq returns the newest mutation sequence number handed out to
// a client op. Assignment happens in the same n.mu critical section that
// makes the mutation visible, so any record a Scan observed has its
// oplog seq covered by this value — unlike Oplog().LastSeq(), which only
// advances once the encoder worker appends the entry and can therefore trail
// a visible insert.
func (n *Node) LastAssignedSeq() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.opSeq
}

// Engine exposes the dedup engine (nil when dedup is disabled).
func (n *Node) Engine() *core.Engine { return n.eng }

// Store exposes the underlying record store.
func (n *Node) Store() *docstore.Store { return n.store }

// InsertLatency and ReadLatency expose the client latency histograms.
func (n *Node) InsertLatency() *metrics.Histogram { return n.latIns }
func (n *Node) ReadLatency() *metrics.Histogram   { return n.latRead }

// The live instrument bundles (see internal/metrics for what each counts).
// Encode's stage histograms fill only when dedup is on; Apply fills when this
// node runs as a secondary behind an Applier, Repl when it replicates over
// repl without an explicit metrics bundle.
func (n *Node) EncodeMetrics() *metrics.EncodeMetrics         { return n.encm }
func (n *Node) ApplyMetrics() *metrics.ApplyMetrics           { return n.applym }
func (n *Node) ReplMetrics() *metrics.ReplMetrics             { return n.replm }
func (n *Node) CompactionMetrics() *metrics.CompactionMetrics { return n.compm }

// FeatIdxSnapshot summarises the similarity index (occupancy against its
// bound, lookup/match/eviction counts; zero when dedup is disabled). It
// exists because benchmark/layers.go and workloads.go read the index through
// it; everything else reads Stats().Engine.
func (n *Node) FeatIdxSnapshot() metrics.FeatIdxSnapshot { return n.Stats().Engine.FeatIdx() }

// Stats returns a node snapshot.
func (n *Node) Stats() Stats {
	n.mu.RLock()
	s := n.stats
	n.mu.RUnlock()
	s.Store = n.store.Stats()
	if n.eng != nil {
		s.Engine = n.eng.Stats()
	}
	s.OplogBytes = n.oplogBytes.Load()
	s.Oplog = n.log.Stats()
	s.Reads = n.readsTotal.Load()
	s.DecodeSteps = n.decodeSteps.Load()
	s.CompactionBytes = n.compm.PhysicalBytesReclaimed.Total()
	s.EncodeWorkers = int(n.encWorkers.Value())
	s.EncodeQueueDepth = n.encm.QueueDepth.Value()
	s.EncodeOverflows = n.encm.QueueOverflows.Total()
	s.InsertsRejected = n.admRejected.Load()
	s.Admission = n.adm.Snapshot()
	return s
}

// DBStats returns the engine's per-database partitions (nil when dedup is
// disabled).
func (n *Node) DBStats() []core.DBStats {
	if n.eng == nil {
		return nil
	}
	stats := n.eng.DBStats()
	for i := range stats {
		stats[i].StoredBytes = n.store.DBLogicalBytes(stats[i].Name)
	}
	return stats
}

// RefCount returns the decode-base reference count of (db, key)'s record.
func (n *Node) RefCount(db, key string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	id, ok := n.lookup(db, key)
	if !ok {
		return 0
	}
	return n.refcnt[id]
}

// ------------------------------------------------------------- stacked utils

func splitSections(p []byte) ([][]byte, error) {
	var out [][]byte
	for len(p) > 0 {
		l, k := binary.Uvarint(p)
		if k <= 0 || uint64(len(p)-k) < l {
			return nil, errors.New("node: corrupt stacked payload")
		}
		out = append(out, p[k:k+int(l)])
		p = p[k+int(l):]
	}
	if len(out) == 0 {
		return nil, errors.New("node: empty stacked payload")
	}
	return out, nil
}

// stackedSection returns the first section of a stacked payload (the record's
// own stored form) or, when last is set, the last one (what the client sees),
// without building the section list.
func stackedSection(p []byte, last bool) ([]byte, error) {
	var sec []byte
	for len(p) > 0 {
		l, k := binary.Uvarint(p)
		if k <= 0 || uint64(len(p)-k) < l {
			return nil, errors.New("node: corrupt stacked payload")
		}
		sec, p = p[k:k+int(l)], p[k+int(l):]
		if !last {
			return sec, nil
		}
	}
	if sec == nil {
		return nil, errors.New("node: empty stacked payload")
	}
	return sec, nil
}

func joinSections(sections [][]byte) []byte {
	var out []byte
	for _, s := range sections {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}
