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
// cache. A record's content never changes: an update writes a new record under
// the key and retires the old one as a delete does, and reference counts
// protect every record that serves as a decode base, which a retirement hides
// instead of removing, with opportunistic chain repair on reads.
package node

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
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
	// BlockSize, SegmentSize, CacheBlocks pass through to the store.
	BlockSize, SegmentSize, CacheBlocks int
	// SyncWrites passes through to the store: fsync each sealed block, so
	// an acknowledged Flush survives a crash.
	SyncWrites bool
	// FS is the filesystem the store runs on (nil = direct os-backed).
	// Crash tests install a faultfs.Injector here.
	FS faultfs.FS
	// OplogBytes is the oplog's byte budget (0 = oplog.MaxRetainedBytes);
	// tests set it small to force a secondary past the retained window.
	OplogBytes int64
	// WritebackCacheBytes bounds the lossy write-back cache, through which
	// every write-back goes (0 or less = 8 MiB).
	WritebackCacheBytes int64
	// SyncEncode makes a mutation call return only once the encoder pool
	// has run its job. Deterministic for one caller; used by tests and the
	// compression-ratio experiments.
	SyncEncode bool
	// EncodeQueue bounds each encoder shard's queue (default 1024). A
	// client mutation that finds its database's shard full blocks until
	// the encoder drains a slot — caller backpressure instead of unbounded
	// memory growth; such stalls are counted in Stats.EncodeOverflows.
	// A secondary's apply pool (NewApplier) takes the same depth.
	EncodeQueue int
	// EncodeWorkers is the number of background encoder workers, each
	// owning one queue shard; jobs are hashed by database name so
	// per-database encode order always matches mutation order. Defaults
	// to GOMAXPROCS. A secondary's apply pool takes as many workers.
	EncodeWorkers int
	// DisableAutoFlush stops the background idle flusher (one look every
	// tickInterval); callers drive FlushWritebacks manually (experiments
	// do).
	DisableAutoFlush bool
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

const (
	// tickInterval is the period of the node's one background clock: the
	// compaction check and the idle flusher's look.
	tickInterval = 10 * time.Millisecond
	// idleFlushBatch is how many write-backs one idle tick applies.
	idleFlushBatch = 64
)

// Stats is a node-level snapshot.
type Stats struct {
	Store  docstore.Stats
	Engine core.Stats
	// RawInsertBytes is the total client payload bytes inserted.
	RawInsertBytes int64
	// OplogBytes is the marshalled size of all oplog entries produced —
	// what replication would ship.
	OplogBytes int64
	// Oplog is what the log retains right now and what it has discarded. A
	// secondary further behind than the retained window resyncs from a snapshot.
	Oplog oplog.Stats
	// Inserts/Reads/Updates/Deletes count client operations.
	Inserts, Reads, Updates, Deletes uint64
	// WritebacksApplied / WritebacksSkipped count flush outcomes.
	WritebacksApplied, WritebacksSkipped uint64
	// WritebacksDropped counts the write-backs the lossy cache discarded for
	// capacity, which are never applied, and WritebacksDroppedSaving the
	// bytes of storage they would have saved. WritebacksPending is what the
	// cache holds for the next flush.
	WritebacksDropped       uint64
	WritebacksDroppedSaving int64
	WritebacksPending       int
	// DecodeSteps counts base fetches performed by reads.
	DecodeSteps uint64
	// ReadsFromSourceCache counts the client reads (of Reads) that the source
	// record cache answered: a record whose insert payload, and so content,
	// was resident, served without touching the store. These peeks are not in the
	// cache's own hit and miss counts, which are the encoder's.
	ReadsFromSourceCache uint64
	// HiddenRepaired counts hidden records spliced out of decode chains.
	HiddenRepaired uint64
	// CompactionBytes is the disk bytes compaction passes reclaimed; the
	// passes are counted by CompactionMetrics.
	CompactionBytes int64
	// EncodeWorkers is the size of the background encoder pool (0 once the
	// node is closed).
	EncodeWorkers int
	// EncodeQueueDepth is the number of encode jobs queued or in flight.
	EncodeQueueDepth int64
	// EncodeOverflows counts client mutations that found their encoder
	// shard full and had to wait for it to drain.
	EncodeOverflows int64
	// InsertsShedRaw counts acknowledged inserts whose dedup encoding was
	// shed by admission control (stored and replicated raw, and they stay
	// raw). Included in Inserts.
	InsertsShedRaw uint64
	// InsertsRejected counts inserts refused with ErrOverloaded. Not
	// included in Inserts — the write did not happen.
	InsertsRejected uint64
	// Admission is the admission controller's snapshot (zero when no
	// controller is configured).
	Admission admission.Snapshot
	// Memory is what the node's in-memory structures hold of the heap.
	Memory MemoryStats
}

// MemoryStats is what each in-memory structure of the node holds of the heap,
// in bytes allocated, not the design sizes the paper's accounting uses.
type MemoryStats struct {
	// RecordTableBytes is the store's record table
	// (docstore.Stats.RecordTableBytes).
	RecordTableBytes int64
	// FeatureIndexBytes is the feature index partitions
	// (core.Engine.IndexAllocatedBytes).
	FeatureIndexBytes int64
}

// Node is a single DBMS node (primary or secondary).
type Node struct {
	opts  Options
	store *docstore.Store
	log   *oplog.Log
	eng   *core.Engine
	wb    *dedupcache.WritebackCache

	mu      sync.RWMutex
	refcnt  map[uint64]int // decode-base reference counts; written under applyMu too
	nextID  uint64
	stats   Stats
	latIns  *metrics.Histogram
	latRead *metrics.Histogram
	// opSeq numbers the mutations this node has accepted, in the critical
	// section that makes each take effect; a logged mutation's number is its
	// oplog entry's Seq.
	opSeq uint64

	// Read-path counters are atomics so the lock-free store read path is
	// not re-serialised by bookkeeping; Stats() folds them into the
	// snapshot.
	readsTotal  atomic.Uint64
	decodeSteps atomic.Uint64
	// walkBytes counts the bytes chain walks write: the content they build,
	// and the content of the hop a repair keeps. Tests read it.
	walkBytes atomic.Uint64
	// readsFromCache is Stats.ReadsFromSourceCache.
	readsFromCache atomic.Uint64
	oplogBytes     atomic.Int64 // Stats.OplogBytes; encoder workers add to it
	recentOps      atomic.Int64 // ops since last idle check (idleness proxy)

	// applyMu serialises every write of an existing record's stored form
	// (update, delete, write-back apply, hidden-chain repair), so what one
	// checked still holds when it appends, and with them every write of refcnt
	// (moveRefLocked). It also guards the scratch hidden-chain repair
	// decodes a base into.
	applyMu      sync.Mutex
	applyScratch scratch

	// Admission controller (nil = admit everything) and the encoder
	// pool's total queue capacity, its occupancy denominator.
	adm         *admission.Controller
	encQueueCap int64
	admRejected atomic.Uint64

	// Encoder pool. Jobs are pushed under n.mu, so per-shard job order is
	// the order client mutations took effect.
	pool       *fifoPool[encodeJob]
	encWorkers metrics.Gauge              // Stats.EncodeWorkers
	encm       *metrics.EncodeMetrics     // queue gauges; engine's bundle when dedup is on
	applym     *metrics.ApplyMetrics      // replication apply-path instrumentation
	replm      *metrics.ReplMetrics       // replication transport hardening counters
	compm      *metrics.CompactionMetrics // compaction pass counters

	wg     sync.WaitGroup
	stopCh chan struct{}
	closed bool
}

type encodeJob struct {
	kind    oplog.OpType
	db, key string
	id      uint64
	payload []byte
	// opSeq is the mutation's sequence number, its oplog entry's Seq.
	opSeq uint64
	// shedRaw marks an insert whose dedup encoding was shed by admission
	// control: the worker emits the raw oplog entry without touching the
	// engine.
	shedRaw bool
	// done, with SyncEncode, is closed by the worker once the job ran; the
	// mutation call waits on it (finish).
	done chan struct{}
}

// Open creates a node.
func Open(opts Options) (*Node, error) {
	if opts.EncodeQueue <= 0 {
		opts.EncodeQueue = 1024
	}
	if opts.EncodeWorkers <= 0 {
		opts.EncodeWorkers = runtime.GOMAXPROCS(0)
	}
	store, err := docstore.Open(docstore.Options{
		Dir:         opts.Dir,
		BlockSize:   opts.BlockSize,
		Compress:    opts.BlockCompression,
		SegmentSize: opts.SegmentSize,
		CacheBlocks: opts.CacheBlocks,
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
		refcnt:  make(map[uint64]int),
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
	n.wb = dedupcache.NewWritebackCache(opts.WritebackCacheBytes)
	if err := n.recover(); err != nil {
		store.Close()
		return nil, err
	}
	n.log = oplog.New(opts.OplogBytes)
	if len(store.DBNames()) > 0 {
		// A reopened store: its records predate every entry of the log.
		n.log = oplog.Continue(opts.OplogBytes)
	}
	n.adm = admission.New(opts.Admission)
	n.encQueueCap = int64(opts.EncodeWorkers) * int64(opts.EncodeQueue)
	n.pool = newFIFOPool(opts.EncodeWorkers, opts.EncodeQueue, n.process,
		&n.encWorkers, &n.encm.QueueDepth, &n.encm.QueueOverflows)
	flush := !opts.DisableAutoFlush
	if flush || opts.Compaction.Enabled {
		n.wg.Add(1)
		go n.background(flush, opts.Compaction.Enabled)
	}
	return n, nil
}

// background is the node's one clock. Each tick it runs a compaction pass if
// the dead share has crossed the trigger (compact), then applies a batch of
// write-backs if the node looks idle (flush): the paper defers them to idle
// I/O (§3.3.2), and our proxy for its I/O queue length is at most four client
// ops since the last tick and an empty encode queue.
func (n *Node) background(flush, compact bool) {
	defer n.wg.Done()
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		if compact {
			n.compactIfDead()
		}
		if flush && n.recentOps.Swap(0) <= 4 && n.encm.QueueDepth.Value() == 0 {
			n.FlushWritebacks(idleFlushBatch)
		}
	}
}

// recover rebuilds reference counts from the store, dropping any record whose
// delta chain no longer reaches a raw base. Crash tears only remove a segment
// suffix — bases always precede their dependants, so a tear cannot orphan a
// survivor — but mid-file corruption (a bad block inside an earlier segment)
// can erase a base out from under later records; keeping such a record would
// leave a key→ID mapping whose reads can never decode.
//
// Then it retires, as a delete does, every record that is neither hidden nor
// named by its key: an update torn between its new record's frame and the old
// one's retirement leaves one behind, and the key reads its new value. And it
// upgrades every stacked record, which an older node wrote for an update of a
// referenced record: the last section becomes a new record under the key, if
// the key names the stacked one, and the stacked record is retired, so no
// record is stacked once the node is open.
func (n *Node) recover() error {
	// The record table replay just built is all this needs: no payload is
	// read and no block decoded a second time.
	maxID := uint64(0)
	var ids []uint64
	n.store.Range(func(id uint64, _ docstore.MetaInfo) bool {
		if id > maxID {
			maxID = id
		}
		ids = append(ids, id)
		return true
	})
	slices.Sort(ids) // what the retirements write follows the IDs
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
	for _, id := range ids { // what was dropped has no Meta
		if m, ok := n.store.Meta(id); ok && m.Form == docstore.FormDelta {
			n.refcnt[m.BaseID]++
		}
	}
	n.nextID = maxID + 1
	for _, id := range ids {
		m, ok := n.store.Meta(id)
		if !ok {
			continue // dropped above, or reclaimed by a retirement's cascade
		}
		cur, named := n.store.Lookup(m.DB, m.Key)
		named = named && cur == id
		if !m.Stacked && (named || m.Hidden) {
			continue
		}
		var frames []docstore.Record
		if named {
			rec, _, err := n.store.Get(id)
			var visible []byte
			if err == nil {
				visible, err = stackedSection(rec.Payload, true)
			}
			if err != nil {
				return err
			}
			frames = append(frames, docstore.Record{ID: n.nextID, DB: m.DB, Key: m.Key, Payload: visible})
			n.nextID++
		}
		retire, release, err := n.retirementLocked(id)
		if err == nil {
			err = n.store.Append(append(frames, retire)...)
		}
		if err != nil {
			return err
		}
		n.moveRefLocked(release, 0)
	}
	return nil
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

	n.pool.close() // runs every accepted job first
	close(n.stopCh)
	n.wg.Wait()
	n.FlushWritebacks(-1)
	if n.eng != nil {
		n.eng.Close() // encoders drained above; releases tiered cold runs
	}
	return n.store.Close()
}

// Barrier waits until all encode work queued before the call has been
// processed: every mutation visible before the call is in the oplog once it
// returns. Tests, experiments and a shard handoff use it to observe a settled
// state. It returns on a closed node.
func (n *Node) Barrier() {
	// Planted under n.mu so each sentinel lands after every mutation
	// accepted so far; waited for outside it, since those jobs take n.mu.
	n.mu.Lock()
	reached := n.pool.plant()
	n.mu.Unlock()
	reached.Wait()
}

// numberLocked gives the job the next mutation number, in the n.mu section
// that makes the mutation take effect. With emit it also reserves that
// number's oplog slot, which the job's worker fills, and pushes the job on sh,
// the reservation the caller took from n.pool.reserve before n.mu; the caller
// has checked n.closed under n.mu, so the pool accepts the job. With
// SyncEncode the job carries the channel finish waits on. Without emit (the
// replication apply path) the number is never logged: a gap in the log.
func (n *Node) numberLocked(sh *fifoShard[encodeJob], job encodeJob, emit bool) encodeJob {
	n.opSeq++
	job.opSeq = n.opSeq
	if !emit {
		return job
	}
	n.log.Reserve(job.opSeq)
	if n.opts.SyncEncode {
		job.done = make(chan struct{})
	}
	n.pool.push(sh, job)
	return job
}

// ------------------------------------------------------------------ getters

// Oplog exposes the node's operation log to the replication layer.
func (n *Node) Oplog() *oplog.Log { return n.log }

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
	s.Memory.RecordTableBytes = s.Store.RecordTableBytes
	if n.eng != nil {
		s.Engine = n.eng.Stats()
		s.Memory.FeatureIndexBytes = n.eng.IndexAllocatedBytes()
	}
	s.OplogBytes = n.oplogBytes.Load()
	s.Oplog = n.log.Stats()
	s.Reads = n.readsTotal.Load()
	s.DecodeSteps = n.decodeSteps.Load()
	s.ReadsFromSourceCache = n.readsFromCache.Load()
	s.CompactionBytes = n.compm.PhysicalBytesReclaimed.Total()
	s.EncodeWorkers = int(n.encWorkers.Value())
	s.EncodeQueueDepth = n.encm.QueueDepth.Value()
	s.EncodeOverflows = n.encm.QueueOverflows.Total()
	s.InsertsRejected = n.admRejected.Load()
	s.Admission = n.adm.Snapshot()
	ws := n.wb.Stats()
	s.WritebacksDropped, s.WritebacksDroppedSaving, s.WritebacksPending = ws.Dropped, ws.DroppedSaving, ws.Pending
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
