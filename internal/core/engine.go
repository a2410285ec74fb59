// Package core implements the dbDedup engine: the four-step deduplication
// workflow of paper §3.1 (feature extraction → index lookup → cache-aware
// source selection → two-way delta compression), together with the policies
// that keep it cheap — the per-database dedup governor (§3.4.1) and the
// adaptive size-based filter (§3.4.2) — and the chain bookkeeping that
// drives hop encoding (§3.2.2).
//
// The engine is pure policy plus in-memory state: it decides *what* to store
// and ship (raw record, forward delta, backward write-backs) but performs no
// I/O itself. The DBMS node (package node) feeds it inserts, applies its
// decisions, and hands it a Fetcher for the rare source reads that miss the
// source record cache.
//
// # Concurrency
//
// Engine state is partitioned by database, matching the feature index's
// per-database partitioning (DESIGN.md §2): a read-mostly map guarded by
// dbsMu resolves database names to dbState, and each dbState carries its own
// mutex guarding that database's index, governor window, size filter, and
// chain bookkeeping. Global counters are atomics. The heavy CPU stages —
// sketch extraction and forward/backward delta compression — and the source
// fetch run outside any engine lock; only index lookup, chain bookkeeping,
// and window accounting hold the owning database's lock. Independent
// databases therefore encode fully in parallel.
//
// Lock hierarchy (outer → inner): dbsMu → dbState.mu → cache-internal locks,
// and the leaf locks of a SourceFilter's Usable. FetchDecoded is only ever
// invoked with no engine lock held, so it may take arbitrary locks.
//
// Encodes for the *same* database may also be issued concurrently — the
// engine stays memory-safe and every result remains decodable — but the
// chain layout then depends on interleaving. Callers that need deterministic
// per-database chain state (replication does) must serialise encodes per
// database, which is exactly what package node's database-sharded encoder
// pool provides.
package core

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/chain"
	"dbdedup/internal/chunker"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/delta"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/featidx/tiered"
	"dbdedup/internal/metrics"
	"dbdedup/internal/sketch"
)

// Fetcher supplies decoded record contents for cache misses.
type Fetcher interface {
	// FetchDecoded returns the full (decoded) content of record id.
	FetchDecoded(id uint64) ([]byte, error)
}

// SourceFilter is a Fetcher that also says which records may serve as a
// delta source. Encode asks it about the candidates best first, under the
// database's lock, so Usable must take only leaf locks; a refused candidate
// is passed over. With a plain Fetcher every candidate is usable.
type SourceFilter interface {
	Fetcher
	// Usable reports whether record id may be the source of a delta.
	Usable(id uint64) bool
}

// Config tunes the engine. Zero values select the paper's defaults.
type Config struct {
	// ChunkAvgSize is the sketching chunk size (paper: 1 KiB or 64 B;
	// 64 B is the headline configuration). Defaults to 64.
	ChunkAvgSize int
	// Chunker is the content-defined chunking algorithm of the sketch
	// stage. Every node leaves it zero (chunker.Gear); the paper-fidelity
	// experiments pin chunker.Rabin, the reference. It only steers which
	// similar record is found: no stored delta or oplog entry needs it to
	// decode, so data written under one reads and extends under the other.
	Chunker chunker.Algorithm
	// SampleRandomly switches feature selection from consistent sampling
	// to random sampling — strictly worse similarity detection, kept for
	// the ablation benchmark (DESIGN.md §5).
	SampleRandomly bool
	// Scheme is the storage encoding discipline. Defaults to Hop.
	Scheme chain.Scheme
	// HopDistance is H for Hop/VersionJump. Defaults to 16.
	HopDistance int
	// SourceCacheBytes bounds the source record cache (default 32 MiB).
	// Negative disables the cache entirely (Fig. 13a "no cache").
	SourceCacheBytes int64
	// IndexEntries is the capacity of each database's similarity-index
	// partition (internal/featidx/tiered) when no memory budget is set: a
	// cuckoo table that evicts by LRU once full. Defaults to 1<<22 entries
	// (24 MiB at 6 B/entry). Ignored under a budget, which sizes the table
	// itself.
	IndexEntries int
	// IndexBudgetBytes is the memory bound on each database's index
	// partition. Zero sets none: the partition is the cuckoo table alone.
	// A positive budget caps all in-memory index state at that many bytes
	// and keeps what the table evicts reachable through Bloom-gated cold
	// runs on disk.
	IndexBudgetBytes int64
	// IndexDir is where partitions keep their cold runs (one subdirectory
	// per partition); run files found there when the engine is built are
	// leftovers of a previous incarnation and are removed. Empty keeps
	// cold runs on a private in-memory FS — the tier machinery still runs,
	// which is what diskless deployments and tests want.
	IndexDir string
	// IndexFS overrides the filesystem seam for cold runs (fault injection;
	// nil selects the OS FS when IndexDir is set).
	IndexFS faultfs.FS
	// RewardScore is the cache-aware selection bonus (default 2;
	// Fig. 13a sweeps it).
	RewardScore int

	// GovernorWindow is the number of inserts the governor (§3.4.1)
	// observes before its first verdict on a database (default
	// DefaultGovernorWindow). Each window a database passes makes its next
	// one twice as long. Experiments that want no governor set a window the
	// run never fills (1<<30).
	GovernorWindow int
}

const (
	// minDedupRecordBytes is the size filter (§3.4.2): a smaller record
	// bypasses dedup. The paper skips the smallest 40 % of records instead,
	// because Fig. 7 finds 5–10 % of the savings there; but a share of the
	// savings is not a share of the stored bytes, and below this floor a
	// record holds too few anchors and chunks to find a source.
	minDedupRecordBytes = 64
	// governorThreshold is the compression ratio below which the governor
	// disables dedup for a database (§3.4.1).
	governorThreshold = 1.1
)

// DefaultGovernorWindow is the length of a database's first governor window.
// It is short, so that data which does not deduplicate stops paying the
// encoder within a few thousand inserts; the doubling of every later window
// keeps a database's verdicts to about log₂(n/2048) in n inserts.
const DefaultGovernorWindow = 2048

func (c Config) withDefaults() Config {
	if c.ChunkAvgSize == 0 {
		c.ChunkAvgSize = 64
	}
	if c.HopDistance == 0 {
		c.HopDistance = chain.DefaultHopDistance
	}
	if c.SourceCacheBytes == 0 {
		c.SourceCacheBytes = dedupcache.DefaultSourceCacheBytes
	}
	if c.IndexEntries == 0 {
		c.IndexEntries = 1 << 22
	}
	if c.RewardScore == 0 {
		c.RewardScore = 2
	}
	if c.RewardScore < 0 {
		// Negative is the explicit "no reward" setting (0 selects the
		// default), used by the Fig. 13a sweep.
		c.RewardScore = 0
	}
	if c.GovernorWindow == 0 {
		c.GovernorWindow = DefaultGovernorWindow
	}
	return c
}

// Result is the outcome of encoding one insert.
type Result struct {
	// Deduped reports whether a similar record was found and used. When
	// false the record is stored and shipped raw and the other fields
	// are zero.
	Deduped bool
	// SourceID is the selected similar record.
	SourceID uint64
	// SourceCached reports whether the source content came from the
	// source record cache (false = it cost a database read).
	SourceCached bool
	// Forward is the delta that reconstructs the new record from the
	// source — what replication ships (forward encoding).
	Forward delta.Delta
	// Writebacks are the backward re-encodings to apply, in the form the
	// write-back cache keeps: the source record first, then any hop-base
	// finalisations. Each one's Saving is the record's content size less
	// its marshalled delta's.
	Writebacks []dedupcache.Writeback
	// FilteredBySize and GovernorDisabled report why dedup was skipped.
	FilteredBySize   bool
	GovernorDisabled bool
}

// Stats summarises engine activity.
type Stats struct {
	Inserts          uint64
	Deduped          uint64
	SizeFiltered     uint64
	GovernorSkipped  uint64
	NoCandidate      uint64
	NotWorthEncoding uint64
	SourceCacheHits  uint64
	SourceCacheMiss  uint64
	IndexMemoryBytes int64
	// IndexEntries / IndexCapacityBytes describe bounded feature-index
	// occupancy across partitions; IndexLookups / IndexMatches /
	// IndexEvictions aggregate its counters. Evictions are the similarity
	// matches the inline path gave up.
	IndexEntries       int
	IndexCapacityBytes int64
	IndexLookups       uint64
	IndexMatches       uint64
	IndexEvictions     uint64
	// TieredIdx aggregates the partitions' cold-tier state (zero-valued,
	// with Enabled false, when no index budget is set).
	TieredIdx tiered.Snapshot
	RawBytes  int64 // total bytes presented
	// ForwardBytes is the total forward-delta bytes for deduped inserts.
	ForwardBytes int64
}

// FeatIdx returns the engine-wide index counters as the
// metrics.FeatIdxSnapshot the admin endpoint and the benchmark name them by.
func (s Stats) FeatIdx() metrics.FeatIdxSnapshot {
	return metrics.FeatIdxSnapshot{
		Entries:       s.IndexEntries,
		MemoryBytes:   s.IndexMemoryBytes,
		CapacityBytes: s.IndexCapacityBytes,
		Lookups:       s.IndexLookups,
		Matches:       s.IndexMatches,
		Evictions:     s.IndexEvictions,
	}
}

// counters is the lock-free mirror of Stats: every field is an atomic so the
// hot encode path never serialises on a statistics mutex.
type counters struct {
	inserts          atomic.Uint64
	deduped          atomic.Uint64
	sizeFiltered     atomic.Uint64
	governorSkipped  atomic.Uint64
	noCandidate      atomic.Uint64
	notWorthEncoding atomic.Uint64
	sourceCacheHits  atomic.Uint64
	sourceCacheMiss  atomic.Uint64
	rawBytes         atomic.Int64
	forwardBytes     atomic.Int64
}

// Engine is the dbDedup engine. Safe for concurrent use; encodes for
// independent databases run in parallel, serialising only on the owning
// database's state (see the package comment for the locking discipline).
type Engine struct {
	cfg       Config
	extractor *sketch.Extractor
	layout    chain.Layout
	cache     *dedupcache.SourceCache
	fetcher   Fetcher
	filter    SourceFilter // the fetcher, when it is one
	enc       *metrics.EncodeMetrics

	// dbsMu guards the dbs map (and partSeq) only; each dbState guards
	// itself.
	dbsMu   sync.RWMutex
	dbs     map[string]*dbState
	partSeq int // index partition directory sequence

	// sketchBufs recycles sketch result buffers (*sketch.Sketch) so the
	// encode and probe paths extract without allocating.
	sketchBufs sync.Pool

	stats counters
}

// dbState is the per-database partition: index, governor and filter state,
// chain bookkeeping. mu guards every field; it is the only lock an encode
// holds while touching this database's state, and it is never held across
// sketch extraction, delta compression, or fetcher calls.
type dbState struct {
	mu sync.Mutex

	index *tiered.TieredIndex
	refs  []uint64    // featidx ref -> record ID
	cands []candidate // probeLocked's result, reused across probes

	disabled  bool    // governor verdict
	window    int     // the current governor window's length in inserts
	lowest    float64 // lowest ratio of a judged window, 0 before the first
	inserts   int
	rawBytes  int64
	codeBytes int64 // bytes after encoding decisions (forward deltas + raw)

	chains map[uint64]*chainState // head record ID -> chain
}

// chainState tracks one similarity chain for hop bookkeeping.
type chainState struct {
	headID  uint64
	headPos int
	firstID uint64
	// lastBase[step] is the record ID at the latest position divisible by
	// the hop step (H, H², …). Nil until the chain records its first one:
	// most chains on data that does not dedup never grow past their head.
	lastBase map[int]uint64
}

// NewEngine returns an engine with the given configuration and fetcher.
func NewEngine(cfg Config, fetcher Fetcher) *Engine {
	cfg = cfg.withDefaults()
	if cfg.IndexDir != "" {
		// The index is soft state: whatever an unclean shutdown left here
		// is never reopened, so clear it before any partition exists.
		tiered.RemoveStaleRuns(cfg.IndexFS, cfg.IndexDir)
	}
	var cache *dedupcache.SourceCache
	if cfg.SourceCacheBytes > 0 {
		cache = dedupcache.NewSourceCache(cfg.SourceCacheBytes)
	}
	e := &Engine{
		cfg: cfg,
		extractor: sketch.NewExtractor(sketch.Config{
			K:              sketch.DefaultK,
			Chunker:        cfg.Chunker,
			ChunkAvgSize:   cfg.ChunkAvgSize,
			SampleRandomly: cfg.SampleRandomly,
		}),
		layout:  chain.New(cfg.Scheme, cfg.HopDistance),
		cache:   cache,
		fetcher: fetcher,
		enc:     metrics.NewEncodeMetrics(),
		dbs:     make(map[string]*dbState),
	}
	e.filter, _ = fetcher.(SourceFilter)
	e.extractor.SetMetrics(e.enc)
	e.sketchBufs.New = func() interface{} {
		s := make(sketch.Sketch, 0, sketch.DefaultK)
		return &s
	}
	return e
}

// getSketchBuf / putSketchBuf recycle sketch buffers around extraction.
func (e *Engine) getSketchBuf() *sketch.Sketch {
	return e.sketchBufs.Get().(*sketch.Sketch)
}

func (e *Engine) putSketchBuf(buf *sketch.Sketch, sk sketch.Sketch) {
	if sk != nil {
		*buf = sk // keep any grown capacity
	}
	e.sketchBufs.Put(buf)
}

// Layout returns the engine's encoding layout.
func (e *Engine) Layout() chain.Layout { return e.layout }

// SourceCache returns the engine's source record cache (nil when disabled).
func (e *Engine) SourceCache() *dedupcache.SourceCache { return e.cache }

// EncodeMetrics returns the engine's per-stage latency histograms and
// throughput meters.
func (e *Engine) EncodeMetrics() *metrics.EncodeMetrics { return e.enc }

func (e *Engine) db(name string) *dbState {
	e.dbsMu.RLock()
	st, ok := e.dbs[name]
	e.dbsMu.RUnlock()
	if ok {
		return st
	}
	e.dbsMu.Lock()
	defer e.dbsMu.Unlock()
	if st, ok := e.dbs[name]; ok {
		return st
	}
	st = &dbState{
		index:  e.newIndexPartition(),
		window: e.cfg.GovernorWindow,
		chains: make(map[uint64]*chainState),
	}
	e.dbs[name] = st
	return st
}

// newIndexPartition builds one database's similarity-index partition.
// Caller holds dbsMu (write).
func (e *Engine) newIndexPartition() *tiered.TieredIndex {
	var dir string
	if e.cfg.IndexDir != "" {
		dir = filepath.Join(e.cfg.IndexDir, fmt.Sprintf("part-%06d", e.partSeq))
		e.partSeq++
	}
	return tiered.New(tiered.Config{
		BudgetBytes: e.cfg.IndexBudgetBytes,
		HotEntries:  e.cfg.IndexEntries,
		Dir:         dir,
		FS:          e.cfg.IndexFS,
	})
}

// hopJob is a hop-base re-encoding decided under the database lock but
// executed outside it: content acquisition (cache, then fetcher) and delta
// compression are the expensive parts and need no engine state.
type hopJob struct {
	baseID uint64
}

// Encode runs the dedup workflow for a newly inserted record and returns
// the storage/replication decision. id must be unique and payload is
// retained by the engine's cache (callers must not mutate it afterwards).
func (e *Engine) Encode(dbName string, id uint64, payload []byte) (Result, error) {
	st := e.db(dbName)
	e.stats.inserts.Add(1)
	e.stats.rawBytes.Add(int64(len(payload)))

	// Cheap policy gate under the database lock: governor verdict and
	// size filter.
	st.mu.Lock()
	st.inserts++
	st.rawBytes += int64(len(payload))
	if st.disabled {
		st.codeBytes += int64(len(payload))
		st.mu.Unlock()
		e.stats.governorSkipped.Add(1)
		return Result{GovernorDisabled: true}, nil
	}
	if len(payload) < minDedupRecordBytes {
		st.codeBytes += int64(len(payload))
		e.governorTickLocked(st, true)
		st.mu.Unlock()
		e.stats.sizeFiltered.Add(1)
		return Result{FilteredBySize: true}, nil
	}
	st.mu.Unlock()

	e.enc.EncodedRecords.Add(1)
	e.enc.EncodedBytes.Add(int64(len(payload)))

	// Step 1: feature extraction — CPU-heavy, lock-free, allocation-free
	// (pooled sketch buffer + pooled extractor scratch).
	t := time.Now()
	skb := e.getSketchBuf()
	sk := e.extractor.ExtractInto(*skb, payload)
	e.enc.ObserveStage(metrics.StageSketch, time.Since(t))

	// Step 2: index lookup — also registers the new record's features.
	t = time.Now()
	st.mu.Lock()
	if st.disabled || st.index == nil {
		// The governor fired concurrently (same-database race); treat
		// like any post-verdict insert.
		st.codeBytes += int64(len(payload))
		st.mu.Unlock()
		e.putSketchBuf(skb, sk)
		e.stats.governorSkipped.Add(1)
		return Result{GovernorDisabled: true}, nil
	}
	// Cold-tier writes and merges the probe may queue run at return, with
	// no engine lock held — that I/O must never stall encodes (see the
	// tiered package's concurrency contract). The partition is read here,
	// under st.mu. Failures are soft (recall loss only) and surface
	// through Stats().TieredIdx.
	defer st.index.Maintain()
	cands := probeLocked(st, sk, id)
	e.putSketchBuf(skb, sk)

	// Step 3: cache-aware source selection (cache.Contains takes only the
	// cache's internal lock — a permitted inner lock).
	srcID, ok := e.selectSource(cands)
	if !ok {
		st.codeBytes += int64(len(payload))
		e.adoptAsNewChainLocked(st, id, payload)
		e.governorTickLocked(st, true)
		st.mu.Unlock()
		e.stats.noCandidate.Add(1)
		e.enc.ObserveStage(metrics.StageIndex, time.Since(t))
		return Result{}, nil
	}
	st.mu.Unlock()
	e.enc.ObserveStage(metrics.StageIndex, time.Since(t))

	// Fetch the source content: cache first, then the database. No engine
	// lock is held, so the fetcher may do real I/O without stalling other
	// databases.
	t = time.Now()
	var srcContent []byte
	var srcAnchors delta.Anchors
	cached := false
	if e.cache != nil {
		if c, a, ok := e.cache.GetAnchored(srcID); ok {
			srcContent, srcAnchors = c, a
			cached = true
			e.stats.sourceCacheHits.Add(1)
		}
	}
	if srcContent == nil {
		var err error
		srcContent, err = e.fetcher.FetchDecoded(srcID)
		if err != nil {
			return Result{}, fmt.Errorf("core: fetching source %d: %w", srcID, err)
		}
		e.stats.sourceCacheMiss.Add(1)
	}
	e.enc.ObserveStage(metrics.StageSource, time.Since(t))

	// Step 4: two-way delta compression — the dominant CPU cost, lock-free.
	// A cached head's anchor list spares the encode its source roll, and the
	// encode lists the new record's anchors for when it is the source.
	t = time.Now()
	fwd, anchors := delta.CompressAnchored(srcContent, srcAnchors, payload, delta.Options{})
	if fwd.EncodedSize() >= len(payload) {
		e.enc.ObserveStage(metrics.StageDelta, time.Since(t))
		// The "similar" record was a false friend; store raw.
		st.mu.Lock()
		st.codeBytes += int64(len(payload))
		e.adoptAsNewChainLocked(st, id, payload)
		e.governorTickLocked(st, true)
		st.mu.Unlock()
		e.stats.notWorthEncoding.Add(1)
		return Result{}, nil
	}
	res := e.encodeAgainst(st, id, payload, anchors, srcID, srcContent, fwd, t)
	res.SourceCached = cached
	e.stats.forwardBytes.Add(int64(fwd.EncodedSize()))
	st.mu.Lock()
	st.codeBytes += int64(fwd.EncodedSize())
	e.governorTickLocked(st, true)
	st.mu.Unlock()
	return res, nil
}

// EncodeAsReplica mirrors the primary's encoding on a secondary: the source
// is already chosen (shipped in the oplog entry) and the forward delta is
// given; the secondary re-derives the backward write-backs and maintains its
// own chain state, which evolves identically because it applies the same
// inserts in the same order (paper §4.1, "Re-encoder"). Once the database is
// disabled, a forward delta that still arrives is stored as decoded, with no
// chain, cache or write-back work.
func (e *Engine) EncodeAsReplica(dbName string, id uint64, payload []byte, srcID uint64, srcContent []byte, fwd delta.Delta) Result {
	st := e.db(dbName)
	e.stats.inserts.Add(1)
	e.stats.rawBytes.Add(int64(len(payload)))
	st.mu.Lock()
	st.inserts++
	st.rawBytes += int64(len(payload))
	st.codeBytes += int64(fwd.EncodedSize())
	e.governorTickLocked(st, false)
	disabled := st.disabled
	st.mu.Unlock()
	if disabled {
		e.stats.governorSkipped.Add(1)
		return Result{GovernorDisabled: true}
	}
	return e.encodeAgainst(st, id, payload, nil, srcID, srcContent, fwd, time.Now())
}

// encodeAgainst is what the primary and the replica do once id's source and
// forward delta are known: derive the backward delta that rewrites the
// source, advance the chain, compute the hop-base rewrites the layout asks
// for, and move the chain head in the source cache. anchors is payload's
// anchor list, nil when the caller has none. deltaStart is when the caller's
// delta stage began, so the stage is observed once per record.
func (e *Engine) encodeAgainst(st *dbState, id uint64, payload []byte, anchors delta.Anchors, srcID uint64, srcContent []byte, fwd delta.Delta, deltaStart time.Time) Result {
	bwd := delta.Reencode(srcContent, payload, fwd)
	e.enc.ObserveStage(metrics.StageDelta, time.Since(deltaStart))
	// The source write-back stands in by ID until the layout has kept it:
	// a version-jump reference version stays raw, and its delta is then
	// never marshalled.
	res := Result{
		Deduped:    true,
		SourceID:   srcID,
		Forward:    fwd,
		Writebacks: []dedupcache.Writeback{{ID: srcID, Base: id}},
	}

	// Chain bookkeeping under the lock; marshalling, hop-base re-encoding
	// and the chain-head cache update outside it (the cache synchronises
	// itself).
	t := time.Now()
	st.mu.Lock()
	hops, advanced := e.appendToChainLocked(st, srcID, id, payload, &res)
	st.mu.Unlock()
	if len(res.Writebacks) > 0 {
		res.Writebacks[0] = backward(srcID, id, srcContent, bwd)
	}
	e.emitHopWritebacks(hops, id, payload, anchors, &res)
	if advanced && e.cache != nil {
		e.cache.Replace(srcID, id, payload, anchors)
	}
	e.enc.ObserveStage(metrics.StageChain, time.Since(t))
	e.stats.deduped.Add(1)
	return res
}

// candidate is a record the index probe found and how many of the new
// record's features it shares.
type candidate struct {
	id     uint64
	shared int
}

// probeLocked is Encode's index stage: it registers id under a fresh ref,
// looks up and inserts every feature of sk, and returns how many features each
// other record shares with it. The record itself is excluded, under the new
// ref and under any older one. The result lives in st.cands, so it is valid
// only while the caller holds st.mu: a probe finds at most K×MaxCandidates
// records, so a linear search of a reused slice beats a map. Caller holds
// st.mu and has checked that st.index is non-nil.
func probeLocked(st *dbState, sk sketch.Sketch, id uint64) []candidate {
	ref := uint32(len(st.refs))
	st.refs = append(st.refs, id)
	cands := st.cands[:0]
	for _, f := range sk {
	refs:
		for _, r := range st.index.LookupInsert(f, ref) {
			if r >= ref || st.refs[r] == id {
				continue
			}
			rid := st.refs[r]
			for i := range cands {
				if cands[i].id == rid {
					cands[i].shared++
					continue refs
				}
			}
			cands = append(cands, candidate{id: rid, shared: 1})
		}
	}
	st.cands = cands
	return cands
}

// ObserveRaw lets a replica node keep chain/cache state coherent for records
// that arrived unencoded. disabled says the primary shipped the record raw
// because its governor had disabled the database: the replica takes that
// verdict and judges no window of its own, since its window also counts
// records the primary never encoded (snapshot installs, fetched bases, shed
// inserts). Once the database is disabled nothing is kept, and a record the
// size filter keeps out of Encode is kept out here too.
func (e *Engine) ObserveRaw(dbName string, id uint64, payload []byte, disabled bool) {
	st := e.db(dbName)
	e.stats.inserts.Add(1)
	e.stats.rawBytes.Add(int64(len(payload)))
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inserts++
	st.rawBytes += int64(len(payload))
	st.codeBytes += int64(len(payload))
	if disabled && !st.disabled {
		e.disableLocked(st)
	}
	if st.disabled {
		e.stats.governorSkipped.Add(1)
		return
	}
	if len(payload) < minDedupRecordBytes {
		e.stats.sizeFiltered.Add(1)
	} else {
		e.adoptAsNewChainLocked(st, id, payload)
	}
	e.governorTickLocked(st, false)
}

// selectSource picks the candidate with the highest score: shared-feature
// count plus the cache reward (paper §3.1.3). Ties break toward the higher
// record ID (the more recent record), exploiting the incremental-update
// pattern. A candidate the filter refuses is dropped from cands and the next
// best is tried; ok is false when none is left. Caller holds st.mu.
func (e *Engine) selectSource(cands []candidate) (id uint64, ok bool) {
	for len(cands) > 0 {
		best, bestScore := 0, -1
		for i, c := range cands {
			score := c.shared
			if e.cache != nil && e.cache.Contains(c.id) {
				score += e.cfg.RewardScore
			}
			if score > bestScore || score == bestScore && c.id > cands[best].id {
				best, bestScore = i, score
			}
		}
		if e.filter == nil || e.filter.Usable(cands[best].id) {
			return cands[best].id, true
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return 0, false
}

// adoptAsNewChainLocked registers id as the head of a fresh chain and caches
// it. Caller holds st.mu.
func (e *Engine) adoptAsNewChainLocked(st *dbState, id uint64, payload []byte) {
	if st.chains == nil {
		return // governor freed this partition concurrently
	}
	st.chains[id] = &chainState{headID: id, headPos: 0, firstID: id}
	if e.cache != nil {
		e.cache.Put(id, payload)
	}
	// Bound chain-state memory: past maxChains, keep the newest half, the
	// heads with the largest IDs (a head's ID grows as its chain advances,
	// so the smallest belong to the chains idle longest).
	if len(st.chains) > maxChains {
		heads := make([]uint64, 0, len(st.chains))
		for k := range st.chains {
			heads = append(heads, k)
		}
		slices.Sort(heads)
		for _, k := range heads[:len(heads)-maxChains/2] {
			delete(st.chains, k)
		}
	}
}

// maxChains bounds the chains a database tracks.
const maxChains = 1 << 17

// appendToChainLocked advances chain state after id was encoded against
// srcID and cancels the primary write-back for version-jump reference
// versions. It returns the hop-base re-encodings to compute once the lock is
// released, and whether the chain head advanced (the caller then performs
// the chain-head cache Replace, also outside the lock, preserving the cache
// interaction order of the serial implementation: hop-base reads first, head
// replacement last). Caller holds st.mu.
func (e *Engine) appendToChainLocked(st *dbState, srcID, id uint64, payload []byte, res *Result) ([]hopJob, bool) {
	cs, isHead := st.chains[srcID]
	if !isHead {
		// Overlapped encoding (Fig. 5): the source was not a chain
		// head. The source still gets re-encoded against the new
		// record (the primary write-back), but the chain positions are
		// unknown; the new record starts a fresh chain. The old chain
		// head, if any, simply stays raw — the compression loss the
		// paper measures at <5% (Fig. 11).
		e.adoptAsNewChainLocked(st, id, payload)
		return nil, false
	}

	delete(st.chains, srcID)
	p := cs.headPos + 1
	cs.headID = id
	cs.headPos = p
	st.chains[id] = cs

	// The layout names the positions p's arrival rewrites: the old head
	// p-1 (the source write-back Encode already emitted) unless it is a
	// version-jump reference version, which stays raw, and under hop
	// encoding the latest hop base of every step that divides p.
	var buf [8]chain.Writeback
	keepSource := false
	var hops []hopJob
	for _, wb := range e.layout.AppendWritebacks(buf[:0], p) {
		step := p - wb.Pos
		if step == 1 {
			keepSource = true
			continue
		}
		baseID, ok := cs.lastBase[step]
		if !ok {
			baseID = cs.firstID // position 0 is the first base of every step
		}
		if cs.lastBase == nil {
			cs.lastBase = make(map[int]uint64)
		}
		cs.lastBase[step] = id
		if e.stageHopWriteback(baseID, id, res, hops) {
			hops = append(hops, hopJob{baseID: baseID})
		}
	}
	if !keepSource {
		res.Writebacks = res.Writebacks[:0]
	}
	return hops, true
}

// stageHopWriteback decides whether baseID needs a hop re-encoding while
// chain state is still consistent. The expensive part (content lookup +
// delta compression) is deferred to emitHopWritebacks, outside the database
// lock.
func (e *Engine) stageHopWriteback(baseID, newID uint64, res *Result, staged []hopJob) bool {
	if baseID == newID {
		return false
	}
	for _, wb := range res.Writebacks {
		if wb.ID == baseID {
			return false // already re-encoded by the primary write-back
		}
	}
	for _, j := range staged {
		if j.baseID == baseID {
			return false
		}
	}
	return true
}

// emitHopWritebacks computes the staged hop-base re-encodings against the
// new record, whose anchor list (nil for none) indexes it, and appends them
// to res. Failures to obtain a base content (e.g. it was evicted everywhere)
// just skip that write-back — a pure compression loss, never a correctness
// problem. Runs without any engine lock held; the source cache and the
// fetcher synchronise themselves.
func (e *Engine) emitHopWritebacks(hops []hopJob, newID uint64, newContent []byte, newAnchors delta.Anchors, res *Result) {
	for _, job := range hops {
		var baseContent []byte
		if e.cache != nil {
			if c, ok := e.cache.Get(job.baseID); ok {
				baseContent = c
			}
		}
		if baseContent == nil && e.fetcher != nil {
			c, err := e.fetcher.FetchDecoded(job.baseID)
			if err != nil {
				continue
			}
			baseContent = c
		}
		if baseContent == nil {
			continue
		}
		d, _ := delta.CompressAnchored(newContent, newAnchors, baseContent, delta.Options{})
		if d.EncodedSize() >= len(baseContent) {
			continue
		}
		res.Writebacks = append(res.Writebacks, backward(job.baseID, newID, baseContent, d))
	}
}

// backward is the write-back that stores record id, whose content is
// content, as d against record base.
func backward(id, base uint64, content []byte, d delta.Delta) dedupcache.Writeback {
	payload := d.Marshal()
	return dedupcache.Writeback{ID: id, Base: base, Payload: payload,
		Saving: int64(len(content) - len(payload))}
}

// governorTickLocked closes the database's window once it has seen
// st.window inserts. On a primary (judge) a window ratio below
// governorThreshold is the verdict, and a window the database passes makes
// the next one twice as long, so a database is judged about
// log₂(n/GovernorWindow) times in n inserts. A replica keeps the same window
// with no verdict of its own: it takes the primary's from the raw entries
// the primary marks (ObserveRaw). Caller holds st.mu.
func (e *Engine) governorTickLocked(st *dbState, judge bool) {
	if st.disabled || st.inserts < st.window {
		return
	}
	ratio := float64(st.rawBytes) / float64(max(st.codeBytes, 1))
	if judge && (st.lowest == 0 || ratio < st.lowest) {
		st.lowest = ratio
	}
	if judge && ratio < governorThreshold {
		e.disableLocked(st)
	}
	// Open the next window, so a still-enabled database is re-evaluated
	// over fresh data.
	st.window *= 2
	st.inserts = 0
	st.rawBytes = 0
	st.codeBytes = 0
}

// disableLocked turns dedup off for the database: not enough benefit (paper
// §3.4.1). It frees the index partition and the chain heads' source-cache
// entries, which no encode will use again. Dedup is never re-enabled —
// workload dedupability rarely changes. A partition may own disk runs: Close
// retires them (unlinking the files) before the reference is dropped. This
// runs under st.mu, but Close takes only the index's internal locks (below
// st.mu in the hierarchy) and fires at most once per database, and the
// cache's lock is a permitted inner lock. Caller holds st.mu.
func (e *Engine) disableLocked(st *dbState) {
	if e.cache != nil {
		for head := range st.chains {
			e.cache.Remove(head)
		}
	}
	st.index.Close()
	st.disabled = true
	st.index = nil
	st.refs = nil
	st.cands = nil
	st.chains = nil
}

// DBStats is the per-database view the governor maintains (§3.4.1).
type DBStats struct {
	// Name is the database name.
	Name string
	// Disabled reports the governor's verdict.
	Disabled bool
	// WindowInserts / WindowRawBytes / WindowEncodedBytes describe the
	// current governor observation window.
	WindowInserts      int
	WindowRawBytes     int64
	WindowEncodedBytes int64
	// LowestWindowRatio is the lowest compression ratio of a window the
	// governor judged: how near the database came to being disabled. It is
	// 0 before the first verdict, and on a replica, which judges none.
	LowestWindowRatio float64
	// IndexMemoryBytes is this partition's feature-index footprint.
	IndexMemoryBytes int64
	// Chains is the number of live similarity chains tracked.
	Chains int
	// IndexEntries is the feature index's occupancy; IndexLookups /
	// IndexMatches / IndexEvictions are its lifetime counters.
	IndexEntries   int
	IndexLookups   uint64
	IndexMatches   uint64
	IndexEvictions uint64
	// StoredBytes is the database's live stored payload (filled in by
	// the node, which owns storage accounting).
	StoredBytes int64
}

// WindowRatio returns the compression ratio observed in the current
// governor window.
func (d DBStats) WindowRatio() float64 {
	if d.WindowEncodedBytes <= 0 {
		return 0
	}
	return float64(d.WindowRawBytes) / float64(d.WindowEncodedBytes)
}

// snapshotDBs returns the current (name, state) pairs without holding dbsMu
// longer than the map walk.
func (e *Engine) snapshotDBs() map[string]*dbState {
	e.dbsMu.RLock()
	defer e.dbsMu.RUnlock()
	out := make(map[string]*dbState, len(e.dbs))
	for name, st := range e.dbs {
		out[name] = st
	}
	return out
}

// DBStats returns per-database engine state, sorted by name.
func (e *Engine) DBStats() []DBStats {
	dbs := e.snapshotDBs()
	out := make([]DBStats, 0, len(dbs))
	for name, st := range dbs {
		st.mu.Lock()
		ds := DBStats{
			Name:               name,
			Disabled:           st.disabled,
			WindowInserts:      st.inserts,
			WindowRawBytes:     st.rawBytes,
			WindowEncodedBytes: st.codeBytes,
			LowestWindowRatio:  st.lowest,
			Chains:             len(st.chains),
		}
		if st.index != nil {
			ds.IndexMemoryBytes = st.index.MemoryBytes()
			ds.IndexEntries = st.index.Len()
			ds.IndexLookups, ds.IndexMatches, ds.IndexEvictions = st.index.Stats()
		}
		st.mu.Unlock()
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns a snapshot of engine counters. IndexMemoryBytes sums the
// live index partitions.
func (e *Engine) Stats() Stats {
	s := Stats{
		Inserts:          e.stats.inserts.Load(),
		Deduped:          e.stats.deduped.Load(),
		SizeFiltered:     e.stats.sizeFiltered.Load(),
		GovernorSkipped:  e.stats.governorSkipped.Load(),
		NoCandidate:      e.stats.noCandidate.Load(),
		NotWorthEncoding: e.stats.notWorthEncoding.Load(),
		SourceCacheHits:  e.stats.sourceCacheHits.Load(),
		SourceCacheMiss:  e.stats.sourceCacheMiss.Load(),
		RawBytes:         e.stats.rawBytes.Load(),
		ForwardBytes:     e.stats.forwardBytes.Load(),
	}
	for _, st := range e.snapshotDBs() {
		st.mu.Lock()
		if st.index != nil {
			s.IndexMemoryBytes += st.index.MemoryBytes()
			s.IndexEntries += st.index.Len()
			s.IndexCapacityBytes += st.index.CapacityBytes()
			lk, mt, ev := st.index.Stats()
			s.IndexLookups += lk
			s.IndexMatches += mt
			s.IndexEvictions += ev
			s.TieredIdx.Accumulate(st.index.Snapshot())
		}
		st.mu.Unlock()
	}
	return s
}

// IndexAllocatedBytes is what the live index partitions hold of the heap
// (tiered.TieredIndex.AllocatedBytes, summed).
func (e *Engine) IndexAllocatedBytes() int64 {
	var n int64
	for _, st := range e.snapshotDBs() {
		st.mu.Lock()
		if st.index != nil {
			n += st.index.AllocatedBytes()
		}
		st.mu.Unlock()
	}
	return n
}

// Close releases every index partition's external resources (cold runs on
// disk). Callers must have quiesced encodes — the node calls this after its
// encoder pool has drained. Safe to call more than once.
func (e *Engine) Close() error {
	var parts []*tiered.TieredIndex
	for _, st := range e.snapshotDBs() {
		st.mu.Lock()
		if st.index != nil {
			parts = append(parts, st.index)
		}
		st.mu.Unlock()
	}
	var firstErr error
	for _, p := range parts {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
