// Package docstore implements the storage engine substrate dbDedup plugs
// into: a log-structured record store in the spirit of the append-mostly
// NoSQL engines the paper targets.
//
// Records — raw, delta-encoded, or tombstones — are framed into a seal batch;
// a batch is sealed at a size threshold (Options.BlockSize, 32 KiB), cut into
// blocks of a few frames each (never more than 4 KiB, unless one frame is),
// each optionally run through the block-level compressor (the stand-in for
// WiredTiger's Snappy pass), and appended to a segment file with one write.
// The two sizes do two jobs. The batch is the unit of writing: one sealer
// pass, one write, one hold of the writer lock to install it. The block is
// the unit of reading: what a point read loads, checks, inflates and caches,
// with its own header, checksum and cache entry, so a read of one small
// record does not inflate 32 KiB. What small blocks would lose in ratio (a
// 4 KiB block on its own finds few matches) a per-segment dictionary gives
// back: a segment's first batch is written as one self-contained block, its
// first 32 KiB of raw bytes are the dictionary, and every later block of the
// segment is compressed behind it (blockcomp.Dict) and says so with a header
// flag. The dictionary is resident while the segment is open, on its
// segio.Reader (1/2048 of a full segment), set when that first block is
// installed or replayed, so a segment file still decodes alone and a torn
// first block means an empty segment.
//
// An in-memory index maps record IDs to block locators, and keys to record IDs
// (dir.go); a sharded LRU block cache, bounded in bytes, serves hot reads; dead
// bytes are reclaimed by segment compaction. Opening an existing directory
// replays the segments to rebuild the index, so the store is crash-consistent
// up to the last sealed block (plus the unsealed tail, which is replayed too).
//
// # Concurrency
//
// The store is a single-writer, many-reader structure. One writer lock
// (s.mu) serialises Append/Flush/Compact/Close and the commit of a sealed
// block; the read path — Get, View, Range, Meta, Lookup, Keys, DBNames,
// Stats, DBLogicalBytes — never takes it.
//
// An append is a copy and one table update: the frame is copied into the batch
// under construction (pending), the record's entry in the record table is
// replaced and then its key published. The append that fills the batch swaps in
// the spare buffer, hands the full batch to the sealer and returns. The sealer
// — one goroutine, alive only while a full batch exists — cuts and compresses
// the batch, writes it behind the active segment's end and fsyncs it under
// SyncWrites, all outside s.mu, and then takes s.mu only to make those bytes
// part of the segment, point the batch's records at their blocks and roll a
// full segment. At most one batch is in flight and batches reach the segment in
// the order they filled, so the bytes on disk are those a store sealing inline
// would write. An appender that finds both buffers full waits on a condition
// variable for the sealer (Stats.SealWaits). Flush, Close and the sealer share
// the two halves of that commit (writeInFlight, installLocked); Flush waits for
// the batch in flight, seals the remainder and, under SyncWrites, returns after
// the fsync, so it is the durability barrier: what was acknowledged before a
// Flush that returned nil survives a crash, and up to two batches acknowledged
// since do not.
//
// A batch that cannot be written or synced never becomes part of the segment
// (the segment's end has not moved) and stays in flight, its records readable.
// The error goes to whichever of the next Append (which then stores nothing),
// Flush or Close comes first, and that call or the next retries the batch:
// the same bytes at the same offset.
//
// The record table (table.go) is a slab indexed by record ID: one pointer-free
// slot per live record, its metadata plus either the number of the unsealed
// batch its frame is in or the sealed location, in pages of consecutive IDs
// that are allocated with their first record and freed with their last; a
// record's key and, while it is pending, its pending copy are kept beside the
// slot. Every change of a record — overwrite, delete, pending to sealed — is
// one store under one shard lock, taken after s.mu by writers and alone by
// readers, so a reader finds the old version or the new one and never
// neither. The sealer retires a pending copy only if the entry
// still names its batch and frame: a record overwritten, re-encoded or
// deleted while its old frame was in flight keeps the newer version and the
// old frame is counted dead.
//
// Sealed bytes are immutable, so reads of them route through the segio
// subsystem: a block read consults the sharded block cache (segio.Cache) and,
// on a miss, pins a refcounted segment handle (segio.Table), loads the block
// and unpins. A reader asks for its block, whole: a block is a few KiB, and
// the one large block a segment has, its first, serves the frames within its
// first 32 KiB from the resident dictionary, which is those bytes. Replay and
// compaction read a segment from end to end and do not go through the cache
// at all: one walk (walkBlocks) decodes each block once, in file order, into a
// buffer of its own; what compaction moves is re-appended like any record,
// under the active segment's dictionary. A block decoded for a reader belongs
// to the cache; readers see their
// record in it only inside a callback (under the cache's shard lock on a hit,
// before handing the buffer over on a miss). Get copies the payload out there and
// returns bytes nothing else aliases; View lends it to the caller's function
// for exactly that long, so a chain decode can apply a stored delta without a
// copy of it. Either way the cache is free to recycle an evicted block's
// buffer for the next miss. The cache's shard lock is a leaf like the
// table's: nothing is acquired under it, which is the rule View passes on to
// its callers. Compaction retires a segment by publishing a new table epoch
// and deleting the file; pinned readers keep the inode alive until they
// drain, and a reader that loses the pin race re-resolves its record through
// the table, which no longer references the victim. See the segio package
// comment for the retirement protocol and DESIGN.md §6 for the lock hierarchy.
//
// Counters are atomics; the key directory and the per-database byte counts sit
// under per-database locks that readers take alone.
//
// The store knows nothing about deduplication policy: it faithfully stores
// whatever form (raw or delta + base reference) the engine hands it, and
// reports the size accounting the experiments need.
package docstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/blockcomp"
	"dbdedup/internal/docstore/segio"
	"dbdedup/internal/faultfs"
)

// Form describes how a record's payload is stored.
type Form byte

const (
	// FormRaw means Payload is the record's full content.
	FormRaw Form = 0
	// FormDelta means Payload is a delta program; the full content is
	// recovered by applying it to the record identified by BaseID.
	FormDelta Form = 1
)

// Record is the unit of storage.
type Record struct {
	// ID is the store-assigned (caller-chosen, unique) record identity.
	ID uint64
	// DB and Key identify the record to clients; the store resolves a key
	// to its record (Lookup) and otherwise treats them as opaque.
	DB, Key string
	// Form selects raw or delta representation.
	Form Form
	// BaseID is the decode base for FormDelta records.
	BaseID uint64
	// Tombstone marks a deletion marker frame.
	Tombstone bool
	// Stacked marks a record an older node wrote by stacking a client
	// update onto a referenced record: its payload carries the update as a
	// section on top of its stored form. Nothing stacks any more (an update
	// is a new record); the node upgrades such a record when it opens the
	// store.
	Stacked bool
	// Hidden marks a record that was deleted by the client but is
	// retained because other records still decode through it; reads
	// treat it as absent.
	Hidden bool
	// Payload is the stored bytes (full content or marshalled delta).
	Payload []byte
}

// Options configures a Store.
type Options struct {
	// Dir is the storage directory. Empty means the store keeps nothing past
	// its own lifetime: it runs the same file path over a private
	// faultfs.MemFS (and FS is ignored), which is what tests, examples and
	// the figure experiments use.
	Dir string
	// BlockSize is the target uncompressed size of a seal batch: what is
	// compressed, written and installed in one go, as blocks of about 4 KiB.
	// Defaults to 32 KiB.
	BlockSize int
	// Compress enables block-level compression of sealed blocks.
	Compress bool
	// SegmentSize is the target segment size. Defaults to 64 MiB.
	SegmentSize int
	// CacheBlocks bounds the decompressed-block cache, at CacheBlocks x
	// BlockSize bytes. Defaults to 64, which with 32 KiB is 2 MiB. The
	// cache has one shard per blocksPerShard of them (cacheShards).
	CacheBlocks int
	// AppendDelay injects a fixed latency into every record append,
	// simulating a slow storage device (the paper's HDD testbed). Zero
	// disables it. Used by the write-back-cache experiment, where the
	// effect under study is I/O contention.
	AppendDelay time.Duration
	// SyncWrites fsyncs the segment file after each sealed block, so that
	// a Flush that returned nil is a durability barrier. The paper runs
	// with full journaling off; this is the corresponding opt-in knob.
	SyncWrites bool
	// FS is the filesystem Dir is on. Nil selects the direct os-backed
	// implementation; crash tests install a faultfs.Injector to script
	// write/sync/read failures and crash points.
	FS faultfs.FS
}

// Stats is the store's size accounting.
type Stats struct {
	// LiveRecords is the number of addressable (non-deleted) records.
	LiveRecords int
	// LogicalBytes is the total payload size of live records as stored
	// (post-dedup, pre-block-compression) — the numerator of the paper's
	// dedup-only compression ratios is the raw ingest size divided by
	// this.
	LogicalBytes int64
	// BlockBytesIn is the uncompressed size of all sealed blocks ever
	// written; BlockBytesOut the on-disk size after optional block
	// compression. Their ratio is the block-compression factor.
	BlockBytesIn  int64
	BlockBytesOut int64
	// DeadBytes is reclaimable space from superseded record versions.
	DeadBytes int64
	// Appends counts record frames written (including rewrites).
	Appends uint64
	// CacheHits/CacheMisses count block-cache outcomes on reads.
	CacheHits, CacheMisses uint64
	// BlockBuffersRecycled/BlockBuffersFresh split the buffers block loads
	// decoded into: taken over from a block that left the cache, or newly
	// allocated. In steady state every load recycles.
	BlockBuffersRecycled, BlockBuffersFresh uint64
	// BlocksDecoded counts sealed blocks decompressed (every cache miss on a
	// compressed block, and each block replayed at Open), BlockBytesDecoded
	// the bytes that produced and BlockDecodeNanos the time it took. Per read
	// served they are what hop encoding does not bound: blocks loaded and
	// bytes inflated, not decode steps taken.
	BlocksDecoded                       uint64
	BlockBytesDecoded, BlockDecodeNanos uint64
	// CacheBytes is what the blocks resident in the block cache hold of the
	// heap, CacheBudgetBytes what they may (CacheBlocks x BlockSize), and
	// DictBytes what the live segments' compression dictionaries hold
	// beside them: at most 32 KiB a segment.
	CacheBytes, CacheBudgetBytes, DictBytes int64
	// PreadBlockReads counts block loads: each is one positional read of
	// the block's header and body (two for a body longer than a 4 KiB
	// block's), checksummed. MmapBlockReads is
	// always zero (no segment is mapped); it stays for readers that report
	// it.
	MmapBlockReads, PreadBlockReads uint64
	// PinnedReaders is the number of segment handles currently pinned by
	// in-flight reads (gauge).
	PinnedReaders int64
	// RetiredPending is the number of compacted segments whose files stay
	// open because a reader still holds a pin (gauge; drains to zero).
	RetiredPending int64
	// LiveSegments is the number of segments readable through the table.
	LiveSegments int
	// BlocksSealed counts blocks written to a segment (several to a batch)
	// and SealNanos the time spent compressing, writing and syncing them,
	// nearly all of it off the ack path. SealWaits counts appends that found both block
	// buffers full and waited for the sealer, SealWaitNanos how long.
	// SealErrors counts failed attempts to write or sync a block; each is
	// also returned by the next Append, Flush or Close.
	BlocksSealed, SealNanos  uint64
	SealWaits, SealWaitNanos uint64
	SealErrors               uint64
	// RecordTableBytes is what the record table's pages hold of the heap,
	// about 56 bytes per live record. node.Stats.Memory serves it.
	RecordTableBytes int64 `json:"-"`
}

// Store is a log-structured record store. All methods are safe for
// concurrent use; reads never take the writer lock.
type Store struct {
	mu   sync.Mutex // writer lock
	opts Options

	segments []*segment
	active   *segment // last live element of segments

	// The block under construction, the block in flight and the buffers
	// they rotate through; guarded by mu, except that while sealing is set
	// inflight, sealBuf and the active segment's unpublished tail are the
	// sealer's to use outside it (nobody else touches them until the sealer
	// clears the flag under mu). The buffers keep their capacity across seals
	// and nothing but the store ever aliases them: a pending record's payload
	// is the caller's slice, not a slice of its block.
	pending    []byte // frames of batch number pendingSeq
	pendingSeq uint64 // starts at 1: an entry's block 0 means sealed
	inflight   fullBlock
	spare      []byte     // idle buffer, the next pending
	sealBuf    []byte     // image of the batch in flight, and
	sealCuts   []blockCut // where its blocks end: both keep their capacity
	sealing    bool       // a sealer goroutine is running
	sealErr    error      // the sealer's last failure, not yet returned to a caller
	sealed     *sync.Cond // on mu; broadcast whenever the sealer lets go of a block

	recs   *recTable
	dbs    atomic.Pointer[map[string]*dbDir] // the key directory (dir.go)
	dbList atomic.Pointer[[]*dbDir]          // the same directories by number

	table *segio.Table
	cache *segio.Cache

	// counters: atomics, readable without any lock
	liveRecords   atomic.Int64
	logicalBytes  atomic.Int64
	deadBytes     atomic.Int64
	blockBytesIn  atomic.Int64
	blockBytesOut atomic.Int64
	appends       atomic.Uint64
	preadReads    atomic.Uint64
	blocksDecoded atomic.Uint64
	bytesDecoded  atomic.Uint64
	decodeNanos   atomic.Uint64
	blocksSealed  atomic.Uint64
	sealNanos     atomic.Uint64
	sealWaits     atomic.Uint64
	sealWaitNanos atomic.Uint64
	sealErrors    atomic.Uint64

	compactMu sync.Mutex     // one compaction pass at a time
	closed    bool           // guarded by mu
	sealers   sync.WaitGroup // Close waits for the sealer goroutine to be gone
}

// fullBlock is a seal batch between the append that filled it and its commit
// to the segment: Options.BlockSize of frames, written with one call and
// installed under one hold of mu, as the blocks its frames were cut into. raw
// is nil when no batch is in flight, and never empty otherwise.
type fullBlock struct {
	seq   uint64
	raw   []byte     // the frames, as appended
	image []byte     // the blocks, headers and bodies as the file holds them, in sealBuf; nil until writeInFlight has made it
	cuts  []blockCut // one per block of image
}

// blockCut is where one block of a batch ends, in the batch's frames and in
// its image; it begins where the block before it ends.
type blockCut struct{ rawEnd, imageEnd int }

// segment is the writer-side state of one segment. All fields are guarded
// by s.mu; readers never touch it — they go through rd, whose published
// size and refcount make the sealed prefix safe without the lock.
type segment struct {
	id      int
	file    faultfs.File // shared with rd, which closes it; nil once retired
	size    int64
	dead    int64 // dead bytes (superseded frames)
	retired bool
	rd      *segio.Reader
	// enc indexes rd's dictionary for the encoder. Only the active segment
	// has one, and only the goroutine committing a batch touches it.
	enc *blockcomp.Dict
}

const (
	blockMagic      = 0x444b4c42 // "BLKD"
	blockHeaderSize = 4 + 4 + 4 + 4 + 1
	flagCompressed  = 1 << 0
	// flagDict marks a compressed block whose copies may reach back into
	// its segment's dictionary: the first dictLen raw bytes of the block
	// at offset 0 of the same file, which never has the flag itself.
	flagDict = 1 << 1

	// blockTarget is the most raw bytes a block of two or more frames holds:
	// a batch is cut before the frame that would take a block past it. A
	// block is what a read loads, checks, inflates and caches, so it is
	// small; what small blocks would lose in ratio the segment's dictionary
	// gives back.
	blockTarget = 4 << 10
	dictLen     = blockcomp.MaxDictLen

	// blocksPerShard is how many blocks of the cache's budget one shard
	// holds; maxCacheShards caps the count, which the default 64 blocks
	// reach.
	blocksPerShard = 8
	maxCacheShards = 8
)

// cacheShards is the block cache's shard count for a budget of blocks blocks:
// one per blocksPerShard, at least one and at most maxCacheShards. A shard
// keeps its newest block whatever its budget, so a cache of fewer shards
// than blocks is what holds a small budget to its size.
func cacheShards(blocks int) int {
	return min(max(blocks/blocksPerShard, 1), maxCacheShards)
}

// Open creates or reopens a store.
func Open(opts Options) (*Store, error) {
	if opts.BlockSize <= 0 {
		opts.BlockSize = 32 << 10
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 64 << 20
	}
	if opts.CacheBlocks <= 0 {
		opts.CacheBlocks = 64
	}
	if opts.Dir == "" {
		opts.Dir, opts.FS = "mem", faultfs.NewMemFS()
	}
	if opts.FS == nil {
		opts.FS = faultfs.DefaultFS
	}
	s := &Store{
		opts:       opts,
		pendingSeq: 1,
		recs:       newRecTable(),
		table:      segio.NewTable(),
		cache:      segio.NewCache(opts.CacheBlocks*opts.BlockSize, cacheShards(opts.CacheBlocks)),
	}
	s.sealed = sync.NewCond(&s.mu)
	s.dbs.Store(&map[string]*dbDir{})
	s.dbList.Store(&[]*dbDir{})
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	names, err := opts.FS.Glob(filepath.Join(opts.Dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		var id int
		base := filepath.Base(name)
		if _, err := fmt.Sscanf(base, "seg-%06d.log", &id); err != nil {
			continue
		}
		f, err := opts.FS.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("docstore: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("docstore: %w", err)
		}
		slot := len(s.segments)
		seg := &segment{id: id, file: f, size: fi.Size(),
			rd: segio.NewFileReader(slot, f, fi.Size())}
		s.table.Install(seg.rd)
		s.segments = append(s.segments, seg)
	}
	if len(s.segments) == 0 {
		seg, err := s.newSegment(0, 0)
		if err != nil {
			return nil, err
		}
		s.segments = append(s.segments, seg)
	}
	s.active = s.segments[len(s.segments)-1]
	if err := s.replayAll(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// newSegment creates a fresh segment and installs its reader at slot.
func (s *Store) newSegment(id, slot int) (*segment, error) {
	name := filepath.Join(s.opts.Dir, fmt.Sprintf("seg-%06d.log", id))
	f, err := s.opts.FS.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	seg := &segment{id: id, file: f, rd: segio.NewFileReader(slot, f, 0)}
	s.table.Install(seg.rd)
	return seg, nil
}

// maxPayload bounds one record: block headers and table entries count bytes
// in 32 bits.
const maxPayload = 1 << 30

// Append stores recs in order, each superseding any previous frame with the
// same ID; a tombstone removes the ID from the table entirely. The records are
// appended in one hold of the writer lock, so no other append lands between
// them, but they may be sealed in different batches: a crash can keep a prefix
// of them. It returns once the frames are in the block under construction and
// the records are readable; the block reaches the segment behind it, and Flush
// is the barrier that says it has. An error the sealer met since the store was
// last called is returned here instead, and then nothing is stored; so is a
// record the store refuses, and then none of recs is.
func (s *Store) Append(recs ...Record) error {
	for _, rec := range recs {
		if strings.IndexByte(rec.DB, 0) >= 0 || strings.IndexByte(rec.Key, 0) >= 0 {
			return errors.New("docstore: DB and Key must not contain NUL")
		}
		if len(rec.Payload) > maxPayload {
			return fmt.Errorf("docstore: payload of %d bytes exceeds the %d-byte limit", len(rec.Payload), maxPayload)
		}
	}
	if s.opts.AppendDelay > 0 {
		time.Sleep(s.opts.AppendDelay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.roomLocked(); err != nil {
		return err
	}
	for _, rec := range recs {
		s.appendLocked(rec)
	}
	return nil
}

// roomLocked returns once the block under construction can take another
// frame, or with the reason nothing may be appended: the store is closed, or
// the sealer failed since the last call (the error is handed over once, and
// the failed block is retried behind it). It waits while both block buffers
// are full, releasing mu, so a caller whose append must be atomic with a check
// makes the check after it.
func (s *Store) roomLocked() error {
	waited := false
	for {
		if s.closed {
			return errors.New("docstore: store is closed")
		}
		err := s.sealErr
		s.sealErr = nil
		s.kickLocked()
		if err != nil {
			return err
		}
		if len(s.pending) < s.opts.BlockSize {
			return nil
		}
		if !waited {
			waited = true
			s.sealWaits.Add(1)
		}
		start := time.Now()
		s.sealed.Wait()
		s.sealWaitNanos.Add(uint64(time.Since(start)))
	}
}

// appendLocked copies rec's frame into the block under construction and
// makes it the record's current version; the caller holds mu and has been
// through roomLocked. It never blocks, so compaction's
// re-resolve-then-move step is one critical section — a concurrent writer can
// never supersede a record between the check and the re-append (which would
// resurrect the stale version).
func (s *Store) appendLocked(rec Record) {
	start := len(s.pending)
	s.pending = appendFrame(s.pending, rec)
	s.replace(&rec, slot{off: int64(s.pendingSeq), recStart: uint32(start), flags: slotPending})
	s.appends.Add(1)
	s.kickLocked()
}

// replace makes the frame at where (a batch number and a frame's start in it,
// with rec.Payload as the pending copy, or a sealed location) record rec.ID's
// current version, or removes the record if the frame is a tombstone, and
// settles the key directory and the accounting for the version that was
// current until now, whose bytes stay on disk until compaction reclaims them:
// a sealed frame is charged to its segment here, a pending one when its block
// is installed and finds the record has moved on. Caller holds mu (or is
// replay, before the store is shared).
func (s *Store) replace(rec *Record, where slot) {
	var old entry
	var had bool
	var dd *dbDir
	if rec.Tombstone {
		old, had = s.recs.remove(rec.ID)
	} else {
		dd = s.dbFor(rec.DB)
		e := where
		e.db, e.baseID, e.form = dd.num, rec.BaseID, rec.Form
		e.payloadLen = uint32(len(rec.Payload))
		if rec.Stacked {
			e.flags |= slotStacked
		}
		if rec.Hidden {
			e.flags |= slotHidden
		}
		old, had = s.recs.put(rec.ID, e, rec.Key, rec.Payload)
	}
	if had {
		n := int64(old.payloadLen)
		s.logicalBytes.Add(-n)
		s.liveRecords.Add(-1)
		if old.sealed() {
			s.chargeDead(s.segments[old.seg], n)
		}
	}
	if !rec.Tombstone {
		s.logicalBytes.Add(int64(len(rec.Payload)))
		s.liveRecords.Add(1)
	}
	s.settle(rec, dd, &old, had)
}

// chargeDead counts n payload bytes of seg as dead: a frame there has stopped
// being its record's current version. Nothing else counts dead bytes, so
// Stats.DeadBytes is the sum over the segments not yet retired, and a victim
// takes its share with it. Caller holds mu.
func (s *Store) chargeDead(seg *segment, n int64) {
	seg.dead += n
	s.deadBytes.Add(n)
}

// kickLocked starts the sealer when there is a full block and nobody sealing
// it: a block just filled, or one still in flight after a failed write.
func (s *Store) kickLocked() {
	if s.sealing {
		return // it picks up a block that fills meanwhile by itself
	}
	if s.inflight.raw == nil {
		if len(s.pending) < s.opts.BlockSize {
			return
		}
		s.handOffLocked()
	}
	s.sealing = true
	s.sealers.Add(1)
	go s.sealer()
}

// handOffLocked puts the block under construction in flight and starts the
// next one in the spare buffer. Nothing is in flight when it is called.
func (s *Store) handOffLocked() {
	s.inflight = fullBlock{seq: s.pendingSeq, raw: s.pending}
	s.pending, s.spare = s.spare[:0], nil
	s.pendingSeq++
}

// sealer seals the block in flight, then any block that filled meanwhile,
// and exits when there is none or the write failed. kickLocked starts it with
// sealing set, so there is never a second one; Flush and Close wait for the
// flag to clear. It holds mu only to install a block it has already written.
func (s *Store) sealer() {
	defer s.sealers.Done()
	for {
		err := s.writeInFlight()
		s.mu.Lock()
		if err == nil {
			err = s.installLocked()
		}
		if err != nil {
			s.sealErr = err
		}
		more := s.inflight.raw == nil && len(s.pending) >= s.opts.BlockSize
		if more {
			s.handOffLocked()
		} else {
			s.sealing = false
		}
		s.sealed.Broadcast()
		s.mu.Unlock()
		if !more {
			return
		}
	}
}

// writeInFlight is the slow half of a batch's commit: it cuts the batch in
// flight into blocks and builds their image in sealBuf (once: the retry of a
// failed write finds the image made the first time), writes it behind the
// active segment's end with one call and, under SyncWrites, syncs the file. A
// segment's first batch is one block, compressed on its own, whose first bytes
// become the segment's dictionary when it is installed; every later block is
// compressed behind that dictionary. It needs no lock, because only the one
// goroutine committing a batch — the sealer while sealing is set, a Flush or
// Close holding mu while it is not — touches inflight, sealBuf or the active
// segment's tail and encoder, and because the bytes it writes are not part of
// the segment until installLocked says so. On failure nothing has changed
// that a reader or a retry can see.
func (s *Store) writeInFlight() error {
	start := time.Now()
	b := &s.inflight
	seg := s.active
	if b.image == nil {
		target := len(b.raw)
		var dict *blockcomp.Dict
		if seg.size > 0 {
			target = blockTarget
			if s.opts.Compress {
				if seg.enc == nil {
					seg.enc = blockcomp.NewDict(seg.rd.Dict())
				}
				dict = seg.enc
			}
		}
		image, cuts := s.sealBuf[:0], s.sealCuts[:0]
		for from := 0; from < len(b.raw); {
			to := cutBlock(b.raw, from, target)
			image = appendBlock(image, b.raw[from:to], s.opts.Compress, dict)
			cuts = append(cuts, blockCut{rawEnd: to, imageEnd: len(image)})
			from = to
		}
		b.image, b.cuts, s.sealBuf, s.sealCuts = image, cuts, image, cuts
	}
	if err := seg.writeBatch(b.image, s.opts.SyncWrites); err != nil {
		s.sealErrors.Add(1)
		return err
	}
	s.sealNanos.Add(uint64(time.Since(start)))
	return nil
}

// cutBlock returns where the block of raw that begins at the frame at from
// ends: before the first frame that would take it past target bytes, unless
// that frame is the block's first, or with raw. A frame longer than target is
// a block of its own.
func cutBlock(raw []byte, from, target int) int {
	to := from
	for to < len(raw) {
		frameLen, n := binary.Uvarint(raw[to:])
		next := to + n + int(frameLen)
		if next-from > target && to > from {
			break
		}
		to = next
	}
	return to
}

// appendBlock appends raw to image as one block, header and body: compressed
// (behind dict, if there is one) when that is asked for and makes it smaller.
func appendBlock(image, raw []byte, compress bool, dict *blockcomp.Dict) []byte {
	at := len(image)
	var hdr [blockHeaderSize]byte
	image = append(image, hdr[:]...)
	if compress {
		image = blockcomp.AppendEncodeDict(image, raw, dict)
		if len(image)-at-blockHeaderSize < len(raw) {
			hdr[16] = flagCompressed
			if dict != nil {
				hdr[16] |= flagDict
			}
		}
	}
	if hdr[16] == 0 {
		image = append(image[:at+blockHeaderSize], raw...)
	}
	body := image[at+blockHeaderSize:]
	binary.LittleEndian.PutUint32(hdr[0:], blockMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(raw)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(body))
	copy(image[at:], hdr[:])
	return image
}

// setDict makes the first dictLen raw bytes of a segment's first block, first,
// the segment's dictionary: a copy, which outlives the buffer first is in.
func setDict(rd *segio.Reader, first []byte) {
	rd.SetDict(append([]byte(nil), first[:min(len(first), dictLen)]...))
}

// installLocked is the other half: the blocks writeInFlight put behind the
// active segment's end become part of the segment, the batch's records point
// each at its block, the batch's buffer is recycled and a full segment rolls.
// Caller holds mu.
func (s *Store) installLocked() error {
	start := time.Now()
	b := &s.inflight
	seg := s.active
	base := seg.size
	if base == 0 {
		// Readers of the blocks behind this one, none of which is written
		// yet, will need it.
		setDict(seg.rd, b.raw)
	}
	seg.publish(int64(len(b.image)))

	// A frame is its record's current version only if the entry still names
	// this batch and this offset; anything else was overwritten or deleted
	// after it was appended and is dead on arrival.
	slot := segSlot(s.segments, seg)
	block, rawStart, imageStart := 0, 0, 0
	for scan := 0; scan < len(b.raw); {
		if scan == b.cuts[block].rawEnd {
			rawStart, imageStart = scan, b.cuts[block].imageEnd
			block++
		}
		rec, n, err := parseFrame(b.raw[scan:], false)
		if err != nil {
			panic("docstore: a frame this store appended does not parse: " + err.Error())
		}
		if !rec.Tombstone && !s.recs.seal(rec.ID, b.seq, scan, slot, base+int64(imageStart), scan-rawStart) {
			s.chargeDead(seg, int64(len(rec.Payload)))
		}
		scan += n
	}
	s.blockBytesIn.Add(int64(len(b.raw)))
	s.blockBytesOut.Add(int64(len(b.image)))
	s.blocksSealed.Add(uint64(len(b.cuts)))
	if cap(b.raw) <= 4*s.opts.BlockSize {
		s.spare = b.raw[:0]
	} else {
		// One outsized record swelled this batch; do not pin its buffers.
		s.sealBuf = nil
	}
	s.inflight = fullBlock{}
	s.sealNanos.Add(uint64(time.Since(start)))

	if seg.size >= int64(s.opts.SegmentSize) {
		ns, err := s.newSegment(seg.id+1, len(s.segments))
		if err != nil {
			return err
		}
		s.segments = append(s.segments, ns)
		s.active = ns
		// seg has rolled out of the active role: no byte of it will ever
		// be written again, so its encoder's index can go.
		seg.enc = nil
	}
	return nil
}

// waitSealerLocked returns when no sealer is running: every block that
// filled before the call has been committed, or has failed and is waiting
// for its retry.
func (s *Store) waitSealerLocked() {
	for s.sealing {
		s.sealed.Wait()
	}
}

// drainLocked seals everything appended so far, on the caller's goroutine:
// the block in flight (a failed one is retried) and then whatever the block
// under construction holds. It returns the first error, including one the
// sealer left for the next caller, and stops at the first failed commit.
func (s *Store) drainLocked() error {
	s.waitSealerLocked()
	first := s.sealErr
	s.sealErr = nil
	for s.inflight.raw != nil || len(s.pending) > 0 {
		if s.inflight.raw == nil {
			s.handOffLocked()
		}
		err := s.writeInFlight()
		if err == nil {
			err = s.installLocked()
		}
		if err != nil {
			if first == nil {
				first = err
			}
			break
		}
	}
	return first
}

func segSlot(segs []*segment, s *segment) int {
	for i, x := range segs {
		if x == s {
			return i
		}
	}
	panic("docstore: segment not registered")
}

// Get returns the stored form of record id. The payload never aliases memory
// the store owns (a cached block, a block buffer): for a sealed record it is a
// fresh copy, for one whose block has not been committed yet it is the slice
// Append was given, which appenders never modify.
func (s *Store) Get(id uint64) (Record, bool, error) {
	var out Record
	ok, err := s.read(id, func(rec Record, lent bool) {
		if lent {
			rec.Payload = append([]byte(nil), rec.Payload...)
		}
		out = rec
	})
	return out, ok, err
}

// Stored is what View shows of a record: how its payload is stored, and the
// payload itself, which is the store's.
type Stored struct {
	Form    Form
	BaseID  uint64
	Hidden  bool
	Payload []byte
}

// View calls fn with the stored form of record id and reports whether the
// record exists. It is Get without the copy: v.Payload is lent for the length
// of fn and may be overwritten after it. A sealed record's payload is a
// slice of its decoded block, shown under the block cache's shard lock on a hit
// and before the cache takes the buffer over on a miss, so fn follows the same
// leaf rule as segio.Cache.View: it copies out or computes from the bytes, and
// it neither blocks, nor takes a lock, nor calls back into the store. What fn
// reads is one consistent version of the record; Meta, read separately, may be
// a version ahead or behind, which is why the form travels with the payload.
func (s *Store) View(id uint64, fn func(v Stored)) (bool, error) {
	return s.read(id, func(rec Record, _ bool) {
		fn(Stored{Form: rec.Form, BaseID: rec.BaseID, Hidden: rec.Hidden, Payload: rec.Payload})
	})
}

// read is the lookup under Get and View: it copies id's entry out of the
// record table and calls fn once, with the pending copy or with the sealed
// frame the entry points at. lent says that rec.Payload is a slice of a block
// (cached or just loaded) and dies with the call; otherwise it is
// the slice Append was given. rec.DB and rec.Key are the table's strings.
//
// read takes no store-wide lock: the entry is one consistent version of the
// record, block reads go through the sharded cache and pin a segio segment
// handle on a miss. The one retry is for a sealed location whose segment
// compaction retired since the entry was copied.
func (s *Store) read(id uint64, fn func(rec Record, lent bool)) (bool, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 1000 {
			return false, errors.New("docstore: Get retry livelock (table references retired segments)")
		}
		e, ok := s.recs.get(id)
		if !ok {
			return false, nil
		}
		if !e.sealed() {
			fn(Record{ID: id, DB: s.dbAt(e.db).name, Key: e.key, Form: e.form, BaseID: e.baseID,
				Stacked: e.stacked(), Hidden: e.hidden(), Payload: e.payload}, false)
			return true, nil
		}
		err := s.frameAt(id, &e, fn)
		if errors.Is(err, segio.ErrRetired) {
			// The record was moved before its segment was retired, so the
			// table already has its new home.
			continue
		}
		return err == nil, err
	}
}

// frameAt parses the frame sealed entry e points at, checks that it is record
// id's, and calls fn with it while the block's bytes are borrowed: from the
// cache, under its shard lock, on a hit; from readBlock on a miss. A reader
// asks for its block, whole: a block is small. The one large block a segment
// has is its first, and a frame within that block's first dictLen bytes is
// served from the segment's resident dictionary, which is those bytes,
// without loading anything.
func (s *Store) frameAt(id uint64, e *entry, fn func(rec Record, lent bool)) error {
	extract := func(block []byte) error {
		if int(e.recStart) > len(block) {
			return errors.New("docstore: record offset past block end")
		}
		rec, _, err := parseFrame(block[e.recStart:], false)
		if err != nil {
			return err
		}
		if rec.ID != id {
			return fmt.Errorf("docstore: index corruption: wanted %d found %d", id, rec.ID)
		}
		rec.DB, rec.Key = s.dbAt(e.db).name, e.key
		fn(rec, true)
		return nil
	}
	seg := int(e.seg)
	if e.off == 0 && extract(s.table.Dict(seg)) == nil {
		return nil
	}
	key := segio.BlockKey(seg, e.off)
	var err error
	if s.cache.View(key, func(block []byte) { err = extract(block) }) {
		return err
	}
	rd, ok := s.table.Pin(seg)
	if !ok {
		return segio.ErrRetired
	}
	defer s.table.Unpin(rd)
	block, _, err := s.readBlock(rd, e.off, func(n int) []byte { return s.cache.Buffer(key, n) })
	if err != nil {
		return err
	}
	err = extract(block)
	s.cache.Put(key, block)
	return err
}

// Delete writes a tombstone for id.
func (s *Store) Delete(id uint64) error {
	return s.Append(Record{ID: id, Tombstone: true})
}

// Flush seals everything appended before the call: it waits for the block in
// flight, seals what the block under construction holds and, under SyncWrites,
// returns after the fsync. A nil return is the durability barrier. An error
// the sealer left since the store was last called is returned here, after
// the retry it stands for.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked()
}

// writeBatch writes a batch's image behind the segment's end without moving
// the end: the bytes are garbage past the published size until publish, and
// are overwritten by the next batch written or truncated by replay if it never
// comes. A retry after a failed or unsynced write therefore overwrites the
// partial image in place. That matters: a block whose header made it and
// whose body did not, left in front of the retried batch, would have replay
// read the orphan's valid magic, fail its checksum and truncate there —
// silently discarding the retried (possibly synced and acknowledged) batch and
// everything after it. Only the goroutine committing a batch calls this; it
// needs no lock.
func (seg *segment) writeBatch(image []byte, sync bool) error {
	if _, err := seg.file.WriteAt(image, seg.size); err != nil {
		return fmt.Errorf("docstore: %w", err)
	}
	if sync {
		if err := seg.file.Sync(); err != nil {
			return fmt.Errorf("docstore: %w", err)
		}
	}
	return nil
}

// publish moves the segment's end past the n bytes writeBatch put behind it
// and shows them to readers. Caller holds s.mu.
func (seg *segment) publish(n int64) {
	seg.size += n
	seg.rd.SetSize(seg.size)
}

// scratchPool holds the buffers a block load reads a block's header and
// body into; they live only for the length of one load.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// loadSpan is what a block load reads at once: the header and as much body as
// a block of blockTarget raw bytes can have, compressed or not, so that every
// block but a segment's first (its batch whole) and a lone frame longer than
// the target is one read.
var loadSpan = int64(blockHeaderSize + blockcomp.MaxEncodedLen(blockTarget))

// readBlock loads the block at offset off of rd, which the caller has pinned
// (or owns outright, during replay), and returns its decompressed contents and
// the offset of the block behind it. A load is one positional read of the
// header and up to loadSpan bytes of body into pooled scratch, bounded by
// rd's published size, and a second read of whatever of a longer body that
// left out; the body's checksum is verified before anything is made of it. A
// compressed body is decoded from the scratch into a buffer that buffer
// supplies at the length asked for, behind rd's dictionary when it has
// flagDict; an uncompressed one is copied into such a buffer. The block is
// then the caller's. A point read passes the block cache's free list and
// hands the block to the cache afterwards, so a steady-state miss allocates
// nothing here. What the header claims is checked against what the bytes can
// hold before anything is sized from it, so a damaged header is an error,
// never an allocation.
func (s *Store) readBlock(rd *segio.Reader, off int64, buffer func(n int) []byte) (block []byte, next int64, err error) {
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	if int64(cap(*sp)) < loadSpan {
		*sp = make([]byte, loadSpan)
	}
	read := max(min(loadSpan, rd.Size()-off), blockHeaderSize) // short of a header: the read's error
	span := (*sp)[:read]
	if err := rd.ReadAt(span, off); err != nil {
		return nil, 0, fmt.Errorf("docstore: %w", err)
	}
	hdr := span[:blockHeaderSize]
	if binary.LittleEndian.Uint32(hdr[0:]) != blockMagic {
		return nil, 0, errors.New("docstore: bad block magic")
	}
	rawLen := int64(binary.LittleEndian.Uint32(hdr[4:]))
	storedLen := int64(binary.LittleEndian.Uint32(hdr[8:]))
	sum := binary.LittleEndian.Uint32(hdr[12:])
	flags := hdr[16]
	compressed := flags&flagCompressed != 0
	bodyOff := off + blockHeaderSize
	next = bodyOff + storedLen
	if next > rd.Size() {
		return nil, 0, errors.New("docstore: block extends past segment end")
	}
	if !compressed && rawLen != storedLen {
		return nil, 0, errors.New("docstore: block length mismatch")
	}
	s.preadReads.Add(1)

	// image is the stored body: in the scratch behind the header when
	// compressed, in the caller's buffer when not. have is how much of it the
	// first read brought.
	have := min(int64(len(span)-blockHeaderSize), storedLen)
	var image []byte
	if compressed {
		if end := blockHeaderSize + storedLen; int64(cap(*sp)) < end {
			grown := make([]byte, end)
			copy(grown, span)
			*sp = grown
		}
		image = (*sp)[blockHeaderSize : blockHeaderSize+storedLen]
	} else {
		image = buffer(int(storedLen))
		copy(image, span[blockHeaderSize:])
	}
	if have < storedLen {
		if err := rd.ReadAt(image[have:], bodyOff+have); err != nil {
			return nil, 0, fmt.Errorf("docstore: %w", err)
		}
	}
	if crc32.ChecksumIEEE(image) != sum {
		return nil, 0, errors.New("docstore: block checksum mismatch")
	}
	if !compressed {
		return image, next, nil
	}
	// Only the block header's rawLen is acceptable, and only if the
	// compressed image can decode to that much.
	if n, err := blockcomp.DecodedLen(image); err != nil || int64(n) != rawLen {
		return nil, 0, errors.New("docstore: block length mismatch")
	}
	var dict []byte
	if flags&flagDict != 0 {
		dict = rd.Dict() // none: the copy that reaches for it is the error
	}
	start := time.Now()
	if block, err = blockcomp.DecodeDict(buffer(int(rawLen)), image, dict); err != nil {
		return nil, 0, fmt.Errorf("docstore: %w", err)
	}
	s.blocksDecoded.Add(1)
	s.bytesDecoded.Add(uint64(rawLen))
	s.decodeNanos.Add(uint64(time.Since(start)))
	return block, next, nil
}

// walkBlocks is how a segment is read from end to end, by replay and by
// compaction: it calls fn with each block of rd in file order, decoded once
// into a buffer of its own that the next block overwrites, so a walk neither
// fills the block cache nor evicts from it. It stops at rd's size, at the
// first block that does not load and at fn's first error, and returns the
// offset it reached and what stopped it. The caller has rd pinned or to
// itself.
func (s *Store) walkBlocks(rd *segio.Reader, fn func(off int64, raw []byte) error) (int64, error) {
	var buf []byte
	own := func(n int) []byte {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		return buf[:n]
	}
	var off int64
	for off < rd.Size() {
		raw, next, err := s.readBlock(rd, off, own)
		if err == nil {
			err = fn(off, raw)
		}
		if err != nil {
			return off, err
		}
		off = next
	}
	return off, nil
}

// MetaInfo is a record's metadata, readable without touching its payload.
type MetaInfo struct {
	DB, Key    string
	Form       Form
	BaseID     uint64
	PayloadLen int
	Stacked    bool
	Hidden     bool
}

// Meta returns the metadata of record id without reading its payload or
// taking the writer lock.
func (s *Store) Meta(id uint64) (MetaInfo, bool) {
	e, ok := s.recs.get(id)
	if !ok {
		return MetaInfo{}, false
	}
	return MetaInfo{DB: s.dbAt(e.db).name, Key: e.key, Form: e.form, BaseID: e.baseID,
		PayloadLen: int(e.payloadLen), Stacked: e.stacked(), Hidden: e.hidden()}, true
}

// Range calls fn with the ID and metadata of every live record, in unspecified
// order, until fn returns false. It reads the record table only: no payload is
// fetched and no block decoded, so listing a store costs nothing per byte
// stored.
func (s *Store) Range(fn func(id uint64, m MetaInfo) bool) {
	for _, id := range s.recs.ids() {
		if m, ok := s.Meta(id); ok && !fn(id, m) {
			return
		}
	}
}

// Stats returns a snapshot of the store's accounting without taking the
// writer lock: counters are atomics, cache totals come from the shard
// counters, and the segment gauges from the segio table.
func (s *Store) Stats() Stats {
	hits, misses := s.cache.HitsMisses()
	recycled, fresh := s.cache.Buffers()
	return Stats{
		LiveRecords:     int(s.liveRecords.Load()),
		LogicalBytes:    s.logicalBytes.Load(),
		BlockBytesIn:    s.blockBytesIn.Load(),
		BlockBytesOut:   s.blockBytesOut.Load(),
		DeadBytes:       s.deadBytes.Load(),
		Appends:         s.appends.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		PreadBlockReads: s.preadReads.Load(),
		PinnedReaders:   s.table.Pinned(),
		RetiredPending:  s.table.RetiredPending(),
		LiveSegments:    s.table.Live(),

		BlockBuffersRecycled: recycled,
		BlockBuffersFresh:    fresh,
		BlocksDecoded:        s.blocksDecoded.Load(),
		BlockBytesDecoded:    s.bytesDecoded.Load(),
		BlockDecodeNanos:     s.decodeNanos.Load(),
		CacheBytes:           int64(s.cache.Bytes()),
		CacheBudgetBytes:     int64(s.opts.CacheBlocks) * int64(s.opts.BlockSize),
		DictBytes:            int64(s.table.DictBytes()),

		BlocksSealed:  s.blocksSealed.Load(),
		SealNanos:     s.sealNanos.Load(),
		SealWaits:     s.sealWaits.Load(),
		SealWaitNanos: s.sealWaitNanos.Load(),
		SealErrors:    s.sealErrors.Load(),

		RecordTableBytes: s.recs.bytes(),
	}
}

// CacheShardStats returns the block cache's per-shard hit/miss/occupancy
// counters for the admin endpoint.
func (s *Store) CacheShardStats() []segio.ShardStats {
	return s.cache.Stats()
}

// Close seals everything appended so far, as Flush does, waits for the sealer
// goroutine to be gone and retires every segment reader; file handles close
// as their reader refcounts drain (immediately when no read is in flight).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // nothing is appended, so no sealer starts, from here on
	err := s.drainLocked()
	s.mu.Unlock()
	s.sealers.Wait()
	s.table.Close()
	return err
}

// replayAll rebuilds the record table from segment contents. Caller is Open;
// the store is not yet shared.
func (s *Store) replayAll() error {
	for i, seg := range s.segments {
		// A block that does not load is a torn tail; a block that loads but
		// does not parse is corruption replay must not hide.
		var frameErr error
		end, _ := s.walkBlocks(seg.rd, func(off int64, raw []byte) error {
			if off == 0 {
				setDict(seg.rd, raw)
			}
			for scan := 0; scan < len(raw); {
				rec, n, err := parseFrame(raw[scan:], true)
				if err != nil {
					frameErr = err
					return err
				}
				s.replace(&rec, slot{seg: int32(i), off: off, recStart: uint32(scan)})
				scan += n
			}
			return nil
		})
		if frameErr != nil {
			return fmt.Errorf("docstore: replay: %w", frameErr)
		}
		// The segment ends where the walk did: anything behind its last
		// complete block is a torn write, and the active segment continues
		// from here.
		seg.size = end
		seg.rd.SetSize(end)
	}
	return nil
}

// Compact rewrites the live records of the segment with the most dead bytes
// into the active segment and retires the old one. It returns the number of
// bytes reclaimed on disk: 0 when no segment but the active one, which is
// never compacted, holds a dead byte, and then nothing is read or appended.
//
// The victim is read as Open replays a segment, block by block in file order,
// and a frame is live if the record table still points at exactly it. Under
// the writer lock the store moves the record if the frame the walk read is
// still its current version, and leaves it alone if not: whatever a concurrent
// writer stored since is newer and already outside the victim. So retirement
// never drops a live record or brings back a superseded one. A tombstone in
// the victim is replayed too, while a segment it may still be needed against
// exists (carryTombstone).
//
// Retirement is safe against in-flight reads: the victim leaves the segio
// table (new readers fail their pin and re-resolve through the index, which
// no longer references the victim), its file is unlinked immediately — the
// inode survives until the last pinned reader drains and the release hook
// closes the descriptor — and its cached blocks are dropped. Segment slots
// are never reused, so a stale cache entry that races the drop stays
// harmless (its bytes are still correct) until the LRU evicts it.
func (s *Store) Compact() (int64, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, errors.New("docstore: store is closed")
	}
	// Every block that has filled is in its segment (and a full segment has
	// rolled) before a victim is chosen, as if blocks were sealed inline.
	s.waitSealerLocked()
	var victim *segment
	slot := -1
	for i, seg := range s.segments { // a retired segment has no dead bytes
		if seg != s.active && seg.dead > 0 && (victim == nil || seg.dead > victim.dead) {
			victim, slot = seg, i
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return 0, nil
	}
	rd, ok := s.table.Pin(slot)
	if !ok {
		return 0, errors.New("docstore: store is closed")
	}
	_, err := s.walkBlocks(rd, func(off int64, raw []byte) error {
		for scan := 0; scan < len(raw); {
			rec, n, err := parseFrame(raw[scan:], false)
			if err != nil {
				return err
			}
			start := scan
			scan += n
			if rec.Tombstone {
				if err := s.carryTombstone(rec.ID, slot); err != nil {
					return err
				}
				continue
			}
			e, live := s.recs.at(rec.ID, slot, off, start)
			if !live {
				continue
			}
			rec.DB, rec.Key = s.dbAt(e.db).name, e.key
			// What is appended becomes the record's pending copy, which has
			// to outlive the walk's buffer.
			rec.Payload = append([]byte(nil), rec.Payload...)
			if s.opts.AppendDelay > 0 {
				time.Sleep(s.opts.AppendDelay)
			}
			// Re-check and move in one critical section: a write since the
			// walk read the frame could otherwise be superseded by this stale
			// copy. Waiting for room comes first: it may let go of mu.
			s.mu.Lock()
			if err = s.roomLocked(); err == nil {
				if _, live := s.recs.at(rec.ID, slot, off, start); live {
					s.appendLocked(rec)
				}
			}
			s.mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	})
	s.table.Unpin(rd)
	if err == nil {
		err = s.Flush()
	}
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	reclaimed := victim.size
	name := victim.file.Name()
	s.deadBytes.Add(-victim.dead) // the moved records' old frames included
	victim.retired = true
	victim.file = nil // the reader's release hook owns the close now
	victim.size = 0
	victim.dead = 0
	s.mu.Unlock()

	s.table.Retire(slot)
	s.opts.FS.Remove(name)
	s.cache.DropSegment(slot)
	return reclaimed, nil
}

// carryTombstone re-appends the tombstone of record id, found in the victim
// at segment slot, if it still has work to do: the record is gone and a
// segment older than the victim, which may hold a frame of it, is still
// there, so that without the tombstone the next replay would bring the record
// back.
func (s *Store) carryTombstone(id uint64, slot int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	older := false
	for _, seg := range s.segments[:slot] {
		older = older || !seg.retired
	}
	if !older {
		return nil
	}
	if err := s.roomLocked(); err != nil {
		return err
	}
	if _, ok := s.recs.get(id); !ok {
		s.appendLocked(Record{ID: id, Tombstone: true})
	}
	return nil
}

// DiskBytes returns the total bytes held by segments (plus the unsealed
// blocks: the one under construction and the one in flight).
func (s *Store) DiskBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.segments {
		n += seg.size
	}
	return n + int64(len(s.pending)) + int64(len(s.inflight.raw))
}

// ---- record frame encoding ----

// appendFrame serialises rec onto dst:
//
//	uvarint frameLen | uvarint id | flags byte | [uvarint baseID] |
//	uvarint len(db) db | uvarint len(key) key | uvarint len(payload) payload
//
// The frame length is computed first, so the frame is written once, straight
// into dst.
func appendFrame(dst []byte, rec Record) []byte {
	bodyLen := frameBodyLen(rec.ID, rec.Form, rec.BaseID, len(rec.DB), len(rec.Key), len(rec.Payload))
	var flags byte
	if rec.Form == FormDelta {
		flags |= 1
	}
	if rec.Tombstone {
		flags |= 2
	}
	if rec.Stacked {
		flags |= 4
	}
	if rec.Hidden {
		flags |= 8
	}
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	dst = binary.AppendUvarint(dst, rec.ID)
	dst = append(dst, flags)
	if rec.Form == FormDelta {
		dst = binary.AppendUvarint(dst, rec.BaseID)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.DB)))
	dst = append(dst, rec.DB...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Payload)))
	return append(dst, rec.Payload...)
}

// frameBodyLen is the frameLen field of the frame appendFrame writes for such
// a record.
func frameBodyLen(id uint64, form Form, baseID uint64, dbLen, keyLen, payloadLen int) int {
	n := uvarintLen(id) + 1 +
		uvarintLen(uint64(dbLen)) + dbLen +
		uvarintLen(uint64(keyLen)) + keyLen +
		uvarintLen(uint64(payloadLen)) + payloadLen
	if form == FormDelta {
		n += uvarintLen(baseID)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// parseFrame decodes one frame from buf, returning the record and the total
// frame size consumed. The payload aliases buf. names selects whether DB and
// Key are decoded: they are the frame's only allocations, and a caller that
// wants the payload alone leaves them empty.
func parseFrame(buf []byte, names bool) (Record, int, error) {
	frameLen, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < frameLen {
		return Record{}, 0, errors.New("docstore: truncated frame")
	}
	body := buf[n : n+int(frameLen)]
	total := n + int(frameLen)

	var rec Record
	id, k := binary.Uvarint(body)
	if k <= 0 {
		return Record{}, 0, errors.New("docstore: bad frame id")
	}
	body = body[k:]
	rec.ID = id
	if len(body) < 1 {
		return Record{}, 0, errors.New("docstore: bad frame flags")
	}
	flags := body[0]
	body = body[1:]
	if flags&1 != 0 {
		rec.Form = FormDelta
		base, k := binary.Uvarint(body)
		if k <= 0 {
			return Record{}, 0, errors.New("docstore: bad frame base")
		}
		rec.BaseID = base
		body = body[k:]
	}
	rec.Tombstone = flags&2 != 0
	rec.Stacked = flags&4 != 0
	rec.Hidden = flags&8 != 0

	readBytes := func() ([]byte, error) {
		l, k := binary.Uvarint(body)
		if k <= 0 || uint64(len(body)-k) < l {
			return nil, errors.New("docstore: bad frame field")
		}
		v := body[k : k+int(l)]
		body = body[k+int(l):]
		return v, nil
	}
	db, err := readBytes()
	if err != nil {
		return Record{}, 0, err
	}
	key, err := readBytes()
	if err != nil {
		return Record{}, 0, err
	}
	payload, err := readBytes()
	if err != nil {
		return Record{}, 0, err
	}
	if names {
		rec.DB = string(db)
		rec.Key = string(key)
	}
	rec.Payload = payload
	return rec, total, nil
}
