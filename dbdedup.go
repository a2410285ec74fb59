// Package dbdedup is a similarity-based deduplication engine for online
// document databases, reproducing "Online Deduplication for Databases"
// (SIGMOD 2017).
//
// A Store is a single database node. Inserted records are sketched
// (content-defined chunks → sampled MurmurHash features), matched against an
// in-memory cuckoo feature index, and byte-level delta-compressed against
// their most similar predecessor. The delta is used twice ("two-way
// encoding"): forward — replication ships the new record as a reference to
// its source plus a delta — and backward — the source record is re-encoded
// against the new one, so the newest version of a chain is always stored raw
// and reads of current data pay no decode cost. Hop encoding bounds the
// decode cost of deep version history to O(H·log_H N), a lossy write-back
// cache keeps the extra writes off the foreground path, and a per-database
// governor plus a size floor turn the machinery off where it cannot pay for
// itself.
//
// Quick start:
//
//	store, _ := dbdedup.Open(dbdedup.Options{})
//	defer store.Close()
//	store.Insert("wiki", "article/1/rev/1", []byte("first revision ..."))
//	store.Insert("wiki", "article/1/rev/2", []byte("first revision, edited ..."))
//	content, _ := store.Read("wiki", "article/1/rev/2")
//	fmt.Println(store.Stats().StorageCompressionRatio())
package dbdedup

import (
	"time"

	"dbdedup/internal/chain"
	"dbdedup/internal/chunker"
	"dbdedup/internal/core"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// ErrNotFound is returned by Read, Update and Delete for absent records.
var ErrNotFound = node.ErrNotFound

// Scheme selects the storage encoding discipline for delta chains.
type Scheme int

const (
	// SchemeHop is dbDedup's hop encoding (the default): every record
	// stays delta-encoded, decode cost is logarithmic in chain depth.
	SchemeHop Scheme = iota
	// SchemeBackward is pure backward encoding: maximum compression,
	// linear worst-case decode cost.
	SchemeBackward
	// SchemeVersionJump is the fixed-cluster baseline: bounded decode
	// cost bought with uncompressed reference versions.
	SchemeVersionJump
)

func (s Scheme) internal() chain.Scheme {
	switch s {
	case SchemeBackward:
		return chain.Backward
	case SchemeVersionJump:
		return chain.VersionJump
	default:
		return chain.Hop
	}
}

// Options configures a Store. The zero value is a sensible in-memory
// deduplicating store with the paper's default parameters.
type Options struct {
	// Dir is the storage directory; empty keeps everything in memory.
	Dir string

	// DisableDedup turns deduplication off entirely (a plain document
	// store, the paper's "Original" baseline).
	DisableDedup bool
	// BlockCompression enables the Snappy-style block compressor on
	// storage blocks (composes with dedup).
	BlockCompression bool

	// ChunkSize is the sketching chunk size in bytes (a power of two
	// >= 2; Open rejects anything else). Default 64 — the paper's
	// headline configuration; 1024 trades a little compression for
	// faster sketching.
	ChunkSize int
	// Scheme picks the chain encoding (default SchemeHop).
	Scheme Scheme
	// HopDistance is H for hop encoding / version jumping (default 16).
	HopDistance int

	// GovernorWindow overrides how many inserts the governor observes
	// before its first verdict on a database (default 2048). Each window a
	// database passes makes the next one twice as long.
	GovernorWindow int

	// SyncEncode makes Insert, Update and Delete return only after the
	// background pipeline has encoded and logged the mutation. Deterministic
	// for one caller, higher write latency.
	SyncEncode bool
	// ManualFlush disables the background idle flusher; call
	// FlushWritebacks yourself.
	ManualFlush bool
}

func (o Options) nodeOptions() (node.Options, error) {
	if err := chunker.CheckAvgSize(o.ChunkSize); err != nil {
		return node.Options{}, err
	}
	return node.Options{
		Dir:              o.Dir,
		DisableDedup:     o.DisableDedup,
		BlockCompression: o.BlockCompression,
		Engine: core.Config{
			ChunkAvgSize:   o.ChunkSize,
			Scheme:         o.Scheme.internal(),
			HopDistance:    o.HopDistance,
			GovernorWindow: o.GovernorWindow,
		},
		SyncEncode:       o.SyncEncode,
		DisableAutoFlush: o.ManualFlush,
	}, nil
}

// Store is a deduplicating document store node.
type Store struct {
	n *node.Node
}

// Open creates or reopens a Store.
func Open(opts Options) (*Store, error) {
	nopts, err := opts.nodeOptions()
	if err != nil {
		return nil, err
	}
	n, err := node.Open(nopts)
	if err != nil {
		return nil, err
	}
	return &Store{n: n}, nil
}

// Insert stores a new record under (db, key). Keys are unique per database;
// applications that version records insert each revision under its own key.
func (s *Store) Insert(db, key string, payload []byte) error {
	return s.n.Insert(db, key, payload)
}

// Read returns the record's current content.
func (s *Store) Read(db, key string) ([]byte, error) {
	return s.n.Read(db, key)
}

// Update replaces the record's content.
func (s *Store) Update(db, key string, payload []byte) error {
	return s.n.Update(db, key, payload)
}

// Delete removes the record.
func (s *Store) Delete(db, key string) error {
	return s.n.Delete(db, key)
}

// Has reports whether (db, key) exists.
func (s *Store) Has(db, key string) bool { return s.n.Has(db, key) }

// Barrier waits for the background encode pipeline to drain.
func (s *Store) Barrier() { s.n.Barrier() }

// FlushWritebacks applies up to max deferred re-encodings (all when max < 0)
// and returns how many were applied.
func (s *Store) FlushWritebacks(max int) int { return s.n.FlushWritebacks(max) }

// PendingWritebacks returns the deferred re-encoding backlog size.
func (s *Store) PendingWritebacks() int { return s.n.PendingWritebacks() }

// Compact reclaims disk space from superseded record versions. It runs
// through the node so the compaction counters apply.
func (s *Store) Compact() (int64, error) { return s.n.Compact() }

// Close flushes and shuts the store down.
func (s *Store) Close() error { return s.n.Close() }

// InsertLatency and ReadLatency expose client latency histograms.
func (s *Store) InsertLatency() *metrics.Histogram { return s.n.InsertLatency() }
func (s *Store) ReadLatency() *metrics.Histogram   { return s.n.ReadLatency() }

// Stats is a store-level measurement snapshot.
type Stats struct {
	// RawBytes is the total client payload inserted.
	RawBytes int64
	// StoredBytes is the post-dedup logical footprint (live record
	// payloads as stored).
	StoredBytes int64
	// DiskBytesIn / DiskBytesOut are sealed-block bytes before and after
	// block compression.
	DiskBytesIn, DiskBytesOut int64
	// OplogBytes is the replication payload produced (forward-encoded).
	OplogBytes int64
	// IndexMemoryBytes is the dedup index footprint.
	IndexMemoryBytes int64
	// DedupHits is how many inserts found a similar record.
	DedupHits uint64
	// Inserts, Reads, Updates, Deletes count client operations.
	Inserts, Reads, Updates, Deletes uint64
	// SourceCacheHits / SourceCacheMisses count encode-path source reads.
	SourceCacheHits, SourceCacheMisses uint64
	// WritebacksApplied / WritebacksSkipped count deferred re-encodings.
	WritebacksApplied, WritebacksSkipped uint64
	// DecodeSteps counts base fetches performed by reads.
	DecodeSteps uint64
}

// StorageCompressionRatio returns raw/stored (dedup-only; block compression
// is visible in DiskBytesOut vs DiskBytesIn).
func (st Stats) StorageCompressionRatio() float64 {
	return metrics.Ratio(st.RawBytes, st.StoredBytes)
}

// NetworkCompressionRatio returns raw/oplog — the replication savings.
func (st Stats) NetworkCompressionRatio() float64 {
	return metrics.Ratio(st.RawBytes, st.OplogBytes)
}

// Stats returns a snapshot.
func (s *Store) Stats() Stats {
	ns := s.n.Stats()
	return Stats{
		RawBytes:          ns.RawInsertBytes,
		StoredBytes:       ns.Store.LogicalBytes,
		DiskBytesIn:       ns.Store.BlockBytesIn,
		DiskBytesOut:      ns.Store.BlockBytesOut,
		OplogBytes:        ns.OplogBytes,
		IndexMemoryBytes:  ns.Engine.IndexMemoryBytes,
		DedupHits:         ns.Engine.Deduped,
		Inserts:           ns.Inserts,
		Reads:             ns.Reads,
		Updates:           ns.Updates,
		Deletes:           ns.Deletes,
		SourceCacheHits:   ns.Engine.SourceCacheHits,
		SourceCacheMisses: ns.Engine.SourceCacheMiss,
		WritebacksApplied: ns.WritebacksApplied,
		WritebacksSkipped: ns.WritebacksSkipped,
		DecodeSteps:       ns.DecodeSteps,
	}
}

// Replication ------------------------------------------------------------

// ReplicationServer streams this store's oplog to secondaries.
type ReplicationServer struct {
	p *repl.Primary
}

// ServeReplication starts a replication listener on addr (use
// "127.0.0.1:0" to pick a free port).
func (s *Store) ServeReplication(addr string) (*ReplicationServer, error) {
	p, err := repl.ListenAndServe(s.n, addr)
	if err != nil {
		return nil, err
	}
	return &ReplicationServer{p: p}, nil
}

// Addr returns the listener address.
func (r *ReplicationServer) Addr() string { return r.p.Addr() }

// BytesSent returns the total replication bytes sent.
func (r *ReplicationServer) BytesSent() int64 { return r.p.BytesSent() }

// Close stops serving.
func (r *ReplicationServer) Close() error { return r.p.Close() }

// Replica is a live subscription applying a primary's oplog to this store.
type Replica struct {
	s *repl.Secondary
}

// FollowPrimary turns this store into a secondary of the primary at addr,
// applying its operations as they arrive. The first connection must
// succeed; after that a network fault or a primary restart is ridden out:
// the replica redials with backoff until Close and resumes where it
// stopped.
func (s *Store) FollowPrimary(addr string) (*Replica, error) {
	sec, err := repl.Connect(s.n, addr, 0)
	if err != nil {
		return nil, err
	}
	return &Replica{s: sec}, nil
}

// WaitForSeq blocks until the replica has applied the primary's sequence
// number seq.
func (r *Replica) WaitForSeq(seq uint64, timeout time.Duration) error {
	return r.s.WaitForSeq(seq, timeout)
}

// AppliedSeq returns the last applied oplog sequence number.
func (r *Replica) AppliedSeq() uint64 { return r.s.AppliedSeq() }

// BytesReceived returns replication traffic received.
func (r *Replica) BytesReceived() int64 { return r.s.BytesReceived() }

// Err returns the terminal replication error, if replication stopped: the
// primary answered with an error, or an operation failed to apply. A
// transport fault is retried, not reported.
func (r *Replica) Err() error { return r.s.Err() }

// Close stops following.
func (r *Replica) Close() error { return r.s.Close() }

// LastSeq returns the primary-side oplog sequence number — pass it to
// Replica.WaitForSeq to wait for full synchronisation.
func (s *Store) LastSeq() uint64 { return s.n.Oplog().LastSeq() }

// DBStats is the per-database dedup state maintained by the engine's
// governor (§3.4.1 of the paper).
type DBStats struct {
	// Name is the database name.
	Name string
	// GovernorDisabled reports whether dedup was switched off for this
	// database after an unproductive observation window.
	GovernorDisabled bool
	// WindowInserts and WindowRatio describe the current observation
	// window (inserts seen, compression achieved).
	WindowInserts int
	WindowRatio   float64
	// IndexMemoryBytes is this database's feature-index footprint.
	IndexMemoryBytes int64
	// Chains is the number of live similarity chains tracked.
	Chains int
	// StoredBytes is the database's live stored payload.
	StoredBytes int64
}

// DBStats returns per-database dedup state, sorted by name. It is empty
// when dedup is disabled.
func (s *Store) DBStats() []DBStats {
	var out []DBStats
	for _, d := range s.n.DBStats() {
		out = append(out, DBStats{
			Name:             d.Name,
			GovernorDisabled: d.Disabled,
			WindowInserts:    d.WindowInserts,
			WindowRatio:      d.WindowRatio(),
			IndexMemoryBytes: d.IndexMemoryBytes,
			Chains:           d.Chains,
			StoredBytes:      d.StoredBytes,
		})
	}
	return out
}

// VerifyReport summarises a full-store integrity scan.
type VerifyReport = node.VerifyReport

// Verify decodes every stored record, checking that all delta chains
// resolve — an online integrity scrub.
func (s *Store) Verify() VerifyReport { return s.n.VerifyAll() }
