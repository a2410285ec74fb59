// Package featidx implements dbDedup's in-memory similarity feature index.
//
// The index maps features (sampled chunk hashes, see internal/sketch) to the
// records that contain them, using a cuckoo-style hash table: d independent
// hash functions map a feature to d candidate buckets, each holding several
// entries, which gives high load factors with constant-bounded lookups
// (paper §3.1.2, after ChunkStash).
//
// Each entry is deliberately tiny — a 2-byte checksum of the feature plus a
// 4-byte record reference — so the whole index stays RAM-resident even for
// large corpora. Checksum collisions merely add a false-positive candidate;
// the final delta-compression step is byte-exact, so correctness never
// depends on the index (unlike exact dedup, which must store full
// collision-resistant hashes).
//
// The table is sized on demand: it starts at initialEntries and doubles —
// rehashing in place — whenever occupancy approaches the allocation, up to
// CapacityEntries. Entries keep the feature value itself, from which the
// 2-byte checksum is folded on each compare, so their candidate buckets can
// be recomputed under the wider mask, which is what makes rehashing possible
// at any table size and is why a node serving thousands of mostly-small
// tenant databases does not pay thousands of full-size index allocations up
// front. (An entry is 16 bytes in memory, reference, LRU tick and feature;
// EntryBytes accounting stays at the paper's 6 bytes, and AllocatedBytes
// reports the real ones.)
//
// The engine does not hold an Index directly: each database's partition is a
// tiered.TieredIndex (package featidx/tiered) whose hot tier is an Index, and
// which without a memory budget is that Index and nothing else.
package featidx

import (
	"unsafe"

	"dbdedup/internal/murmur"
	"dbdedup/internal/sketch"
)

// Ref is a compact 4-byte reference to a record's location, assigned by the
// caller (dbDedup uses a monotonically increasing insert ordinal that it maps
// back to a database location).
type Ref = uint32

// EntryBytes is the design size of one index entry: a 2-byte feature
// checksum plus a 4-byte record reference. Memory accounting is in units of
// this size, matching the paper's index-memory measurements.
const EntryBytes = 6

// The index geometry is fixed (paper §3.1.2: d hash functions, multi-entry
// buckets, a bounded candidate list); only the capacity and the seed vary.
const (
	// bucketEntries is the number of entries per bucket.
	bucketEntries = 4
	// numHashes is the number of cuckoo hash functions. Displaced entries
	// are never relocated cuckoo-style; the index instead relies on
	// several hash functions and LRU eviction.
	numHashes = 8
	// MaxCandidates caps how many matching records a single feature
	// lookup may return; past it the search terminates and the
	// least-recently-used matching entry is evicted (paper §3.1.2). The
	// tiered index applies the same cap across both of its tiers.
	MaxCandidates = 8
	// initialEntries is the allocation an index starts at (or its
	// capacity, if smaller): small indexes are fully allocated up front.
	initialEntries = 1 << 13
)

// Config sizes an index.
type Config struct {
	// CapacityEntries is the total number of entries the index can hold.
	// It is rounded so the bucket count is a power of two. Once full, the
	// least-recently-used entry among an insert's candidate buckets is
	// evicted. Defaults to 1<<20.
	CapacityEntries int
	// Seed derives the hash functions.
	Seed uint64
}

// growFraction is the occupancy/allocation ratio at which the table doubles.
// High enough that allocation never exceeds ~1.5× occupancy, low enough that
// the candidate buckets essentially never all fill before the table grows:
// with 8 hashes × 4 slots, the chance of an insert finding all 32 candidate
// slots taken at 11/16 load is ~6e-6, so pre-capacity LRU evictions (which
// would preferentially drop the index's *coldest* — oldest — similarity
// state) stay negligible until the table parks at CapacityEntries.
const growFraction = 11.0 / 16

// entry is one slot of the table, 16 bytes, so a bucket of four is one 64-byte
// cache line. A tick of 0 marks the slot empty: the clock never reads 0 (tick
// skips it when it wraps), and an entry's checksum is checksumOf(feat), which
// is why neither needs a field of its own.
type entry struct {
	ref  Ref
	tick uint32         // LRU clock value at last touch; 0: the slot is empty
	feat sketch.Feature // kept so entries can be re-placed when the table grows
}

// Index is a single-partition feature index. It is NOT safe for concurrent
// use and takes no locks of its own; every method requires external
// synchronisation.
//
// Lock ownership in dbDedup: each database's partition is owned by the
// engine's per-database state (core.dbState) and every access happens with
// that database's mutex held — see the lock hierarchy in package core's
// comment. Partitions of *different* databases are distinct Index instances
// sharing no state, so they may be used from different goroutines without
// any common lock; that independence is what lets independent databases
// encode in parallel. Callers embedding the index elsewhere must provide an
// equivalent single-writer discipline.
type Index struct {
	slots      []entry // bucket b is slots[b*bucketEntries:][:bucketEntries]
	bucketMask uint32
	maxBuckets int
	growAt     int // occupancy that triggers the next doubling
	seed       uint64
	clock      uint32
	occupied   int
	// stats
	lookups   uint64
	matches   uint64
	evictions uint64
}

// New returns an empty index with the given configuration.
func New(cfg Config) *Index {
	if cfg.CapacityEntries <= 0 {
		cfg.CapacityEntries = 1 << 20
	}
	nb := max(nextPow2(min(initialEntries, cfg.CapacityEntries)/bucketEntries), 2)
	ix := &Index{
		maxBuckets: max(nextPow2(cfg.CapacityEntries/bucketEntries), nb),
		seed:       cfg.Seed,
	}
	ix.setTable(nb)
	return ix
}

// setTable allocates an empty table of nb buckets. The buckets are one
// pointer-free array, so a probe loads its bucket directly and the collector
// never scans the table.
func (ix *Index) setTable(nb int) {
	ix.slots = make([]entry, nb*bucketEntries)
	ix.bucketMask = uint32(nb - 1)
	if nb < ix.maxBuckets {
		ix.growAt = int(growFraction * float64(nb*bucketEntries))
	} else {
		ix.growAt = int(^uint(0) >> 1) // at capacity: never grow again
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// bucket returns bucket bi's slots and the index of its first slot.
func (ix *Index) bucket(bi uint32) ([]entry, int) {
	i := int(bi) * bucketEntries
	return ix.slots[i : i+bucketEntries : i+bucketEntries], i
}

// hash returns the i-th candidate bucket for feature f under the current
// mask: one Murmur per probe, seeded per hash function. Because the mask only
// truncates, the same function re-derives an entry's buckets after a grow.
func (ix *Index) hash(f sketch.Feature, i int) uint32 {
	var b [8]byte
	v := uint64(f)
	for j := 0; j < 8; j++ {
		b[j] = byte(v >> (8 * j))
	}
	return uint32(murmur.Sum64(b[:], ix.seed+uint64(i)*0x9e3779b97f4a7c15)) & ix.bucketMask
}

// grow doubles the bucket count and re-places every entry under the wider
// mask, preserving LRU ticks. Placement follows the same first-free-else-LRU
// walk as LookupInsert, so the scan invariant (an empty slot ends a
// feature's possible placements) holds in the new table too. At ~40%
// post-doubling load the chance of any re-placed entry finding all its
// candidate slots taken is negligible, so growth effectively never evicts.
func (ix *Index) grow() {
	old := ix.slots
	ix.setTable((int(ix.bucketMask) + 1) * 2)
	ix.occupied = 0
	for _, e := range old {
		if e.tick != 0 {
			ix.place(e)
		}
	}
}

// place writes e into the first free slot of its candidate walk, or over the
// least-recently-used candidate when every slot is taken.
func (ix *Index) place(e entry) {
	lru := 0
	lruTick := uint32(1<<32 - 1)
	for i := 0; i < numHashes; i++ {
		bucket, first := ix.bucket(ix.hash(e.feat, i))
		for ei := range bucket {
			s := &bucket[ei]
			if s.tick == 0 {
				*s = e
				ix.occupied++
				return
			}
			if s.tick < lruTick {
				lruTick, lru = s.tick, first+ei
			}
		}
	}
	ix.slots[lru] = e
	ix.evictions++
}

// tick advances the LRU clock, past 0 when it wraps: a tick of 0 is an empty
// slot.
func (ix *Index) tick() {
	ix.clock++
	if ix.clock == 0 {
		ix.clock = 1
	}
}

func checksumOf(f sketch.Feature) uint16 {
	// Fold the feature down to 16 bits; any deterministic fold works.
	v := uint64(f)
	return uint16(v ^ v>>16 ^ v>>32 ^ v>>48)
}

// LookupInsert finds records sharing feature f and then registers (f, ref)
// for future lookups, mirroring the paper's combined lookup/insert pass: the
// search walks the candidate buckets, collects checksum matches, and the new
// entry takes the first free slot found (or evicts the least-recently-used
// candidate entry if every slot is taken).
//
// The returned refs may contain false positives (checksum collisions) and
// never contain ref itself more than the index already held it.
func (ix *Index) LookupInsert(f sketch.Feature, ref Ref) []Ref {
	if ix.occupied >= ix.growAt {
		ix.grow()
	}
	ix.tick()
	ix.lookups++
	sum := checksumOf(f)

	var out []Ref
	free := -1 // first empty slot
	lru := 0   // least-recently-used slot among candidates
	lruTick := uint32(1<<32 - 1)
	lruMatch := -1 // LRU among *matching* entries
	lruMatchTick := uint32(1<<32 - 1)

	truncated := false
scan:
	for i := 0; i < numHashes; i++ {
		bucket, first := ix.bucket(ix.hash(f, i))
		for ei := range bucket {
			e := &bucket[ei]
			if e.tick == 0 {
				if free < 0 {
					free = first + ei
				}
				// An empty slot marks the end of this feature's
				// possible placements under insertion order; stop.
				break scan
			}
			if e.tick < lruTick {
				lruTick, lru = e.tick, first+ei
			}
			if checksumOf(e.feat) == sum {
				// Compare the pre-refresh tick: refreshing first would
				// make every match look equally recent and the truncated
				// path below would always evict the first match scanned
				// instead of the least-recently-used one.
				prev := e.tick
				e.tick = ix.clock
				out = append(out, e.ref)
				if lruMatch < 0 || prev < lruMatchTick {
					lruMatchTick, lruMatch = prev, first+ei
				}
				if len(out) >= MaxCandidates {
					truncated = true
					break scan
				}
			}
		}
	}

	if truncated && lruMatch >= 0 {
		// Too many similar records for this feature: drop the
		// least-recently-used one to bound future lookup cost.
		ix.slots[lruMatch] = entry{ref: ref, tick: ix.clock, feat: f}
		ix.evictions++
		ix.matches += uint64(len(out))
		return out
	}

	if free >= 0 {
		ix.slots[free] = entry{ref: ref, tick: ix.clock, feat: f}
		ix.occupied++
	} else {
		// All candidate slots full: evict the LRU entry among them.
		ix.slots[lru] = entry{ref: ref, tick: ix.clock, feat: f}
		ix.evictions++
	}
	ix.matches += uint64(len(out))
	return out
}

// Lookup returns the records sharing feature f without modifying the index
// contents (LRU ticks are still refreshed). Intended for tests and tools.
func (ix *Index) Lookup(f sketch.Feature) []Ref {
	ix.tick()
	sum := checksumOf(f)
	var out []Ref
	for i := 0; i < numHashes; i++ {
		bucket, _ := ix.bucket(ix.hash(f, i))
		for ei := range bucket {
			e := &bucket[ei]
			if e.tick == 0 {
				return out
			}
			if checksumOf(e.feat) == sum {
				e.tick = ix.clock
				out = append(out, e.ref)
				if len(out) >= MaxCandidates {
					return out
				}
			}
		}
	}
	return out
}

// Len returns the number of occupied entries.
func (ix *Index) Len() int { return ix.occupied }

// MemoryBytes returns the index's design-size memory consumption: occupied
// entries times the 6-byte entry size. This matches how the paper reports
// "index memory usage".
func (ix *Index) MemoryBytes() int64 { return int64(ix.occupied) * EntryBytes }

// CapacityBytes returns the design-size memory of the fully *grown* table —
// the configured bound, not the current (possibly smaller) allocation.
func (ix *Index) CapacityBytes() int64 {
	return int64(ix.maxBuckets*bucketEntries) * EntryBytes
}

// AllocatedEntries reports the current table allocation in entries; it starts
// at initialEntries and doubles toward CapacityEntries as occupancy rises.
func (ix *Index) AllocatedEntries() int { return len(ix.slots) }

// AllocatedBytes is what the table holds of the heap: its allocation in
// entries at their real size, 16 bytes, not the design size.
func (ix *Index) AllocatedBytes() int64 {
	return int64(len(ix.slots)) * int64(unsafe.Sizeof(entry{}))
}

// Stats reports lookup counters since construction.
func (ix *Index) Stats() (lookups, matches, evictions uint64) {
	return ix.lookups, ix.matches, ix.evictions
}
