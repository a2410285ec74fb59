package dedupcache

import (
	"container/heap"
	"slices"
	"sync"
)

// DefaultWritebackCacheBytes is the paper's lossy write-back cache size
// (8 MiB).
const DefaultWritebackCacheBytes = 8 << 20

// Writeback is a deferred re-encoding of a stored record: replace record ID's
// stored form with Payload, its marshalled backward delta against record Base,
// saving Saving bytes of storage.
type Writeback struct {
	ID, Base uint64
	// Payload is the marshalled delta, the bytes to store when flushed.
	Payload []byte
	// Saving is the absolute storage saving (old stored size minus new),
	// the flush/eviction priority (paper §3.3.2).
	Saving int64
}

// WritebackCache is dbDedup's lossy write-back delta cache. Backward
// encoding turns every insert into an extra write (the source record must be
// rewritten as a delta); the cache absorbs those writes and releases them
// when the system is idle, best-saving first. Because a dropped write-back
// only forgoes compression — the superseded record simply stays in its old,
// larger form — the cache may discard entries under pressure without any
// correctness consequence, which is what makes it "lossy".
//
// WritebackCache is safe for concurrent use: every method takes the cache's
// own internal mutex, a leaf lock like SourceCache's — the node calls Add,
// Invalidate, and DrainBest without holding n.mu, and no method calls back
// out while holding the mutex.
type WritebackCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	entries  map[uint64]*wbEntry
	min      wbHeap // min-heap by saving: cheapest entry evicted first
	stats    WritebackStats
	scratch  []*wbEntry // DrainBest's copy of the backlog, kept for reuse
}

// WritebackStats is a write-back cache's lifetime counters and what it holds.
type WritebackStats struct {
	// Dropped counts write-backs discarded for capacity, never to be
	// applied; DroppedSaving is the storage they would have saved, in bytes.
	Dropped       uint64
	DroppedSaving int64
	// Replaced counts pending write-backs superseded by a newer one for the
	// same record.
	Replaced uint64
	// Pending and PendingBytes are the write-backs held now and their
	// payload size.
	Pending      int
	PendingBytes int64
}

type wbEntry struct {
	wb  Writeback
	idx int // position in min-heap
}

// NewWritebackCache returns a cache bounded to capacity bytes of payload.
// capacity <= 0 selects DefaultWritebackCacheBytes.
func NewWritebackCache(capacity int64) *WritebackCache {
	if capacity <= 0 {
		capacity = DefaultWritebackCacheBytes
	}
	return &WritebackCache{
		capacity: capacity,
		entries:  make(map[uint64]*wbEntry),
	}
}

// Add inserts a pending write-back, replacing any pending entry for the same
// record. If the cache is over capacity afterwards, the entries with the
// least compression gain are discarded — possibly including the one just
// added. It reports whether the new entry survived.
func (c *WritebackCache) Add(wb Writeback) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[wb.ID]; ok {
		c.bytes -= int64(len(old.wb.Payload))
		heap.Remove(&c.min, old.idx)
		delete(c.entries, wb.ID)
		c.stats.Replaced++
	}
	if int64(len(wb.Payload)) > c.capacity {
		c.stats.Dropped++
		c.stats.DroppedSaving += wb.Saving
		return false
	}
	e := &wbEntry{wb: wb}
	c.entries[wb.ID] = e
	heap.Push(&c.min, e)
	c.bytes += int64(len(wb.Payload))

	survived := true
	for c.bytes > c.capacity && c.min.Len() > 0 {
		victim := heap.Pop(&c.min).(*wbEntry)
		delete(c.entries, victim.wb.ID)
		c.bytes -= int64(len(victim.wb.Payload))
		c.stats.Dropped++
		c.stats.DroppedSaving += victim.wb.Saving
		if victim == e {
			survived = false
		}
	}
	return survived
}

// Invalidate removes any pending write-back for record id, reporting whether
// one existed. It is cache hygiene, not what protects client data: a record a
// client updated or deleted is refused when its write-back is applied, and
// Invalidate only spares that write-back its place in the cache and its
// refused apply.
func (c *WritebackCache) Invalidate(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	heap.Remove(&c.min, e.idx)
	delete(c.entries, id)
	c.bytes -= int64(len(e.wb.Payload))
	return true
}

// DrainBest removes and returns up to n pending write-backs, most valuable
// first: by saving, descending, equal savings by ID, ascending, so the drain
// order (and therefore the physical append stream) depends on the pending set
// alone. The idle-flush loop calls it when the I/O queue is short.
// Saving decides which write-backs a batch holds, not the order they are
// applied in: the caller orders the batch (the node applies it chain by
// chain). It selects the batch in time linear in the backlog and sorts only
// the batch.
func (c *WritebackCache) DrainBest(n int) []Writeback {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || len(c.entries) == 0 {
		return nil
	}
	// The heap's slice holds every entry; select from a copy of it.
	all := append(c.scratch[:0], c.min...)
	defer func() { c.scratch = all[:0]; clear(all) }()
	if n < len(all) {
		selectBest(all, n)
	} else {
		n = len(all)
	}
	best := all[:n]
	slices.SortFunc(best, func(a, b *wbEntry) int {
		if drainsBefore(a, b) {
			return -1
		}
		return 1
	})
	out := make([]Writeback, 0, n)
	for _, e := range best {
		heap.Remove(&c.min, e.idx)
		delete(c.entries, e.wb.ID)
		c.bytes -= int64(len(e.wb.Payload))
		out = append(out, e.wb)
	}
	return out
}

// drainsBefore is DrainBest's order: the larger saving first, then the
// smaller ID. IDs are unique, so no two entries tie.
func drainsBefore(a, b *wbEntry) bool {
	if a.wb.Saving != b.wb.Saving {
		return a.wb.Saving > b.wb.Saving
	}
	return a.wb.ID < b.wb.ID
}

// selectBest reorders es so that its first n entries are the n that
// drainsBefore puts first, in no particular order: a quickselect with a
// median-of-three pivot, linear in len(es) on average.
func selectBest(es []*wbEntry, n int) {
	lo, hi := 0, len(es)-1
	for lo < hi {
		// Median of three to es[hi], then partition es[lo:hi] around it.
		mid := int(uint(lo+hi) >> 1)
		if drainsBefore(es[mid], es[lo]) {
			es[mid], es[lo] = es[lo], es[mid]
		}
		if drainsBefore(es[hi], es[lo]) {
			es[hi], es[lo] = es[lo], es[hi]
		}
		if drainsBefore(es[mid], es[hi]) {
			es[mid], es[hi] = es[hi], es[mid]
		}
		pivot, p := es[hi], lo
		for i := lo; i < hi; i++ {
			if drainsBefore(es[i], pivot) {
				es[i], es[p] = es[p], es[i]
				p++
			}
		}
		es[p], es[hi] = es[hi], es[p]
		// es[:p] drain before the pivot at p, es[p+1:] after it.
		switch {
		case p == n || p == n-1:
			return
		case p > n:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// Len returns the number of pending write-backs.
func (c *WritebackCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the pending payload size.
func (c *WritebackCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the cache's lifetime counters and what it holds now.
func (c *WritebackCache) Stats() WritebackStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Pending, s.PendingBytes = len(c.entries), c.bytes
	return s
}

// wbHeap is a min-heap of entries ordered by Saving.
type wbHeap []*wbEntry

func (h wbHeap) Len() int            { return len(h) }
func (h wbHeap) Less(i, j int) bool  { return h[i].wb.Saving < h[j].wb.Saving }
func (h wbHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *wbHeap) Push(x interface{}) { e := x.(*wbEntry); e.idx = len(*h); *h = append(*h, e) }
func (h *wbHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
