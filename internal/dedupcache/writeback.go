package dedupcache

import (
	"container/heap"
	"sort"
	"sync"
)

// DefaultWritebackCacheBytes is the paper's lossy write-back cache size
// (8 MiB).
const DefaultWritebackCacheBytes = 8 << 20

// Writeback is a deferred re-encoding of a stored record: replace record ID's
// stored form with Payload (its backward delta plus framing), saving Saving
// bytes of storage.
type Writeback struct {
	ID uint64
	// Payload is the bytes to store for the record when flushed.
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
	dropped  uint64
	replaced uint64
	flushed  uint64
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
		c.replaced++
	}
	if int64(len(wb.Payload)) > c.capacity {
		c.dropped++
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
		c.dropped++
		if victim == e {
			survived = false
		}
	}
	return survived
}

// Invalidate removes any pending write-back for record id, reporting whether
// one existed. The update path calls this before every client update so a
// stale deferred delta can never overwrite fresh client data (paper §4.1).
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

// Pending reports whether record id has a deferred write-back.
func (c *WritebackCache) Pending(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// DrainBest removes and returns up to n pending write-backs, most valuable
// first. The idle-flush loop calls it when the I/O queue is short. Saving
// decides which write-backs a batch holds, not the order they are applied in:
// the caller orders the batch (the node applies it chain by chain).
func (c *WritebackCache) DrainBest(n int) []Writeback {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || len(c.entries) == 0 {
		return nil
	}
	all := make([]*wbEntry, 0, len(c.entries))
	for _, e := range c.entries {
		all = append(all, e)
	}
	// Tie-break equal savings by ID so the drain order (and therefore the
	// physical append stream) does not depend on map iteration order.
	sort.Slice(all, func(i, j int) bool {
		if all[i].wb.Saving != all[j].wb.Saving {
			return all[i].wb.Saving > all[j].wb.Saving
		}
		return all[i].wb.ID < all[j].wb.ID
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]Writeback, 0, n)
	for _, e := range all[:n] {
		heap.Remove(&c.min, e.idx)
		delete(c.entries, e.wb.ID)
		c.bytes -= int64(len(e.wb.Payload))
		c.flushed++
		out = append(out, e.wb)
	}
	return out
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

// Stats returns lifetime counters: entries dropped for capacity, entries
// replaced by a newer write-back for the same record, and entries flushed.
func (c *WritebackCache) Stats() (dropped, replaced, flushed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped, c.replaced, c.flushed
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
