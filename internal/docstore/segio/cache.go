package segio

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockKey packs a segment slot and block offset into one cache key. Offsets
// are limited to 2^40 bytes (1 TiB) per segment, far above any segment size
// the store rolls at.
func BlockKey(slot int, off int64) uint64 {
	return uint64(slot)<<40 | uint64(off)&((1<<40)-1)
}

// keySlot recovers the segment slot from a BlockKey.
func keySlot(key uint64) int { return int(key >> 40) }

// Cache is a sharded, byte-bounded LRU of decompressed blocks. Each shard
// has its own lock and LRU list, so concurrent readers hitting different
// shards never serialise; hit/miss counters are per shard for the admin
// endpoint's contention view.
//
// The cache owns every block buffer from Put on. It lends a cached block's
// bytes only inside a View callback, under the shard lock, and when a block
// is evicted, replaced or dropped its buffer goes to the shard's free list,
// where Buffer hands it to the next miss it is large enough for. Nothing
// outside the cache may keep a reference to a buffer it has Put, or to bytes
// it saw in View: the next miss on that shard overwrites them.
//
// A block costs its buffer's capacity, which is what it keeps from the heap.
type Cache struct {
	shards []cacheShard
	mask   uint64

	// poison, when set, is called with every buffer entering a free list.
	// The race test overwrites the buffer here, so a reader still holding
	// lent bytes past its callback is caught by its checksum, not by luck.
	poison func([]byte)
}

type cacheShard struct {
	mu     sync.Mutex
	budget int // bytes of resident blocks the shard may hold
	used   int // bytes it holds
	ll     *list.List
	items  map[uint64]*list.Element
	// free holds the buffers of blocks that left the cache, up to freeShare
	// of the budget, so the shard's footprint stays bounded.
	free      [][]byte
	freeBytes int

	hits     atomic.Uint64
	misses   atomic.Uint64
	recycled atomic.Uint64 // Buffer calls served from free
	fresh    atomic.Uint64 // Buffer calls that allocated
}

type blockItem struct {
	key  uint64
	data []byte
}

// PoisonFreed installs fn as the poison hook: it is called, under the shard
// lock, with every buffer entering a free list. Tests of the layers above
// overwrite the buffer there, which turns a reader that still holds lent
// bytes into a failed checksum instead of a lucky pass. Call it before the
// cache is shared.
func (c *Cache) PoisonFreed(fn func([]byte)) { c.poison = fn }

// NewCache returns a cache holding budget bytes of blocks in total across
// shardCount shards (rounded up to a power of two). Each shard keeps its most
// recent block whatever its size, so tiny budgets still cache.
func NewCache(budget, shardCount int) *Cache {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].budget = budget / n
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[uint64]*list.Element)
	}
	return c
}

// shardOf spreads keys across shards. Block offsets share high bits within
// a segment, so mix with a Fibonacci constant before masking.
func (c *Cache) shardOf(key uint64) *cacheShard {
	h := key * 0x9E3779B97F4A7C15
	return &c.shards[(h>>32)&c.mask]
}

// View looks key up, recording a hit or miss. On a hit fn is called with the
// block while the shard lock is held. fn must copy out what it needs and must
// not block or take another lock: the bytes are the cache's, and are reused as
// soon as the lock is released and the block evicted.
func (c *Cache) View(key uint64, fn func(block []byte)) (hit bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	el, hit := s.items[key]
	if hit {
		s.ll.MoveToFront(el)
		fn(el.Value.(*blockItem).data)
	}
	s.mu.Unlock()
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return hit
}

const (
	// bufferQuantum rounds fresh buffer capacities up, so blocks of nearly
	// the same size can take over each other's buffers.
	bufferQuantum = 512
	// freeShare is the part of its budget a shard may keep in idle buffers.
	freeShare = 4
)

// Buffer returns a buffer of length n for the block that will be Put under
// key: from that shard's free list the smallest one that holds n bytes and
// would not be more than half empty (a block costs its buffer's capacity), a
// fresh allocation otherwise. The caller owns it until Put.
func (c *Cache) Buffer(key uint64, n int) []byte {
	s := c.shardOf(key)
	s.mu.Lock()
	best := -1
	for i, buf := range s.free {
		if c := cap(buf); c >= n && c <= max(2*n, bufferQuantum) && (best < 0 || c < cap(s.free[best])) {
			best = i
		}
	}
	var buf []byte
	if best >= 0 {
		last := len(s.free) - 1
		buf, s.free[best], s.free[last] = s.free[best], s.free[last], nil
		s.free = s.free[:last]
		s.freeBytes -= cap(buf)
	}
	s.mu.Unlock()
	if buf != nil {
		s.recycled.Add(1)
		return buf[:n]
	}
	s.fresh.Add(1)
	return make([]byte, n, (n+bufferQuantum-1)/bufferQuantum*bufferQuantum)
}

// Put inserts a block, evicting from the shard's LRU tail while it is over
// budget. The cache owns data from here on; the caller must not touch it
// again.
func (c *Cache) Put(key uint64, data []byte) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		// Two readers loaded the same block: the contents are equal, so
		// keep the resident one and recycle the other.
		c.release(s, data)
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&blockItem{key: key, data: data})
	s.used += cap(data)
	for s.used > s.budget && s.ll.Len() > 1 {
		c.remove(s, s.ll.Back())
	}
}

// remove takes el out of the shard and recycles its buffer. Caller holds
// s.mu.
func (c *Cache) remove(s *cacheShard, el *list.Element) {
	it := s.ll.Remove(el).(*blockItem)
	delete(s.items, it.key)
	s.used -= cap(it.data)
	c.release(s, it.data)
}

// release puts a buffer no cached block uses any more on the shard's free
// list, if there is room. Caller holds s.mu, which is what makes this safe:
// bytes are lent only under the same lock, so no reader can still be looking
// at them.
func (c *Cache) release(s *cacheShard, buf []byte) {
	if c.poison != nil {
		c.poison(buf[:cap(buf)])
	}
	if s.freeBytes+cap(buf) <= s.budget/freeShare {
		s.free = append(s.free, buf)
		s.freeBytes += cap(buf)
	}
}

// DropSegment evicts every cached block of one segment (after compaction
// retires it).
func (c *Cache) DropSegment(slot int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.items {
			if keySlot(key) == slot {
				c.remove(s, el)
			}
		}
		s.mu.Unlock()
	}
}

// HitsMisses returns the cache-wide hit and miss totals.
func (c *Cache) HitsMisses() (hits, misses uint64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// Buffers returns how many block buffers Buffer served from a free list and
// how many it had to allocate.
func (c *Cache) Buffers() (recycled, fresh uint64) {
	for i := range c.shards {
		recycled += c.shards[i].recycled.Load()
		fresh += c.shards[i].fresh.Load()
	}
	return recycled, fresh
}

// Bytes returns what the resident blocks hold of the heap, to set against the
// budget.
func (c *Cache) Bytes() (n int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// ShardStats is one shard's counters for the admin endpoint.
type ShardStats struct {
	Shard  int
	Hits   uint64
	Misses uint64
	Blocks int
}

// Stats returns per-shard counters and occupancy.
func (c *Cache) Stats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		blocks := s.ll.Len()
		s.mu.Unlock()
		out[i] = ShardStats{Shard: i, Hits: s.hits.Load(), Misses: s.misses.Load(), Blocks: blocks}
	}
	return out
}
