package segio

import (
	"container/list"
	"math"
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

// Cache is a sharded, count-bounded LRU of decompressed blocks. Each shard
// has its own lock and LRU list, so concurrent readers hitting different
// shards never serialise; hit/miss counters are per shard for the admin
// endpoint's contention view.
//
// The cache owns every block buffer from Put on. It lends a cached block's
// bytes only inside a View callback, under the shard lock, and when a block
// is evicted, replaced or dropped its buffer goes to the shard's free list,
// where Buffer hands it to the next miss. Nothing outside the cache may keep
// a reference to a buffer it has Put, or to bytes it saw in View: the next
// miss on that shard overwrites them.
//
// A block may be resident only in part (Block.Done): a point read decodes a
// compressed block as far as its own frame. A reader that needs more than is
// there is handed the block itself, which leaves the cache for that long, so
// the decode that extends it runs under no lock and has the buffer to itself.
type Cache struct {
	shards []cacheShard
	mask   uint64

	// poison, when set, is called with every buffer entering a free list.
	// The race test overwrites the buffer here, so a reader still holding
	// lent bytes past its callback is caught by its checksum, not by luck.
	poison func([]byte)
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[uint64]*list.Element
	// free holds the buffers of blocks that left the cache, at most cap of
	// them, so the shard's footprint is bounded by twice its capacity.
	free [][]byte

	hits     atomic.Uint64
	misses   atomic.Uint64
	recycled atomic.Uint64 // Buffer calls served from free
	fresh    atomic.Uint64 // Buffer calls that allocated
}

// Block is a block's buffer and how far it is filled. Data has the block's
// full length from the first load on; Data[:Done] is final and what readers
// are shown, and the rest is still to be decoded, from position Src of the
// stored image, which means something to the decoder alone. A block that is
// not compressed, or was wanted whole, has Done == len(Data).
type Block struct {
	Data      []byte
	Done, Src int
}

// WholeBlock, as a View's need, is more than any block has: only a block
// resident in full satisfies it.
const WholeBlock = math.MaxInt

type blockItem struct {
	key uint64
	Block
}

// PoisonFreed installs fn as the poison hook: it is called, under the shard
// lock, with every buffer entering a free list. Tests of the layers above
// overwrite the buffer there, which turns a reader that still holds lent
// bytes into a failed checksum instead of a lucky pass. Call it before the
// cache is shared.
func (c *Cache) PoisonFreed(fn func([]byte)) { c.poison = fn }

// NewCache returns a cache holding capacity blocks total across shardCount
// shards (rounded up to a power of two; shardCount <= 0 selects 8). Each
// shard holds at least one block, so tiny capacities still cache.
func NewCache(capacity, shardCount int) *Cache {
	if capacity <= 0 {
		capacity = 64
	}
	if shardCount <= 0 {
		shardCount = 8
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = perShard
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

// View looks key up, recording a hit or miss. It is a hit when the block is
// resident with at least its first need bytes, or with all it has: fn is then
// called with the resident bytes while the shard lock is held. fn must copy
// out what it needs and must not block or take another lock: the bytes are
// the cache's, and are reused as soon as the lock is released and the block
// evicted. A resident block that holds less is a miss and is returned as
// short, removed from the cache: the caller owns it, fills in more of it and
// Puts it back (or drops it, on an error).
func (c *Cache) View(key uint64, need int, fn func(block []byte)) (hit bool, short Block) {
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		it := el.Value.(*blockItem)
		if it.Done >= need || it.Done == len(it.Data) {
			s.ll.MoveToFront(el)
			fn(it.Data[:it.Done])
			s.mu.Unlock()
			s.hits.Add(1)
			return true, Block{}
		}
		short = it.Block
		s.ll.Remove(el)
		delete(s.items, key)
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return false, short
}

// bufferQuantum rounds fresh buffer capacities up, so blocks of nearly the
// same size (a sealed block is its target size plus the last record's
// overshoot) can take over each other's buffers.
const bufferQuantum = 8 << 10

// Buffer returns a buffer of length n for the block that will be Put under
// key: a recycled one from that shard's free list when its capacity
// suffices, a fresh allocation otherwise. The caller owns it until Put.
func (c *Cache) Buffer(key uint64, n int) []byte {
	s := c.shardOf(key)
	s.mu.Lock()
	var buf []byte
	if last := len(s.free) - 1; last >= 0 {
		buf = s.free[last]
		s.free[last] = nil
		s.free = s.free[:last]
	}
	s.mu.Unlock()
	if cap(buf) >= n {
		s.recycled.Add(1)
		return buf[:n]
	}
	// A too-small recycled buffer is dropped: the shard converges on
	// buffers as large as the blocks it sees.
	s.fresh.Add(1)
	return make([]byte, n, (n+bufferQuantum-1)/bufferQuantum*bufferQuantum)
}

// Put inserts a block, evicting the shard's LRU tail past capacity. The cache
// owns b.Data from here on; the caller must not touch it again.
func (c *Cache) Put(key uint64, b Block) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		// Two readers loaded the same block: the contents are equal as far as
		// both go, so keep the one that goes further and recycle the other.
		it := el.Value.(*blockItem)
		if b.Done > it.Done {
			b, it.Block = it.Block, b
		}
		c.release(s, b.Data)
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&blockItem{key: key, Block: b})
	for s.ll.Len() > s.cap {
		c.remove(s, s.ll.Back())
	}
}

// remove takes el out of the shard and recycles its buffer. Caller holds
// s.mu.
func (c *Cache) remove(s *cacheShard, el *list.Element) {
	it := s.ll.Remove(el).(*blockItem)
	delete(s.items, it.key)
	c.release(s, it.Data)
}

// release puts a buffer no cached block uses any more on the shard's free
// list. Caller holds s.mu, which is what makes this safe: bytes are lent
// only under the same lock, so no reader can still be looking at them.
func (c *Cache) release(s *cacheShard, buf []byte) {
	if c.poison != nil {
		c.poison(buf[:cap(buf)])
	}
	if len(s.free) < s.cap {
		s.free = append(s.free, buf)
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
