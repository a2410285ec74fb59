// Package dedupcache implements the two caches that make delta-encoded
// storage practical in dbDedup (paper §3.3): the source record cache, which
// eliminates most database reads when fetching delta-compression sources,
// and the lossy write-back delta cache, which defers and prioritises the
// extra writes that backward encoding creates.
package dedupcache

import (
	"container/list"
	"sync"

	"dbdedup/internal/delta"
)

// DefaultSourceCacheBytes is the paper's source record cache size (32 MiB).
const DefaultSourceCacheBytes = 32 << 20

// SourceCache is a byte-bounded LRU cache of record contents keyed by record
// ID. It exploits the temporal locality of updates in workloads that dedup
// well: the similar record for a new insert is almost always the latest
// version of the same logical item, inserted moments ago. The cache-aware
// source selection (paper §3.1.3) asks it whether candidates are resident,
// and the encode path replaces a chain's cached head with the new head after
// each encoding (paper §3.3.1).
//
// SourceCache is safe for concurrent use: every method takes the cache's own
// internal mutex. That mutex is a leaf in dbDedup's lock hierarchy (dbsMu →
// dbState.mu → cache-internal locks, see package core): encode paths may call
// into the cache while holding a database lock, so no SourceCache method ever
// calls back out while holding c.mu. Contents returned by Get are shared,
// not copied — callers must treat them as immutable.
type SourceCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[uint64]*list.Element
	hits     uint64
	misses   uint64
}

type sourceItem struct {
	id      uint64
	data    []byte
	anchors delta.Anchors
}

// size is what an entry counts against the byte bound.
func (it *sourceItem) size() int64 {
	return int64(len(it.data)) + 8*int64(cap(it.anchors))
}

// NewSourceCache returns a cache bounded to capacity bytes of record
// payload. capacity <= 0 selects DefaultSourceCacheBytes.
func NewSourceCache(capacity int64) *SourceCache {
	if capacity <= 0 {
		capacity = DefaultSourceCacheBytes
	}
	return &SourceCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[uint64]*list.Element),
	}
}

// Get returns the cached contents of record id. The returned slice is shared
// with the cache and must not be modified.
func (c *SourceCache) Get(id uint64) ([]byte, bool) {
	data, _, ok := c.GetAnchored(id)
	return data, ok
}

// GetAnchored is Get that also returns the record's anchor list, nil when
// the entry has none. Both are shared with the cache.
func (c *SourceCache) GetAnchored(id uint64) ([]byte, delta.Anchors, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[id]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	it := el.Value.(*sourceItem)
	return it.data, it.anchors, true
}

// Peek returns the cached contents of record id as Get does, but leaves no
// trace: LRU order and the hit/miss counters are the encoder's, and a client
// read that looks here must not change which sources the encoder finds
// resident, because that decides what gets stored.
func (c *SourceCache) Peek(id uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		return el.Value.(*sourceItem).data, true
	}
	return nil, false
}

// Contains reports whether record id is resident, with as little trace as
// Peek. Cache-aware selection uses it to score candidates before deciding
// which one to fetch.
func (c *SourceCache) Contains(id uint64) bool {
	_, ok := c.Peek(id)
	return ok
}

// Put inserts or refreshes record id, with no anchor list. Oversized records
// (bigger than the whole cache) are ignored.
func (c *SourceCache) Put(id uint64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&sourceItem{id: id, data: data})
}

// Replace atomically removes oldID and inserts newID with its anchor list
// (nil for none) — the chain-head update: once a new version is encoded
// against the cached head, the head is superseded and only the new version
// is useful as a future source.
func (c *SourceCache) Replace(oldID, newID uint64, data []byte, anchors delta.Anchors) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remove(oldID)
	c.put(&sourceItem{id: newID, data: data, anchors: anchors})
}

// Remove drops record id if present.
func (c *SourceCache) Remove(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remove(id)
}

// Len returns the number of resident records.
func (c *SourceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident payload size, anchor lists included.
func (c *SourceCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns hit/miss counters for Get.
func (c *SourceCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *SourceCache) put(it *sourceItem) {
	if it.size() > c.capacity {
		return
	}
	if el, ok := c.items[it.id]; ok {
		c.bytes += it.size() - el.Value.(*sourceItem).size()
		el.Value = it
		c.ll.MoveToFront(el)
	} else {
		c.items[it.id] = c.ll.PushFront(it)
		c.bytes += it.size()
	}
	for c.bytes > c.capacity {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.remove(oldest.Value.(*sourceItem).id)
	}
}

func (c *SourceCache) remove(id uint64) {
	el, ok := c.items[id]
	if !ok {
		return
	}
	c.ll.Remove(el)
	delete(c.items, id)
	c.bytes -= el.Value.(*sourceItem).size()
}
