package dedupcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dbdedup/internal/delta"
)

func TestSourceCacheBasic(t *testing.T) {
	c := NewSourceCache(1024)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache returned a record")
	}
	c.Put(1, []byte("hello"))
	got, ok := c.Get(1)
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get(1) = %q,%v", got, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits %d misses, want 1/1", hits, misses)
	}
}

func TestSourceCacheLRUEviction(t *testing.T) {
	c := NewSourceCache(100)
	for i := uint64(0); i < 10; i++ {
		c.Put(i, make([]byte, 20)) // 5 fit
	}
	if c.Bytes() > 100 {
		t.Fatalf("cache over capacity: %d bytes", c.Bytes())
	}
	if _, ok := c.Get(0); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get(9); !ok {
		t.Error("newest entry was evicted")
	}
}

func TestSourceCacheLRUTouchOnGet(t *testing.T) {
	c := NewSourceCache(60)
	c.Put(1, make([]byte, 20))
	c.Put(2, make([]byte, 20))
	c.Put(3, make([]byte, 20))
	c.Get(1)                   // touch 1; LRU order now 2 < 3 < 1
	c.Put(4, make([]byte, 20)) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("LRU entry 2 should have been evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("recently used entry 1 was evicted")
	}
}

func TestSourceCacheReplace(t *testing.T) {
	c := NewSourceCache(1024)
	c.Put(1, []byte("old head"))
	c.Replace(1, 2, []byte("new head"), nil)
	if c.Contains(1) {
		t.Error("old head still resident after Replace")
	}
	got, ok := c.Get(2)
	if !ok || string(got) != "new head" {
		t.Errorf("Get(2) = %q,%v", got, ok)
	}
	// Replace with absent old ID just inserts.
	c.Replace(99, 3, []byte("x"), nil)
	if !c.Contains(3) {
		t.Error("Replace with absent oldID did not insert")
	}
}

// TestSourceCacheKeepsAnchorLists: a head's anchor list comes back with its
// content, counts 8 B an anchor against the bound, and goes when Put
// refreshes the entry without one.
func TestSourceCacheKeepsAnchorLists(t *testing.T) {
	c := NewSourceCache(100)
	anchors := make(delta.Anchors, 5)
	anchors[2] = delta.Anchor{Key: 7, Off: 32}
	c.Replace(0, 1, make([]byte, 40), anchors)
	if c.Bytes() != 80 {
		t.Fatalf("head of 40 B with 5 anchors counts %d bytes, want 80", c.Bytes())
	}
	data, got, ok := c.GetAnchored(1)
	if !ok || len(data) != 40 || len(got) != 5 || got[2] != anchors[2] {
		t.Fatalf("GetAnchored(1) = %d bytes, %v, %v", len(data), got, ok)
	}
	c.Put(2, make([]byte, 30)) // 110 bytes: the listed head is evicted
	if c.Contains(1) || c.Bytes() != 30 {
		t.Fatalf("after eviction: head resident %v, %d bytes", c.Contains(1), c.Bytes())
	}
	c.Replace(2, 3, make([]byte, 10), anchors)
	c.Put(3, make([]byte, 10))
	if _, got, _ := c.GetAnchored(3); got != nil || c.Bytes() != 10 {
		t.Fatalf("Put kept the list: %v, %d bytes", got, c.Bytes())
	}
}

func TestSourceCachePeekDoesNotTouch(t *testing.T) {
	c := NewSourceCache(40)
	c.Put(1, []byte("twenty bytes of one."))
	c.Put(2, make([]byte, 20))
	h0, m0 := c.Stats()
	if got, ok := c.Peek(1); !ok || string(got) != "twenty bytes of one." { // must NOT move 1 to front
		t.Fatalf("Peek(1) = %q, %v", got, ok)
	}
	c.Contains(1)
	c.Peek(9)
	c.Contains(9)
	if h, m := c.Stats(); h != h0 || m != m0 {
		t.Error("Peek or Contains affected hit/miss stats")
	}
	c.Put(3, make([]byte, 20)) // evicts 1 (still LRU)
	if _, ok := c.Peek(1); ok || c.Contains(1) {
		t.Error("Peek or Contains affected LRU order")
	}
}

func TestSourceCacheUpdateInPlace(t *testing.T) {
	c := NewSourceCache(1024)
	c.Put(1, []byte("aaaa"))
	c.Put(1, []byte("bb"))
	if c.Len() != 1 || c.Bytes() != 2 {
		t.Fatalf("len=%d bytes=%d after in-place update, want 1/2", c.Len(), c.Bytes())
	}
}

func TestSourceCacheOversizedRecord(t *testing.T) {
	c := NewSourceCache(10)
	c.Put(1, make([]byte, 100))
	if c.Contains(1) || c.Bytes() != 0 {
		t.Error("oversized record was admitted")
	}
}

func TestSourceCacheConcurrent(t *testing.T) {
	c := NewSourceCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := uint64(g*1000 + i)
				c.Put(id, []byte(fmt.Sprintf("record-%d", id)))
				c.Get(id)
				c.Contains(id)
				if i%10 == 0 {
					c.Remove(id)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWritebackAddDrain(t *testing.T) {
	c := NewWritebackCache(1 << 16)
	c.Add(Writeback{ID: 1, Payload: []byte("d1"), Saving: 100})
	c.Add(Writeback{ID: 2, Payload: []byte("d2"), Saving: 300})
	c.Add(Writeback{ID: 3, Payload: []byte("d3"), Saving: 200})

	got := c.DrainBest(2)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("DrainBest(2) = %+v, want IDs 2 then 3", got)
	}
	rest := c.DrainBest(10)
	if len(rest) != 1 || rest[0].ID != 1 {
		t.Fatalf("remaining = %+v, want ID 1", rest)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("cache not empty after draining: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestWritebackReplaceSameRecord(t *testing.T) {
	c := NewWritebackCache(1 << 16)
	c.Add(Writeback{ID: 7, Payload: []byte("old"), Saving: 10})
	c.Add(Writeback{ID: 7, Payload: []byte("newer"), Saving: 50})
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	got := c.DrainBest(1)
	if string(got[0].Payload) != "newer" || got[0].Saving != 50 {
		t.Fatalf("drained %+v, want the replacement", got[0])
	}
	if st := c.Stats(); st.Replaced != 1 || st.Pending != 0 {
		t.Errorf("stats %+v, want 1 replaced, none pending", st)
	}
}

// drainedIDs drains everything c holds and returns the IDs, ascending.
func drainedIDs(c *WritebackCache) []uint64 {
	var ids []uint64
	for _, wb := range c.DrainBest(c.Len()) {
		ids = append(ids, wb.ID)
	}
	slices.Sort(ids)
	return ids
}

func TestWritebackLossyEviction(t *testing.T) {
	// Capacity for ~3 payloads of 10 bytes; the least valuable entries
	// must be dropped, never the most valuable.
	c := NewWritebackCache(30)
	pay := func() []byte { return make([]byte, 10) }
	c.Add(Writeback{ID: 1, Payload: pay(), Saving: 500})
	c.Add(Writeback{ID: 2, Payload: pay(), Saving: 50})
	c.Add(Writeback{ID: 3, Payload: pay(), Saving: 400})
	c.Add(Writeback{ID: 4, Payload: pay(), Saving: 300}) // evicts ID 2

	st := c.Stats()
	if st.Dropped != 1 || st.DroppedSaving != 50 || st.Pending != 3 || st.PendingBytes != 30 {
		t.Errorf("stats %+v, want 1 dropped saving 50 B, 3 pending in 30 B", st)
	}
	if got := drainedIDs(c); !slices.Equal(got, []uint64{1, 3, 4}) {
		t.Errorf("cache held %v after the over-capacity add, want the valuable 1, 3, 4", got)
	}
}

func TestWritebackNewEntryMayLose(t *testing.T) {
	// An incoming low-value entry must not displace higher-value ones.
	c := NewWritebackCache(20)
	pay := func() []byte { return make([]byte, 10) }
	c.Add(Writeback{ID: 1, Payload: pay(), Saving: 500})
	c.Add(Writeback{ID: 2, Payload: pay(), Saving: 400})
	if ok := c.Add(Writeback{ID: 3, Payload: pay(), Saving: 1}); ok {
		t.Error("low-value entry reported as surviving")
	}
	if got := drainedIDs(c); !slices.Equal(got, []uint64{1, 2}) {
		t.Errorf("cache held %v after a low-value add, want the high-value 1, 2", got)
	}
}

func TestWritebackInvalidate(t *testing.T) {
	c := NewWritebackCache(1 << 16)
	c.Add(Writeback{ID: 5, Payload: []byte("stale delta"), Saving: 100})
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed a pending entry")
	}
	if c.Invalidate(5) {
		t.Fatal("double Invalidate reported success")
	}
	if got := c.DrainBest(10); len(got) != 0 {
		t.Fatalf("invalidated entry drained: %+v", got)
	}
}

func TestWritebackOversizedPayload(t *testing.T) {
	c := NewWritebackCache(10)
	if ok := c.Add(Writeback{ID: 1, Payload: make([]byte, 100), Saving: 999}); ok {
		t.Error("oversized payload admitted")
	}
	if c.Len() != 0 {
		t.Error("oversized payload resident")
	}
}

func TestWritebackConcurrent(t *testing.T) {
	c := NewWritebackCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := uint64(g*500 + i)
				c.Add(Writeback{ID: id, Payload: make([]byte, 16), Saving: int64(i)})
				if i%7 == 0 {
					c.Invalidate(id)
				}
				if i%13 == 0 {
					c.DrainBest(3)
				}
			}
		}(g)
	}
	wg.Wait()
	// Heap and map must agree after the storm.
	n := c.Len()
	drained := c.DrainBest(n + 100)
	if len(drained) != n {
		t.Fatalf("drained %d entries, Len said %d", len(drained), n)
	}
}

func BenchmarkSourceCacheGetPut(b *testing.B) {
	c := NewSourceCache(1 << 20)
	data := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		id := uint64(i & 4095)
		c.Put(id, data)
		c.Get(id)
	}
}

func BenchmarkWritebackAdd(b *testing.B) {
	c := NewWritebackCache(1 << 22)
	data := make([]byte, 128)
	for i := 0; i < b.N; i++ {
		c.Add(Writeback{ID: uint64(i & 8191), Payload: data, Saving: int64(i % 1000)})
	}
}

// TestDrainBestMatchesFullSort drains backlogs of many sizes in batches of
// many sizes, savings drawn from a small range so that most of them tie, and
// holds every batch to the reference: the whole backlog sorted by saving,
// descending, then ID, ascending, cut into the same batches.
func TestDrainBestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pending := range []int{1, 2, 3, 10, 64, 65, 500, 2000} {
		for _, batch := range []int{1, 2, 7, 64, 1000} {
			c := NewWritebackCache(1 << 30)
			ref := make([]Writeback, 0, pending)
			for _, id := range rng.Perm(pending * 3)[:pending] {
				wb := Writeback{ID: uint64(id), Payload: []byte{1}, Saving: int64(rng.Intn(8))}
				c.Add(wb)
				ref = append(ref, wb)
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].Saving != ref[j].Saving {
					return ref[i].Saving > ref[j].Saving
				}
				return ref[i].ID < ref[j].ID
			})
			for len(ref) > 0 {
				got := c.DrainBest(batch)
				want := ref[:min(batch, len(ref))]
				ref = ref[len(want):]
				if len(got) != len(want) {
					t.Fatalf("%d pending, batch %d: drained %d, want %d", pending, batch, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || got[i].Saving != want[i].Saving {
						t.Fatalf("%d pending, batch %d: entry %d is ID %d saving %d, want ID %d saving %d",
							pending, batch, i, got[i].ID, got[i].Saving, want[i].ID, want[i].Saving)
					}
				}
			}
			if c.Len() != 0 {
				t.Fatalf("%d pending, batch %d: %d left after the reference ran out", pending, batch, c.Len())
			}
		}
	}
}

// BenchmarkDrainBest takes one 64-entry batch from a backlog of 20 000, the
// idle flusher's tick on a node whose cache has filled, and adds the batch
// back so that the backlog stays the same size; one op is one DrainBest and
// its 64 Adds.
func BenchmarkDrainBest(b *testing.B) {
	c := NewWritebackCache(1 << 30)
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 20000; id++ {
		c.Add(Writeback{ID: uint64(id), Payload: make([]byte, 64), Saving: int64(rng.Intn(4096))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wb := range c.DrainBest(64) {
			c.Add(wb)
		}
	}
}
