package segio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"dbdedup/internal/faultfs"
)

// memReader returns a reader at slot over a faultfs.MemFS file holding
// content, all of it published: what the store runs on without a directory.
func memReader(t testing.TB, slot int, content []byte) *Reader {
	t.Helper()
	f, err := faultfs.NewMemFS().OpenFile("seg", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	return NewFileReader(slot, f, int64(len(content)))
}

func TestReaderPublishAndRead(t *testing.T) {
	r := memReader(t, 0, []byte("hello world"))
	r.SetSize(6)
	// Bytes behind the published size are written but not readable yet.
	if err := r.ReadAt(make([]byte, 11), 0); err == nil {
		t.Fatal("read past published size succeeded")
	}
	r.SetSize(11)

	got := make([]byte, 11)
	if err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("ReadAt = %q", got)
	}
	// Reads past the published size must fail, not tear.
	if err := r.ReadAt(make([]byte, 1), 11); err == nil {
		t.Fatal("read past published size succeeded")
	}
}

func TestFileReaderReadAt(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "seg-000000.log")
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	r := NewFileReader(3, f, 0)
	// Nothing published yet: the bytes exist but are not sealed.
	if err := r.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read of unpublished bytes succeeded")
	}
	r.SetSize(10)
	got := make([]byte, 4)
	if err := r.ReadAt(got, 3); err != nil || string(got) != "3456" {
		t.Fatalf("ReadAt = %q %v", got, err)
	}
	if r.Slot() != 3 || r.Size() != 10 {
		t.Fatalf("Slot/Size = %d/%d", r.Slot(), r.Size())
	}
	r.unref() // drain: closes the file
}

func TestRetireWhilePinnedDefersRelease(t *testing.T) {
	tab := NewTable()
	var released atomic.Int32
	r := memReader(t, 0, []byte("data"))
	r.release = func() { released.Add(1) }
	tab.Install(r)

	pinned, ok := tab.Pin(0)
	if !ok {
		t.Fatal("pin of installed reader failed")
	}
	tab.Retire(0)

	if released.Load() != 0 {
		t.Fatal("release ran while a pin was held")
	}
	if tab.RetiredPending() != 1 {
		t.Fatalf("RetiredPending = %d, want 1", tab.RetiredPending())
	}
	// The pinned handle still reads the retired segment's bytes.
	got := make([]byte, 4)
	if err := pinned.ReadAt(got, 0); err != nil || string(got) != "data" {
		t.Fatalf("read of retired-but-pinned segment: %q %v", got, err)
	}
	// New pins must fail: the slot left the epoch.
	if _, ok := tab.Pin(0); ok {
		t.Fatal("pin of retired slot succeeded")
	}

	tab.Unpin(pinned)
	if released.Load() != 1 {
		t.Fatalf("release ran %d times, want 1", released.Load())
	}
	if tab.RetiredPending() != 0 {
		t.Fatalf("RetiredPending after drain = %d, want 0", tab.RetiredPending())
	}
	if tab.Pinned() != 0 {
		t.Fatalf("Pinned after drain = %d, want 0", tab.Pinned())
	}
}

func TestRetireUnpinnedReleasesImmediately(t *testing.T) {
	tab := NewTable()
	var released atomic.Int32
	r := memReader(t, 0, nil)
	r.release = func() { released.Add(1) }
	tab.Install(r)
	tab.Retire(0)
	if released.Load() != 1 {
		t.Fatalf("release ran %d times, want 1", released.Load())
	}
	// Retiring an already-retired slot is a no-op, not a double release.
	tab.Retire(0)
	if released.Load() != 1 {
		t.Fatalf("double retire re-ran release: %d", released.Load())
	}
}

func TestPinAfterDrainFails(t *testing.T) {
	r := memReader(t, 0, nil)
	r.unref() // drain the table ref directly
	if r.tryPin() {
		t.Fatal("tryPin succeeded on drained reader")
	}
}

func TestTableInstallGrowsAndClose(t *testing.T) {
	tab := NewTable()
	var closed atomic.Int32
	for slot := 0; slot < 5; slot++ {
		r := memReader(t, slot, nil)
		r.release = func() { closed.Add(1) }
		tab.Install(r)
	}
	if tab.Live() != 5 {
		t.Fatalf("Live = %d, want 5", tab.Live())
	}
	if _, ok := tab.Pin(7); ok {
		t.Fatal("pin of never-installed slot succeeded")
	}
	tab.Close()
	if tab.Live() != 0 {
		t.Fatalf("Live after Close = %d, want 0", tab.Live())
	}
	if closed.Load() != 5 {
		t.Fatalf("Close released %d readers, want 5", closed.Load())
	}
}

// TestConcurrentPinRetire races many pinners against a retirement and checks
// the invariants: release runs exactly once, never while any pin is held,
// and every successful pin reads valid bytes. Run under -race.
func TestConcurrentPinRetire(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		tab := NewTable()
		var released atomic.Int32
		var pinsHeld atomic.Int32
		r := memReader(t, 0, bytes.Repeat([]byte("v"), 64))
		r.release = func() {
			if pinsHeld.Load() != 0 {
				t.Error("release ran while pins held")
			}
			released.Add(1)
		}
		tab.Install(r)

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 100; i++ {
					h, ok := tab.Pin(0)
					if !ok {
						return // retired: later pins must also fail
					}
					pinsHeld.Add(1)
					got := make([]byte, 64)
					if err := h.ReadAt(got, 0); err != nil {
						t.Error(err)
					}
					pinsHeld.Add(-1)
					tab.Unpin(h)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tab.Retire(0)
		}()
		close(start)
		wg.Wait()
		if released.Load() != 1 {
			t.Fatalf("trial %d: release ran %d times, want 1", trial, released.Load())
		}
		if tab.Pinned() != 0 || tab.RetiredPending() != 0 {
			t.Fatalf("trial %d: pinned=%d retiredPending=%d after drain",
				trial, tab.Pinned(), tab.RetiredPending())
		}
	}
}

// viewCopy reads a cached block the only way the cache allows: a copy taken
// inside the View callback.
func viewCopy(c *Cache, key uint64) ([]byte, bool) {
	var out []byte
	ok := c.View(key, func(b []byte) { out = append([]byte(nil), b...) })
	return out, ok
}

func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(400, 1) // one shard: deterministic LRU
	for i := 0; i < 6; i++ {
		c.Put(BlockKey(0, int64(i)), append(make([]byte, 0, 100), byte(i)))
	}
	// 400 bytes of 100-byte buffers: keys 0 and 1 evicted.
	if _, ok := viewCopy(c, BlockKey(0, 0)); ok {
		t.Fatal("evicted key still cached")
	}
	if got, ok := viewCopy(c, BlockKey(0, 5)); !ok || got[0] != 5 {
		t.Fatalf("Get(5) = %v %v", got, ok)
	}
	hits, misses := c.HitsMisses()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	st := c.Stats()
	if len(st) != 1 || st[0].Blocks != 4 || c.Bytes() != 400 {
		t.Fatalf("Stats = %+v, %d bytes", st, c.Bytes())
	}
	// The budget is bytes, not blocks: one large block takes the room of
	// three small ones, and a block larger than the whole budget is still
	// kept, alone.
	c.Put(BlockKey(0, 6), make([]byte, 300))
	if st := c.Stats(); st[0].Blocks != 2 || c.Bytes() != 400 {
		t.Fatalf("after a 300-byte block: %+v, %d bytes", st, c.Bytes())
	}
	if _, ok := viewCopy(c, BlockKey(0, 5)); !ok {
		t.Fatal("the most recent small block was evicted before older ones")
	}
	c.Put(BlockKey(0, 7), make([]byte, 1000))
	if st := c.Stats(); st[0].Blocks != 1 || c.Bytes() != 1000 {
		t.Fatalf("after an oversized block: %+v, %d bytes", st, c.Bytes())
	}
}

func TestCacheDropSegment(t *testing.T) {
	c := NewCache(64<<10, 4)
	for seg := 0; seg < 3; seg++ {
		for off := int64(0); off < 5; off++ {
			c.Put(BlockKey(seg, off*100), []byte(fmt.Sprintf("%d/%d", seg, off)))
		}
	}
	c.DropSegment(1)
	for off := int64(0); off < 5; off++ {
		if _, ok := viewCopy(c, BlockKey(1, off*100)); ok {
			t.Fatalf("segment 1 block at %d survived DropSegment", off*100)
		}
		if _, ok := viewCopy(c, BlockKey(2, off*100)); !ok {
			t.Fatalf("segment 2 block at %d evicted by DropSegment(1)", off*100)
		}
	}
}

func TestCacheShardSpread(t *testing.T) {
	c := NewCache(1024, 8)
	for off := int64(0); off < 256; off++ {
		c.Put(BlockKey(0, off*4096), []byte("b"))
	}
	occupied := 0
	for _, st := range c.Stats() {
		if st.Blocks > 0 {
			occupied++
		}
	}
	if occupied < 4 {
		t.Fatalf("only %d of 8 shards occupied; shard hash not spreading", occupied)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1024, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := BlockKey(g%4, int64(i%64)*512)
				if b, ok := viewCopy(c, key); ok {
					if len(b) != 8 {
						t.Error("corrupt cached block")
						return
					}
				} else {
					c.Put(key, bytes.Repeat([]byte{byte(g)}, 8))
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.HitsMisses()
	if hits+misses != 8*2000 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*2000)
	}
}

func TestCacheRecyclesBuffers(t *testing.T) {
	c := NewCache(8<<10, 1)
	var poisoned [][]byte
	c.poison = func(b []byte) { poisoned = append(poisoned, b) }

	put := func(slot int, off int64, n int) []byte {
		key := BlockKey(slot, off)
		buf := c.Buffer(key, n)
		if len(buf) != n || cap(buf)%bufferQuantum != 0 {
			t.Fatalf("Buffer(%d) has length %d, capacity %d", n, len(buf), cap(buf))
		}
		c.Put(key, buf)
		return buf
	}
	a := put(0, 0, 1000)
	for off := int64(1); off < 8; off++ {
		put(0, off, 1000)
	}
	if r, f := c.Buffers(); r != 0 || f != 8 || c.Bytes() != 8<<10 {
		t.Fatalf("recycled/fresh = %d/%d, %d bytes resident, want 0/8 and the budget", r, f, c.Bytes())
	}
	c.Buffer(BlockKey(0, 99), 10) // nothing on the free list yet: fresh, and never Put
	put(0, 8, 1000)               // evicts block 0: its buffer enters the free list
	if len(poisoned) != 1 || &poisoned[0][0] != &a[0] {
		t.Fatalf("eviction did not hand block 0's buffer to the free list")
	}
	small := make([]byte, 300, 512)
	c.Put(BlockKey(1, 0), small) // evicts block 1
	if b := c.Buffer(BlockKey(0, 100), 900); &b[0] != &a[0] {
		t.Fatal("Buffer did not reuse the evicted block's buffer")
	}
	c.DropSegment(1) // two buffers are free now: block 1's and the small one
	// The smallest buffer that is large enough, whatever the order.
	if b := c.Buffer(BlockKey(0, 101), 400); &b[0] != &small[0] {
		t.Fatal("Buffer(400) did not take the 512-byte buffer that was free")
	}
	if b := c.Buffer(BlockKey(0, 102), 600); cap(b) != 1024 {
		t.Fatalf("Buffer(600) got a buffer of capacity %d", cap(b))
	}
	if r, f := c.Buffers(); r != 3 || f != 10 {
		t.Fatalf("recycled/fresh = %d/%d, want 3/10", r, f)
	}
	put(0, 9, 1000) // evicts block 2: something is free again
	// A block costs its buffer's capacity, so a free buffer is not taken for
	// a block that would leave more than half of it empty.
	if b := c.Buffer(BlockKey(0, 103), 100); cap(b) != bufferQuantum {
		t.Fatalf("Buffer(100) got a buffer of capacity %d while a 1024-byte one was free", cap(b))
	}
	// A request no free buffer can hold is a fresh one, and the free ones stay.
	free := len(c.shards[0].free)
	big := c.Buffer(BlockKey(0, 4), 100000)
	if len(big) != 100000 || cap(big)%bufferQuantum != 0 || len(c.shards[0].free) != free {
		t.Fatalf("fresh buffer len %d cap %d, free list %d -> %d", len(big), cap(big), free, len(c.shards[0].free))
	}
	// Replacing a key and dropping a segment both recycle.
	n, resident := len(poisoned), c.Stats()[0].Blocks
	c.Put(BlockKey(0, 3), big)
	c.DropSegment(0)
	if len(poisoned) != n+1+resident || c.Bytes() != 0 {
		t.Fatalf("replace + DropSegment of %d blocks recycled %d buffers, %d bytes still resident", resident, len(poisoned)-n, c.Bytes())
	}
	// The free list is bounded by its share of the budget.
	if got := c.shards[0].freeBytes; got == 0 || got > 8<<10/freeShare {
		t.Fatalf("free list holds %d bytes, budget %d", got, 8<<10)
	}
}

// TestCacheLendsOnlyUnderLock is the ownership rule under the race detector:
// readers checksum lent bytes inside the View callback while writers Put,
// evict and DropSegment, and every buffer entering a free list is overwritten
// on the spot. A reader that could still see a recycled buffer fails its
// checksum (and the detector sees the write).
func TestCacheLendsOnlyUnderLock(t *testing.T) {
	const blockLen = 512
	c := NewCache(8*blockLen, 2)
	c.poison = func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}
	fill := func(buf []byte, key uint64) {
		for i := range buf {
			buf[i] = byte(key) + byte(i)
		}
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; !stop.Load(); i++ {
				key := BlockKey(i%3, int64((i*7+w)%40)*4096)
				buf := c.Buffer(key, blockLen)
				fill(buf, key)
				c.Put(key, buf)
				if i%50 == 49 {
					c.DropSegment(i % 3)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				key := BlockKey(i%3, int64((i*3+r)%40)*4096)
				c.View(key, func(b []byte) {
					if len(b) != blockLen {
						t.Errorf("lent block has length %d", len(b))
						return
					}
					for j, v := range b {
						if v != byte(key)+byte(j) {
							t.Errorf("lent block of key %#x is corrupt at %d: %#x", key, j, v)
							return
						}
					}
				})
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if hits, _ := c.HitsMisses(); hits == 0 {
		t.Fatal("no reader ever hit a cached block; the test exercised nothing")
	}
}
