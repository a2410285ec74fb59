package dedupcache

import (
	"math/rand"
	"sync"
	"testing"

	"dbdedup/internal/delta"
)

// TestSourceCacheConcurrentChurn hammers every SourceCache method from many
// goroutines over an *overlapping* key range with constant eviction pressure
// (the plain TestSourceCacheConcurrent uses disjoint keys). The cache's
// internal mutex is a leaf lock in the engine's hierarchy; under -race this
// verifies the whole API really is self-synchronising when encode paths call
// it concurrently from different database locks.
func TestSourceCacheConcurrentChurn(t *testing.T) {
	const (
		workers = 6
		ops     = 2000
		keys    = 128
	)
	c := NewSourceCache(64 << 10) // small: force constant eviction

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 1024)
			rng.Read(buf)
			for i := 0; i < ops; i++ {
				id := uint64(rng.Intn(keys))
				switch rng.Intn(6) {
				case 0:
					c.Put(id, buf[:512+rng.Intn(512)])
				case 1:
					c.Replace(id, uint64(rng.Intn(keys)), buf[:512], make(delta.Anchors, 8))
				case 2:
					c.Remove(id)
				case 3:
					if data, anchors, ok := c.GetAnchored(id); ok && (len(data) == 0 || len(anchors) != 0 && len(anchors) != 8) {
						t.Error("cached empty content or a torn anchor list")
						return
					}
				case 4:
					c.Contains(id)
				default:
					c.Len()
					c.Bytes()
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Bytes() > 64<<10 {
		t.Errorf("cache over capacity after concurrent churn: %d bytes", c.Bytes())
	}
	if c.Bytes() < 0 {
		t.Errorf("negative byte accounting: %d", c.Bytes())
	}
}

// TestWritebackCacheConcurrent drives Add/Invalidate/DrainBest/Stats
// concurrently. The node calls all of these without holding its own lock, so
// the cache must stay coherent purely on its internal mutex.
func TestWritebackCacheConcurrent(t *testing.T) {
	const (
		writers = 4
		ops     = 1500
		keys    = 64
	)
	c := NewWritebackCache(32 << 10)

	var wg sync.WaitGroup
	var drained sync.Map
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			payload := make([]byte, 256)
			rng.Read(payload)
			for i := 0; i < ops; i++ {
				id := uint64(rng.Intn(keys))
				switch rng.Intn(5) {
				case 0, 1:
					c.Add(Writeback{ID: id, Payload: payload, Saving: int64(rng.Intn(4096))})
				case 2:
					c.Invalidate(id)
				case 3:
					c.Stats()
				default:
					for _, wb := range c.DrainBest(4) {
						drained.Store(wb.ID, true)
						if len(wb.Payload) == 0 {
							t.Error("drained empty payload")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain the remainder; every entry must come out exactly once per resid.
	rest := c.DrainBest(c.Len())
	if c.Len() != 0 {
		t.Errorf("cache not empty after full drain: %d left", c.Len())
	}
	if c.Bytes() != 0 {
		t.Errorf("byte accounting nonzero after full drain: %d", c.Bytes())
	}
	seen := make(map[uint64]bool)
	for _, wb := range rest {
		if seen[wb.ID] {
			t.Errorf("record %d drained twice in one batch", wb.ID)
		}
		seen[wb.ID] = true
	}
}
