package docstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersDuringCompaction races lock-free readers against the
// full writer lifecycle: appends (which supersede and seal), explicit
// flushes, and compaction passes that retire and delete segments while reads
// are in flight. Segment sizes are tuned small so compaction fires many
// times and retirement regularly overlaps a pinned reader. Run under -race.
func TestConcurrentReadersDuringCompaction(t *testing.T) {
	for _, mode := range []string{"file", "mem"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{BlockSize: 256, SegmentSize: 4 << 10, CacheBlocks: 8}
			if mode == "file" {
				opts.Dir = t.TempDir()
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const ids = 64
			payload := func(id uint64, ver int) []byte {
				return []byte(fmt.Sprintf("id=%d ver=%d %s", id, ver, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
			}
			for id := uint64(1); id <= ids; id++ {
				if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: payload(id, 0)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}

			var (
				stop      atomic.Bool
				reclaimed atomic.Int64
				wg        sync.WaitGroup
			)

			// Writer: keep superseding every ID so segments accumulate dead
			// bytes, with periodic explicit flushes. It runs until the
			// compactor has retired at least one segment (with a generous
			// cap), so retirement always overlaps live readers regardless
			// of scheduling speed.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for ver := 1; ver <= 20 || (reclaimed.Load() == 0 && ver <= 5000); ver++ {
					for id := uint64(1); id <= ids; id++ {
						if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: payload(id, ver)}); err != nil {
							t.Error(err)
							return
						}
					}
					if ver%5 == 0 {
						if err := s.Flush(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()

			// Compactor: retire segments continuously while reads run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					n, err := s.Compact()
					if err != nil {
						t.Error(err)
						return
					}
					reclaimed.Add(n)
				}
			}()

			// Readers: every seeded ID must stay readable throughout — a
			// read that lands mid-retirement re-resolves, never fails.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						id := uint64(1 + (i*7+g)%ids)
						rec, ok, err := s.Get(id)
						if err != nil {
							t.Errorf("Get(%d): %v", id, err)
							return
						}
						if !ok {
							t.Errorf("Get(%d): record vanished", id)
							return
						}
						if rec.ID != id {
							t.Errorf("Get(%d) returned record %d", id, rec.ID)
							return
						}
						if i%200 == 0 {
							seen := 0
							s.Range(func(uint64, MetaInfo) bool { seen++; return true })
							if seen < ids {
								t.Errorf("Range saw %d records, want >= %d", seen, ids)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()

			if reclaimed.Load() == 0 {
				t.Fatal("no segment was ever retired; stress did not exercise the retirement path")
			}
			for id := uint64(1); id <= ids; id++ {
				if _, ok, err := s.Get(id); err != nil || !ok {
					t.Fatalf("post-stress Get(%d) = %v %v", id, ok, err)
				}
			}
			st := s.Stats()
			if st.PinnedReaders != 0 {
				t.Fatalf("PinnedReaders = %d after all readers stopped", st.PinnedReaders)
			}
			if st.RetiredPending != 0 {
				t.Fatalf("RetiredPending = %d after all readers stopped", st.RetiredPending)
			}
			if st.LiveRecords != ids {
				t.Fatalf("LiveRecords = %d, want %d", st.LiveRecords, ids)
			}
		})
	}
}

// BenchmarkConcurrentGet measures sealed-segment read throughput under
// RunParallel. The read path takes no store-wide lock, so ops/sec should
// scale with -cpu (cache hits only bump a per-shard LRU lock plus atomics).
func BenchmarkConcurrentGet(b *testing.B) {
	s, err := Open(Options{BlockSize: 8 << 10, CacheBlocks: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 1024
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for id := uint64(1); id <= n; id++ {
		if err := s.Append(Record{ID: id, DB: "bench", Key: fmt.Sprintf("k%d", id), Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			id := uint64(1 + (i*2654435761)%n)
			rec, ok, err := s.Get(id)
			if err != nil || !ok {
				b.Fatalf("Get(%d) = %v %v", id, ok, err)
			}
			if len(rec.Payload) != len(payload) {
				b.Fatal("short payload")
			}
		}
	})
}
