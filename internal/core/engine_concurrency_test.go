package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dbdedup/internal/chain"
	"dbdedup/internal/delta"
	"dbdedup/internal/workload"
)

// syncFetcher is a concurrency-safe mapFetcher for stress tests: encodes for
// independent databases run in parallel, so the fetcher must tolerate
// concurrent reads while the driving goroutines register new contents.
type syncFetcher struct {
	mu       sync.Mutex
	contents map[uint64][]byte
}

func (f *syncFetcher) FetchDecoded(id uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.contents[id]
	if !ok {
		return nil, fmt.Errorf("no record %d", id)
	}
	return c, nil
}

func (f *syncFetcher) put(id uint64, content []byte) {
	f.mu.Lock()
	f.contents[id] = content
	f.mu.Unlock()
}

// TestConcurrentEncodeAcrossDatabases drives the engine from many goroutines
// at once — encoders on independent databases, replica-style ObserveRaw
// traffic, and readers hammering Stats/DBStats —
// and then checks the global counters and per-database results line up.
// Run under -race this exercises the sharded locking introduced with the
// parallel encode path: dbsMu for map resolution, per-dbState mutexes for
// partition state, atomics for global counters.
func TestConcurrentEncodeAcrossDatabases(t *testing.T) {
	const (
		encodeDBs  = 4  // databases with version-chain encode traffic
		observeDBs = 2  // databases fed via ObserveRaw (replica path)
		versions   = 60 // inserts per database
		readers    = 3  // goroutines polling stats concurrently
	)
	f := &syncFetcher{contents: make(map[uint64][]byte)}
	e := NewEngine(Config{
		Scheme:         chain.Hop,
		HopDistance:    4,
		GovernorWindow: 1 << 30,
	}, f)

	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers: exercise every snapshot accessor while encodes are running.
	// Each poll yields so single-core hosts still schedule the encoders.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				_ = e.Stats()
				for _, d := range e.DBStats() {
					_ = d.WindowRatio()
				}
			}
		}()
	}

	// Encoders: one goroutine per database, each building a version chain.
	// IDs are partitioned per database so chains never collide.
	dedupedPerDB := make([]int, encodeDBs)
	for d := 0; d < encodeDBs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + d)))
			db := fmt.Sprintf("db%d", d)
			content := workload.RevisionText(rng, 4096)
			base := uint64(d+1) << 32
			for v := 0; v < versions; v++ {
				id := base + uint64(v)
				f.put(id, content)
				res, err := e.Encode(db, id, content)
				if err != nil {
					t.Errorf("%s encode %d: %v", db, v, err)
					return
				}
				if res.Deduped {
					dedupedPerDB[d]++
					if res.SourceID>>32 != uint64(d+1) {
						t.Errorf("%s: source %#x from another database", db, res.SourceID)
						return
					}
				}
				content = workload.Revise(rng, content, 2, 50+rng.Intn(100))
			}
		}(d)
	}

	// Replica-style raw observers on separate databases.
	for o := 0; o < observeDBs; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + o)))
			db := fmt.Sprintf("raw%d", o)
			base := uint64(100+o) << 32
			for v := 0; v < versions; v++ {
				e.ObserveRaw(db, base+uint64(v), workload.RevisionText(rng, 1024), false)
			}
		}(o)
	}

	// Wait for the writers, then release the readers.
	wg.Wait()
	close(stop)
	readerWG.Wait()

	st := e.Stats()
	wantInserts := uint64((encodeDBs + observeDBs) * versions)
	if st.Inserts != wantInserts {
		t.Errorf("Inserts = %d, want %d", st.Inserts, wantInserts)
	}
	var totalDeduped int
	for d, n := range dedupedPerDB {
		if n < versions/2 {
			t.Errorf("db%d: only %d/%d versions deduped; chains broke under concurrency", d, n, versions)
		}
		totalDeduped += n
	}
	if st.Deduped != uint64(totalDeduped) {
		t.Errorf("Deduped = %d, want %d", st.Deduped, totalDeduped)
	}

	stats := e.DBStats()
	if len(stats) != encodeDBs+observeDBs {
		t.Fatalf("%d databases, want %d", len(stats), encodeDBs+observeDBs)
	}
	for _, d := range stats {
		if d.WindowInserts != versions {
			t.Errorf("%s: window inserts %d, want %d", d.Name, d.WindowInserts, versions)
		}
		if d.Disabled {
			t.Errorf("%s: governor fired with a huge window", d.Name)
		}
	}
}

// TestConcurrentSameDatabaseEncodesAreMemorySafe issues concurrent encodes
// against one database. The chain layout is then interleaving-dependent (the
// package comment says callers needing determinism must serialise per
// database), but the engine must stay memory-safe and every returned delta
// must still be well-formed — this is the property -race checks here.
func TestConcurrentSameDatabaseEncodesAreMemorySafe(t *testing.T) {
	const (
		workers  = 4
		versions = 40
	)
	f := &syncFetcher{contents: make(map[uint64][]byte)}
	e := NewEngine(Config{
		GovernorWindow: 1 << 30,
	}, f)

	rng := rand.New(rand.NewSource(42))
	seed := workload.RevisionText(rng, 4096)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			content := workload.Revise(rng, seed, 1, 50+rng.Intn(100))
			base := uint64(w+1) << 32
			for v := 0; v < versions; v++ {
				id := base + uint64(v)
				f.put(id, content)
				res, err := e.Encode("shared", id, content)
				if err != nil {
					t.Errorf("worker %d encode %d: %v", w, v, err)
					return
				}
				if res.Deduped && res.Forward.EncodedSize() <= 0 {
					t.Errorf("worker %d: deduped result with empty forward delta", w)
					return
				}
				content = workload.Revise(rng, content, 1, 50+rng.Intn(100))
			}
		}(w)
	}
	wg.Wait()

	if st := e.Stats(); st.Inserts != workers*versions {
		t.Errorf("Inserts = %d, want %d", st.Inserts, workers*versions)
	}
}

// TestConcurrentGovernorDisable races encodes against the governor verdict:
// incompressible traffic over a tiny window flips the database to disabled
// while other goroutines are mid-encode, exercising the disabled/index-freed
// recheck inside Encode's second lock section.
func TestConcurrentGovernorDisable(t *testing.T) {
	const workers = 4
	f := &syncFetcher{contents: make(map[uint64][]byte)}
	e := NewEngine(Config{
		GovernorWindow: 50,
	}, f)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w+1) << 32
			for v := 0; v < 100; v++ {
				payload := make([]byte, 512)
				rng.Read(payload)
				id := base + uint64(v)
				f.put(id, payload)
				if _, err := e.Encode("rand", id, payload); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if !dbStats(e, "rand").Disabled {
		t.Fatal("governor did not disable the incompressible database")
	}
	res, err := e.Encode("rand", 1<<40, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if !res.GovernorDisabled {
		t.Error("post-verdict insert not marked GovernorDisabled")
	}
}

// TestAnchorListsUnderConcurrentEncodes runs the source cache's anchor lists
// under contention: four goroutines extend revision chains, two of them in one
// database, while a reader peeks at chain heads as client reads do; the hop
// write-backs index new heads by their lists too. Every forward delta and
// every hop write-back's delta must be Compress's bytes for the same pair,
// and resident heads must carry lists.
func TestAnchorListsUnderConcurrentEncodes(t *testing.T) {
	const (
		writers  = 4
		versions = 40
	)
	f := &syncFetcher{contents: make(map[uint64][]byte)}
	e := NewEngine(Config{Scheme: chain.Hop, HopDistance: 4, GovernorWindow: 1 << 30}, f)
	cache := e.SourceCache()

	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := uint64(i%writers+1)<<32 | uint64(i%versions)
			if data, ok := cache.Peek(id); ok && len(data) == 0 {
				t.Error("peeked an empty head")
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			db := fmt.Sprintf("db%d", w/2*2) // writers 0 and 1 share a database, 2 and 3 too
			content := workload.RevisionText(rng, 4096)
			for v := 0; v < versions; v++ {
				id := uint64(w+1)<<32 | uint64(v)
				f.put(id, content)
				res, err := e.Encode(db, id, content)
				if err != nil {
					t.Errorf("%s encode %d: %v", db, v, err)
					return
				}
				if res.Deduped {
					src, _ := f.FetchDecoded(res.SourceID)
					if want := delta.Compress(src, content, delta.Options{}); !bytes.Equal(res.Forward.Marshal(), want.Marshal()) {
						t.Errorf("%s v%d: forward delta differs from Compress's", db, v)
						return
					}
					for _, wb := range res.Writebacks {
						if wb.ID == res.SourceID {
							continue // the backward delta, Reencode's
						}
						base, _ := f.FetchDecoded(wb.ID)
						if want := delta.Compress(content, base, delta.Options{}); !bytes.Equal(wb.Delta.Marshal(), want.Marshal()) {
							t.Errorf("%s v%d: write-back of %#x differs from Compress's", db, v, wb.ID)
							return
						}
					}
				}
				content = workload.Revise(rng, content, 2, 50+rng.Intn(100))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	listed := 0
	for w := 0; w < writers; w++ {
		for v := 0; v < versions; v++ {
			if _, anchors, ok := cache.GetAnchored(uint64(w+1)<<32 | uint64(v)); ok && anchors != nil {
				listed++
			}
		}
	}
	if listed == 0 {
		t.Error("no resident head carries an anchor list")
	}
}
