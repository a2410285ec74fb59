package docstore

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestViewLendsWhatGetCopies: View shows the same form and bytes as Get for a
// record in the unsealed block, in a cached block and in a block it has to
// load, reports a missing record as missing, and costs a cached record no
// allocation at all.
func TestViewLendsWhatGetCopies(t *testing.T) {
	s, want := sealedStore(t, Options{CacheShards: 1}, 64, 4096)
	pending := Record{ID: 1000, DB: "db", Key: "p", Form: FormDelta, BaseID: 7, Stacked: true, Payload: []byte("still in the unsealed block")}
	if err := s.Append(pending); err != nil {
		t.Fatal(err)
	}
	want[pending.ID] = pending.Payload
	for _, id := range []uint64{1, 1, 64, 1, 1000} { // miss, hit, miss, miss, pending
		rec, ok, err := s.Get(id)
		if err != nil || !ok {
			t.Fatal(id, ok, err)
		}
		calls := 0
		ok, err = s.View(id, func(v Stored) {
			calls++
			if v.Form != rec.Form || v.BaseID != rec.BaseID || v.Stacked != rec.Stacked || v.Hidden != rec.Hidden {
				t.Errorf("View(%d) shows %+v, Get returned form %d base %d", id, v, rec.Form, rec.BaseID)
			}
			if !bytes.Equal(v.Payload, want[id]) {
				t.Errorf("View(%d) lent %d bytes that are not the record's", id, len(v.Payload))
			}
		})
		if err != nil || !ok || calls != 1 {
			t.Fatalf("View(%d): ok %v, err %v, %d calls", id, ok, err, calls)
		}
	}
	if ok, err := s.View(4242, func(Stored) { t.Error("callback for a missing record") }); ok || err != nil {
		t.Fatalf("View of a missing record: ok %v, err %v", ok, err)
	}
	if raceEnabled {
		return
	}
	s.View(1, func(Stored) {}) // cache its block
	var n int
	if avg := testing.AllocsPerRun(100, func() { s.View(1, func(v Stored) { n += len(v.Payload) }) }); avg != 0 {
		t.Errorf("View of a cached record allocates %.1f times", avg)
	}
}

// TestConcurrentViewsNeverSeeRecycledBytes is the lending rule under the race
// detector. Every buffer that leaves the one-block-per-shard cache is
// poisoned on the spot (segio's hook), while a writer appends, seals and
// compacts; each reader checks the payload inside its callback and once more
// at the callback's last statement. Bytes lent past the shard lock, or a
// buffer recycled under a callback still running, fail the check (and the
// detector sees the write).
func TestConcurrentViewsNeverSeeRecycledBytes(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Compress: true, BlockSize: 512, SegmentSize: 8 << 10,
		CacheBlocks: 1, CacheShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cache.PoisonFreed(func(b []byte) {
		for i := range b {
			b[i] = 0xDB
		}
	})
	const ids = 96
	payload := func(id uint64, ver int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("<%d:%d>", id, ver)), 20)
	}
	valid := func(id uint64, p []byte) bool {
		var gotID uint64
		var ver int
		if _, err := fmt.Sscanf(string(p), "<%d:%d>", &gotID, &ver); err != nil || gotID != id {
			return false
		}
		return bytes.Equal(p, payload(id, ver))
	}
	for id := uint64(1); id <= ids; id++ {
		if err := s.Append(Record{ID: id, DB: "db", Key: "k", Payload: payload(id, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var compactions atomic.Int64
	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for ver := 1; !stop.Load(); ver++ {
			for id := uint64(1); id <= ids; id += 3 {
				if err := s.Append(Record{ID: id, DB: "db", Key: "k", Payload: payload(id, ver)}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for !stop.Load() {
			n, err := s.CompactWith(nil)
			if err != nil {
				t.Error(err)
				return
			}
			if n > 0 {
				compactions.Add(1)
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 6000 || compactions.Load() == 0 && i < 200000; i++ {
				id := uint64(1 + (i*5+g*7)%ids)
				ok, err := s.View(id, func(v Stored) {
					first := valid(id, v.Payload)
					runtime.Gosched() // let a recycler in, if anything lets it
					if !first || !valid(id, v.Payload) {
						t.Errorf("View(%d) lent bytes that are not the record's, or stopped being: %.40q", id, v.Payload)
					}
				})
				if err != nil || !ok {
					t.Errorf("View(%d): ok %v, err %v", id, ok, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if compactions.Load() == 0 {
		t.Fatal("no compaction retired a segment; the test did not cover DropSegment")
	}
	if st := s.Stats(); st.BlockBuffersRecycled == 0 || st.PinnedReaders != 0 || st.BlocksDecoded == 0 {
		t.Fatalf("after the run: %+v", st)
	}
}
