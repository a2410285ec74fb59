package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sealedStore writes n compressible records of payloadLen bytes into a
// file-backed, compressed store whose cache holds one block per shard, and
// seals every record.
func sealedStore(t testing.TB, opts Options, n, payloadLen int) (*Store, map[uint64][]byte) {
	t.Helper()
	opts.Dir = t.TempDir()
	opts.Compress = true
	opts.CacheBlocks = 1
	opts.SegmentSize = 256 << 10
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	want := make(map[uint64][]byte)
	for id := uint64(1); id <= uint64(n); id++ {
		p := bytes.Repeat([]byte(fmt.Sprintf("record %06d | ", id)), payloadLen/16+1)[:payloadLen]
		if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: p}); err != nil {
			t.Fatal(err)
		}
		want[id] = p
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, want
}

// TestGetReturnsDetachedPayload: what Get returns is the caller's. Writing
// into it must not reach the cached block (it did when payloads were parsed
// out of the cache in place), and evicting and recycling that block must not
// reach it.
func TestGetReturnsDetachedPayload(t *testing.T) {
	s, want := sealedStore(t, Options{}, 64, 4096)
	first, ok, err := s.Get(1)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	for i := range first.Payload {
		first.Payload[i] = 0xAA
	}
	again, _, err := s.Get(1) // a hit on the block the first Get cached
	if err != nil || !bytes.Equal(again.Payload, want[1]) {
		t.Fatalf("a caller's write reached the cached block (err %v)", err)
	}
	held, _, _ := s.Get(2)
	for id := uint64(1); id <= 64; id++ { // one-block cache: every block is evicted and its buffer reused
		rec, _, err := s.Get(id)
		if err != nil || !bytes.Equal(rec.Payload, want[id]) {
			t.Fatalf("Get(%d) wrong after buffer reuse (err %v)", id, err)
		}
	}
	if !bytes.Equal(held.Payload, want[2]) {
		t.Fatal("a payload held across evictions changed: it aliased a recycled block buffer")
	}
	if st := s.Stats(); st.BlockBuffersRecycled == 0 {
		t.Fatalf("no block buffer was recycled: %+v", st)
	}
}

// TestColdGetAllocBudget: in steady state a cache miss allocates the record
// it returns and nothing that scales with the block: no decoded block, no
// compressed image. Nor does the load allocate anything of its own: a cold
// Get makes at most three allocations, the payload and the cache's entry and
// list element for the block it loaded.
func TestColdGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the scratch buffer is reallocated")
	}
	const payloadLen = 4096 // a size class of its own, so bytes allocated = bytes asked for
	// Over the OS filesystem, where sealed segments are real files.
	t.Run("os", func(t *testing.T) {
		s, _ := sealedStore(t, Options{}, 512, payloadLen)
		if st := s.Stats(); st.LiveSegments != 1 || st.BlocksSealed != 1+504 {
			t.Fatalf("%d segments, %d blocks: want one, its first batch of 8 records whole and a block per record behind it",
				st.LiveSegments, st.BlocksSealed)
		}
		// Records 1 to 8 are the segment's first block, which reads do
		// not load; every other record is a block of its own, and the
		// one-block budget (32 KiB) holds seven of them.
		next := uint64(9)
		get := func() {
			if _, ok, err := s.Get(next); err != nil || !ok {
				t.Fatal(ok, err)
			}
			next = 9 + (next-9+11)%504 // a block long since evicted, every time
		}
		for i := 0; i < 64; i++ { // warm up: free list and scratch find their sizes
			get()
		}
		missesBefore := s.Stats().CacheMisses
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		if misses := s.Stats().CacheMisses - missesBefore; misses != runs {
			t.Fatalf("%d of %d Gets missed the cache; the test must measure misses only", misses, runs)
		}
		perGet := (after.TotalAlloc - before.TotalAlloc) / runs
		if perGet > payloadLen+512 {
			t.Fatalf("a cold Get allocates %d B for a %d B payload, budget %d B", perGet, payloadLen, payloadLen+512)
		}
		if allocs := testing.AllocsPerRun(runs, get); allocs > 3 {
			t.Fatalf("a cold Get makes %.0f allocations, want at most 3: the payload, the cache entry and its list element", allocs)
		}
	})
}

// TestCorruptBlockHeaderIsAnError damages a sealed block's lengths in place
// and keeps its checksum honest, so the lengths are all that stands between a
// flipped bit and an allocation of whatever the header claims (or, before the
// decoder checked its own header, a makeslice panic).
func TestCorruptBlockHeaderIsAnError(t *testing.T) {
	corruptions := map[string]func(block []byte){
		"decoder header claims 2^63": func(b []byte) {
			copy(b[blockHeaderSize:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		},
		"rawLen flipped":    func(b []byte) { b[4+3] ^= 0x40 },
		"storedLen flipped": func(b []byte) { b[8+3] ^= 0x40 },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			// Small segments, so the first one is sealed and rolled, and
			// nothing of it is cached after the reopen.
			opts := Options{Dir: t.TempDir(), Compress: true, BlockSize: 4 << 10, SegmentSize: 6 << 10,
				CacheBlocks: 1}
			dir := opts.Dir
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			fillSegments(t, s, 400)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.Stats(); st.LiveSegments < 2 {
				t.Fatalf("only %d segments; the damaged block must sit in a rolled one", st.LiveSegments)
			}
			// Damage the second block of the first segment (a read of the
			// first is served from the dictionary) behind the store's back,
			// after replay verified it.
			name := filepath.Join(dir, "seg-000000.log")
			file, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			spans := blockSpans(file)
			if len(spans) < 2 || file[spans[1].off+16] != flagCompressed|flagDict {
				t.Fatalf("%d blocks in the first segment; the second must be compressed behind the dictionary", len(spans))
			}
			at := spans[1].off
			var victim uint64
			for _, id := range s.recs.ids() {
				if e, _ := s.recs.get(id); e.seg == 0 && e.off == at {
					victim = id
				}
			}
			data := file[at:]
			storedLen := binary.LittleEndian.Uint32(data[8:])
			corrupt(data)
			// Keep the checksum honest: the lengths, not the CRC, are under
			// test.
			binary.LittleEndian.PutUint32(data[12:], crc32.ChecksumIEEE(data[blockHeaderSize:blockHeaderSize+storedLen]))
			f, err := os.OpenFile(name, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data[:blockHeaderSize+16], at); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if _, ok, err := s.Get(victim); err == nil {
				t.Fatalf("Get of record %d in the damaged block succeeded (found %v)", victim, ok)
			}
			if _, ok, err := s.Get(1); err != nil || !ok {
				t.Fatalf("Get of a record in the block before it: ok %v, err %v", ok, err)
			}
			if _, ok, err := s.Get(400); err != nil || !ok {
				t.Fatalf("Get of an undamaged record: ok %v, err %v", ok, err)
			}
		})
	}
}

// TestConcurrentGetsNeverSeeRecycledBytes is the ownership rule under the
// race detector: with a few blocks to a cache shard every miss recycles a
// buffer some other reader's block just left, while a writer appends, seals
// and compacts. Each reader holds one payload across its next Get before
// checking it, so a payload that aliased a cache buffer would be overwritten
// (and the detector would see the write).
func TestConcurrentGetsNeverSeeRecycledBytes(t *testing.T) {
	dir := t.TempDir()
	// AppendDelay holds each compaction move between the walk reading the
	// frame and the store moving it, so the move races the writer's overwrites.
	s, err := Open(Options{Dir: dir, Compress: true, BlockSize: 512, SegmentSize: 8 << 10,
		CacheBlocks: 16, AppendDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
			n, err := s.Compact()
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
			var heldID uint64
			var held []byte
			for i := 0; i < 6000 || compactions.Load() == 0 && i < 200000; i++ {
				id := uint64(1 + (i*5+g*7)%ids)
				rec, ok, err := s.Get(id)
				if err != nil || !ok || rec.ID != id {
					t.Errorf("Get(%d) = id %d, ok %v, err %v", id, rec.ID, ok, err)
					return
				}
				if held != nil && !valid(heldID, held) {
					t.Errorf("payload of record %d changed while held across a Get: %.40q", heldID, held)
					return
				}
				heldID, held = id, rec.Payload
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if compactions.Load() == 0 {
		t.Fatal("no compaction retired a segment; the test did not cover DropSegment")
	}
	if st := s.Stats(); st.BlockBuffersRecycled == 0 || st.PinnedReaders != 0 {
		t.Fatalf("after the run: %+v", st)
	}
}
