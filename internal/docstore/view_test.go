package docstore

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dbdedup/internal/faultfs"
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

// TestViewInflatesOnlyAsFarAsItsFrame: a point read decodes a compressed block
// up to the end of the frame it wants, a later read further into the resident
// block goes on from there, one that is already covered decodes nothing, and
// when the whole block has been asked for every byte of it was inflated once.
// On the pread path each of those loads reads the compressed image again and
// checks it again, so damage behind the first frame is found by the read that
// needs those bytes, and what was shown before stays readable.
func TestViewInflatesOnlyAsFarAsItsFrame(t *testing.T) {
	const n, payloadLen = 7, 4096 // one 32 KiB block
	s, want := sealedStore(t, Options{CacheShards: 1}, n, payloadLen)
	view := func(id uint64) error {
		t.Helper()
		ok, err := s.View(id, func(v Stored) {
			if !bytes.Equal(v.Payload, want[id]) {
				t.Errorf("View(%d) lent %d bytes that are not the record's", id, len(v.Payload))
			}
		})
		if err == nil && !ok {
			t.Fatalf("View(%d): missing", id)
		}
		return err
	}
	frameEnd := func(id uint64) uint64 {
		e, _ := s.recs.get(id)
		return uint64(e.frameEnd(id))
	}
	step := func(what string, id uint64, decoded, extended, hits uint64, atLeast uint64) {
		t.Helper()
		before := s.Stats()
		if err := view(id); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st := s.Stats()
		if st.BlocksDecoded-before.BlocksDecoded != decoded || st.BlocksExtended-before.BlocksExtended != extended ||
			st.CacheHits-before.CacheHits != hits {
			t.Fatalf("%s: %d decoded, %d extended, %d hits; want %d, %d, %d", what,
				st.BlocksDecoded-before.BlocksDecoded, st.BlocksExtended-before.BlocksExtended,
				st.CacheHits-before.CacheHits, decoded, extended, hits)
		}
		// The decode stops at the first tag boundary at or past the frame's
		// end; a tag of this text is a copy of at most 67 bytes.
		if got := st.BlockBytesDecoded; got < atLeast || got > atLeast+256 {
			t.Fatalf("%s: %d block bytes decoded so far, want the %d up to the frame's end", what, got, atLeast)
		}
	}
	step("first frame of a block not resident", 1, 1, 0, 0, frameEnd(1))
	step("a later frame of the resident block", 3, 0, 1, 0, frameEnd(3))
	step("a frame already covered", 2, 0, 0, 1, frameEnd(3))
	if st := s.Stats(); st.MmapBlockReads != 0 || st.PreadBlockReads != 2 {
		t.Fatalf("the active segment is read with pread, once per load: %+v", st)
	}

	// Flip a byte of the compressed image behind what has been decoded.
	seg := s.segments[0]
	var b [1]byte
	at := seg.size - 1
	if _, err := seg.file.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := seg.file.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	if err := view(n); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("resuming over a damaged image: %v, want the checksum error", err)
	}
	b[0] ^= 0x40
	if _, err := seg.file.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	// The failed resume dropped the block: the next read starts over.
	step("after the damage is gone", 2, 1, 0, 0, frameEnd(3)+frameEnd(2))
	if _, ok, err := s.Get(1); err != nil || !ok { // Get wants the block whole
		t.Fatal(ok, err)
	}
	st := s.Stats()
	if got, want := st.BlockBytesDecoded, frameEnd(3)+uint64(st.BlockBytesIn); got < want || got > want+256 {
		t.Fatalf("%d block bytes decoded, want %d: the %d-byte block once, beside the copy the failed resume dropped",
			got, want, st.BlockBytesIn)
	}
	step("any frame of a block resident in full", n, 0, 0, 1, st.BlockBytesDecoded)
}

// TestWholeBlockReadersDecodeEachBlockOnce: replay and compaction walk a
// segment block by block in file order, each block decoded once, whole, into
// the walk's own buffer. The records are appended in an order that is not
// their ID order, as write-backs leave them, so a compaction that went by ID
// through a two-block cache would inflate a block per record; and two blocks
// of another segment that were resident before the pass are hits after it.
func TestWholeBlockReadersDecodeEachBlockOnce(t *testing.T) {
	opts := Options{Dir: "d", FS: faultfs.NewMemFS(), Compress: true, BlockSize: 512, SegmentSize: 8 << 10,
		CacheBlocks: 2, CacheShards: 1}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const ids = 400
	idAt := func(i int) uint64 { return uint64(1 + i*37%ids) } // neighbours in ID order are blocks apart
	for i := 0; i < ids; i++ {
		mustAppend(t, s, sealRec(idAt(i), 0))
	}
	for i := 8; i <= ids/4; i += 8 { // dead bytes in the oldest segments, live records in every block
		mustAppend(t, s, sealRec(idAt(i), 1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := s.Stats()

	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.BlocksDecoded != sealed.BlocksSealed || st.BlocksExtended != 0 || st.BlockBytesDecoded != uint64(sealed.BlockBytesIn) {
		t.Fatalf("replay of %d blocks (%d bytes): %d decoded, %d extended, %d bytes inflated",
			sealed.BlocksSealed, sealed.BlockBytesIn, st.BlocksDecoded, st.BlocksExtended, st.BlockBytesDecoded)
	}
	if hits, misses := s.cache.HitsMisses(); hits+misses != 0 || st.BlockBuffersFresh != 0 {
		t.Fatalf("replay went through the block cache: %d hits, %d misses, %d buffers", hits, misses, st.BlockBuffersFresh)
	}

	// The victim is the first segment; count its blocks and their bytes.
	var blocks, raw uint64
	victim := s.segments[0]
	if _, err := s.walkBlocks(victim.rd, func(_ int64, block []byte) error {
		blocks++
		raw += uint64(len(block))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Fill the cache with two blocks of another segment.
	var resident []uint64
	var at [2]int64
	for i := ids - 1; len(resident) < 2; i-- {
		e, _ := s.recs.get(idAt(i))
		if e.seg == 0 {
			t.Fatal("every record is in the first segment")
		}
		if len(resident) == 0 || e.off != at[0] {
			at[len(resident)] = e.off
			resident = append(resident, idAt(i))
		}
	}
	viewResident := func() {
		for _, id := range resident {
			if ok, err := s.View(id, func(Stored) {}); err != nil || !ok {
				t.Fatalf("View(%d): %v, %v", id, ok, err)
			}
		}
	}
	viewResident()
	st = s.Stats()

	if n, err := s.CompactWith(nil); err != nil || n == 0 {
		t.Fatalf("CompactWith: %d, %v", n, err)
	}
	if !victim.retired {
		t.Fatal("compaction chose another victim than the first segment")
	}
	after := s.Stats()
	if after.BlocksDecoded-st.BlocksDecoded != blocks || after.BlocksExtended != 0 ||
		after.BlockBytesDecoded-st.BlockBytesDecoded != raw {
		t.Fatalf("compaction of a %d-block, %d-byte segment: %d decoded, %d extended, %d bytes inflated", blocks, raw,
			after.BlocksDecoded-st.BlocksDecoded, after.BlocksExtended, after.BlockBytesDecoded-st.BlockBytesDecoded)
	}
	viewResident()
	if now := s.Stats(); now.CacheHits-st.CacheHits != 2 || now.CacheMisses != st.CacheMisses || now.BlocksDecoded != after.BlocksDecoded {
		t.Fatalf("the pass evicted from a cache that held other segments' blocks: %d hits, %d misses, %d blocks decoded since",
			now.CacheHits-st.CacheHits, now.CacheMisses-st.CacheMisses, now.BlocksDecoded-after.BlocksDecoded)
	}
}

// TestConcurrentViewsNeverSeeRecycledBytes is the lending rule under the race
// detector. Every buffer that leaves the one-block-per-shard cache is
// poisoned on the spot (segio's hook), while a writer appends, seals and
// compacts; each reader checks the payload inside its callback and once more
// at the callback's last statement. Bytes lent past the shard lock, or a
// buffer recycled under a callback still running, fail the check (and the
// detector sees the write). Three or four records share a block and a View
// inflates it only as far as its own frame: readers 0 and 1 walk the IDs in
// order one apart, so they want different frames of one block, one taking the
// block out of the cache to decode further while the other misses it or puts
// its own copy back, and readers 2 and 3 stride across the blocks and evict
// whatever the first two have resident.
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
				if g < 2 {
					id = uint64(1 + (i+g)%ids)
				}
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
	if st := s.Stats(); st.BlockBuffersRecycled == 0 || st.PinnedReaders != 0 || st.BlocksDecoded == 0 || st.BlocksExtended == 0 {
		t.Fatalf("after the run: %+v", st)
	}
}
