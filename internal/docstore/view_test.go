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
	s, want := sealedStore(t, Options{}, 64, 4096)
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
			if v.Form != rec.Form || v.BaseID != rec.BaseID || v.Hidden != rec.Hidden {
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

// TestPointReadInflatesOneBlock: a batch is sealed as blocks of a few frames
// each, and a point read loads, checks and inflates the one its frame is in,
// once: a neighbour frame is a hit, a frame of another block of the batch
// loads that block and leaves the first resident, and when every frame of the
// batch has been read every byte of it was inflated once. Frames of the
// segment's first block, which is large, are served from the dictionary that
// is its first bytes without a load, and only a frame that reaches past the
// dictionary loads that block. Damage to one block is the error of the reads
// that need that block, and of no other.
func TestPointReadInflatesOneBlock(t *testing.T) {
	const perBatch, payloadLen = 22, 1500 // 22 frames fill a 32 KiB batch; two fit in blockTarget
	s, want := sealedStore(t, Options{}, 2*perBatch, payloadLen)
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
	frameLen := func(id uint64) uint64 {
		return uint64(len(appendFrame(nil, Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: want[id]})))
	}
	blockLen := func(ids ...uint64) (n uint64) {
		for _, id := range ids {
			n += frameLen(id)
		}
		return n
	}
	step := func(what string, id uint64, decoded, hits, inflated uint64) {
		t.Helper()
		before := s.Stats()
		if err := view(id); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st := s.Stats()
		if st.BlocksDecoded-before.BlocksDecoded != decoded || st.CacheHits-before.CacheHits != hits ||
			st.CacheMisses-before.CacheMisses != decoded || st.PreadBlockReads-before.PreadBlockReads != decoded ||
			st.BlockBytesDecoded-before.BlockBytesDecoded != inflated {
			t.Fatalf("%s: %d decoded (%d misses, %d preads), %d hits, %d bytes inflated; want %d, %d, %d", what,
				st.BlocksDecoded-before.BlocksDecoded, st.CacheMisses-before.CacheMisses, st.PreadBlockReads-before.PreadBlockReads,
				st.CacheHits-before.CacheHits, st.BlockBytesDecoded-before.BlockBytesDecoded, decoded, hits, inflated)
		}
	}
	if st := s.Stats(); st.BlocksSealed != 1+11 || st.DictBytes != dictLen {
		t.Fatalf("two batches sealed as %d blocks, %d dictionary bytes resident; want the first whole, the second as 11, and %d",
			st.BlocksSealed, st.DictBytes, dictLen)
	}
	first := uint64(perBatch + 1) // the second batch: blocks of two frames
	step("first frame of a block not resident", first, 1, 0, blockLen(first, first+1))
	step("its neighbour", first+1, 0, 1, 0)
	step("a frame of the next block", first+2, 1, 0, blockLen(first+2, first+3))
	step("the first block again: still resident, not decoded further", first+1, 0, 1, 0)
	before := s.Stats()
	var batch uint64
	for id := first; id < first+perBatch; id++ {
		if err := view(id); err != nil {
			t.Fatal(err)
		}
		batch += frameLen(id)
	}
	if st := s.Stats(); st.BlocksDecoded != 11 || st.BlockBytesDecoded != batch {
		t.Fatalf("every frame of the batch read: %d blocks decoded (%d before the loop), %d of its %d bytes inflated",
			st.BlocksDecoded, before.BlocksDecoded, st.BlockBytesDecoded, batch)
	}
	if st := s.Stats(); st.CacheBytes == 0 || st.CacheBytes > st.CacheBudgetBytes || st.CacheBudgetBytes != 32<<10 {
		t.Fatalf("%d bytes resident of a budget of %d", st.CacheBytes, st.CacheBudgetBytes)
	}

	// The first block of the segment.
	step("a frame within the dictionary", 1, 0, 0, 0)
	step("the last one within it", perBatch-1, 0, 0, 0)
	var whole uint64
	for id := uint64(1); id <= perBatch; id++ {
		whole += frameLen(id)
	}
	step("the frame that reaches past it", perBatch, 1, 0, whole)

	// Flip a byte of the last block's image.
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
	s.cache.DropSegment(0)
	if err := view(2 * perBatch); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a read of the damaged block: %v, want the checksum error", err)
	}
	step("a block in front of the damage", first, 1, 0, blockLen(first, first+1))
	b[0] ^= 0x40
	if _, err := seg.file.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	step("after the damage is gone", 2*perBatch, 1, 0, blockLen(2*perBatch-1, 2*perBatch))
}

// TestWalksDecodeEachBlockOnce: replay and compaction walk a
// segment block by block in file order, each block decoded once into
// the walk's own buffer. The records are appended in an order that is not
// their ID order, as write-backs leave them, so a compaction that went by ID
// through a two-block cache would inflate a block per record; and two blocks
// of another segment that were resident before the pass are hits after it.
func TestWalksDecodeEachBlockOnce(t *testing.T) {
	opts := Options{Dir: "d", FS: faultfs.NewMemFS(), Compress: true, BlockSize: 512, SegmentSize: 8 << 10,
		CacheBlocks: 4}
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
	if st.BlocksDecoded != sealed.BlocksSealed || st.BlockBytesDecoded != uint64(sealed.BlockBytesIn) {
		t.Fatalf("replay of %d blocks (%d bytes): %d decoded, %d bytes inflated",
			sealed.BlocksSealed, sealed.BlockBytesIn, st.BlocksDecoded, st.BlockBytesDecoded)
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

	if n, err := s.Compact(); err != nil || n == 0 {
		t.Fatalf("Compact: %d, %v", n, err)
	}
	if !victim.retired {
		t.Fatal("compaction chose another victim than the first segment")
	}
	after := s.Stats()
	if after.BlocksDecoded-st.BlocksDecoded != blocks || after.BlockBytesDecoded-st.BlockBytesDecoded != raw {
		t.Fatalf("compaction of a %d-block, %d-byte segment: %d decoded, %d bytes inflated", blocks, raw,
			after.BlocksDecoded-st.BlocksDecoded, after.BlockBytesDecoded-st.BlockBytesDecoded)
	}
	viewResident()
	if now := s.Stats(); now.CacheHits-st.CacheHits != 2 || now.CacheMisses != st.CacheMisses || now.BlocksDecoded != after.BlocksDecoded {
		t.Fatalf("the pass evicted from a cache that held other segments' blocks: %d hits, %d misses, %d blocks decoded since",
			now.CacheHits-st.CacheHits, now.CacheMisses-st.CacheMisses, now.BlocksDecoded-after.BlocksDecoded)
	}
}

// TestConcurrentViewsNeverSeeRecycledBytes is the lending rule under the race
// detector. Every buffer that leaves the cache, a few blocks to a shard, is
// poisoned on the spot (segio's hook), while a writer appends, seals and
// compacts; each reader checks the payload inside its callback and once more
// at the callback's last statement. Bytes lent past the shard lock, or a
// buffer recycled under a callback still running, fail the check (and the
// detector sees the write). Three or four records share a block: readers 0
// and 1 walk the IDs in order one apart, so they want different frames of one
// block, both missing it and one putting back a copy the other's makes
// redundant, and readers 2 and 3 stride across the blocks and evict whatever
// the first two have resident.
func TestConcurrentViewsNeverSeeRecycledBytes(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Compress: true, BlockSize: 512, SegmentSize: 8 << 10,
		CacheBlocks: 16})
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
	if st := s.Stats(); st.BlockBuffersRecycled == 0 || st.PinnedReaders != 0 || st.BlocksDecoded == 0 {
		t.Fatalf("after the run: %+v", st)
	}
}

// TestCacheShardsFollowTheBudget: the block cache has one shard per eight
// blocks of its budget, between one and eight, which is what every store in
// use asked for when the count was a setting.
func TestCacheShardsFollowTheBudget(t *testing.T) {
	for _, c := range []struct{ blocks, shards int }{{64, 8}, {16, 2}, {4, 1}, {1, 1}} {
		s, err := Open(Options{CacheBlocks: c.blocks})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s.CacheShardStats()); got != c.shards {
			t.Errorf("%d cached blocks: %d shards, want %d", c.blocks, got, c.shards)
		}
		s.Close()
	}
}

// TestOneBlockCacheHoldsOneBlock: a store whose cache is one block keeps at
// most one block resident, however many blocks its reads load. Every shard
// keeps its newest block whatever its share of the budget, so a one-block
// budget split over eight shards held up to eight.
func TestOneBlockCacheHoldsOneBlock(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), BlockSize: 4 << 10, CacheBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records = 32
	for id := uint64(1); id <= records; id++ {
		// 3000 B: two frames pass the block target, so every block is one record.
		mustAppend(t, s, Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: bytes.Repeat([]byte{byte(id)}, 3000)})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= records; id++ {
		if _, ok, err := s.Get(id); err != nil || !ok {
			t.Fatal(id, ok, err)
		}
	}
	resident := 0
	for _, sh := range s.CacheShardStats() {
		resident += sh.Blocks
	}
	if st := s.Stats(); resident != 1 || st.PreadBlockReads < records/2 {
		t.Fatalf("%d blocks resident after %d loads, want 1", resident, st.PreadBlockReads)
	}
}
