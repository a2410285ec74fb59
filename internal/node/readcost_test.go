package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/workload"
)

// hopChain ingests revs revisions of one payloadLen-byte document into a node
// on dir with chainOrderOptions, applies every write-back and closes the
// node, so that old revisions are stored as hop-encoded deltas.
func hopChain(t testing.TB, dir string, revs, payloadLen int) [][]byte {
	opts := chainOrderOptions(dir)
	opts.SyncEncode, opts.DisableAutoFlush = true, true
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(58))
	content := make([][]byte, revs)
	rev := workload.RevisionText(rng, payloadLen)
	for i := range content {
		content[i] = rev
		if err := n.Insert("db", fmt.Sprintf("rev-%03d", i), rev); err != nil {
			t.Fatal(err)
		}
		rev = editText(rng, rev, 2)[:payloadLen]
	}
	n.FlushWritebacks(-1)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return content
}

// reopenChain opens dir again with a block cache of cacheBlocks: the source
// cache starts empty, so every walk runs down to a raw record.
func reopenChain(t testing.TB, dir string, cacheBlocks int) *Node {
	opts := chainOrderOptions(dir)
	opts.SyncEncode, opts.DisableAutoFlush, opts.CacheBlocks = true, true, cacheBlocks
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// keysByHops reads every revision once and returns, for each of ks, the
// first revision whose read takes exactly that many decode steps.
func keysByHops(t testing.TB, n *Node, content [][]byte, ks []int) map[int]int {
	found := make(map[int]int)
	for i := range content {
		steps := n.Stats().DecodeSteps
		got, err := n.Read("db", fmt.Sprintf("rev-%03d", i))
		if err != nil || !bytes.Equal(got, content[i]) {
			t.Fatalf("Read(rev-%03d): err %v", i, err)
		}
		k := int(n.Stats().DecodeSteps - steps)
		if _, ok := found[k]; !ok {
			found[k] = i
		}
	}
	for _, k := range ks {
		if _, ok := found[k]; !ok {
			t.Fatalf("no revision is read through %d hops", k)
		}
	}
	return found
}

// TestOldRevisionReadCost pins what a read of an old revision costs on the
// benchmark's node, the count ROADMAP item 14(d) asks for. Through k = 1, 4
// and 16 hops, from a cold one-block cache: the blocks it loads, and the
// bytes the walk writes, which are the content once (applying the hops one
// by one wrote it k + 1 times: the base's copy and every hop's output). And a
// chain-ordered full flush loads at most 1.2 blocks per applied write-back.
func TestOldRevisionReadCost(t *testing.T) {
	const payloadLen = 4096
	dir := t.TempDir()
	content := hopChain(t, dir, 200, payloadLen)
	n := reopenChain(t, dir, 1)
	ks := []int{1, 4, 16}
	keys := keysByHops(t, n, content, ks)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// The blocks each read loads, measured on this chain: its deltas are a
	// few hundred bytes each, so a walk's hops share their blocks.
	wantLoads := map[int]uint64{1: 2, 4: 2, 16: 7}
	for _, k := range ks {
		n := reopenChain(t, dir, 1)
		i := keys[k]
		before, wrote := n.Stats(), n.walkBytes.Load()
		got, err := n.Read("db", fmt.Sprintf("rev-%03d", i))
		if err != nil || !bytes.Equal(got, content[i]) {
			t.Fatalf("k=%d: Read(rev-%03d): err %v", k, i, err)
		}
		after := n.Stats()
		loads := after.Store.PreadBlockReads - before.Store.PreadBlockReads
		written := n.walkBytes.Load() - wrote
		t.Logf("k=%d (rev-%03d): %d block loads, %d bytes written for %d of content", k, i, loads, written, len(got))
		if steps := after.DecodeSteps - before.DecodeSteps; steps != uint64(k) {
			t.Fatalf("k=%d: the read took %d decode steps", k, steps)
		}
		if written != uint64(len(got)) {
			t.Errorf("k=%d: the walk wrote %d bytes for %d of content; want the content once", k, written, len(got))
		}
		if loads > wantLoads[k] {
			t.Errorf("k=%d: the read loaded %d blocks, want at most %d", k, loads, wantLoads[k])
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if testing.Short() {
		return
	}
	var loads, applied uint64
	for _, kind := range familyKinds {
		n := testNode(t, chainOrderOptions(t.TempDir()))
		for _, op := range familyRecords(kind) {
			if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
				t.Fatal(err)
			}
		}
		before := n.Stats()
		got := uint64(n.FlushWritebacks(-1))
		l := n.Stats().Store.PreadBlockReads - before.Store.PreadBlockReads
		t.Logf("%v: %d write-backs applied with %d block loads (%.3f each)", kind, got, l, float64(l)/float64(got))
		loads, applied = loads+l, applied+got
	}
	per := float64(loads) / float64(applied)
	t.Logf("all families: %.3f block loads per applied write-back", per)
	if per > 1.2 {
		t.Errorf("a chain-ordered flush loads %.3f blocks per applied write-back, want at most 1.2", per)
	}
}

// TestOldRevisionReadLeavesSourceCacheOrder: a read whose walk ends at a
// chain head the source cache holds takes the head from the cache, and
// leaves the cache's recency order and counters as it found them. The walk
// used to take it with Get, which moved the head to the front: the filler
// below then evicted the other chain's head instead.
func TestOldRevisionReadLeavesSourceCacheOrder(t *testing.T) {
	n := testNode(t, Options{BlockCompression: true, Engine: core.Config{Scheme: chain.Backward}})
	rng := rand.New(rand.NewSource(57))
	x0 := workload.RevisionText(rng, 2048)
	x1 := editText(rng, x0, 2)[:2048]
	y0 := workload.RevisionText(rng, 2048)
	y1 := editText(rng, y0, 2)[:2048]
	for _, r := range []struct {
		key     string
		payload []byte
	}{{"x0", x0}, {"x1", x1}, {"y0", y0}, {"y1", y1}} {
		if err := n.Insert("db", r.key, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if n.FlushWritebacks(-1) != 2 {
		t.Fatal("the test wants x0 and y0 stored as deltas on x1 and y1")
	}
	cache := n.Engine().SourceCache()
	idX1, _ := n.lookup("db", "x1")
	idY1, _ := n.lookup("db", "y1")
	if cache.Len() != 2 || !cache.Contains(idX1) || !cache.Contains(idY1) {
		t.Fatalf("the source cache holds %d records; the test wants the two heads", cache.Len())
	}
	hits, misses := cache.Stats()
	steps := n.Stats().DecodeSteps
	if got, err := n.Read("db", "x0"); err != nil || !bytes.Equal(got, x0) {
		t.Fatalf("Read(x0): err %v", err)
	}
	if n.Stats().DecodeSteps != steps {
		t.Fatal("the walk of x0 went past its cached head")
	}
	if h, m := cache.Stats(); h != hits || m != misses {
		t.Errorf("the read moved the source cache's counters: %d/%d -> %d/%d", hits, misses, h, m)
	}
	// x1 went in first, so it is the least recent: one byte over the budget
	// evicts it and only it.
	cache.Put(1<<40, make([]byte, dedupcache.DefaultSourceCacheBytes-cache.Bytes()+1))
	if cache.Contains(idX1) || !cache.Contains(idY1) {
		t.Errorf("after the read, eviction took x1: %v, y1: %v; want x1, the older head, alone",
			!cache.Contains(idX1), !cache.Contains(idY1))
	}
}

// TestFoldedWalksRaceRewrites: readers fold hop-encoded walks of up to dozens
// of hops while write-backs re-encode the chains, deletes hide records that
// readers then repair, and compaction moves the records between segments.
// Every read returns its revision's bytes.
func TestFoldedWalksRaceRewrites(t *testing.T) {
	n, err := Open(Options{Dir: t.TempDir(), BlockCompression: true, BlockSize: 8 << 10, SegmentSize: 64 << 10,
		CacheBlocks: 4, DisableAutoFlush: true, EncodeWorkers: 2,
		Engine: core.Config{GovernorWindow: 1 << 30, ChunkAvgSize: 64, Scheme: chain.Hop, HopDistance: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const revs = 160
	rng := rand.New(rand.NewSource(58))
	content := make([][]byte, revs)
	rev := workload.RevisionText(rng, 2048)
	for i := range content {
		content[i] = rev
		rev = editText(rng, rev, 2)[:2048]
	}
	key := func(i int) string { return fmt.Sprintf("rev-%03d", i) }
	deleted := func(i int) bool { return i%13 == 6 }
	var written atomic.Int64 // revisions [0, written) are readable
	var stop atomic.Bool
	var bg, readers sync.WaitGroup
	bg.Add(3)
	go func() { // writer, then the deletes once every revision has successors
		defer bg.Done()
		for i := range content {
			if err := n.Insert("db", key(i), content[i]); err != nil {
				t.Error(err)
				return
			}
			written.Store(int64(i + 1))
		}
		for i := range content {
			if deleted(i) {
				if err := n.Delete("db", key(i)); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	go func() { // write-backs
		defer bg.Done()
		for !stop.Load() {
			n.FlushWritebacks(8)
			runtime.Gosched()
		}
	}()
	go func() { // compaction
		defer bg.Done()
		for !stop.Load() {
			if _, err := n.Compact(); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for reads := 0; reads < 3000 || written.Load() < revs; reads++ {
				w := int(written.Load())
				if w == 0 {
					runtime.Gosched()
					continue
				}
				i := r.Intn(w)
				if deleted(i) {
					continue
				}
				if got, err := n.Read("db", key(i)); err != nil || !bytes.Equal(got, content[i]) {
					t.Errorf("Read(%s) while its chain was being rewritten: err %v, %d bytes", key(i), err, len(got))
					return
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	bg.Wait()
	n.Barrier()
	n.FlushWritebacks(-1)
	for i := range content {
		if !deleted(i) {
			if got, err := n.Read("db", key(i)); err != nil || !bytes.Equal(got, content[i]) {
				t.Fatalf("Read(%s) after the run: err %v", key(i), err)
			}
		}
	}
	st := n.Stats()
	t.Logf("%d write-backs applied, %d hidden records repaired, %d compaction passes, %d decode steps",
		st.WritebacksApplied, st.HiddenRepaired, n.CompactionMetrics().Passes.Total(), st.DecodeSteps)
	if st.WritebacksApplied == 0 {
		t.Fatal("the run applied no write-back")
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll after the run: %v", rep.Errors)
	}
}

// BenchmarkReadOldRevision reads a revision k = 1, 4 and 16 hops from its
// chain's raw record, with the chain's blocks in the block cache (warm) and
// from a one-block cache, each read a walk from the store.
func BenchmarkReadOldRevision(b *testing.B) {
	dir := b.TempDir()
	content := hopChain(b, dir, 200, 4096)
	for _, cache := range []struct {
		name   string
		blocks int
	}{{"warm", 0}, {"one-block", 1}} {
		n := reopenChain(b, dir, cache.blocks)
		keys := keysByHops(b, n, content, []int{1, 4, 16})
		for _, k := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", cache.name, k), func(b *testing.B) {
				key := fmt.Sprintf("rev-%03d", keys[k])
				b.SetBytes(int64(len(content[keys[k]])))
				var dst []byte
				for i := 0; i < b.N; i++ {
					var err error
					if dst, err = n.AppendRead(dst[:0], "db", key); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if err := n.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
