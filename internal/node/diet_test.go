package node

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/docstore"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

// TestInsertAllocBudget keeps the allocation diet from regressing silently:
// an insert allocates its one defensive payload copy plus what the encoder
// needs, not a copy per layer. On payloads that share nothing the budget is
// 2x the payload + 1 KiB. On a revision chain the encoder's own per-insert
// tables come on top (delta offset table ~2.3 KB, index probe maps ~1.7 KB,
// the deltas themselves), none of them a payload copy, so the budget there
// is 3x + 1 KiB: one reintroduced 4 KiB copy still trips it.
func TestInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const payloadLen = 4096
	rng := rand.New(rand.NewSource(19))
	unique := func() []byte {
		p := make([]byte, payloadLen)
		rng.Read(p)
		return p
	}
	rev := workload.RevisionText(rng, payloadLen)
	revision := func() []byte {
		rev = editText(rng, rev, 2)[:payloadLen]
		return rev
	}
	cases := []struct {
		name   string
		next   func() []byte
		budget uint64
	}{
		{"unique", unique, 2*payloadLen + 1024},
		{"revisions", revision, 3*payloadLen + 1024},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true})
			const warm, runs = 400, 400
			payloads := make([][]byte, warm+runs)
			keys := make([]string, len(payloads))
			for i := range payloads {
				payloads[i] = c.next()
				keys[i] = fmt.Sprintf("key-%05d", i)
			}
			insert := func(i int) {
				if err := n.Insert("db", keys[i], payloads[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warm; i++ {
				insert(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+runs; i++ {
				insert(i)
			}
			runtime.ReadMemStats(&after)
			perInsert := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d B in %d objects per %d B insert", perInsert, (after.Mallocs-before.Mallocs)/runs, payloadLen)
			if perInsert > c.budget {
				t.Fatalf("an insert of %d B allocates %d B, budget %d B", payloadLen, perInsert, c.budget)
			}
		})
	}
}

// TestReplicatedInsertAllocBudget: a raw insert arriving over the wire is
// copied once, by oplog.Unmarshal detaching it from the frame buffer, and the
// node keeps that copy: the stored record's pending copy, the encoder's input
// and the source cache's entry are all it. The budget for parse + apply is the
// payload + 1 KiB; the second copy applyReplicatedInsert used to make trips it.
func TestReplicatedInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const payloadLen = 4096
	const warm, runs = 400, 400
	rng := rand.New(rand.NewSource(21))
	wire := make([][]byte, warm+runs)
	for i := range wire {
		p := make([]byte, payloadLen)
		rng.Read(p)
		wire[i] = oplog.Entry{Seq: uint64(i + 1), Op: oplog.OpInsert, DB: "db",
			Key: fmt.Sprintf("key-%05d", i), Form: oplog.FormRaw, Payload: p}.Marshal()
	}
	n := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true})
	apply := func(i int) {
		e, _, err := oplog.Unmarshal(wire[i])
		if err == nil {
			err = n.ApplyReplicated(e)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		apply(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+runs; i++ {
		apply(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B in %d objects per replicated %d B insert", per, (after.Mallocs-before.Mallocs)/runs, payloadLen)
	if per > payloadLen+1024 {
		t.Fatalf("a replicated raw insert of %d B allocates %d B, budget %d B", payloadLen, per, payloadLen+1024)
	}
	if got, err := n.Read("db", "key-00000"); err != nil || len(got) != payloadLen {
		t.Fatalf("Read of a replicated insert: %d bytes, err %v", len(got), err)
	}
}

// The golden directories hold data directories written by running
// goldenNodeOps, one per on-disk format: golden_pr18 by the parent of the
// allocation-diet change (commit 45008b0), every block self-contained;
// golden_pr29 in the store's format since, blocks behind a per-segment
// dictionary.
var goldenNodeDirs = []string{"testdata/golden_pr18", "testdata/golden_pr29"}

// goldenNodeSegments is the SHA-256 of each segment file goldenNodeOps writes
// today. A change that moves these bytes on purpose (where batches are cut,
// how blocks are parsed, the order write-backs are applied in, how an update
// is written, the default encoding scheme) replaces the sums; one that changes
// the format adds a directory as well.
var goldenNodeSegments = map[string]string{
	"seg-000000.log": "d6c0e0ab32c6e3b3297e7696e36ae9f25343eda912018f9220b56ad05dcc9f15",
	"seg-000002.log": "dda52ff311b45801ab0820541eac447103d8b253538226f9092cfaa84979c62b",
	"seg-000003.log": "f54a24b5873b28c6bd7376e60f59848bb95fcbc60d0e239513ac530e384d599a",
}

// checkSegmentSums fails t unless dir holds exactly the segment files of sums,
// each with its SHA-256.
func checkSegmentSums(t *testing.T, dir string, sums map[string]string) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(files) != len(sums) {
		t.Fatalf("wrote %d segment files, want %d", len(files), len(sums))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), sums[filepath.Base(f)]; got != want {
			t.Fatalf("%s (%d bytes) has SHA-256 %s, want %s", filepath.Base(f), len(b), got, want)
		}
	}
}

func goldenNodeOptions(dir string) Options {
	return Options{Dir: dir, BlockCompression: true, BlockSize: 4 << 10, SegmentSize: 32 << 10}
}

// goldenNodeOps ingests two revision chains, mutates them, applies the
// write-backs and compacts, and returns what every key must read as.
func goldenNodeOps(t testing.TB, n *Node) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	want := make(map[string][]byte)
	for _, db := range []string{"wiki", "mail"} {
		content := workload.RevisionText(rng, 3000)
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("v%02d", i)
			if err := n.Insert(db, key, content); err != nil {
				t.Fatal(err)
			}
			want[db+"/"+key] = content
			content = editText(rng, content, 2)
		}
	}
	n.FlushWritebacks(-1)
	for _, key := range []string{"v03", "v17", "v39"} {
		upd := workload.RevisionText(rng, 500)
		if err := n.Update("wiki", key, upd); err != nil {
			t.Fatal(err)
		}
		want["wiki/"+key] = upd
	}
	for _, key := range []string{"v05", "v20"} {
		if err := n.Delete("mail", key); err != nil {
			t.Fatal(err)
		}
		delete(want, "mail/"+key)
	}
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Compact(); err != nil {
		t.Fatal(err)
	}
	return want
}

// stackedRecords opens the store in dir alone and counts its stacked records.
func stackedRecords(t *testing.T, dir string) int {
	t.Helper()
	s, err := docstore.Open(docstore.Options{Dir: dir, Compress: true, BlockSize: 4 << 10, SegmentSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stacked := 0
	s.Range(func(_ uint64, m docstore.MetaInfo) bool {
		if m.Stacked {
			stacked++
		}
		return true
	})
	return stacked
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(from, "seg-*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no segment files under %s (%v)", from, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenDirsOpenAndVerify: a data directory written in an earlier format,
// or in this one, recovers, passes VerifyAll, reads back exactly and takes
// new writes; and given the same operations the node writes the same bytes
// again (goldenNodeSegments). The earlier directories hold updates stacked onto
// referenced records, as nodes wrote them then; none is stacked once the node
// is open.
func TestGoldenDirsOpenAndVerify(t *testing.T) {
	fresh := t.TempDir()
	n := testNode(t, goldenNodeOptions(fresh))
	want := goldenNodeOps(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	checkSegmentSums(t, fresh, goldenNodeSegments)

	for _, golden := range append(slices.Clone(goldenNodeDirs), fresh) {
		name := filepath.Base(golden)
		if golden == fresh {
			name = "written_now"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, golden, dir)
			if stacked := stackedRecords(t, dir); golden != fresh && stacked == 0 {
				t.Fatal("premise: the golden directory holds no stacked record")
			}
			n := testNode(t, goldenNodeOptions(dir))
			if rep := n.VerifyAll(); !rep.Ok() || rep.DeltaEncoded == 0 {
				t.Fatalf("VerifyAll on the golden directory: %s %v", rep, rep.Errors)
			}
			verifyNamed(t, n)
			for k, content := range want {
				db, key, _ := bytes.Cut([]byte(k), []byte("/"))
				got, err := n.Read(string(db), string(key))
				if err != nil || !bytes.Equal(got, content) {
					t.Fatalf("Read(%s) from the golden directory: err %v", k, err)
				}
			}
			for _, gone := range []string{"v05", "v20"} {
				if _, err := n.Read("mail", gone); err != ErrNotFound {
					t.Fatalf("deleted mail/%s reads as %v", gone, err)
				}
			}
			if err := n.Insert("wiki", "new", []byte("a write on top of files an earlier node wrote")); err != nil {
				t.Fatal(err)
			}
			if rep := n.VerifyAll(); !rep.Ok() {
				t.Fatalf("VerifyAll after writing: %v", rep.Errors)
			}
		})
	}
}

// revisionChain ingests revs revisions of one payloadLen-byte document under
// plain backward encoding with no source cache, applies every write-back and
// seals the blocks, so that rev i is stored as a delta against rev i+1 and a
// read of rev 0 walks revs-1 steps down to the raw head.
func revisionChain(t *testing.T, revs, payloadLen int) (*Node, [][]byte) {
	t.Helper()
	n := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true, Engine: core.Config{
		Scheme: chain.Backward, SourceCacheBytes: -1}})
	rng := rand.New(rand.NewSource(20))
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
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	return n, content
}

// TestReadAllocBudget: a read through a k-step chain allocates the payload it
// returns and next to nothing else, whatever k is. The deltas are applied
// from the store's own bytes into a pooled scratch; a copy per hop (it was
// about 5 KB of them per step) trips the budget at k = 4.
func TestReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const payloadLen = 4096
	n, content := revisionChain(t, 17, payloadLen)
	for _, k := range []int{1, 4, 16} {
		key := fmt.Sprintf("rev-%03d", 16-k)
		read := func() {
			got, err := n.Read("db", key)
			if err != nil || !bytes.Equal(got, content[16-k]) {
				t.Fatalf("Read(%s) through %d steps: err %v", key, k, err)
			}
		}
		read() // fill the scratch pool and the block cache
		const runs = 200
		steps := n.Stats().DecodeSteps
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		if got := (n.Stats().DecodeSteps - steps) / runs; got != uint64(k) {
			t.Fatalf("a read of %s took %d decode steps, the test wants a %d-step chain", key, got, k)
		}
		perRead := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("k=%d: %d B in %d objects per read of %d B", k, perRead, (after.Mallocs-before.Mallocs)/runs, payloadLen)
		if perRead > payloadLen+1024 {
			t.Errorf("a %d-step read of %d B allocates %d B, budget %d B", k, payloadLen, perRead, payloadLen+1024)
		}
	}

	// A read with nothing to apply copies once, from where the content lies
	// into the slice it returns, and allocates that slice and nothing else.
	// The chain's head is such a record in a sealed block (this node has no
	// source cache); on a node with the cache, the newest record is there.
	oneObject := func(what string, n *Node, key string, want []byte) {
		t.Helper()
		avg := testing.AllocsPerRun(200, func() {
			if got, err := n.Read("db", key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Read(%s): err %v", key, err)
			}
		})
		if avg != 1 {
			t.Errorf("a read of a %s allocates %v objects, want 1: the result", what, avg)
		}
	}
	oneObject("sealed raw record", n, "rev-016", content[16])

	cached := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true})
	if err := cached.Insert("db", "head", content[0]); err != nil {
		t.Fatal(err)
	}
	if err := cached.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	before := cached.Stats()
	hits, misses := cached.Engine().SourceCache().Stats()
	oneObject("cached chain head", cached, "head", content[0])
	after := cached.Stats()
	if got := after.ReadsFromSourceCache - before.ReadsFromSourceCache; got != after.Reads-before.Reads || got == 0 {
		t.Errorf("%d of %d reads of a cached head came from the source cache", got, after.Reads-before.Reads)
	}
	if after.Store.CacheHits+after.Store.CacheMisses != before.Store.CacheHits+before.Store.CacheMisses {
		t.Error("a read the source cache answered went to the block cache as well")
	}
	if h, m := cached.Engine().SourceCache().Stats(); h != hits || m != misses {
		t.Errorf("read peeks moved the source cache's counters: %d/%d -> %d/%d", hits, misses, h, m)
	}
}

// TestWritebackAllocBudget: applying a write-back checks two keys and the
// chain it creates and decodes nothing; what it allocates beyond the delta the
// store keeps (which the write-back cache already holds) is bookkeeping. It
// was about 29 KB per write-back when each decoded the record and its new
// base to prove the delta: four detached payload copies, two parsed deltas
// and two applied outputs.
func TestWritebackAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const payloadLen = 4096
	// A block cache the warm-up fills: past it every block a write-back has
	// to load decodes into a recycled buffer, as on a node that has run a while.
	n := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true, CacheBlocks: 8,
		Engine: core.Config{}})
	rng := rand.New(rand.NewSource(21))
	rev := workload.RevisionText(rng, payloadLen)
	insert := func(i int) {
		if err := n.Insert("db", fmt.Sprintf("rev-%04d", i), rev); err != nil {
			t.Fatal(err)
		}
		rev = editText(rng, rev, 2)[:payloadLen]
	}
	for i := 0; i < 100; i++ { // warm: scratch sized, maps grown
		insert(i)
	}
	n.FlushWritebacks(-1)
	for i := 100; i < 400; i++ {
		insert(i)
	}
	pending := n.PendingWritebacks()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	applied := n.FlushWritebacks(-1)
	runtime.ReadMemStats(&after)
	if applied < 250 || applied != pending {
		t.Fatalf("applied %d of %d write-backs; the test wants nearly one per insert, all applied", applied, pending)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(applied)
	t.Logf("%d B in %d objects per applied write-back", per, (after.Mallocs-before.Mallocs)/uint64(applied))
	if per > 2048 {
		t.Errorf("an applied write-back allocates %d B, budget 2048 B", per)
	}
	if rep := n.VerifyAll(); !rep.Ok() || rep.DeltaEncoded < applied {
		t.Fatalf("after the write-backs: %s %v", rep, rep.Errors)
	}
}

// TestReadsStayExactWhileChainsAreRewritten: a chain read plans its walk from
// Store.Meta and then borrows each record from the store, so every form change
// that can land in between (write-backs turning raw records into deltas,
// updates stacking on referenced records, deletes hiding them, repair splicing
// them out) must be noticed and planned around. Readers check every byte
// while a writer, a write-back flusher and a mutator run; the block cache is
// small enough that the lent blocks are being recycled all the while.
func TestReadsStayExactWhileChainsAreRewritten(t *testing.T) {
	n, err := Open(Options{Dir: t.TempDir(), BlockCompression: true, BlockSize: 8 << 10, CacheBlocks: 8,
		DisableAutoFlush: true, EncodeWorkers: 2,
		Engine: core.Config{GovernorWindow: 1 << 30, HopDistance: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const revs = 240
	rng := rand.New(rand.NewSource(22))
	content := make([][]byte, revs)
	rev := workload.RevisionText(rng, 2048)
	for i := range content {
		content[i] = rev
		rev = editText(rng, rev, 2)[:2048]
	}
	key := func(i int) string { return fmt.Sprintf("rev-%03d", i) }
	var written atomic.Int64 // revisions [0, written) are readable
	var mutated, stop atomic.Bool
	var bg, readers sync.WaitGroup
	bg.Add(3)
	go func() { // writer
		defer bg.Done()
		for i := range content {
			if err := n.Insert("db", key(i), content[i]); err != nil {
				t.Error(err)
				return
			}
			written.Store(int64(i + 1))
		}
	}()
	go func() { // write-backs, as the idle flusher would apply them
		defer bg.Done()
		for !stop.Load() {
			n.FlushWritebacks(8)
			runtime.Gosched()
		}
	}()
	go func() { // every 7th revision is updated, every 11th deleted, once it has successors
		defer bg.Done()
		defer mutated.Store(true)
		for i := 0; i+3 <= revs && !stop.Load(); {
			if int64(i+3) > written.Load() {
				runtime.Gosched()
				continue
			}
			switch {
			case i%7 == 3:
				if err := n.Update("db", key(i), []byte("updated")); err != nil {
					t.Error(err)
				}
			case i%11 == 5:
				if err := n.Delete("db", key(i)); err != nil {
					t.Error(err)
				}
			}
			i++
		}
	}()
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			// Until the mutations are done too: a starved mutator must
			// not find the run over before it has updated or deleted.
			for reads := 0; reads < 4000 || written.Load() < revs || !mutated.Load(); reads++ {
				w := int(written.Load())
				if w == 0 {
					runtime.Gosched()
					continue
				}
				i := r.Intn(w)
				if i%7 == 3 || i%11 == 5 {
					continue // mutated concurrently: either version is right
				}
				got, err := n.Read("db", key(i))
				if err != nil || !bytes.Equal(got, content[i]) {
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
	st := n.Stats()
	if st.WritebacksApplied == 0 || st.Updates == 0 || st.Deletes == 0 {
		t.Fatalf("the run rewrote nothing: %d write-backs, %d updates, %d deletes", st.WritebacksApplied, st.Updates, st.Deletes)
	}
	for i := range content {
		if i%7 == 3 || i%11 == 5 {
			continue
		}
		if got, err := n.Read("db", key(i)); err != nil || !bytes.Equal(got, content[i]) {
			t.Fatalf("Read(%s) after the run: err %v", key(i), err)
		}
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll after the run: %v", rep.Errors)
	}
}

// TestStaleWalkIsPlannedAgain makes the race a chain read has to survive
// happen on purpose: a walk is planned, the records it names change form, and
// only then is it run. Every kind of change must come back as errReplan,
// never as bytes, and decode, which plans again, must return the content.
func TestStaleWalkIsPlannedAgain(t *testing.T) {
	n := testNode(t, Options{BlockCompression: true, Engine: core.Config{
		Scheme: chain.Backward, SourceCacheBytes: -1}})
	rng := rand.New(rand.NewSource(23))
	var revs [][]byte
	rev := workload.RevisionText(rng, 2048)
	insert := func() uint64 {
		i := len(revs)
		revs = append(revs, rev)
		if err := n.Insert("db", fmt.Sprintf("rev-%d", i), rev); err != nil {
			t.Fatal(err)
		}
		rev = editText(rng, rev, 2)[:2048]
		id, _ := n.lookup("db", fmt.Sprintf("rev-%d", i))
		return id
	}
	stale := func(what string, id uint64, plan walk, sc *scratch, want []byte) {
		t.Helper()
		if got, err := n.runWalk(sc, plan, nil, false); err != errReplan {
			t.Fatalf("%s: a stale walk returned %d bytes, err %v; want errReplan", what, len(got), err)
		}
		if want == nil {
			return
		}
		got, err := n.decode(sc, id, visibleContent)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: decode after the change: err %v", what, err)
		}
	}
	sc := new(scratch)

	// The record itself goes from raw to delta under the plan.
	id0 := insert()
	insert()
	plan, err := n.planWalk(sc, id0, visibleContent)
	if err != nil || len(sc.hops) != 0 {
		t.Fatalf("rev-0 should plan as a raw record: %d hops, err %v", len(sc.hops), err)
	}
	if n.FlushWritebacks(-1) == 0 {
		t.Fatal("no write-back to apply")
	}
	stale("record re-encoded", id0, plan, sc, revs[0])

	// The base a hop was planned against goes from raw to delta.
	plan, err = n.planWalk(sc, id0, visibleContent)
	if err != nil || len(sc.hops) != 1 {
		t.Fatalf("rev-0 should plan as one hop onto rev-1: %d hops, err %v", len(sc.hops), err)
	}
	insert()
	n.FlushWritebacks(-1)
	stale("base re-encoded", id0, plan, sc, revs[0])

	// A record on the path is hidden (deleted while referenced).
	plan, err = n.planWalk(sc, id0, baseContentNoRepair)
	if err != nil || len(sc.hops) != 2 {
		t.Fatalf("rev-0 should plan as two hops: %d hops, err %v", len(sc.hops), err)
	}
	if err := n.Delete("db", "rev-1"); err != nil {
		t.Fatal(err)
	}
	stale("hop hidden", id0, plan, sc, revs[0])

	// An updated record that another decodes through is hidden, and is
	// reclaimed under the walk once its last reference goes.
	pair := workload.RevisionText(rng, 2048)
	for _, key := range []string{"a", "b"} {
		if err := n.Insert("db2", key, pair); err != nil {
			t.Fatal(err)
		}
		pair = editText(rng, pair, 2)[:2048]
	}
	n.FlushWritebacks(-1) // a is a delta on b: b is referenced
	oldB, _ := n.lookup("db2", "b")
	if err := n.Update("db2", "b", []byte("an update is a new record")); err != nil {
		t.Fatal(err)
	}
	plan, err = n.planWalk(sc, oldB, baseContentNoRepair)
	if err != nil || !plan.base.Hidden {
		t.Fatalf("b's old record should plan as a hidden raw record: %+v, err %v", plan, err)
	}
	if err := n.Delete("db2", "a"); err != nil { // the last reference goes
		t.Fatal(err)
	}
	if _, ok := n.store.Meta(oldB); ok {
		t.Fatal("b's old record outlived its last reference; the test wants it reclaimed")
	}
	stale("updated record reclaimed", oldB, plan, sc, nil)
	if got, err := n.Read("db2", "b"); err != nil || string(got) != "an update is a new record" {
		t.Fatalf("Read(b) after the update: %q, err %v", got, err)
	}

	// The record is gone altogether.
	gone := insert()
	plan, err = n.planWalk(sc, gone, visibleContent)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Delete("db", fmt.Sprintf("rev-%d", len(revs)-1)); err != nil {
		t.Fatal(err)
	}
	stale("record deleted", gone, plan, sc, nil)
	if _, err := n.decode(sc, gone, visibleContent); err != ErrNotFound {
		t.Fatalf("decode of a deleted record: %v, want ErrNotFound", err)
	}
}
