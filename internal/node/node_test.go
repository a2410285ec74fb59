package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dbdedup/internal/chain"
	"dbdedup/internal/chunker"
	"dbdedup/internal/core"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

func testNode(t *testing.T, opts Options) *Node {
	t.Helper()
	if opts.Engine.GovernorWindow == 0 {
		opts.Engine.GovernorWindow = 1 << 30 // keep the governor quiet in unit tests
	}
	opts.SyncEncode = true
	opts.DisableAutoFlush = true
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// editText is this package's revision step: k edits, then a tail whose
// length is drawn after them. The golden data directory of diet_test.go pins
// that order of draws.
func editText(rng *rand.Rand, data []byte, k int) []byte {
	out := workload.Revise(rng, data, k, 0)
	return append(out, workload.RevisionText(rng, 30+rng.Intn(80))...)
}

func TestInsertRead(t *testing.T) {
	n := testNode(t, Options{})
	payload := []byte("hello dbdedup world, a record large enough to not be trivial")
	if err := n.Insert("db", "k1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := n.Read("db", "k1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if _, err := n.Read("db", "missing"); err != ErrNotFound {
		t.Fatalf("missing read err = %v", err)
	}
	if err := n.Insert("db", "k1", payload); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

// insertChain inserts nVersions successive revisions and returns their
// contents, keyed vN.
func insertChain(t *testing.T, n *Node, db string, nVersions int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	content := workload.RevisionText(rng, 8192)
	var all [][]byte
	for i := 0; i < nVersions; i++ {
		if err := n.Insert(db, fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		all = append(all, content)
		content = editText(rng, content, 2)
	}
	return all
}

func TestVersionChainRoundTrip(t *testing.T) {
	n := testNode(t, Options{})
	versions := insertChain(t, n, "wiki", 30, 1)
	// Apply all write-backs, then verify every version decodes.
	n.FlushWritebacks(-1)
	for i, want := range versions {
		got, err := n.Read("wiki", fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatalf("v%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d: content mismatch after backward encoding", i)
		}
	}
}

func TestStorageShrinksWithDedup(t *testing.T) {
	dedup := testNode(t, Options{})
	orig := testNode(t, Options{DisableDedup: true})
	for _, n := range []*Node{dedup, orig} {
		insertChain(t, n, "wiki", 40, 2)
		n.FlushWritebacks(-1)
	}
	ds, os := dedup.Stats(), orig.Stats()
	if ds.RawInsertBytes != os.RawInsertBytes {
		t.Fatalf("raw bytes differ: %d vs %d", ds.RawInsertBytes, os.RawInsertBytes)
	}
	if ds.Store.LogicalBytes*4 > os.Store.LogicalBytes {
		t.Errorf("dedup logical bytes %d not far below original %d",
			ds.Store.LogicalBytes, os.Store.LogicalBytes)
	}
	if ds.OplogBytes*4 > os.OplogBytes {
		t.Errorf("dedup oplog bytes %d not far below original %d",
			ds.OplogBytes, os.OplogBytes)
	}
}

func TestReadLatestNeedsNoDecode(t *testing.T) {
	n := testNode(t, Options{})
	versions := insertChain(t, n, "wiki", 20, 3)
	n.FlushWritebacks(-1)
	before := n.Stats().DecodeSteps
	got, err := n.Read("wiki", "v19")
	if err != nil || !bytes.Equal(got, versions[19]) {
		t.Fatal("latest read failed")
	}
	if after := n.Stats().DecodeSteps; after != before {
		t.Errorf("reading the newest record performed %d decode steps, want 0", after-before)
	}
}

func TestUpdateUnreferencedOverwrites(t *testing.T) {
	n := testNode(t, Options{})
	n.Insert("db", "k", []byte("original content that is long enough to matter"))
	if err := n.Update("db", "k", []byte("replaced content")); err != nil {
		t.Fatal(err)
	}
	got, err := n.Read("db", "k")
	if err != nil || string(got) != "replaced content" {
		t.Fatalf("Read after update = %q, %v", got, err)
	}
	if err := n.Update("db", "missing", []byte("x")); err != ErrNotFound {
		t.Fatalf("update missing err = %v", err)
	}
}

func TestUpdateReferencedRecordPreservesDecoding(t *testing.T) {
	n := testNode(t, Options{})
	versions := insertChain(t, n, "wiki", 5, 4)
	n.FlushWritebacks(-1)
	// v4 is the raw head; v3 is encoded against it... but update v4
	// (referenced by v3) and check v3 still decodes and v4 reads new.
	if rc := n.RefCount("wiki", "v4"); rc == 0 {
		t.Fatal("test premise broken: head not referenced")
	}
	newContent := []byte("completely new content after client update")
	if err := n.Update("wiki", "v4", newContent); err != nil {
		t.Fatal(err)
	}
	got, err := n.Read("wiki", "v4")
	if err != nil || !bytes.Equal(got, newContent) {
		t.Fatalf("updated record reads %q, %v", got, err)
	}
	got, err = n.Read("wiki", "v3")
	if err != nil || !bytes.Equal(got, versions[3]) {
		t.Fatal("record decoding through an updated base broke")
	}
}

func TestUpdateInvalidatesPendingWriteback(t *testing.T) {
	n := testNode(t, Options{})
	insertChain(t, n, "wiki", 5, 5)
	// v3's write-back (against v4) is pending. Update v3 now.
	if n.PendingWritebacks() == 0 {
		t.Fatal("no pending write-backs")
	}
	fresh := []byte("fresh client content that must survive")
	if err := n.Update("wiki", "v3", fresh); err != nil {
		t.Fatal(err)
	}
	n.FlushWritebacks(-1)
	got, err := n.Read("wiki", "v3")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("stale write-back clobbered a client update: %q, %v", got, err)
	}
}

func TestDeleteUnreferenced(t *testing.T) {
	n := testNode(t, Options{})
	n.Insert("db", "k", []byte("some content to delete"))
	if err := n.Delete("db", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Read("db", "k"); err != ErrNotFound {
		t.Fatalf("read after delete err = %v", err)
	}
	if err := n.Delete("db", "k"); err != ErrNotFound {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDeleteReferencedRecordHidesAndPreservesDecoding(t *testing.T) {
	n := testNode(t, Options{})
	versions := insertChain(t, n, "wiki", 6, 6)
	n.FlushWritebacks(-1)
	// Delete the head (v5), which v4 decodes through.
	if err := n.Delete("wiki", "v5"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Read("wiki", "v5"); err != ErrNotFound {
		t.Fatal("deleted record still visible")
	}
	got, err := n.Read("wiki", "v4")
	if err != nil || !bytes.Equal(got, versions[4]) {
		t.Fatalf("decoding through hidden record failed: %v", err)
	}
	// The read above should have repaired the chain past the hidden
	// record; eventually v5's storage is reclaimed.
	if n.Stats().HiddenRepaired == 0 {
		t.Error("no hidden-record repair performed")
	}
}

func TestBlockCompressionStacks(t *testing.T) {
	comp := testNode(t, Options{BlockCompression: true})
	plain := testNode(t, Options{})
	for _, n := range []*Node{comp, plain} {
		insertChain(t, n, "wiki", 30, 7)
		n.FlushWritebacks(-1)
		n.Store().Flush()
	}
	cs, ps := comp.Stats().Store, plain.Stats().Store
	if cs.BlockBytesOut >= ps.BlockBytesOut {
		t.Errorf("block compression did not shrink post-dedup data: %d vs %d",
			cs.BlockBytesOut, ps.BlockBytesOut)
	}
}

func TestOplogFormsMatchDedupOutcome(t *testing.T) {
	n := testNode(t, Options{})
	insertChain(t, n, "wiki", 10, 8)
	ents, err := n.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 10 {
		t.Fatalf("%d oplog entries, want 10", len(ents))
	}
	if ents[0].Form != oplog.FormRaw {
		t.Error("first insert should ship raw")
	}
	deltas := 0
	for _, e := range ents[1:] {
		if e.Form == oplog.FormDelta {
			deltas++
			if e.BaseKey == "" {
				t.Error("forward-encoded entry without BaseKey")
			}
		}
	}
	if deltas < 8 {
		t.Errorf("only %d/9 follow-up inserts were forward-encoded", deltas)
	}
}

func TestReplicationConvergence(t *testing.T) {
	prim := testNode(t, Options{})
	sec := testNode(t, Options{})

	versions := insertChain(t, prim, "wiki", 25, 9)
	prim.Update("wiki", "v10", []byte("updated content on primary"))
	prim.Delete("wiki", "v3")

	ents, err := prim.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var shipped int64
	for _, e := range ents {
		shipped += int64(e.MarshalledSize())
		if err := sec.ApplyReplicated(e); err != nil {
			t.Fatalf("apply seq %d: %v", e.Seq, err)
		}
	}
	// Shipped bytes must be far below raw bytes (forward encoding).
	if raw := prim.Stats().RawInsertBytes; shipped*3 > raw {
		t.Errorf("shipped %d bytes for %d raw bytes; forward encoding ineffective", shipped, raw)
	}

	// Secondary must serve identical contents.
	prim.FlushWritebacks(-1)
	sec.FlushWritebacks(-1)
	for i, want := range versions {
		key := fmt.Sprintf("v%d", i)
		switch i {
		case 3:
			if _, err := sec.Read("wiki", key); err != ErrNotFound {
				t.Errorf("deleted %s visible on secondary", key)
			}
		case 10:
			got, err := sec.Read("wiki", key)
			if err != nil || string(got) != "updated content on primary" {
				t.Errorf("updated %s = %q, %v", key, got, err)
			}
		default:
			got, err := sec.Read("wiki", key)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s mismatch on secondary: %v", key, err)
			}
		}
	}
	// And its storage must also be deduplicated.
	ss := sec.Stats()
	if ss.Store.LogicalBytes*3 > ss.RawInsertBytes {
		t.Errorf("secondary stored %d logical bytes for %d raw; re-encoding ineffective",
			ss.Store.LogicalBytes, ss.RawInsertBytes)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncEncode: true, DisableAutoFlush: true}
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	content := workload.RevisionText(rng, 4096)
	var versions [][]byte
	for i := 0; i < 10; i++ {
		if err := n.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, content)
		content = editText(rng, content, 2)
	}
	n.FlushWritebacks(-1)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	for i, want := range versions {
		got, err := n2.Read("wiki", fmt.Sprintf("v%d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d after reopen: %v", i, err)
		}
	}
	// New inserts must work and dedup against... fresh state (index is
	// in-memory and rebuilt empty; contents still decode).
	if err := n2.Insert("wiki", "v10", versions[9]); err != nil {
		t.Fatal(err)
	}
	got, err := n2.Read("wiki", "v10")
	if err != nil || !bytes.Equal(got, versions[9]) {
		t.Fatal("insert after reopen failed")
	}
}

// TestReopenAcrossChunkerChange pins that the chunking algorithm is not part
// of the data format: it only steers which similar record the encoder finds.
// A directory written on rabin (revision chains, hop write-backs applied,
// compacted) is reopened on the default chunker, the same documents get
// further revisions, and every key of both eras still reads back byte-exact
// with a clean VerifyAll.
func TestReopenAcrossChunkerChange(t *testing.T) {
	const docs, oldRevs, newRevs = 3, 24, 12
	dir := t.TempDir()
	opts := Options{
		Dir:              dir,
		SyncEncode:       true,
		DisableAutoFlush: true,
		BlockSize:        1 << 10,
		SegmentSize:      16 << 10,
		Engine:           core.Config{Chunker: chunker.Rabin, HopDistance: 4, GovernorWindow: 1 << 30},
	}

	want := make(map[string][]byte)
	heads := make([][]byte, docs)
	rng := rand.New(rand.NewSource(21))
	revise := func(n *Node, from, to int) {
		t.Helper()
		for d := range heads {
			for r := from; r < to; r++ {
				if heads[d] == nil {
					heads[d] = workload.RevisionText(rng, 2048)
				} else {
					heads[d] = editText(rng, heads[d], 2)
				}
				key := fmt.Sprintf("doc%d/rev%d", d, r)
				if err := n.Insert("wiki", key, heads[d]); err != nil {
					t.Fatal(err)
				}
				want[key] = heads[d]
			}
		}
		n.FlushWritebacks(-1)
		if _, err := n.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(n *Node, era string) {
		t.Helper()
		for key, content := range want {
			got, err := n.Read("wiki", key)
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("%s: %s: wrong content (err %v)", era, key, err)
			}
		}
		if rep := n.VerifyAll(); !rep.Ok() || rep.DeltaEncoded == 0 {
			t.Fatalf("%s: VerifyAll: %v", era, rep)
		}
	}

	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	revise(n, 0, oldRevs)
	check(n, "rabin era")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Engine.Chunker = chunker.Gear // the zero value: what every node runs
	n2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	check(n2, "reopened on gear")
	revise(n2, oldRevs, oldRevs+newRevs)
	if st := n2.Stats(); st.Engine.Deduped == 0 {
		t.Fatal("no insert of the gear era found a similar record; the test exercises nothing")
	}
	check(n2, "gear era")
}

func TestAsyncEncodePipeline(t *testing.T) {
	opts := Options{DisableAutoFlush: true}
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts) // async (SyncEncode false)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(11))
	content := workload.RevisionText(rng, 4096)
	var versions [][]byte
	for i := 0; i < 50; i++ {
		if err := n.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, content)
		content = editText(rng, content, 2)
	}
	n.Barrier()
	n.FlushWritebacks(-1)
	for i, want := range versions {
		got, err := n.Read("wiki", fmt.Sprintf("v%d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d via async pipeline: %v", i, err)
		}
	}
	ents, _ := n.Oplog().EntriesSince(0, 0)
	if len(ents) != 50 {
		t.Fatalf("oplog has %d entries, want 50", len(ents))
	}
	for i := 1; i < len(ents); i++ {
		if ents[i].Seq != ents[i-1].Seq+1 {
			t.Fatal("oplog entries out of order from async pipeline")
		}
	}
}

func TestHopEncodingBoundsDecodeSteps(t *testing.T) {
	hop := testNode(t, Options{Engine: core.Config{Scheme: chain.Hop, HopDistance: 4}})
	bwd := testNode(t, Options{Engine: core.Config{Scheme: chain.Backward}})
	for _, n := range []*Node{hop, bwd} {
		insertChain(t, n, "wiki", 60, 12)
		n.FlushWritebacks(-1)
	}

	readOldest := func(n *Node) uint64 {
		before := n.Stats().DecodeSteps
		if _, err := n.Read("wiki", "v0"); err != nil {
			t.Fatal(err)
		}
		return n.Stats().DecodeSteps - before
	}
	// Drop decode shortcuts: both nodes' caches hold recent records only,
	// so v0 exercises the chain. Compare steps.
	hopSteps := readOldest(hop)
	bwdSteps := readOldest(bwd)
	if hopSteps >= bwdSteps {
		t.Errorf("hop decode steps %d >= backward %d", hopSteps, bwdSteps)
	}
}

// TestWritebacksFlushedPerInsertStillCorrect: a chain whose write-backs are
// all applied right after the insert that made them (Fig. 13b's arm without
// the cache's deferral) reads back byte-exact.
func TestWritebacksFlushedPerInsertStillCorrect(t *testing.T) {
	n := testNode(t, Options{})
	rng := rand.New(rand.NewSource(13))
	content := workload.RevisionText(rng, 8192)
	var versions [][]byte
	for i := 0; i < 20; i++ {
		if err := n.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		n.FlushWritebacks(-1)
		if p := n.PendingWritebacks(); p != 0 {
			t.Fatalf("v%d: %d write-backs pending after a full flush", i, p)
		}
		versions = append(versions, content)
		content = editText(rng, content, 2)
	}
	for i, want := range versions {
		got, err := n.Read("wiki", fmt.Sprintf("v%d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d with write-backs flushed per insert: %v", i, err)
		}
	}
	if n.Stats().WritebacksApplied == 0 {
		t.Error("write-backs not applied")
	}
}

func TestStatsShape(t *testing.T) {
	n := testNode(t, Options{})
	insertChain(t, n, "wiki", 10, 14)
	n.Read("wiki", "v9")
	st := n.Stats()
	if st.Inserts != 10 || st.Reads != 1 {
		t.Errorf("op counts: %+v", st)
	}
	if st.Engine.Deduped == 0 {
		t.Error("engine stats not plumbed")
	}
	if st.OplogBytes == 0 || st.RawInsertBytes == 0 {
		t.Error("byte accounting not plumbed")
	}
}

func BenchmarkInsertVersioned(b *testing.B) {
	opts := Options{SyncEncode: true, DisableAutoFlush: true}
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	rng := rand.New(rand.NewSource(1))
	content := workload.RevisionText(rng, 8192)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			b.Fatal(err)
		}
		content = editText(rng, content, 2)
	}
}

// TestUpdatedRecordReclaimedWhenUnreferenced: an update of a record another
// decodes through writes a new record and hides the old one, and the delete
// that releases the old one's last reference reclaims it (paper §4.1). The key
// reads the update throughout.
func TestUpdatedRecordReclaimedWhenUnreferenced(t *testing.T) {
	n := testNode(t, Options{})
	// Two-version chain: after the write-back, v0 is a delta whose base
	// is v1, so refcnt(v1) = 1.
	insertChain(t, n, "wiki", 2, 30)
	n.FlushWritebacks(-1)
	if rc := n.RefCount("wiki", "v1"); rc != 1 {
		t.Fatalf("premise: refcount(v1) = %d, want 1", rc)
	}
	old, _ := n.lookup("wiki", "v1")
	updated := []byte("client update of a referenced record")
	if err := n.Update("wiki", "v1", updated); err != nil {
		t.Fatal(err)
	}
	if id, _ := n.lookup("wiki", "v1"); id == old {
		t.Fatal("the update did not give v1 a new record")
	}
	if m, ok := n.Store().Meta(old); !ok || !m.Hidden {
		t.Fatalf("premise: v1's old record should be hidden, got %+v %v", m, ok)
	}
	if got, err := n.Read("wiki", "v1"); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("v1 after the update: %q, %v", got, err)
	}
	// Deleting v0 releases the old record's last reference.
	if err := n.Delete("wiki", "v0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Store().Meta(old); ok {
		t.Error("v1's old record outlived its last reference")
	}
	got, err := n.Read("wiki", "v1")
	if err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("v1 after its old record was reclaimed: %q, %v", got, err)
	}
	verifyRefcounts(t, n)
}

// TestSmallRevisionsShipForwardEncoded ingests 1 200 inserts into one
// database, three in ten a step of one of twelve revision chains of 100–600 B
// and the rest records of 4 KiB. Once a thousand inserts are in, a filter that
// skipped the smallest 40 % of records would have put its cut-off at 4 KiB
// and shipped every small revision whole; the size filter is a 64 B floor, so
// they ship as forward deltas against their previous revision.
func TestSmallRevisionsShipForwardEncoded(t *testing.T) {
	n := testNode(t, Options{})
	rng := rand.New(rand.NewSource(56))
	docs := make([][]byte, 12)
	for d := range docs {
		docs[d] = workload.RevisionText(rng, 100+rng.Intn(200))
	}
	revision := make(map[string]bool) // keys of small records with a previous revision
	for i := 0; i < 1200; i++ {
		if i%10 >= 3 {
			if err := n.Insert("mix", fmt.Sprintf("big/%d", i), workload.RevisionText(rng, 4096)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		d := rng.Intn(len(docs))
		key := fmt.Sprintf("small/%d/%d", d, i)
		if i >= 1000 && len(docs[d]) < 600 {
			revision[key] = true
		}
		if err := n.Insert("mix", key, docs[d]); err != nil {
			t.Fatal(err)
		}
		if len(docs[d]) < 580 {
			docs[d] = workload.Revise(rng, docs[d], 1, 20)
		} else {
			docs[d] = workload.Revise(rng, docs[d], 2, 0)
		}
	}
	ents, err := n.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	forward := 0
	for _, e := range ents {
		if revision[e.Key] && e.Form == oplog.FormDelta {
			forward++
		}
	}
	if len(revision) < 50 || forward < len(revision)*9/10 {
		t.Fatalf("%d of %d small revisions after the first 1 000 inserts shipped as forward deltas, want at least 90 %%",
			forward, len(revision))
	}
}

// TestStatsCountDroppedWritebacks: a write-back cache too small for a chain's
// pending write-backs drops the least valuable ones, and Stats says how many,
// what storage they would have saved and how many are still pending.
func TestStatsCountDroppedWritebacks(t *testing.T) {
	n := testNode(t, Options{WritebackCacheBytes: 1 << 10})
	insertChain(t, n, "wiki", 40, 3)
	st := n.Stats()
	if st.WritebacksDropped == 0 || st.WritebacksDroppedSaving <= 0 || st.WritebacksPending == 0 {
		t.Fatalf("after 40 revisions into a 1 KiB write-back cache: %d dropped saving %d B, %d pending",
			st.WritebacksDropped, st.WritebacksDroppedSaving, st.WritebacksPending)
	}
	n.FlushWritebacks(-1)
	if st := n.Stats(); st.WritebacksPending != 0 || st.WritebacksApplied == 0 {
		t.Fatalf("after a full flush: %d pending, %d applied", st.WritebacksPending, st.WritebacksApplied)
	}
}

// TestMemoryNamesItsHolders: Stats.Memory carries the record table's and the
// feature index's allocations, each as its owner reports it, and the record
// table's grows by a page, not by a record, as inserts come in.
func TestMemoryNamesItsHolders(t *testing.T) {
	n := testNode(t, Options{})
	if m := n.Stats().Memory; m.RecordTableBytes != 0 || m.FeatureIndexBytes != 0 {
		t.Fatalf("an empty node's Memory = %+v, want zeros", m)
	}
	insertChain(t, n, "db", 8, 1)
	st := n.Stats()
	if st.Memory.RecordTableBytes != st.Store.RecordTableBytes || st.Memory.RecordTableBytes <= 0 {
		t.Fatalf("Memory.RecordTableBytes = %d, the store reports %d", st.Memory.RecordTableBytes, st.Store.RecordTableBytes)
	}
	if st.Memory.FeatureIndexBytes != n.eng.IndexAllocatedBytes() || st.Memory.FeatureIndexBytes < st.Engine.IndexMemoryBytes {
		t.Fatalf("Memory.FeatureIndexBytes = %d: want the engine's allocation, at least the %d design bytes in use",
			st.Memory.FeatureIndexBytes, st.Engine.IndexMemoryBytes)
	}
	table := st.Memory.RecordTableBytes
	insertChain(t, n, "other", 8, 2)
	if got := n.Stats().Memory.RecordTableBytes; got != table {
		t.Fatalf("eight more records took the record table from %d to %d bytes; they fit the page the first took", table, got)
	}
}
