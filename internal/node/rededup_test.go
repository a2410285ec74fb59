package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/core"
	"dbdedup/internal/docstore"
	"dbdedup/internal/workload"
)

// rededupWorkload drives the scenario the compaction re-dedup pass exists
// for: a family of mutually similar documents inserted far enough apart —
// with eviction pressure from dissimilar spacer records in between — that an
// undersized feature index has always evicted the previous family member by
// the time the next one arrives, so the insert path stores every one raw.
// The spacers are then deleted, leaving the family as the victim segments'
// live records.
func rededupWorkload(t testing.TB, n *Node, seed int64, family, spacers int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	template := workload.RevisionText(rng, 1600)
	docs := make([][]byte, family)
	for i := range docs {
		docs[i] = editText(rng, template, 4)
		if err := n.Insert("fam", fmt.Sprintf("f%03d", i), docs[i]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < spacers; j++ {
			junk := make([]byte, 1500)
			rng.Read(junk)
			if err := n.Insert("fam", fmt.Sprintf("s%03d-%d", i, j), junk); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Apply any write-backs the insert path did manage, so the raw forms
	// below are genuinely what online dedup left behind.
	n.FlushWritebacks(-1)
	for i := 0; i < family; i++ {
		for j := 0; j < spacers; j++ {
			if err := n.Delete("fam", fmt.Sprintf("s%03d-%d", i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return docs
}

// compactRounds runs a fixed number of passes — fixed rather than
// to-fixpoint so two nodes given the identical workload also get the
// identical compaction schedule, making their disk sizes comparable.
func compactRounds(t testing.TB, n *Node, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if _, err := n.Compact(); err != nil {
			t.Fatal(err)
		}
	}
}

func rededupOptions(rededup bool) Options {
	return Options{
		// Undersized similarity index: two documents' worth of sketch
		// features (sketch.DefaultK is 8), so the spacers between family
		// members evict each one before its sibling arrives. No index
		// budget, so no cold tier — these tests rely on evictions being
		// permanent.
		Engine:      core.Config{IndexEntries: 16},
		BlockSize:   1 << 10,
		SegmentSize: 8 << 10,
		Compaction:  CompactionOptions{Rededup: rededup, RededupMaxChainDepth: 8},
	}
}

// TestCompactRededupRecoversRatio is the end-to-end claim of the feature:
// dedup opportunities lost to feature-index evictions at insert time are
// recovered at compaction time, shrinking both logical and physical bytes
// relative to a plain compaction of the identical workload.
func TestCompactRededupRecoversRatio(t *testing.T) {
	const seed, family, spacers = 7, 20, 4

	plain := testNode(t, rededupOptions(false))
	rededupWorkload(t, plain, seed, family, spacers)
	compactRounds(t, plain, 32)

	n := testNode(t, rededupOptions(true))
	docs := rededupWorkload(t, n, seed, family, spacers)
	if deduped := n.Stats().Engine.Deduped; deduped > uint64(family)/4 {
		t.Fatalf("workload not eviction-bound: insert path deduped %d of %d", deduped, family)
	}
	if ev := n.FeatIdxSnapshot().Evictions; ev == 0 {
		t.Fatal("undersized index saw no evictions; spacers are not applying pressure")
	}
	compactRounds(t, n, 32)

	snap := n.CompactionMetrics()
	if snap.Resketched.Total() == 0 {
		t.Fatal("re-dedup pass resketched nothing")
	}
	if snap.Conversions.Total() < int64(family)/2 {
		t.Fatalf("expected most of the family to convert, got %d of %d (skipped %d)",
			snap.Conversions.Total(), family, snap.ConversionsSkipped.Total())
	}
	if snap.LogicalBytesSaved.Total() <= 0 {
		t.Fatalf("LogicalBytesSaved = %d, want > 0", snap.LogicalBytesSaved.Total())
	}

	// The physical claim: same workload, same compaction schedule, less
	// disk with re-dedup on.
	plainDisk, rededupDisk := plain.Store().DiskBytes(), n.Store().DiskBytes()
	if rededupDisk >= plainDisk {
		t.Fatalf("re-dedup did not reduce physical bytes: %d (rededup) vs %d (plain)", rededupDisk, plainDisk)
	}
	plainLogical, rededupLogical := plain.Store().Stats().LogicalBytes, n.Store().Stats().LogicalBytes
	if rededupLogical >= plainLogical {
		t.Fatalf("re-dedup did not reduce logical bytes: %d vs %d", rededupLogical, plainLogical)
	}

	// Converted records must still decode to their exact content, and the
	// chains they created must ground within the configured depth.
	for i, want := range docs {
		got, err := n.Read("fam", fmt.Sprintf("f%03d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("doc %d corrupted after re-dedup: err=%v", i, err)
		}
	}
	rep := n.VerifyAll()
	if !rep.Ok() {
		t.Fatalf("VerifyAll: %s", rep)
	}
	if rep.MaxChainDepth > 8 {
		t.Fatalf("chain depth %d exceeds RededupMaxChainDepth", rep.MaxChainDepth)
	}
	t.Logf("conversions=%d (skipped %d), disk %d→%d bytes (%.2fx), logical %d→%d bytes (%.2fx), chain depth %d",
		snap.Conversions.Total(), snap.ConversionsSkipped.Total(),
		plainDisk, rededupDisk, float64(plainDisk)/float64(rededupDisk),
		plainLogical, rededupLogical, float64(plainLogical)/float64(rededupLogical),
		rep.MaxChainDepth)
}

// TestCompactRededupChainDepthBound drops the depth bound to 1 and checks
// the pass respects it: every conversion's base is a raw record.
func TestCompactRededupChainDepthBound(t *testing.T) {
	opts := rededupOptions(true)
	opts.Compaction.RededupMaxChainDepth = 1
	n := testNode(t, opts)
	rededupWorkload(t, n, 11, 16, 4)
	compactRounds(t, n, 32)
	if conv := n.CompactionMetrics().Conversions.Total(); conv == 0 {
		t.Fatal("no conversions at depth bound 1")
	}
	rep := n.VerifyAll()
	if !rep.Ok() {
		t.Fatalf("VerifyAll: %s", rep)
	}
	if rep.MaxChainDepth > 1 {
		t.Fatalf("chain depth %d exceeds bound 1", rep.MaxChainDepth)
	}
}

// TestCompactRededupDisabledByDefault guards the default: a node without
// the flag compacts without converting anything.
func TestCompactRededupDisabledByDefault(t *testing.T) {
	n := testNode(t, rededupOptions(false))
	rededupWorkload(t, n, 13, 8, 4)
	compactRounds(t, n, 32)
	if conv := n.CompactionMetrics().Conversions.Total(); conv != 0 {
		t.Fatalf("conversions with rededup disabled: %d", conv)
	}
	if passes := n.CompactionMetrics().Passes.Total(); passes == 0 {
		t.Fatal("compaction passes were not counted")
	}
}

// TestCompactRededupRecoversShedInserts closes the graceful-degradation
// loop with admission control (DESIGN.md §12): a node in shed-raw overload
// stores every insert raw — readable the moment it is acknowledged, but with
// the dedup ratio given up — and a later -compact-rededup pass recovers the
// ratio offline. Shedding is forced deterministically: a 1-slot encoder with
// a simulated delay trips the overload latch on the second insert, and a
// one-hour dwell pins it for the rest of the test.
func TestCompactRededupRecoversShedInserts(t *testing.T) {
	const seed, family, spacers = 21, 20, 4
	n := asyncNode(t, Options{
		// Healthy, full-size index: unlike the eviction-bound tests above,
		// here the ratio is lost to shedding alone.
		BlockSize:            1 << 10,
		SegmentSize:          8 << 10,
		Compaction:           CompactionOptions{Rededup: true, RededupMaxChainDepth: 8},
		EncodeWorkers:        1,
		EncodeQueue:          1,
		SimulatedEncodeDelay: 5 * time.Millisecond,
		Admission: admission.Options{
			ShedRaw: true, ShedThreshold: 0.5, ResumeThreshold: 0.25,
			OverloadDwell: time.Hour,
		},
	})

	// The primer is admitted (queue empty); the trigger arrives while the
	// worker still sleeps on the primer, sees full occupancy, and latches
	// the controller into overload for the dwell.
	rng := rand.New(rand.NewSource(99))
	if err := n.Insert("fam", "primer", workload.RevisionText(rng, 1600)); err != nil {
		t.Fatal(err)
	}
	if err := n.Insert("fam", "latch", workload.RevisionText(rng, 1600)); err != nil {
		t.Fatal(err)
	}

	docs := rededupWorkload(t, n, seed, family, spacers)
	n.Barrier()

	st := n.Stats()
	if st.InsertsShedRaw < uint64(family) {
		t.Fatalf("latch did not hold: only %d inserts shed, want ≥ %d", st.InsertsShedRaw, family)
	}
	// Shed inserts never reach the engine, so nothing was deduplicated
	// online — the whole family sits raw.
	if st.Engine.Deduped != 0 {
		t.Fatalf("engine deduped %d inserts that should have been shed", st.Engine.Deduped)
	}
	// Acknowledged-but-shed writes are immediately readable.
	for i, want := range docs {
		got, err := n.Read("fam", fmt.Sprintf("f%03d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("shed doc %d unreadable before compaction: %v", i, err)
		}
	}

	logicalBefore := n.Store().Stats().LogicalBytes
	compactRounds(t, n, 32)
	snap := n.CompactionMetrics()
	if snap.Conversions.Total() < int64(family)/2 {
		t.Fatalf("re-dedup recovered %d of %d shed family members (skipped %d)",
			snap.Conversions.Total(), family, snap.ConversionsSkipped.Total())
	}
	if snap.LogicalBytesSaved.Total() <= 0 {
		t.Fatalf("LogicalBytesSaved = %d, want > 0", snap.LogicalBytesSaved.Total())
	}
	if after := n.Store().Stats().LogicalBytes; after >= logicalBefore {
		t.Fatalf("logical bytes %d → %d; shed ratio not recovered", logicalBefore, after)
	}
	for i, want := range docs {
		got, err := n.Read("fam", fmt.Sprintf("f%03d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("doc %d corrupted by recovery: %v", i, err)
		}
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll: %s", rep)
	}
}

func BenchmarkCompactRededup(b *testing.B) {
	for _, rededup := range []bool{false, true} {
		name := "plain"
		if rededup {
			name = "rededup"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				opts := rededupOptions(rededup)
				opts.SyncEncode = true
				opts.DisableAutoFlush = true
				opts.Engine.GovernorWindow = 1 << 30
				n, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				rededupWorkload(b, n, 3, 24, 4)
				b.StartTimer()
				compactRounds(b, n, 32)
				b.StopTimer()
				n.Close()
			}
		})
	}
}

// TestWritebackRefusesChainCycle pins the interaction between the two
// form-changing writers: the insert path queues a backward write-back
// (older record re-encoded against the newer one), and a compaction-time
// re-dedup conversion can independently point the newer record at the
// older one. Whichever commits second must notice the committed chain and
// skip — applying both closes a base cycle that recovery refuses to
// ground, silently dropping every record on it.
func TestWritebackRefusesChainCycle(t *testing.T) {
	dir := t.TempDir()
	opts := rededupOptions(true)
	opts.Dir = dir
	// Full-size index so the insert path dedups B against A and queues
	// the A→delta(B) write-back.
	opts.Engine.IndexEntries = 0
	n := testNode(t, opts)

	rng := rand.New(rand.NewSource(17))
	docA := workload.RevisionText(rng, 1600)
	docB := editText(rng, docA, 4)
	if err := n.Insert("db", "a", docA); err != nil {
		t.Fatal(err)
	}
	if err := n.Insert("db", "b", docB); err != nil {
		t.Fatal(err)
	}
	idA, _ := n.lookup("db", "a")
	idB, _ := n.lookup("db", "b")
	if n.PendingWritebacks() == 0 {
		t.Fatal("insert path queued no write-back; the cycle scenario needs one pending")
	}

	// Commit a re-dedup-style conversion of the newer record against the
	// older one: B becomes a delta over A, A is claimed as a base. (The
	// compaction pass does exactly this when A's features are the fresher
	// index entry; committed here directly so the test is deterministic.)
	d := n.eng.CompressDelta(docA, docB)
	recB, ok, err := n.store.Get(idB)
	if err != nil || !ok {
		t.Fatalf("Get(B): ok=%v err=%v", ok, err)
	}
	recB.Form = docstore.FormDelta
	recB.BaseID = idA
	recB.Payload = d.Marshal()
	n.applyMu.Lock()
	if err := n.store.Append(recB); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.refcnt[idA]++
	n.mu.Unlock()
	n.applyMu.Unlock()

	// The pending write-back would re-encode A against B — a cycle now.
	if applied := n.FlushWritebacks(-1); applied != 0 {
		t.Fatalf("write-back closing a base cycle was applied (%d)", applied)
	}
	if n.Stats().WritebacksSkipped == 0 {
		t.Fatal("refused write-back not counted as skipped")
	}

	for key, want := range map[string][]byte{"a": docA, "b": docB} {
		if got, err := n.Read("db", key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q after refused write-back: %v", key, err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// The decisive check: recovery can still ground every chain.
	n2, err := Open(Options{Dir: dir, BlockSize: 1 << 10, SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	for key, want := range map[string][]byte{"a": docA, "b": docB} {
		if got, err := n2.Read("db", key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q after reopen: %v", key, err)
		}
	}
	if rep := n2.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll after reopen: %s", rep)
	}
}
