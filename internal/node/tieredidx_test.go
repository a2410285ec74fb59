package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"dbdedup/internal/core"
	"dbdedup/internal/workload"
)

// tieredCorpus drives an eviction-bound workload: `families` templates whose
// members are inserted round-robin, so by the time a family's next member
// arrives, `families-1` other documents' features have passed through the
// index — far more than a small hot tier holds. An unbounded index dedups
// every member against the previous one; a budget-sized cuckoo index has
// evicted it and stores raw; the tiered index recovers it from the cold runs.
func tieredCorpus(t *testing.T, n *Node, families, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	templates := make([][]byte, families)
	for i := range templates {
		templates[i] = workload.RevisionText(rng, 1600)
	}
	for r := 0; r < rounds; r++ {
		for f := range templates {
			doc := editText(rng, templates[f], 4)
			if err := n.Insert("db", fmt.Sprintf("d%03d-%03d", f, r), doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.FlushWritebacks(-1)
}

func dedupRatio(n *Node) float64 {
	st := n.Stats()
	if st.Store.LogicalBytes <= 0 {
		return 0
	}
	return float64(st.RawInsertBytes) / float64(st.Store.LogicalBytes)
}

// TestTieredIndexRecoversDedupAtFractionalBudget is the PR's acceptance
// claim: at 1/8 of the unbounded cuckoo index's measured footprint, the
// tiered index recovers >= 80% of the unbounded dedup ratio on an
// eviction-bound corpus — while a cuckoo index squeezed to the same budget
// loses most of it.
func TestTieredIndexRecoversDedupAtFractionalBudget(t *testing.T) {
	// Geometry note: the 1/8-budget cuckoo holds ~distinct/8 entries while
	// the per-family recurrence distance is ~distinct/rounds features, so
	// rounds must stay well under 8 for the control to be eviction-bound.
	const families, rounds = 60, 4

	// Baseline: no index budget.
	unbounded := testNode(t, Options{})
	tieredCorpus(t, unbounded, families, rounds)
	ratioFull := dedupRatio(unbounded)
	footprint := unbounded.FeatIdxSnapshot().MemoryBytes
	if ratioFull < 2 {
		t.Fatalf("corpus not dedup-bound: unbounded ratio %.2f", ratioFull)
	}

	budget := footprint / 8

	// Tiered index at 1/8 the footprint (cold runs on its private MemFS).
	tieredNode := testNode(t, Options{Engine: core.Config{IndexBudgetBytes: budget}})
	tieredCorpus(t, tieredNode, families, rounds)
	ratioTiered := dedupRatio(tieredNode)

	// Control: no cold tier, the cuckoo table squeezed into the same bytes.
	squeezed := testNode(t, Options{Engine: core.Config{
		IndexEntries: max(int(budget/6), 16), // featidx.EntryBytes
	}})
	tieredCorpus(t, squeezed, families, rounds)
	ratioSqueezed := dedupRatio(squeezed)

	t.Logf("unbounded %.2fx (%d B index), tiered %.2fx at %d B budget, squeezed cuckoo %.2fx",
		ratioFull, footprint, ratioTiered, budget, ratioSqueezed)

	if ratioTiered < 0.8*ratioFull {
		t.Errorf("tiered ratio %.2fx below 80%% of unbounded %.2fx at 1/8 budget",
			ratioTiered, ratioFull)
	}
	if ratioTiered <= ratioSqueezed {
		t.Errorf("tiered ratio %.2fx not better than budget-equal cuckoo %.2fx",
			ratioTiered, ratioSqueezed)
	}

	es := tieredNode.Stats().Engine
	fi, ti := es.FeatIdx(), es.TieredIdx
	if !ti.Enabled {
		t.Fatal("tiered index not enabled under a positive budget")
	}
	if ti.Freezes == 0 || ti.ColdEntries == 0 {
		t.Errorf("cold tier never exercised: %+v", fi)
	}
	if ti.BloomChecks == 0 {
		t.Errorf("bloom filters never consulted: %+v", fi)
	}
	if fi.MemoryBytes > budget+budget/4 {
		t.Errorf("tiered index memory %d exceeds budget %d by more than 25%%",
			fi.MemoryBytes, budget)
	}
}

// TestBudgetedIndexUnderWorkloadMix runs the whole mutation mix — inserts,
// updates, deletes, compaction passes, a reopen and more inserts —
// with the index held to a 64 KiB budget and its cold runs under the node's
// storage directory, so freeze, Bloom and merge all happen beneath ordinary
// traffic. Every live key must read back byte-exact and the store must
// verify clean, before and after the reopen.
func TestBudgetedIndexUnderWorkloadMix(t *testing.T) {
	opts := Options{
		Dir:         t.TempDir(),
		Engine:      core.Config{IndexBudgetBytes: 64 << 10},
		BlockSize:   1 << 10,
		SegmentSize: 256 << 10,
	}
	n := testNode(t, opts)

	rng := rand.New(rand.NewSource(3))
	// 64 KiB freezes a run every ~2340 postings, 8 per record the size
	// filter lets through (~60 %): 4800 records make about ten runs,
	// enough to trigger a merge (past eight disk runs).
	const families, rounds = 60, 80
	templates := make([][]byte, families)
	for i := range templates {
		templates[i] = workload.RevisionText(rng, 1600)
	}
	want := make(map[string][]byte)
	insertRound := func(n *Node, round int) {
		t.Helper()
		for f, tmpl := range templates {
			key := fmt.Sprintf("d%02d-%02d", f, round)
			want[key] = editText(rng, tmpl, 4)
			if err := n.Insert("db", key, want[key]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(n *Node, when string) {
		t.Helper()
		for key, doc := range want {
			if got, err := n.Read("db", key); err != nil || !bytes.Equal(got, doc) {
				t.Fatalf("%s: read %q: err=%v", when, key, err)
			}
		}
		if rep := n.VerifyAll(); !rep.Ok() {
			t.Fatalf("%s: %s", when, rep)
		}
	}

	for round := 0; round < rounds; round++ {
		insertRound(n, round)
	}
	for f := 0; f < families; f += 2 {
		key := fmt.Sprintf("d%02d-01", f)
		want[key] = editText(rng, want[key], 2)
		if err := n.Update("db", key, want[key]); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < families; f += 3 {
		key := fmt.Sprintf("d%02d-02", f)
		delete(want, key)
		if err := n.Delete("db", key); err != nil {
			t.Fatal(err)
		}
	}
	n.FlushWritebacks(-1)
	for i := 0; i < 16; i++ {
		if _, err := n.Compact(); err != nil {
			t.Fatal(err)
		}
	}

	ti := n.Stats().Engine.TieredIdx
	if !ti.Enabled || ti.BudgetBytes != 64<<10 {
		t.Fatalf("index budget not in force: %+v", ti)
	}
	if ti.Freezes == 0 || ti.Merges == 0 || ti.ColdDiskBytes == 0 || ti.BloomChecks == 0 {
		t.Fatalf("cold tier never exercised: %+v", ti)
	}
	check(n, "before reopen")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := testNode(t, opts)
	insertRound(n2, rounds)
	n2.FlushWritebacks(-1)
	check(n2, "after reopen")
}

// TestStaleIndexRunsRemovedOnReopen: cold runs are soft state that is never
// reopened, so the ones a crashed node leaves behind must be gone as soon as
// the directory is opened again — whichever databases the new incarnation
// touches, and before any partition of it freezes.
func TestStaleIndexRunsRemovedOnReopen(t *testing.T) {
	opts := Options{
		Dir:        t.TempDir(),
		Engine:     core.Config{IndexBudgetBytes: 16 << 10, GovernorWindow: 1 << 30},
		SyncEncode: true, DisableAutoFlush: true,
	}
	runs := func() []string {
		m, _ := filepath.Glob(filepath.Join(opts.Dir, "featidx", "part-*", "run-*.idx"))
		return m
	}

	crashed, err := Open(opts) // never closed: that is the crash
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, db := range []string{"a", "b"} {
		for i := 0; i < 400; i++ {
			if err := crashed.Insert(db, fmt.Sprintf("k%03d", i), workload.RevisionText(rng, 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(runs()) == 0 {
		t.Fatal("no cold runs on disk before the crash")
	}

	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if left := runs(); len(left) != 0 {
		t.Fatalf("%d run files of the previous incarnation survive the reopen: %v", len(left), left)
	}
	if err := n.Insert("c", "k", workload.RevisionText(rng, 4096)); err != nil {
		t.Fatal(err)
	}
	if left := runs(); len(left) != 0 {
		t.Fatalf("run files present before any freeze of this incarnation: %v", left)
	}
}
