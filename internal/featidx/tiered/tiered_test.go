package tiered

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/featidx"
	"dbdedup/internal/sketch"
)

// budgetFor returns a budget that yields exactly n hot entries (and so a
// freeze every n inserts), keeping tests' tier geometry explicit.
func budgetFor(n int) int64 { return int64(n) * 2 * (featidx.EntryBytes + recBytes) }

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1024", 1024, false},
		{"64KiB", 64 << 10, false},
		{"64kb", 64 << 10, false},
		{"2MiB", 2 << 20, false},
		{"1g", 1 << 30, false},
		{"-1", 0, true},
		{"-4KiB", 0, true},
		{"99999999999GiB", 0, true},
		{"8589934591GiB", 8589934591 << 30, false},
		{"8589934592GiB", 0, true},
		{" 8 MiB ", 8 << 20, false},
		{"", 0, true},
		{"chunky", 0, true},
		{"12XB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseSize(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestColdTierRecall drives far more distinct features than the hot tier
// holds and checks that frozen entries stay findable through the cold runs.
func TestColdTierRecall(t *testing.T) {
	ti := New(Config{BudgetBytes: budgetFor(128)})
	const n = 1000
	for i := 0; i < n; i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
		if i%128 == 127 { // the engine maintains after every encode batch
			if err := ti.Maintain(); err != nil {
				t.Fatalf("Maintain at %d: %v", i, err)
			}
		}
	}
	if err := ti.Maintain(); err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	found := 0
	for i := 0; i < n; i++ {
		for _, r := range ti.Lookup(sketch.Feature(i + 1)) {
			if r == featidx.Ref(i) {
				found++
				break
			}
		}
	}
	if found < n*95/100 {
		t.Errorf("recall %d/%d after spilling 8x the hot capacity, want >= 95%%", found, n)
	}
	s := ti.Snapshot()
	if s.Freezes == 0 || s.ColdRuns == 0 || s.ColdEntries == 0 {
		t.Errorf("expected freezes and cold runs, snapshot: %+v", s)
	}
	if s.ColdDiskBytes == 0 {
		t.Error("cold runs report no disk bytes after Maintain")
	}
	if s.ResidentRuns != 0 {
		t.Errorf("%d runs still resident after successful Maintain", s.ResidentRuns)
	}
	if s.BloomChecks == 0 || s.DiskProbes == 0 {
		t.Errorf("cold probes not exercised: %+v", s)
	}
}

// TestMergeBoundsRunCount checks that maintenance merges disk runs once they
// exceed maxDiskRuns and that merged data stays findable.
func TestMergeBoundsRunCount(t *testing.T) {
	ti := New(Config{BudgetBytes: budgetFor(64)})
	const n = 64 * 5 * maxDiskRuns
	for i := 0; i < n; i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
		if i%64 == 63 {
			if err := ti.Maintain(); err != nil {
				t.Fatalf("Maintain at %d: %v", i, err)
			}
		}
	}
	if err := ti.Maintain(); err != nil {
		t.Fatalf("final Maintain: %v", err)
	}
	s := ti.Snapshot()
	if s.Merges == 0 {
		t.Fatalf("no merges after %d freezes: %+v", s.Freezes, s)
	}
	if s.ColdRuns > maxDiskRuns+1 {
		t.Errorf("ColdRuns = %d after merging with maxDiskRuns=%d", s.ColdRuns, maxDiskRuns)
	}
	// The oldest features live in the merged run; they must survive.
	for _, i := range []int{0, 1, 100, 500} {
		refs := ti.Lookup(sketch.Feature(i + 1))
		ok := false
		for _, r := range refs {
			if r == featidx.Ref(i) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("feature %d lost after merge; got %v", i+1, refs)
		}
	}
}

// TestBloomGatesNegativeProbes measures the false-positive rate of the
// per-run filters: absent keys should rarely reach a disk search.
func TestBloomGatesNegativeProbes(t *testing.T) {
	ti := New(Config{BudgetBytes: budgetFor(256)})
	for i := 0; i < 1024; i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
	}
	if err := ti.Maintain(); err != nil {
		t.Fatal(err)
	}
	before := ti.Snapshot()
	misses := 5000
	for i := 0; i < misses; i++ {
		ti.Lookup(sketch.Feature(1<<40 + i)) // absent keys
	}
	after := ti.Snapshot()
	checks := after.BloomChecks - before.BloomChecks
	probes := after.DiskProbes - before.DiskProbes
	if checks == 0 {
		t.Fatal("no bloom checks recorded")
	}
	fpr := float64(probes) / float64(checks)
	if fpr > 0.20 {
		t.Errorf("bloom FPR %.3f (%d disk probes / %d checks), want <= 0.20 at 6 bits/entry", fpr, probes, checks)
	}
	if after.BloomFalsePositives < probes-(after.DiskProbeHits-before.DiskProbeHits) {
		t.Errorf("false-positive accounting inconsistent: %+v", after)
	}
}

// TestDiskLookupReadsItsPages: a Lookup of a key held by one disk run of
// eight pages reads the run's file at most twice, however many postings the
// key has: the run's page keys point the search at the pages the postings are
// on.
func TestDiskLookupReadsItsPages(t *testing.T) {
	const n = 8 * pageRecs
	inj := faultfs.NewInjector(faultfs.NewMemFS(), 1)
	ti := New(Config{BudgetBytes: budgetFor(n), Dir: "idx", FS: inj})
	defer ti.Close()
	// Every other one of the first 1200 inserts registers the same feature,
	// whose 600 postings straddle a page boundary; the rest are distinct.
	const many = sketch.Feature(1 << 40)
	feature := func(i int) sketch.Feature {
		if i < 1200 && i%2 == 0 {
			return many
		}
		return sketch.Feature(i + 1)
	}
	for i := 0; i < n; i++ {
		ti.LookupInsert(feature(i), featidx.Ref(i))
	}
	if err := ti.Maintain(); err != nil {
		t.Fatal(err)
	}
	if s := ti.Snapshot(); s.ColdRuns != 1 || s.ResidentRuns != 0 || s.ColdEntries != n {
		t.Fatalf("want one disk run of %d entries: %+v", n, s)
	}
	for i := 0; i < n; i += 37 {
		before := inj.Count(faultfs.OpRead)
		refs := ti.Lookup(feature(i))
		if reads := inj.Count(faultfs.OpRead) - before; reads > 2 {
			t.Fatalf("Lookup of feature %d: %d reads of the run, want at most 2", feature(i), reads)
		}
		if feature(i) != many && !slices.Contains(refs, featidx.Ref(i)) {
			t.Fatalf("Lookup of feature %d = %v, want ref %d among them", feature(i), refs, i)
		}
	}
	if s := ti.Snapshot(); s.DiskProbes == 0 || s.DiskReadErrors != 0 {
		t.Fatalf("the lookups did not search the disk run cleanly: %+v", s)
	}
}

// TestMemoryStaysWithinBudget: the whole point of the subsystem.
func TestMemoryStaysWithinBudget(t *testing.T) {
	budget := int64(64 << 10)
	ti := New(Config{BudgetBytes: budget})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60000; i++ {
		ti.LookupInsert(sketch.Feature(rng.Uint64()), featidx.Ref(i))
		if i%500 == 499 {
			if err := ti.Maintain(); err != nil {
				t.Fatalf("Maintain at %d: %v", i, err)
			}
			if got := ti.MemoryBytes(); got > budget {
				t.Fatalf("insert %d: MemoryBytes %d exceeds budget %d", i, got, budget)
			}
		}
	}
	s := ti.Snapshot()
	if s.ColdEntries < 50000 {
		t.Errorf("cold tier holds %d entries, expected the bulk of 60000", s.ColdEntries)
	}
	if s.MemoryBytes > budget {
		t.Errorf("final memory %d over budget %d", s.MemoryBytes, budget)
	}
}

// flakyFS fails file creation on demand — the persistent-disk-failure stand-in.
type flakyFS struct {
	faultfs.FS
	mu   sync.Mutex
	fail bool
}

func (f *flakyFS) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f.mu.Lock()
	failing := f.fail
	f.mu.Unlock()
	if failing {
		return nil, errors.New("flakyfs: injected open failure")
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestFreezeFailureKeepsRunsResident: when the disk write fails the frozen
// run must stay probe-able in memory and be retried by a later Maintain.
func TestFreezeFailureKeepsRunsResident(t *testing.T) {
	fs := &flakyFS{FS: faultfs.NewMemFS()}
	fs.setFail(true)
	ti := New(Config{BudgetBytes: budgetFor(64), Dir: "idx", FS: fs})
	for i := 0; i < 100; i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
	}
	if err := ti.Maintain(); err == nil {
		t.Fatal("Maintain succeeded against a failing FS")
	}
	s := ti.Snapshot()
	if s.FreezeFailures == 0 || s.ResidentRuns == 0 {
		t.Fatalf("expected resident runs after freeze failure: %+v", s)
	}
	// Frozen-but-unwritten entries must still be findable.
	refs := ti.Lookup(sketch.Feature(1))
	if len(refs) == 0 || refs[0] != 0 {
		t.Errorf("resident run not probe-able: %v", refs)
	}
	// Disk heals: the next maintenance pass retries the flush on its own —
	// a failed Maintain must leave the needs-maintenance flag raised.
	fs.setFail(false)
	if err := ti.Maintain(); err != nil {
		t.Fatalf("Maintain after heal: %v", err)
	}
	s = ti.Snapshot()
	if s.ResidentRuns != 0 || s.Freezes == 0 {
		t.Errorf("runs not flushed after heal: %+v", s)
	}
}

// TestPersistentFailureShedsOldestRun: with the disk gone for good, resident
// runs must stay bounded by shedding the oldest (recall loss, not memory).
func TestPersistentFailureShedsOldestRun(t *testing.T) {
	fs := &flakyFS{FS: faultfs.NewMemFS()}
	fs.setFail(true)
	ti := New(Config{BudgetBytes: budgetFor(64), Dir: "idx", FS: fs})
	for i := 0; i < 64*(maxResidentRuns+4); i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
		if i%64 == 63 {
			ti.Maintain() // fails; keeps runs resident
		}
	}
	s := ti.Snapshot()
	if s.DroppedRuns == 0 {
		t.Fatalf("no runs dropped under persistent failure: %+v", s)
	}
	if s.ResidentRuns > maxResidentRuns {
		t.Errorf("ResidentRuns = %d exceeds maxResidentRuns=%d", s.ResidentRuns, maxResidentRuns)
	}
	if got := ti.MemoryBytes(); got > 3*ti.CapacityBytes() {
		t.Errorf("memory %d unbounded under persistent disk failure (budget %d)", got, ti.CapacityBytes())
	}
}

// TestInjectedWriteFaults runs freezes through the deterministic fault
// injector: a failed or torn run write must degrade to a resident run and
// never break later probes.
func TestInjectedWriteFaults(t *testing.T) {
	for _, rule := range []faultfs.Rule{
		faultfs.FailWrite(1),
		faultfs.ShortWrite(1),
		faultfs.FailSync(1),
	} {
		inj := faultfs.NewInjector(faultfs.NewMemFS(), 42, rule)
		ti := New(Config{BudgetBytes: budgetFor(64), Dir: "idx", FS: inj})
		for i := 0; i < 300; i++ {
			ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
			if i%64 == 63 {
				ti.Maintain() // first pass eats the fault; later ones heal
			}
		}
		ti.Maintain()
		found := 0
		for i := 0; i < 200; i++ {
			for _, r := range ti.Lookup(sketch.Feature(i + 1)) {
				if r == featidx.Ref(i) {
					found++
					break
				}
			}
		}
		if found < 190 {
			t.Errorf("rule %+v: recall %d/200 after injected fault", rule, found)
		}
		if err := ti.Close(); err != nil {
			t.Errorf("rule %+v: Close: %v", rule, err)
		}
	}
}

// TestCloseUnlinksRuns: Close must retire every run and remove its file.
func TestCloseUnlinksRuns(t *testing.T) {
	fs := faultfs.NewMemFS()
	ti := New(Config{BudgetBytes: budgetFor(64), Dir: "idx", FS: fs})
	for i := 0; i < 300; i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
	}
	if err := ti.Maintain(); err != nil {
		t.Fatal(err)
	}
	files, _ := fs.Glob(filepath.Join("idx", "run-*.idx"))
	if len(files) == 0 {
		t.Fatal("no run files on the FS after Maintain")
	}
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ = fs.Glob(filepath.Join("idx", "run-*.idx"))
	if len(files) != 0 {
		t.Errorf("run files survive Close: %v", files)
	}
	if s := ti.Snapshot(); s.ColdRuns != 0 {
		t.Errorf("runs still published after Close: %+v", s)
	}
	// Idempotent, and safe to maintain after closing.
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	ti.needMaint.Store(true)
	if err := ti.Maintain(); err != nil {
		t.Errorf("Maintain after Close: %v", err)
	}
}

// TestRemoveStaleRuns: leftovers from a crashed predecessor are removed from
// every partition directory under the root, and nothing else is.
func TestRemoveStaleRuns(t *testing.T) {
	fs := faultfs.NewMemFS()
	create := func(path string) {
		t.Helper()
		f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte("stale"), 0)
		f.Close()
	}
	create(filepath.Join("idx", "part-000000", "run-000099.idx"))
	create(filepath.Join("idx", "part-000007", "run-000000.idx"))
	create(filepath.Join("idx", "part-000007", "notes.txt"))
	create(filepath.Join("store", "part-000000", "run-000001.idx"))

	RemoveStaleRuns(fs, "idx")

	if left, _ := fs.Glob(filepath.Join("idx", "*", "run-*.idx")); len(left) != 0 {
		t.Errorf("stale runs survived the sweep: %v", left)
	}
	for _, keep := range []string{
		filepath.Join("idx", "part-000007", "notes.txt"),
		filepath.Join("store", "part-000000", "run-000001.idx"),
	} {
		if got, _ := fs.Glob(keep); len(got) != 1 {
			t.Errorf("sweep removed %s", keep)
		}
	}
}

// TestNoBudgetIsTheHotIndex pins the degeneration the engine relies on: with
// no budget a TieredIndex is its hot featidx.Index and nothing more. A seeded
// stream that overflows a small table (unique features force LRU evictions,
// a few hot features recur past the candidate cap) must produce the same
// candidates on every call and the same accounting as a bare featidx.Index
// of the same geometry, and no pending log may exist.
func TestNoBudgetIsTheHotIndex(t *testing.T) {
	const hotEntries, calls = 1024, 120000
	ti := New(Config{HotEntries: hotEntries})
	bare := featidx.New(featidx.Config{CapacityEntries: hotEntries})

	rng := rand.New(rand.NewSource(42))
	sawFullSlice := false
	for i := 0; i < calls; i++ {
		f := sketch.Feature(rng.Uint64())
		if i%2 == 0 {
			f = sketch.Feature(1 + rng.Intn(64))
		}
		got, want := ti.LookupInsert(f, featidx.Ref(i)), bare.LookupInsert(f, featidx.Ref(i))
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: candidates %v, bare index %v", i, got, want)
		}
		sawFullSlice = sawFullSlice || len(got) == 8
		if i%1000 == 0 {
			if err := ti.Maintain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, ev := bare.Stats(); ev == 0 || !sawFullSlice {
		t.Fatalf("stream too gentle: %d evictions, candidate cap reached: %v", ev, sawFullSlice)
	}

	if ti.Len() != bare.Len() || ti.MemoryBytes() != bare.MemoryBytes() || ti.CapacityBytes() != bare.CapacityBytes() {
		t.Errorf("Len/MemoryBytes/CapacityBytes = %d/%d/%d, bare index %d/%d/%d",
			ti.Len(), ti.MemoryBytes(), ti.CapacityBytes(), bare.Len(), bare.MemoryBytes(), bare.CapacityBytes())
	}
	lk, mt, ev := ti.Stats()
	blk, bmt, bev := bare.Stats()
	if lk != blk || mt != bmt || ev != bev {
		t.Errorf("Stats = %d/%d/%d, bare index %d/%d/%d", lk, mt, ev, blk, bmt, bev)
	}
	if ti.log != nil {
		t.Errorf("pending log allocated without a budget: cap %d", cap(ti.log))
	}
	if s := ti.Snapshot(); s != (Snapshot{}) {
		t.Errorf("Snapshot without a budget = %+v, want zero", s)
	}
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProbesAndMaintenance exercises the epoch-published run table
// under the race detector: one goroutine probes/inserts under the external
// lock (the engine's discipline) while another runs Maintain and a third
// reads MemoryBytes/Snapshot under the same external lock.
func TestConcurrentProbesAndMaintenance(t *testing.T) {
	ti := New(Config{BudgetBytes: budgetFor(64)})
	var extMu sync.Mutex // stands in for the engine's per-database lock
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // maintenance, off the external lock
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				ti.Maintain()
			}
		}
	}()
	wg.Add(1)
	go func() { // observer under the external lock
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				extMu.Lock()
				_ = ti.Snapshot()
				_ = ti.MemoryBytes()
				extMu.Unlock()
			}
		}
	}()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		extMu.Lock()
		f := sketch.Feature(rng.Uint64() % 4096) // hot keys → cold matches too
		ti.LookupInsert(f, featidx.Ref(i))
		extMu.Unlock()
	}
	close(done)
	wg.Wait()
	if err := ti.Maintain(); err != nil {
		t.Fatal(err)
	}
	s := ti.Snapshot()
	if s.Freezes == 0 {
		t.Errorf("concurrent run produced no freezes: %+v", s)
	}
}

// TestTieredBeatsBudgetEqualCuckoo is the recall argument in miniature: at
// the same memory budget, the tiered index must find recurrences the
// budget-sized cuckoo index has long evicted.
func TestTieredBeatsBudgetEqualCuckoo(t *testing.T) {
	budget := budgetFor(128) // 128 hot entries
	ti := New(Config{BudgetBytes: budget})
	cuckoo := featidx.New(featidx.Config{CapacityEntries: int(budget / featidx.EntryBytes)})

	// Phase 1: register features 1..N once in both.
	const n = 4000
	for i := 0; i < n; i++ {
		ti.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
		cuckoo.LookupInsert(sketch.Feature(i+1), featidx.Ref(i))
		if i%128 == 127 {
			ti.Maintain()
		}
	}
	ti.Maintain()
	// Phase 2: the same features recur; count who still knows them.
	tiHits, ckHits := 0, 0
	for i := 0; i < n; i++ {
		if len(ti.Lookup(sketch.Feature(i+1))) > 0 {
			tiHits++
		}
		if len(cuckoo.Lookup(sketch.Feature(i+1))) > 0 {
			ckHits++
		}
	}
	if tiHits <= ckHits {
		t.Errorf("tiered recall %d/%d not better than budget-equal cuckoo %d/%d", tiHits, n, ckHits, n)
	}
	if tiHits < n*95/100 {
		t.Errorf("tiered recall %d/%d below 95%%", tiHits, n)
	}
}
