package featidx

import (
	"math/rand"
	"testing"
	"unsafe"

	"dbdedup/internal/sketch"
)

func TestLookupInsertRoundTrip(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 12})
	f := sketch.Feature(0xdeadbeefcafe)

	if got := ix.LookupInsert(f, 1); len(got) != 0 {
		t.Fatalf("first lookup returned %v, want empty", got)
	}
	got := ix.LookupInsert(f, 2)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("second lookup = %v, want [1]", got)
	}
	got = ix.LookupInsert(f, 3)
	if len(got) != 2 {
		t.Fatalf("third lookup = %v, want two refs", got)
	}
}

func TestDistinctFeaturesDoNotMatch(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 14})
	rng := rand.New(rand.NewSource(1))
	// Insert 1000 distinct features, then check lookups of fresh features
	// return (almost) nothing. Checksum false positives are possible but
	// must be rare.
	for i := 0; i < 1000; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
	}
	falsePos := 0
	for i := 0; i < 1000; i++ {
		falsePos += len(ix.Lookup(sketch.Feature(rng.Uint64())))
	}
	if falsePos > 10 {
		t.Errorf("%d false-positive matches in 1000 fresh lookups", falsePos)
	}
}

func TestMaxCandidatesTerminatesSearch(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 12})
	f := sketch.Feature(42)
	for i := 0; i < 3*MaxCandidates; i++ {
		got := ix.LookupInsert(f, Ref(i))
		if want := min(i, MaxCandidates); len(got) != want {
			t.Fatalf("insert %d returned %d candidates, want %d (cap %d)", i, len(got), want, MaxCandidates)
		}
	}
	if got := ix.Lookup(f); len(got) != MaxCandidates {
		t.Fatalf("Lookup returned %d candidates, cap is %d", len(got), MaxCandidates)
	}
}

func TestEvictionWhenFull(t *testing.T) {
	// A tiny index must keep working under pressure, evicting LRU entries
	// rather than failing.
	ix := New(Config{CapacityEntries: 64})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
	}
	if ix.Len() > 64 {
		t.Fatalf("occupied %d > capacity 64", ix.Len())
	}
	_, _, ev := ix.Stats()
	if ev == 0 {
		t.Fatal("expected evictions under pressure")
	}
}

func TestRecentEntriesSurviveEviction(t *testing.T) {
	// LRU behaviour: after heavy churn, a feature inserted at the very
	// end should still be findable.
	ix := New(Config{CapacityEntries: 256})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
	}
	f := sketch.Feature(0x1234567890ab)
	ix.LookupInsert(f, 99999)
	got := ix.Lookup(f)
	found := false
	for _, r := range got {
		if r == 99999 {
			found = true
		}
	}
	if !found {
		t.Error("entry inserted last was not found immediately afterwards")
	}
}

func TestMemoryAccounting(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 10})
	if ix.MemoryBytes() != 0 {
		t.Fatalf("empty index reports %d bytes", ix.MemoryBytes())
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
	}
	if got := ix.MemoryBytes(); got != int64(ix.Len())*EntryBytes {
		t.Errorf("MemoryBytes = %d, want %d", got, ix.Len()*EntryBytes)
	}
	if ix.CapacityBytes() < ix.MemoryBytes() {
		t.Error("capacity below occupancy")
	}
}

func TestHighLoadFactor(t *testing.T) {
	// With 8 hash functions and 4-entry buckets the index should reach a
	// high load factor before evictions begin.
	cap := 1 << 12
	ix := New(Config{CapacityEntries: cap})
	rng := rand.New(rand.NewSource(5))
	inserted := 0
	for {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(inserted))
		inserted++
		if _, _, ev := ix.Stats(); ev > 0 {
			break
		}
		if inserted > 2*cap {
			t.Fatal("no eviction after 2x capacity inserts; occupancy bookkeeping broken?")
		}
	}
	load := float64(ix.Len()) / float64(cap)
	if load < 0.5 {
		t.Errorf("first eviction at load factor %.2f, want >= 0.5", load)
	}
}

func TestDefaults(t *testing.T) {
	ix := New(Config{})
	if ix.Len() != 0 || ix.MemoryBytes() != 0 {
		t.Fatal("zero-config index not empty")
	}
	ix.LookupInsert(7, 1)
	if got := ix.Lookup(7); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Lookup = %v, want [1]", got)
	}
}

// TestTruncatedEvictionPicksLRUMatch is the fail-on-old regression test for
// the LRU-match eviction bug: LookupInsert refreshed e.tick to the current
// clock *before* comparing it against lruMatchTick, so every match looked
// equally recent and the truncated path always evicted the first match
// scanned — even when a later-scanned match was strictly colder.
//
// The scenario engineers a tick skew between checksum-equal entries in two
// buckets of the same feature's candidate list:
//
//	f            → buckets A, B, ...
//	g (sum == f) → buckets A, D, ...
//
// MaxCandidates inserts of f fill A (refs 1-4) and B (refs 5-8); an insert
// of g then refreshes only A (its scan goes on to the empty D, never B). The
// next insert of f truncates at MaxCandidates and must evict a colder B
// entry; the old code evicted the freshly-touched ref 1 in A instead.
func TestTruncatedEvictionPicksLRUMatch(t *testing.T) {
	if MaxCandidates != 2*bucketEntries {
		t.Fatalf("scenario assumes MaxCandidates (%d) fills two buckets of %d", MaxCandidates, bucketEntries)
	}
	ix := New(Config{CapacityEntries: 64})
	rng := rand.New(rand.NewSource(11))

	var f sketch.Feature
	for {
		f = sketch.Feature(rng.Uint64())
		if ix.hash(f, 0) != ix.hash(f, 1) {
			break
		}
	}
	bktA, bktB := ix.hash(f, 0), ix.hash(f, 1)
	sum := checksumOf(f)

	// g: same 16-bit checksum as f (fold the low word to force it), first
	// bucket A, second bucket distinct from both of f's.
	var g sketch.Feature
	for i := 0; ; i++ {
		if i > 1<<22 {
			t.Fatal("no suitable colliding feature g found")
		}
		hi := rng.Uint64() &^ 0xffff
		w := uint16(hi>>16) ^ uint16(hi>>32) ^ uint16(hi>>48)
		g = sketch.Feature(hi | uint64(w^sum))
		if g == f || checksumOf(g) != sum || ix.hash(g, 0) != bktA {
			continue
		}
		if d := ix.hash(g, 1); d != bktA && d != bktB {
			break
		}
	}

	for r := Ref(1); r <= MaxCandidates; r++ {
		ix.LookupInsert(f, r) // A gets refs 1-4, B refs 5-8
	}
	ix.LookupInsert(g, 50) // refreshes A only, lands in D

	// Truncated insert: scans A (fresh) then B (cold) and must evict in B.
	got := ix.LookupInsert(f, 99)
	if len(got) != MaxCandidates {
		t.Fatalf("truncated insert returned %v, want %d candidates", got, MaxCandidates)
	}
	after := ix.Lookup(f)
	seen := map[Ref]bool{}
	for _, r := range after {
		seen[r] = true
	}
	if !seen[1] {
		t.Errorf("recently-touched ref 1 was evicted; Lookup = %v (LRU-match eviction regressed)", after)
	}
	if !seen[99] || seen[5] {
		t.Errorf("want the first least-recently-used ref (5) replaced by 99; Lookup = %v", after)
	}
}

// TestOccupancyAcrossTruncatedEviction pins Len/MemoryBytes through the
// truncated-eviction path: the evicting insert overwrites a matching slot, so
// occupancy must not move while the eviction counter does.
func TestOccupancyAcrossTruncatedEviction(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 10})
	f := sketch.Feature(0xfeedface)
	for r := Ref(1); r <= MaxCandidates; r++ {
		ix.LookupInsert(f, r)
	}
	if ix.Len() != MaxCandidates {
		t.Fatalf("Len = %d after %d inserts, want %[2]d", ix.Len(), MaxCandidates)
	}
	got := ix.LookupInsert(f, 99) // truncates: MaxCandidates matches
	if len(got) != MaxCandidates {
		t.Fatalf("truncating insert returned %v, want %d candidates", got, MaxCandidates)
	}
	if ix.Len() != MaxCandidates {
		t.Errorf("Len = %d after truncated eviction, want %d (overwrite, not growth)", ix.Len(), MaxCandidates)
	}
	if got := ix.MemoryBytes(); got != int64(ix.Len())*EntryBytes {
		t.Errorf("MemoryBytes = %d, want Len*EntryBytes = %d", got, ix.Len()*EntryBytes)
	}
	if _, _, ev := ix.Stats(); ev != 1 {
		t.Errorf("evictions = %d after one truncated eviction, want 1", ev)
	}
}

// TestOccupancyAcrossFullBucketEviction drives a tiny index far past
// capacity with distinct features (the full-bucket LRU-eviction path) and
// checks the accounting invariant occupied + evictions == inserts, which
// holds because every LookupInsert writes its entry exactly one way: into a
// free slot (occupancy grows) or over a victim (an eviction).
func TestOccupancyAcrossFullBucketEviction(t *testing.T) {
	ix := New(Config{CapacityEntries: 32})
	rng := rand.New(rand.NewSource(12))
	inserts := uint64(0)
	for i := 0; i < 4000; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
		inserts++
		if got := ix.MemoryBytes(); got != int64(ix.Len())*EntryBytes {
			t.Fatalf("insert %d: MemoryBytes = %d, want %d", i, got, ix.Len()*EntryBytes)
		}
	}
	if ix.Len() > 32 {
		t.Errorf("Len = %d exceeds capacity 32", ix.Len())
	}
	_, _, ev := ix.Stats()
	if uint64(ix.Len())+ev != inserts {
		t.Errorf("occupied(%d) + evictions(%d) != inserts(%d)", ix.Len(), ev, inserts)
	}
	if ev == 0 {
		t.Error("expected full-bucket evictions at 125x capacity pressure")
	}
}

// TestStatsCountersMatchObserved replays a mixed workload and checks Stats()
// against externally tallied lookups and matches.
func TestStatsCountersMatchObserved(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 10})
	rng := rand.New(rand.NewSource(13))
	var lookups, matches uint64
	for i := 0; i < 500; i++ {
		f := sketch.Feature(rng.Uint64() % 50) // 50 hot features → plenty of matches
		got := ix.LookupInsert(f, Ref(i))
		lookups++
		matches += uint64(len(got))
	}
	lk, mt, ev := ix.Stats()
	if lk != lookups {
		t.Errorf("Stats lookups = %d, observed %d", lk, lookups)
	}
	if mt != matches {
		t.Errorf("Stats matches = %d, observed %d", mt, matches)
	}
	if uint64(ix.Len())+ev != lookups {
		t.Errorf("occupied(%d) + evictions(%d) != inserts(%d)", ix.Len(), ev, lookups)
	}
	if mt == 0 {
		t.Error("workload produced no matches; test is vacuous")
	}
}

// TestGrowthStartsSmallAndDoubles pins the demand-grown allocation: a
// large-capacity index starts at initialEntries and doubles as occupancy
// crosses the growth fraction, never exceeding the configured capacity.
func TestGrowthStartsSmallAndDoubles(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 18})
	if got := ix.AllocatedEntries(); got != initialEntries {
		t.Fatalf("initial allocation = %d entries, want %d", got, initialEntries)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1<<15; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
	}
	if got := ix.AllocatedEntries(); got <= initialEntries {
		t.Fatalf("allocation stayed at %d entries after %d inserts", got, 1<<15)
	}
	if got := ix.AllocatedEntries(); got > 1<<18 {
		t.Fatalf("allocation %d exceeds capacity %d", got, 1<<18)
	}
	// Occupancy always stays below the growth trigger of the allocation.
	if ix.Len() >= ix.growAt {
		t.Fatalf("occupied %d >= growAt %d after inserts", ix.Len(), ix.growAt)
	}
}

// TestGrowthPreservesEntries proves rehashing keeps the index's accumulated
// similarity state: features inserted before several doublings are still
// findable afterwards.
func TestGrowthPreservesEntries(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 18})
	rng := rand.New(rand.NewSource(22))
	early := make([]sketch.Feature, 256)
	for i := range early {
		early[i] = sketch.Feature(rng.Uint64())
		ix.LookupInsert(early[i], Ref(i))
	}
	grew := 0
	for i := 0; i < 1<<15; i++ {
		before := ix.AllocatedEntries()
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(1000+i))
		if ix.AllocatedEntries() != before {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("table never grew; test is vacuous")
	}
	missing := 0
	for i, f := range early {
		found := false
		for _, r := range ix.Lookup(f) {
			if r == Ref(i) {
				found = true
			}
		}
		if !found {
			missing++
		}
	}
	// Growth re-placement can in principle evict, but at ≤ half load the
	// odds are negligible; any loss here means rehash dropped entries.
	if missing > 2 {
		t.Fatalf("%d of %d pre-growth entries lost across %d doublings", missing, len(early), grew)
	}
}

// TestGrowthNeverExceedsCapacity drives an index far past capacity and
// checks the allocation parks at the configured bound with LRU eviction
// taking over (the pre-growth behaviour).
func TestGrowthNeverExceedsCapacity(t *testing.T) {
	ix := New(Config{CapacityEntries: 2 * initialEntries})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8*initialEntries; i++ {
		ix.LookupInsert(sketch.Feature(rng.Uint64()), Ref(i))
	}
	if got, want := ix.AllocatedEntries(), 2*initialEntries; got != want {
		t.Fatalf("allocation = %d, want parked at capacity %d", got, want)
	}
	if ix.Len() > 2*initialEntries {
		t.Fatalf("occupied %d exceeds capacity", ix.Len())
	}
	if _, _, ev := ix.Stats(); ev == 0 {
		t.Fatal("expected evictions once parked at capacity")
	}
}

// TestBucketIsOneCacheLine pins the entry at 16 bytes, so that the four
// entries a probe scans in one bucket are one 64-byte line, and checks that
// AllocatedBytes counts them at that size.
func TestBucketIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(entry{}) * bucketEntries; n != 64 {
		t.Fatalf("a bucket is %d bytes, want 64", n)
	}
	ix := New(Config{CapacityEntries: 1 << 12})
	if got, want := ix.AllocatedBytes(), int64(ix.AllocatedEntries())*16; got != want {
		t.Fatalf("AllocatedBytes = %d, want %d", got, want)
	}
}

// TestClockSkipsZeroWhenItWraps runs the LRU clock through its wrap. A tick of
// 0 is an empty slot, so an entry stamped at the wrap must get 1: stamped 0, it
// would read as free, its own lookup would stop at it, the next insert would
// overwrite it and occupancy would count it twice.
func TestClockSkipsZeroWhenItWraps(t *testing.T) {
	ix := New(Config{CapacityEntries: 1 << 14, Seed: 3})
	rng := rand.New(rand.NewSource(7))
	feats := make([]sketch.Feature, 0, 4000)
	add := func() {
		f := sketch.Feature(rng.Uint64())
		ix.LookupInsert(f, Ref(len(feats)))
		feats = append(feats, f)
	}
	add()
	ix.clock = 1<<32 - 2
	add() // stamped with the clock's last value
	add() // stamped at the wrap
	if ix.clock != 1 {
		t.Fatalf("clock after the wrap = %d, want 1", ix.clock)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d after three inserts across the wrap, want 3", ix.Len())
	}
	allocated := ix.AllocatedEntries()
	for ix.AllocatedEntries() == allocated {
		add() // until the table doubles and re-places everything
	}
	if ix.Len() != len(feats) {
		t.Fatalf("Len = %d after %d inserts, want all of them", ix.Len(), len(feats))
	}
	for i, f := range feats {
		found := false
		for _, r := range ix.Lookup(f) {
			found = found || r == Ref(i)
		}
		if !found {
			t.Fatalf("feature %d (of %d) lost across the wrap and the doubling", i, len(feats))
		}
	}
}

func BenchmarkLookupInsert(b *testing.B) {
	ix := New(Config{CapacityEntries: 1 << 20})
	rng := rand.New(rand.NewSource(1))
	feats := make([]sketch.Feature, 1<<16)
	for i := range feats {
		feats[i] = sketch.Feature(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.LookupInsert(feats[i&(len(feats)-1)], Ref(i))
	}
}
