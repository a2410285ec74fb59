package sketch

import (
	"math/rand"
	"testing"

	"dbdedup/internal/chunker"
)

// xorshift fills n bytes from a fixed xorshift64 stream, matching the corpus
// generator used for the chunker golden vectors.
func xorshift(n int) []byte {
	var s uint64 = 0x9e3779b97f4a7c15
	b := make([]byte, n)
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	return b
}

// Golden sketches for both chunkers (K=8, ChunkAvgSize=64, Seed=0) over the
// xorshift(4096) corpus. These pin the full chunk→murmur→top-K pipeline: a
// silent change to boundary placement, feature hashing, or selection order
// fails here even if every distributional test still passes.
var goldenSketches = map[chunker.Algorithm]Sketch{
	chunker.Rabin: {
		0xf6e97c7c3bb139a0, 0xf6137f4bcfc66528, 0xf5a817248f0d25ae,
		0xef15684d1661c18d, 0xec7ce8167ef35802, 0xec35fcaf0ee24b2f,
		0xea93cfa68756c27c, 0xe74d0f6c3b9e2fde,
	},
	chunker.Gear: {
		0xf8f62a287324a8f9, 0xf830a78dd1ab08a4, 0xf65e252a21933c01,
		0xf48d2e02da0f6e64, 0xef36c42b2b9b839c, 0xdbde5331b5f03751,
		0xd8110352857e86c4, 0xd386165cf0b5a627,
	},
}

func TestGoldenSketches(t *testing.T) {
	data := xorshift(4096)
	for alg, want := range goldenSketches {
		e := NewExtractor(Config{K: 8, ChunkAvgSize: 64, Chunker: alg})
		got := e.Extract(data)
		if len(got) != len(want) {
			t.Fatalf("%v: sketch has %d features, want %d", alg, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v: feature %d = %#x, want %#x", alg, i, got[i], want[i])
			}
		}
	}
}

func TestChunkerSelectionChangesSketches(t *testing.T) {
	data := xorshift(16 * 1024)
	rb := NewExtractor(Config{K: 8, ChunkAvgSize: 64, Chunker: chunker.Rabin}).Extract(data)
	gr := NewExtractor(Config{K: 8, ChunkAvgSize: 64, Chunker: chunker.Gear}).Extract(data)
	if CommonFeatures(rb, gr) == len(rb) {
		t.Error("rabin and gear produced identical sketches on random data; chunker selection is not wired through")
	}
	// The zero Config is what every node runs: it must be gear.
	e := NewExtractor(Config{K: 8, ChunkAvgSize: 64})
	if e.ChunkerAlgorithm() != chunker.Gear {
		t.Errorf("zero Config: ChunkerAlgorithm() = %v, want gear", e.ChunkerAlgorithm())
	}
}

// TestGearSimilarityDetection repeats the core similarity property under the
// gear chunker: an edited copy shares most features, unrelated data almost
// none. This is the sketch-level guarantee the dedup-ratio parity tests
// depend on. Gear's normalized masks make boundary placement depend on the
// chunk-relative offset, so a single edit perturbs a longer run of downstream
// chunks than rabin's position-independent fingerprint does (~20 chunks vs 1
// on this corpus); the record and edit count here are sized so the damaged
// region stays a small fraction of the chunk stream, mirroring the per-record
// edit density of the fig-series workloads.
func TestGearSimilarityDetection(t *testing.T) {
	e := NewExtractor(Config{K: 8, ChunkAvgSize: 64, Chunker: chunker.Gear})
	rng := rand.New(rand.NewSource(3))
	base := randText(rng, 32*1024)

	edited := append([]byte(nil), base...)
	for i := 0; i < 2; i++ {
		pos := rng.Intn(len(edited) - 10)
		copy(edited[pos:], "EDITED")
	}
	skBase := e.Extract(base)
	if c := CommonFeatures(skBase, e.Extract(edited)); c < len(skBase)/2 {
		t.Errorf("gear: edited copy shares only %d/%d features", c, len(skBase))
	}

	unrelated := make([]byte, 8192)
	rng.Read(unrelated)
	if c := CommonFeatures(skBase, e.Extract(unrelated)); c > 1 {
		t.Errorf("gear: unrelated record shares %d features, want <= 1", c)
	}
}

// TestExtractIntoZeroAllocs pins the steady-state allocation behaviour of the
// sketch stage: with a caller-provided buffer, ExtractInto must not allocate
// in either sampling mode once the pooled scratch has warmed up.
func TestExtractIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments sync.Pool and defeats buffer reuse")
	}
	data := xorshift(8192)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"consistent/rabin", Config{K: 8, ChunkAvgSize: 64, Chunker: chunker.Rabin}},
		{"consistent/gear", Config{K: 8, ChunkAvgSize: 64, Chunker: chunker.Gear}},
		{"ablation/rabin", Config{K: 8, ChunkAvgSize: 64, Chunker: chunker.Rabin, SampleRandomly: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExtractor(tc.cfg)
			dst := make(Sketch, 0, tc.cfg.K)
			dst = e.ExtractInto(dst, data) // warm the scratch pool and grow dst
			allocs := testing.AllocsPerRun(100, func() {
				dst = e.ExtractInto(dst, data)
			})
			if allocs != 0 {
				t.Errorf("ExtractInto allocates %.1f times per call at steady state, want 0", allocs)
			}
		})
	}
}

func TestExtractIntoMatchesExtract(t *testing.T) {
	e := testExtractor()
	rng := rand.New(rand.NewSource(11))
	dst := make(Sketch, 0, 8)
	for i := 0; i < 50; i++ {
		data := randText(rng, 100+rng.Intn(8000))
		want := e.Extract(data)
		dst = e.ExtractInto(dst, data)
		if len(dst) != len(want) {
			t.Fatalf("ExtractInto returned %d features, Extract %d", len(dst), len(want))
		}
		for j := range dst {
			if dst[j] != want[j] {
				t.Fatalf("feature %d: ExtractInto %#x, Extract %#x", j, dst[j], want[j])
			}
		}
	}
	// Empty input truncates the buffer rather than discarding it.
	dst = e.ExtractInto(dst, nil)
	if len(dst) != 0 || cap(dst) == 0 {
		t.Fatalf("ExtractInto(dst, nil) = len %d cap %d; want empty slice with retained capacity", len(dst), cap(dst))
	}
}

// TestAblationTieBreakDeterministic is the regression test for the
// nondeterministic-sketch bug: when two features collide on the secondary
// sampling key, the order (and therefore which feature survives the K-cut)
// was previously left to sort.Slice's unstable whim. The sort must now order
// equal keys by feature value, for every input permutation.
func TestAblationTieBreakDeterministic(t *testing.T) {
	base := []featKey{
		{hash: 0x01, key: 0x50},
		{hash: 0x99, key: 0x50}, // same key as above, different feature
		{hash: 0x42, key: 0x70},
		{hash: 0x07, key: 0x50}, // three-way key collision
	}
	want := []featKey{
		{hash: 0x42, key: 0x70},
		{hash: 0x99, key: 0x50},
		{hash: 0x07, key: 0x50},
		{hash: 0x01, key: 0x50},
	}
	perm := make([]featKey, len(base))
	var permute func(k int)
	permute = func(k int) {
		if k == len(base) {
			got := append([]featKey(nil), perm...)
			sortFeaturesByKey(got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("input %v: sorted to %v, want %v", perm, got, want)
				}
			}
			return
		}
		for i := k; i < len(base); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	copy(perm, base)
	permute(0)
}

// TestAblationSketchDeterministicOnTies drives the same property end to end:
// repeated extractions in SampleRandomly mode must agree exactly.
func TestAblationSketchDeterministicOnTies(t *testing.T) {
	e := NewExtractor(Config{K: 8, ChunkAvgSize: 64, SampleRandomly: true})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		// Repetitive data maximises duplicate chunks, and duplicate chunks
		// produce identical (hash, key) pairs plus distinct features with
		// colliding keys at small key cardinality.
		data := randText(rng, 4096)
		a := e.Extract(data)
		for j := 0; j < 5; j++ {
			b := e.Extract(data)
			if len(a) != len(b) {
				t.Fatalf("iteration %d: sketch sizes differ: %d vs %d", i, len(a), len(b))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("iteration %d: feature %d differs: %#x vs %#x", i, k, a[k], b[k])
				}
			}
		}
	}
}

// TestCommonFeaturesSmallMatchesMap cross-checks the allocation-free
// nested-loop path against the map path on identical inputs.
func TestCommonFeaturesSmallMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Reference semantics: count entries of b present in a (both the nested
	// and the map branch iterate b against membership in a).
	naive := func(a, b Sketch) int {
		n := 0
		for _, y := range b {
			for _, x := range a {
				if y == x {
					n++
					break
				}
			}
		}
		return n
	}
	for trial := 0; trial < 200; trial++ {
		// Sizes straddle the small-path threshold so both branches run.
		mk := func(n int) Sketch {
			s := make(Sketch, n)
			for i := range s {
				s[i] = Feature(rng.Intn(12)) // dense collisions
			}
			return s
		}
		a, b := mk(rng.Intn(24)), mk(rng.Intn(24))
		if got, want := CommonFeatures(a, b), naive(a, b); got != want {
			t.Fatalf("CommonFeatures(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

func TestCommonFeaturesZeroAllocs(t *testing.T) {
	a := Sketch{9, 7, 5, 3, 2, 1}
	b := Sketch{8, 7, 3, 1}
	allocs := testing.AllocsPerRun(100, func() {
		CommonFeatures(a, b)
	})
	if allocs != 0 {
		t.Errorf("CommonFeatures allocates %.1f times per call for K-sized sketches, want 0", allocs)
	}
}
