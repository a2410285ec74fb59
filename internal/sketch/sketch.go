// Package sketch implements similarity-feature extraction for dbDedup.
//
// A record's sketch is a small, fixed-size sample of its chunk hashes: the
// record is divided into content-defined chunks (internal/chunker), each
// chunk is hashed with MurmurHash, and the top-K hashes by magnitude are
// kept (consistent sampling, paper §3.1.1). Two records that share even one feature are
// considered similar. Because at most K features are indexed per record,
// index memory is bounded regardless of chunk size — the property that lets
// dbDedup use tiny (64 B) chunks where exact dedup cannot.
//
// Extraction is the per-insert CPU floor of inline dedup, so the hot path
// is engineered to be allocation-free at steady state: chunk descriptors,
// chunk hashes, and sampling keys live in pooled scratch buffers, and chunk
// hashing is batched over the descriptor list. Consistent sampling sorts
// nothing: the K largest distinct hashes are selected by insertion into the
// K-slot result (only the ablation mode sorts). ExtractInto reuses a
// caller-owned sketch buffer; Extract allocates only its returned sketch.
package sketch

import (
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"dbdedup/internal/chunker"
	"dbdedup/internal/metrics"
	"dbdedup/internal/murmur"
)

// DefaultK is the default sketch size. The paper finds K=8 a reasonable
// trade-off between compression ratio and memory usage (§3.1.1 fn. 1).
const DefaultK = 8

// Feature is a sampled chunk hash used as a similarity feature.
type Feature uint64

// Sketch is a record's similarity sketch: up to K features sorted in
// descending magnitude (the consistent-sampling order).
type Sketch []Feature

// Config controls feature extraction.
type Config struct {
	// K is the maximum number of features per sketch; DefaultK if zero.
	K int
	// Chunker is the content-defined chunking algorithm. Leave it zero
	// (chunker.Gear); only the paper-fidelity experiments and the tests
	// set chunker.Rabin, the reference. Extractors that should agree on
	// sketches must use the same algorithm: boundaries, and hence
	// features, differ between the two.
	Chunker chunker.Algorithm
	// ChunkAvgSize is the target average chunk size in bytes (power of
	// two). Defaults to 1024. The paper evaluates 1 KiB and 64 B. Chunk
	// sizes are bounded by the chunker's defaults (avg/4 and avg*4).
	ChunkAvgSize int
	// Seed perturbs the chunk-hash function; all extractors that should
	// agree on sketches must use the same seed.
	Seed uint64
	// SampleRandomly selects features by position-independent random
	// order instead of consistent magnitude order. It exists only for the
	// ablation benchmark; consistent sampling characterises similarity
	// strictly better (paper §3.1.1).
	SampleRandomly bool
}

// featKey pairs a chunk hash with its secondary sampling key for the
// ablation (random-sampling) mode.
type featKey struct {
	hash uint64
	key  uint64
}

// extractScratch is the reusable per-extraction state: chunk descriptors,
// the chunk-hash batch, and the ablation-mode key pairs. Pooled so
// concurrent extractions each get their own and steady-state extraction
// performs no heap allocation.
type extractScratch struct {
	chunks []chunker.Chunk
	hashes []uint64
	pairs  []featKey
}

// Extractor turns records into sketches. It is safe for concurrent use.
type Extractor struct {
	k       int
	chunker chunker.Chunker
	seed    uint64
	random  bool

	enc     *metrics.EncodeMetrics // optional chunk-stage instrumentation
	scratch sync.Pool
}

// NewExtractor validates cfg and returns an Extractor.
func NewExtractor(cfg Config) *Extractor {
	if cfg.K == 0 {
		cfg.K = DefaultK
	}
	if cfg.K < 1 {
		panic("sketch: K must be >= 1")
	}
	if cfg.ChunkAvgSize == 0 {
		cfg.ChunkAvgSize = 1024
	}
	e := &Extractor{
		k: cfg.K,
		chunker: chunker.New(chunker.Config{
			Algorithm: cfg.Chunker,
			AvgSize:   cfg.ChunkAvgSize,
		}),
		seed:   cfg.Seed,
		random: cfg.SampleRandomly,
	}
	e.scratch.New = func() interface{} {
		return &extractScratch{
			chunks: make([]chunker.Chunk, 0, 64),
			hashes: make([]uint64, 0, 64),
		}
	}
	return e
}

// K returns the sketch size.
func (e *Extractor) K() int { return e.k }

// ChunkerAlgorithm reports which chunking algorithm the extractor runs.
func (e *Extractor) ChunkerAlgorithm() chunker.Algorithm {
	return e.chunker.Algorithm()
}

// SetMetrics attaches encode-pipeline instrumentation: chunk counts, bytes
// chunked, and the chunk-stage latency histogram. Pass nil to detach. Not
// safe to call concurrently with Extract.
func (e *Extractor) SetMetrics(m *metrics.EncodeMetrics) { e.enc = m }

// Extract computes the sketch of record. The result has between 0 and K
// features: short records produce few chunks and hence few features.
// Duplicate chunk hashes within one record are collapsed.
func (e *Extractor) Extract(record []byte) Sketch {
	return e.ExtractInto(nil, record)
}

// ExtractInto is Extract with a caller-owned result buffer: the sketch is
// appended to dst[:0] and the extended slice returned, so steady-state
// extraction allocates nothing once dst has capacity K. A nil dst behaves
// like Extract.
func (e *Extractor) ExtractInto(dst Sketch, record []byte) Sketch {
	if len(record) == 0 {
		return dst[:0] // nil stays nil: Extract(empty) == nil
	}
	sc := e.scratch.Get().(*extractScratch)

	// Content-defined chunking, instrumented when metrics are attached.
	if e.enc != nil {
		t := time.Now()
		sc.chunks = e.chunker.Chunks(record, sc.chunks[:0])
		e.enc.ObserveStage(metrics.StageChunk, time.Since(t))
		e.enc.Chunks.Add(int64(len(sc.chunks)))
		e.enc.ChunkedBytes.Add(int64(len(record)))
	} else {
		sc.chunks = e.chunker.Chunks(record, sc.chunks[:0])
	}

	// Batched chunk hashing: one tight loop over the descriptor list
	// instead of a callback per chunk.
	sc.hashes = sc.hashes[:0]
	for _, c := range sc.chunks {
		sc.hashes = append(sc.hashes, murmur.Sum64(record[c.Offset:c.Offset+c.Length], e.seed))
	}

	if e.random {
		// Ablation mode: sample by a secondary hash of the feature,
		// which is equivalent to a random-but-deterministic ordering
		// uncorrelated with feature magnitude. The secondary keys are
		// computed once per feature — not inside the sort comparator —
		// and ties break on the feature value so colliding keys cannot
		// make the K-cut depend on sort-internal ordering.
		sc.pairs = sc.pairs[:0]
		var kb [8]byte
		for _, h := range sc.hashes {
			binary.LittleEndian.PutUint64(kb[:], h)
			sc.pairs = append(sc.pairs, featKey{hash: h, key: murmur.Sum64(kb[:], ^e.seed)})
		}
		sortFeaturesByKey(sc.pairs)
		dst = dst[:0]
		for i, p := range sc.pairs {
			if i > 0 && p.hash == sc.pairs[i-1].hash {
				continue
			}
			dst = append(dst, Feature(p.hash))
			if len(dst) == e.k {
				break
			}
		}
	} else {
		// Consistent sampling: the K largest distinct hashes, in
		// descending order, so any two records sharing chunk content
		// tend to sample the same features.
		dst = topK(dst[:0], sc.hashes, e.k)
	}
	e.scratch.Put(sc)
	return dst
}

// topK appends to dst (empty, capacity reused) the k largest distinct values
// of hashes in descending order — what sorting hashes descending, dropping
// repeats and keeping the first k gives — by insertion into dst itself: a
// hash no larger than the smallest kept one, once k are kept, costs one
// comparison.
func topK(dst Sketch, hashes []uint64, k int) Sketch {
	for _, h := range hashes {
		f := Feature(h)
		n := len(dst)
		if n == k && f <= dst[n-1] {
			continue
		}
		// Find f's place: after every kept feature larger than it.
		i := n
		for i > 0 && dst[i-1] < f {
			i--
		}
		if i > 0 && dst[i-1] == f {
			continue // already kept
		}
		if n < k {
			dst = append(dst, 0)
		}
		copy(dst[i+1:], dst[i:])
		dst[i] = f
	}
	return dst
}

// sortFeaturesByKey orders ablation-mode features by secondary key,
// descending, breaking ties on the feature value (descending). The value
// tie-break makes the order — and therefore which features survive the
// K-cut — a pure function of the feature multiset, where an unstable sort
// on the key alone could emit colliding features in run-dependent order.
func sortFeaturesByKey(pairs []featKey) {
	slices.SortFunc(pairs, func(a, b featKey) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		case a.hash > b.hash:
			return -1
		case a.hash < b.hash:
			return 1
		default:
			return 0
		}
	})
}

// CommonFeatures returns how many features a and b share. Both must be in
// the extractor's sampling order (as returned by Extract); the count is the
// initial similarity score used in source selection (paper §3.1.3).
func CommonFeatures(a, b Sketch) int {
	n := 0
	if len(a) <= 2*DefaultK {
		// Sketches are at most K (= 8 by default) features: a nested
		// scan is allocation-free and faster than building a map. This
		// runs once per candidate during source selection, so the map
		// allocation was pure per-comparison overhead.
		for _, f := range b {
			for _, g := range a {
				if f == g {
					n++
					break
				}
			}
		}
		return n
	}
	seen := make(map[Feature]struct{}, len(a))
	for _, f := range a {
		seen[f] = struct{}{}
	}
	for _, f := range b {
		if _, ok := seen[f]; ok {
			n++
		}
	}
	return n
}
