// Package metrics holds the instruments of the running system and the typed
// bundles that group them: Meter (a counter), Gauge (a level) and Histogram
// (latencies, with CDF and percentile extraction), and one bundle per
// subsystem (encode, apply, replication transport, compaction, cluster
// routing). The rule is one owner per number: a number is incremented in one
// package and exported under one name, and every reader (the admin endpoint,
// the load tools, experiments, tests) reads the live instrument. The
// instruments marshal themselves (a Meter or Gauge as its number, a Histogram
// as its LatencySummary), so encoding/json over a pointer to a bundle is the
// registry; nothing copies a bundle field by field. Series, Ratio and
// FormatBytes serve the paper's figures (Figs. 10–13).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations in exponentially spaced buckets, cheap enough
// for per-operation use, precise enough for 99.9th-percentile reads.
//
// Buckets span 1µs to ~17.9min with 16 sub-buckets per power of two.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histSubBits = 4 // 16 sub-buckets per octave
	histBuckets = 30 << histSubBits
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.MaxInt64}
}

// bucketOf maps a duration to its bucket: microsecond values below 16 get
// exact buckets 0..15; above that, each power of two is split into 16
// sub-buckets, giving <= 1/16 relative width everywhere.
func bucketOf(d time.Duration) int {
	us := uint64(d.Microseconds())
	if d < 0 {
		us = 0
	}
	if us < 1<<histSubBits {
		return int(us)
	}
	exp := 63 - bits.LeadingZeros64(us) // >= histSubBits
	sub := (us >> (uint(exp) - histSubBits)) & ((1 << histSubBits) - 1)
	b := (exp-histSubBits+1)<<histSubBits | int(sub)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the largest duration the bucket can hold.
func bucketUpper(b int) time.Duration {
	if b < 1<<histSubBits {
		return time.Duration(b) * time.Microsecond
	}
	exp := b>>histSubBits + histSubBits - 1
	sub := b & ((1 << histSubBits) - 1)
	us := (uint64(1<<histSubBits+sub+1) << (uint(exp) - histSubBits)) - 1
	return time.Duration(us) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the average observed duration.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1), e.g.
// Quantile(0.999) is the 99.9th-percentile latency.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(h.total)))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= want {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64 // fraction of observations <= Value
}

// CDF returns the latency CDF at each non-empty bucket boundary.
func (h *Histogram) CDF() []CDFPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return nil
	}
	var pts []CDFPoint
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		pts = append(pts, CDFPoint{Value: bucketUpper(b), Fraction: float64(seen) / float64(h.total)})
	}
	return pts
}

// Meter is a monotonically increasing byte/op counter, safe for concurrent
// use without locking. It marshals as its total.
type Meter struct {
	n atomic.Int64
}

// Add increments the meter.
func (m *Meter) Add(n int64) { m.n.Add(n) }

// Total returns the current value.
func (m *Meter) Total() int64 { return m.n.Load() }

// MarshalJSON renders the meter as its total.
func (m *Meter) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, m.Total(), 10), nil }

// Gauge is an instantaneous level (queue depths, backlog sizes), safe for
// concurrent use without locking. It marshals as its value.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.n.Store(n) }

// Add moves the gauge by n and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.n.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.n.Load() }

// MarshalJSON renders the gauge as its value.
func (g *Gauge) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, g.Value(), 10), nil }

// EncodeStage identifies one stage of the dedup encode pipeline
// (paper §3.1's four-step workflow, with source fetch split out of
// selection because it is the only stage that may touch the database).
type EncodeStage int

const (
	// StageChunk is content-defined chunking alone — the inner loop of
	// feature extraction, timed separately so chunker regressions are
	// visible without a benchmark run. It is a sub-interval of StageSketch.
	// Lock-free.
	StageChunk EncodeStage = iota
	// StageSketch is feature extraction end to end: content-defined
	// chunking + batched Murmur hashing + consistent sampling. Lock-free.
	StageSketch
	// StageIndex is the cuckoo feature-index lookup/insert. Runs under the
	// owning database's lock.
	StageIndex
	// StageSource is source-content acquisition: cache hit or database
	// fetch. Lock-free (the caches have their own internal locks).
	StageSource
	// StageDelta is two-way delta compression (forward compress + backward
	// re-encode). Lock-free.
	StageDelta
	// StageChain is chain bookkeeping plus hop write-back emission. The
	// bookkeeping runs under the database lock; hop delta computation is
	// lock-free.
	StageChain
	// NumEncodeStages is the number of pipeline stages.
	NumEncodeStages
)

// String names the stage for display and JSON.
func (s EncodeStage) String() string {
	switch s {
	case StageChunk:
		return "chunk"
	case StageSketch:
		return "sketch"
	case StageIndex:
		return "index"
	case StageSource:
		return "source"
	case StageDelta:
		return "delta"
	case StageChain:
		return "chain"
	default:
		return fmt.Sprintf("stage%d", int(s))
	}
}

// EncodeMetrics bundles the encode-path instrumentation: per-stage latency
// histograms, throughput meters, and encode-queue gauges. All fields are
// individually safe for concurrent use.
type EncodeMetrics struct {
	// Stages holds the per-stage latency histograms under their
	// EncodeStage.String() names; stages indexes the same histograms by
	// stage for ObserveStage, which runs several times per encode.
	Stages map[string]*Histogram
	stages [NumEncodeStages]*Histogram

	// EncodedRecords counts records that ran the full dedup workflow (not
	// filtered, not governor-skipped); EncodedBytes sums their payloads.
	EncodedRecords Meter
	EncodedBytes   Meter

	// Chunks counts content-defined chunks produced by sketch extraction;
	// ChunkedBytes sums the bytes scanned to produce them. Their ratio is
	// the observed average chunk size of the live workload.
	Chunks       Meter
	ChunkedBytes Meter

	// QueueDepth is the number of encode jobs queued or in flight across
	// all encoder shards. QueueOverflows counts enqueues that found their
	// shard full and had to apply caller backpressure.
	QueueDepth     Gauge
	QueueOverflows Meter
}

// NewEncodeMetrics returns a zeroed metrics bundle.
func NewEncodeMetrics() *EncodeMetrics {
	m := &EncodeMetrics{Stages: make(map[string]*Histogram, NumEncodeStages)}
	for s := range m.stages {
		m.stages[s] = NewHistogram()
		m.Stages[EncodeStage(s).String()] = m.stages[s]
	}
	return m
}

// ObserveStage records one stage latency sample.
func (m *EncodeMetrics) ObserveStage(s EncodeStage, d time.Duration) {
	m.stages[s].Observe(d)
}

// ApplyMetrics bundles the replication apply-path instrumentation: the
// secondary's sharded apply pipeline reports its queue pressure, per-entry
// apply latency, and how often a forward-encoded insert needed the full
// record fetched from the primary. All fields are individually safe for
// concurrent use.
type ApplyMetrics struct {
	// Latency is the per-entry apply latency.
	Latency *Histogram

	// Workers is the number of live apply workers (zero once the pool has
	// closed).
	Workers Gauge
	// QueueDepth is the number of apply jobs queued or in flight across
	// all apply shards. QueueOverflows counts dispatches that found their
	// shard full and had to wait for it to drain.
	QueueDepth     Gauge
	QueueOverflows Meter
	// Applied counts oplog entries and snapshot records applied
	// successfully; ApplyFailures counts entries whose apply (including
	// any fetch fallback) returned an error.
	Applied       Meter
	ApplyFailures Meter
	// BaseFetches counts forward-encoded inserts that fell back to
	// fetching the full record from the primary (paper §4.1 fn. 4).
	BaseFetches Meter
}

// NewApplyMetrics returns a zeroed metrics bundle.
func NewApplyMetrics() *ApplyMetrics {
	return &ApplyMetrics{Latency: NewHistogram()}
}

// LatencySummary is a histogram condensed to the numbers a reader wants where
// a full CDF would be noise: what the admin endpoint serves for every
// histogram and what dedupstorm reports per operation kind.
type LatencySummary struct {
	Count  uint64
	MeanUS int64 // microseconds
	P50US  int64
	P90US  int64
	P99US  int64
	P999US int64
	MaxUS  int64
}

// Summary condenses the histogram under one lock acquisition, so its numbers
// are all of one instant.
func (h *Histogram) Summary() LatencySummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  h.total,
		MeanUS: (h.sum / time.Duration(h.total)).Microseconds(),
		P50US:  h.quantileLocked(0.50).Microseconds(),
		P90US:  h.quantileLocked(0.90).Microseconds(),
		P99US:  h.quantileLocked(0.99).Microseconds(),
		P999US: h.quantileLocked(0.999).Microseconds(),
		MaxUS:  h.max.Microseconds(),
	}
}

// MarshalJSON renders the histogram as its Summary.
func (h *Histogram) MarshalJSON() ([]byte, error) { return json.Marshal(h.Summary()) }

// String renders the summary the way the load tools print it.
func (s LatencySummary) String() string {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	return fmt.Sprintf("mean %v  p50 %v  p99 %v  p99.9 %v  max %v (n=%d)",
		us(s.MeanUS), us(s.P50US), us(s.P99US), us(s.P999US), us(s.MaxUS), s.Count)
}

// ReplMetrics bundles the replication transport's hardening counters: how
// often the stream reconnected and why, what the checksum layer rejected,
// and the heartbeat/idle-timeout machinery's activity. All fields are
// individually safe for concurrent use.
type ReplMetrics struct {
	// Reconnects counts stream reconnection attempts that succeeded;
	// Dials/DialFailures count every attempt. BackoffNanos accumulates
	// time spent sleeping between attempts.
	Reconnects   Meter
	Dials        Meter
	DialFailures Meter
	BackoffNanos Meter
	// CorruptFrames counts frames rejected by the per-frame checksum;
	// FrameSeqViolations counts frames whose sequence number proved
	// duplication, reordering, or loss on the wire.
	CorruptFrames      Meter
	FrameSeqViolations Meter
	// IdleTimeouts counts silent partitions detected by the read deadline
	// (no frame, not even a heartbeat, within the idle window).
	IdleTimeouts Meter
	// HeartbeatsSent counts primary→secondary heartbeat frames (sent when
	// a secondary is fully caught up).
	HeartbeatsSent Meter
	// ForcedResyncs counts stream hellos that stated no position while the
	// node held records (oplog.UnknownEpoch): a restarted secondary, or one
	// whose first snapshot was cut off.
	ForcedResyncs Meter
}

// Series records a value per fixed time slot, for throughput-over-time
// plots. Slot 0 starts at the Series' creation.
type Series struct {
	mu    sync.Mutex
	start time.Time
	slot  time.Duration
	vals  []int64
}

// NewSeries returns a Series with the given slot width.
func NewSeries(slot time.Duration) *Series {
	return &Series{start: time.Now(), slot: slot}
}

// Add adds n to the current slot.
func (s *Series) Add(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int(time.Since(s.start) / s.slot)
	for len(s.vals) <= idx {
		s.vals = append(s.vals, 0)
	}
	s.vals[idx] += n
}

// Values returns a copy of the per-slot totals.
func (s *Series) Values() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.vals))
	copy(out, s.vals)
	return out
}

// SlotWidth returns the slot duration.
func (s *Series) SlotWidth() time.Duration {
	return s.slot
}

// Ratio formats a compression ratio (orig/compressed) defensively.
func Ratio(orig, compressed int64) float64 {
	if compressed <= 0 {
		return 0
	}
	return float64(orig) / float64(compressed)
}

// FormatBytes renders a byte count in human units.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// CompactionMetrics bundles the compaction counters: how many passes ran,
// how long they took, and the segment bytes they freed on disk.
type CompactionMetrics struct {
	// Passes counts completed compaction passes; PassLatency is their
	// wall-clock distribution.
	Passes      Meter
	PassLatency *Histogram
	// PhysicalBytesReclaimed is segment bytes freed on disk.
	PhysicalBytesReclaimed Meter
}

// NewCompactionMetrics returns a zeroed bundle.
func NewCompactionMetrics() *CompactionMetrics {
	return &CompactionMetrics{PassLatency: NewHistogram()}
}

// ObservePass records one completed pass and its duration.
func (m *CompactionMetrics) ObservePass(d time.Duration) {
	m.Passes.Add(1)
	m.PassLatency.Observe(d)
}

// FeatIdxSnapshot is the engine-wide view of the similarity index: occupancy
// against its configured bound, plus lifetime lookup/match/eviction counts.
// It is core.Stats' Index* fields under the names benchmark/layers.go and
// workloads.go read through Node.FeatIdxSnapshot; the cold tier's state is
// core.Stats.TieredIdx, served as the tiered.Snapshot it is.
type FeatIdxSnapshot struct {
	Entries       int
	MemoryBytes   int64
	CapacityBytes int64
	Lookups       uint64
	Matches       uint64
	Evictions     uint64
}

// ClusterMetrics instruments a cluster shard's routing tier: ownership
// decisions, redirects, and the handoff/rebalance lifecycle.
type ClusterMetrics struct {
	// RingEpoch is the highest ring epoch installed (monotonic per member).
	RingEpoch Gauge
	// RingInstalls counts accepted ring installs (rebalance windows opened).
	RingInstalls Meter
	// RedirectsIssued counts wrong-shard answers sent to clients;
	// MovingAnswered counts retry-later answers during a handoff window.
	RedirectsIssued Meter
	MovingAnswered  Meter
	// Handoff lifecycle: started on BeginHandoff, then exactly one of
	// committed (cutover) or aborted (revert) per window.
	HandoffsStarted   Meter
	HandoffsCommitted Meter
	HandoffsAborted   Meter
	// Transfer volume: Out on the draining source (batch bytes), In on the
	// gaining destination (content bytes). Failures count failed transfers.
	TransferRecordsOut Meter
	TransferBytesOut   Meter
	TransferRecordsIn  Meter
	TransferBytesIn    Meter
	TransferFailures   Meter
	// DroppedDBs/DroppedRecords count local copies deleted at cutover
	// (source) or on abort (destination).
	DroppedDBs     Meter
	DroppedRecords Meter
}
