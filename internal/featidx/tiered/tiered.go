// Package tiered implements the engine's per-database similarity index: a
// hot cuckoo partition (featidx.Index) in front of immutable, Bloom-gated,
// disk-resident cold runs.
//
// Whether the cold tier exists is decided here and nowhere else. Without a
// memory budget (Config.BudgetBytes <= 0) it does not: the index is exactly
// its hot featidx.Index, sized by Config.HotEntries — no pending log is
// allocated, nothing freezes, probes return the cuckoo table's own
// candidates, and Maintain and Close have nothing to do. That is the paper's
// index (§3.1.2), whose memory grows with the corpus up to HotEntries.
//
// A positive budget caps that memory: the hot tier holds the recent working
// set under LRU pressure, and every inserted (feature, ref) pair is
// additionally appended to a pending log. When the hot tier reaches its
// share of the budget the log is frozen — sorted, deduplicated, and published
// as an immutable run. A maintenance pass (off the per-database engine lock)
// writes frozen runs to disk through the internal/faultfs seam, fronts each
// with a Bloom filter sized for a target false-positive rate so negative
// probes never touch disk (LSHBloom's per-band-filter trick; the LSM
// negative-lookup pattern), and periodically merges runs to bound their
// count. Probes merge hot-tier candidates with Bloom-passing cold-run
// candidates, newest first, under the cuckoo index's own featidx.MaxCandidates
// cap.
//
// Memory model under a fixed budget B: the hot tier (cuckoo table + pending
// log) gets B/2 and the Bloom filters get B/4 as a target; as the cold tier
// grows past what B/4 can front at the configured bits-per-entry, merge
// passes rebuild the filter with fewer bits per entry — the false-positive
// rate (and hence disk-probe count) degrades gracefully while memory stays
// bounded. The cold tier's disk footprint is the only thing that grows with
// corpus size.
//
// Failure model: the index is soft state, never reopened: whoever owns the
// run directory calls RemoveStaleRuns once at start-up, before the first
// partition exists. A failed freeze write keeps the run memory-resident and
// retries on the next maintenance pass (with a cap: under a persistently
// failing disk the oldest resident batches are dropped, a pure recall loss);
// a failed merge leaves the existing runs in place; a torn or bit-flipped run
// yields at worst bogus candidates, which the byte-exact delta stage
// discards. Nothing here can corrupt stored data.
//
// Concurrency contract: like featidx.Index, LookupInsert/Len/MemoryBytes/
// CapacityBytes/Stats/Snapshot require the caller's external per-database
// lock. Maintain and Close synchronise internally and must be called WITHOUT
// that lock; the run table is epoch-published through an atomic pointer with
// per-run refcounts (the segio discipline), so probes never block on
// maintenance I/O.
package tiered

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/featidx"
	"dbdedup/internal/sketch"
)

// Config sizes one tiered partition.
type Config struct {
	// BudgetBytes is the total in-memory budget: hot cuckoo table +
	// pending log + resident (not-yet-written) runs + Bloom filters.
	// Zero or negative means no bound and therefore no cold tier.
	BudgetBytes int64
	// HotEntries is the hot cuckoo table's capacity when there is no
	// budget (featidx's default when zero). Under a budget the hot tier is
	// sized from BudgetBytes instead.
	HotEntries int
	// Dir is where cold runs live. Empty selects a private in-memory FS:
	// the tier machinery still runs (freeze, Bloom, merge), which is what
	// diskless nodes and tests want.
	Dir string
	// FS is the filesystem seam for cold runs. Nil selects the OS FS when
	// Dir is set and a private MemFS otherwise.
	FS faultfs.FS
	// Seed derives the hot tier's hash functions and the Bloom hashes.
	Seed uint64
}

// bloomBitsPerEntry sizes fresh per-run Bloom filters (~5.5% false positives
// at k=4; squeezed at merge time once the cold tier outgrows the filter
// budget).
const bloomBitsPerEntry = 6

const (
	// maxDiskRuns is the disk-run count that triggers a merge pass.
	maxDiskRuns = 8
	// maxResidentRuns bounds frozen-but-unwritten runs kept in memory when
	// the disk persistently fails; beyond it the oldest is dropped (recall
	// loss, not correctness loss).
	maxResidentRuns = 4
)

func (c Config) withDefaults() Config {
	if c.FS == nil && c.BudgetBytes > 0 {
		if c.Dir != "" {
			c.FS = faultfs.DefaultFS
		} else {
			c.FS = faultfs.NewMemFS()
			c.Dir = "featidx"
		}
	}
	return c
}

// runTable is the epoch-published cold-tier view, newest run first.
type runTable struct {
	runs []*run
}

var emptyTable = &runTable{}

// TieredIndex is one database's similarity index. See the package comment
// for the design and the concurrency contract.
type TieredIndex struct {
	cfg       Config
	hot       *featidx.Index
	log       []rec // pending postings of the current hot generation
	rotateLen int   // log length that triggers a freeze

	table atomic.Pointer[runTable]

	// tableMu guards table/pending mutations (freeze publish from the
	// probe path, maintenance republish, close). Never held across I/O.
	tableMu sync.Mutex
	pending []*run // frozen, not yet disk-backed; also referenced by table
	fileSeq int
	dirMade bool
	closed  bool

	needMaint atomic.Bool

	// Probe-path counters: mutated only under the caller's external lock.
	// tierMatches counts candidates found beyond the hot table's own
	// (pending log + cold runs); coldMatches is its cold-run share.
	tierMatches, coldMatches          uint64
	bloomChecks, bloomHits, bloomFPs  uint64
	diskProbes, diskHits, diskIOErrs  uint64
	residentProbes, truncatedByBudget uint64

	// Maintenance counters: mutated under maintMu, read from Snapshot —
	// atomics so snapshots never race a maintenance pass.
	freezes, freezeFailures atomic.Uint64
	merges, mergeFailures   atomic.Uint64
	droppedRuns             atomic.Uint64
	coldEntryCnt            atomic.Int64

	// maintMu serialises Maintain and Close.
	maintMu sync.Mutex
}

// New builds a tiered partition. It performs no I/O: the run directory is
// created lazily on the first freeze, so a partition whose disk is broken
// still indexes (it just can't spill).
func New(cfg Config) *TieredIndex {
	cfg = cfg.withDefaults()
	t := &TieredIndex{cfg: cfg}
	t.table.Store(emptyTable)
	hotEntries := cfg.HotEntries
	if t.bounded() {
		// Hot share: half the budget, split between the cuckoo table
		// (EntryBytes per entry) and the pending log (recBytes per entry).
		hotEntries = int(cfg.BudgetBytes / 2 / (featidx.EntryBytes + recBytes))
		if hotEntries < 64 {
			hotEntries = 64
		}
		t.rotateLen = hotEntries
		t.log = make([]rec, 0, hotEntries)
	}
	t.hot = featidx.New(featidx.Config{
		CapacityEntries: hotEntries,
		Seed:            cfg.Seed,
	})
	return t
}

// bounded reports whether a memory budget is set, i.e. whether the pending
// log and the cold tier exist at all.
func (t *TieredIndex) bounded() bool { return t.cfg.BudgetBytes > 0 }

func foldKey(f sketch.Feature) uint32 {
	v := uint64(f)
	return uint32(v) ^ uint32(v>>32)
}

// LookupInsert probes both tiers for feature f and registers (f, ref).
// Hot-tier candidates come first (they are the better dedup sources — more
// recent, more likely cached), then cold runs newest-first until the
// candidate cap fills. Caller holds the external per-database lock.
func (t *TieredIndex) LookupInsert(f sketch.Feature, ref featidx.Ref) []featidx.Ref {
	out := t.hot.LookupInsert(f, ref)
	if !t.bounded() {
		return out
	}
	hotMatches := len(out)
	key := foldKey(f)

	if len(out) < featidx.MaxCandidates {
		out = t.probePending(key, out)
	}
	t.log = append(t.log, rec{key: key, ref: ref})
	if len(out) < featidx.MaxCandidates {
		out = t.probeCold(key, out)
	} else {
		t.truncatedByBudget++
	}
	t.tierMatches += uint64(len(out) - hotMatches)

	if len(t.log) >= t.rotateLen {
		t.freezeGeneration()
	}
	return out
}

// Lookup probes both tiers without registering anything. Tests and tools.
func (t *TieredIndex) Lookup(f sketch.Feature) []featidx.Ref {
	out := t.hot.Lookup(f)
	key := foldKey(f)
	if len(out) < featidx.MaxCandidates {
		out = t.probePending(key, out)
	}
	if len(out) < featidx.MaxCandidates {
		out = t.probeCold(key, out)
	}
	return out
}

// probePendingLimit bounds the backwards pending-log scan per probe: recent
// postings only, so the cost stays constant however large the budget (and
// hence the log) is.
const probePendingLimit = 256

// probePending scans the newest tail of the pending log. These are the
// postings the hot cuckoo may have evicted under bucket pressure but that no
// frozen run archives yet — without this, a probe falling in that gap
// dedups against an older generation (a worse delta) or nothing at all.
func (t *TieredIndex) probePending(key uint32, out []featidx.Ref) []featidx.Ref {
	lo := len(t.log) - probePendingLimit
	if lo < 0 {
		lo = 0
	}
	for i := len(t.log) - 1; i >= lo && len(out) < featidx.MaxCandidates; i-- {
		if t.log[i].key == key && !containsRef(out, t.log[i].ref) {
			out = append(out, t.log[i].ref)
		}
	}
	return out
}

// probeCold walks the published run table, newest first, appending unseen
// refs until the candidate cap fills.
func (t *TieredIndex) probeCold(key uint32, out []featidx.Ref) []featidx.Ref {
	tbl := t.table.Load()
	for _, r := range tbl.runs {
		if len(out) >= featidx.MaxCandidates {
			break
		}
		if r.filter != nil {
			t.bloomChecks++
			if !r.filter.maybe(key) {
				continue
			}
			t.bloomHits++
			t.diskProbes++
		} else {
			t.residentProbes++
		}
		if !r.pin() {
			continue // retired under a concurrent merge; already drained
		}
		found, ok := r.search(key, func(ref featidx.Ref) bool {
			if !containsRef(out, ref) {
				out = append(out, ref)
				t.coldMatches++
			}
			return len(out) < featidx.MaxCandidates
		})
		r.unpin()
		if !ok {
			t.diskIOErrs++
		}
		if r.filter != nil {
			if found {
				t.diskHits++
			} else {
				t.bloomFPs++
			}
		}
	}
	return out
}

func containsRef(out []featidx.Ref, ref featidx.Ref) bool {
	for _, r := range out {
		if r == ref {
			return true
		}
	}
	return false
}

// freezeGeneration seals the pending log as a resident run and publishes it.
// Runs on the probe path (external lock held): it only sorts and swaps
// pointers — the disk write happens later in Maintain, off the lock. The hot
// cuckoo table is NOT reset: it keeps LRU-caching the recent working set;
// the frozen run is the archive that makes its evictions recoverable.
func (t *TieredIndex) freezeGeneration() {
	recs := sortRecs(t.log)
	t.log = make([]rec, 0, t.rotateLen)
	if len(recs) == 0 {
		return
	}
	nr := newResidentRun(recs)

	t.tableMu.Lock()
	defer t.tableMu.Unlock()
	if t.closed {
		nr.retire()
		return
	}
	t.pending = append(t.pending, nr)
	t.coldEntryCnt.Add(int64(nr.count))
	// Disk gone for good? Shed the oldest resident run rather than let
	// "bounded" memory grow without bound.
	var dropped *run
	if len(t.pending) > maxResidentRuns {
		dropped = t.pending[0]
		t.pending = append([]*run(nil), t.pending[1:]...)
		t.droppedRuns.Add(1)
		t.coldEntryCnt.Add(-int64(dropped.count))
	}
	t.publishLocked(func(runs []*run) []*run {
		next := make([]*run, 0, len(runs)+1)
		next = append(next, nr)
		for _, r := range runs {
			if r == dropped {
				continue
			}
			next = append(next, r)
		}
		return next
	})
	if dropped != nil {
		dropped.retire()
	}
	t.needMaint.Store(true)
}

// publishLocked swaps in a new run table built by rebuild from the current
// one. Caller holds tableMu.
func (t *TieredIndex) publishLocked(rebuild func([]*run) []*run) {
	cur := t.table.Load()
	t.table.Store(&runTable{runs: rebuild(cur.runs)})
}

// Maintain performs deferred cold-tier work: writing frozen resident runs to
// disk (with their Bloom filters) and merging disk runs once they exceed
// maxDiskRuns. It synchronises internally and must be called WITHOUT the
// external database lock; the engine invokes it after releasing the
// per-database mutex so this I/O never stalls encodes. Returns the first
// error encountered (also counted in the snapshot); every failure mode
// leaves the index consistent.
func (t *TieredIndex) Maintain() error {
	if !t.needMaint.Load() {
		return nil
	}
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	t.needMaint.Store(false)

	var firstErr error
	if err := t.flushPending(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := t.mergeRuns(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		// Leave the flag raised so the next pass retries the failed work.
		t.needMaint.Store(true)
	}
	return firstErr
}

// flushPending writes every frozen resident run to disk. Caller holds
// maintMu (never tableMu: the writes must not block probes).
func (t *TieredIndex) flushPending() error {
	t.tableMu.Lock()
	pend := append([]*run(nil), t.pending...)
	closed := t.closed
	t.tableMu.Unlock()
	if closed || len(pend) == 0 {
		return nil
	}
	if err := t.ensureDir(); err != nil {
		t.freezeFailures.Add(1)
		return err
	}
	var firstErr error
	for _, mr := range pend {
		path := t.nextRunPath()
		f, err := writeRunFile(t.cfg.FS, path, mr.mem)
		if err != nil {
			t.freezeFailures.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue // stays resident; retried next pass
		}
		// The filter budget is shared across every published filter: size
		// this run's filter out of what the others have left.
		rem := t.bloomBudgetBits() - t.publishedBloomBits()
		dr := t.diskRun(mr.mem, f, path, bloomBitsPerEntry, rem)
		t.swapRun(mr, dr)
		t.freezes.Add(1)
	}
	return firstErr
}

// publishedBloomBits sums the filter bits of every published run, the
// "already spent" side of the shared filter budget.
func (t *TieredIndex) publishedBloomBits() int64 {
	var bits int64
	for _, r := range t.table.Load().runs {
		if r.filter != nil {
			bits += int64(len(r.filter.words)) * 64
		}
	}
	return bits
}

// diskRun assembles the disk-backed form of a run, Bloom filter and page keys
// included. maxBits clamps the filter to the budget remaining across all
// filters.
func (t *TieredIndex) diskRun(recs []rec, f faultfs.File, path string, bits int, maxBits int64) *run {
	fl := newBloom(len(recs), bits, maxBits, t.cfg.Seed^0xb10f11e7)
	for _, rc := range recs {
		fl.add(rc.key)
	}
	pageKeys := make([]uint32, 0, (len(recs)+pageRecs-1)/pageRecs)
	for i := 0; i < len(recs); i += pageRecs {
		pageKeys = append(pageKeys, recs[i].key)
	}
	dr := &run{
		count:    len(recs),
		filter:   fl,
		pageKeys: pageKeys,
		f:        f,
		path:     path,
		fs:       t.cfg.FS,
	}
	dr.refs.Store(1)
	return dr
}

// bloomBudgetBits is the total bit budget across all filters: a quarter of
// the memory budget.
func (t *TieredIndex) bloomBudgetBits() int64 { return t.cfg.BudgetBytes / 4 * 8 }

// swapRun atomically replaces old with new in the published table and drops
// old from the pending list.
func (t *TieredIndex) swapRun(old, new_ *run) {
	t.tableMu.Lock()
	defer t.tableMu.Unlock()
	if t.closed {
		new_.retire()
		return
	}
	for i, p := range t.pending {
		if p == old {
			t.pending = append(t.pending[:i:i], t.pending[i+1:]...)
			break
		}
	}
	t.publishLocked(func(runs []*run) []*run {
		next := make([]*run, 0, len(runs))
		for _, r := range runs {
			if r == old {
				next = append(next, new_)
			} else {
				next = append(next, r)
			}
		}
		return next
	})
	old.retire()
}

// mergeRuns k-way-merges all disk runs into one once their count exceeds
// maxDiskRuns, rebuilding the Bloom filter at a per-entry width the filter
// budget can afford. Caller holds maintMu, so the set of disk runs is stable
// (probes never mutate the table; freezes only prepend resident runs).
func (t *TieredIndex) mergeRuns() error {
	tbl := t.table.Load()
	var disk []*run
	for _, r := range tbl.runs {
		if r.f != nil {
			disk = append(disk, r)
		}
	}
	if len(disk) <= maxDiskRuns {
		return nil
	}

	// Load + merge outside any lock. disk is newest-first; keep that
	// order irrelevant — sortRecs dedups exact pairs anyway.
	var all []rec
	for _, r := range disk {
		recs, err := r.loadRecs()
		if err != nil {
			t.mergeFailures.Add(1)
			return err
		}
		all = append(all, recs...)
	}
	merged := sortRecs(all)

	if err := t.ensureDir(); err != nil {
		t.mergeFailures.Add(1)
		return err
	}
	path := t.nextRunPath()
	f, err := writeRunFile(t.cfg.FS, path, merged)
	if err != nil {
		t.mergeFailures.Add(1)
		return err
	}
	// The merge retires every existing filter, so the rebuilt one may spend
	// most of the budget — but not all of it, or the fresh runs that appear
	// between merges would be squeezed down to useless filters.
	mr := t.diskRun(merged, f, path, bloomBitsPerEntry, t.bloomBudgetBits()*3/4)

	t.tableMu.Lock()
	if t.closed {
		t.tableMu.Unlock()
		mr.retire()
		return nil
	}
	inMerge := make(map[*run]bool, len(disk))
	for _, r := range disk {
		inMerge[r] = true
	}
	t.publishLocked(func(runs []*run) []*run {
		next := make([]*run, 0, len(runs))
		for _, r := range runs {
			if !inMerge[r] {
				next = append(next, r)
			}
		}
		return append(next, mr) // merged run is the oldest data: last
	})
	t.coldEntryCnt.Add(int64(len(merged)))
	for _, r := range disk {
		t.coldEntryCnt.Add(-int64(r.count))
	}
	t.tableMu.Unlock()
	for _, r := range disk {
		r.retire()
	}
	t.merges.Add(1)
	return nil
}

func (t *TieredIndex) ensureDir() error {
	if t.dirMade {
		return nil
	}
	if err := t.cfg.FS.MkdirAll(t.cfg.Dir, 0o755); err != nil {
		return err
	}
	t.dirMade = true
	return nil
}

// RemoveStaleRuns deletes the run files a previous incarnation left in the
// partition directories under root (the parent of every Config.Dir). Runs
// are soft state and never reopened, so after an unclean shutdown they are
// only leaked disk. The owner of root calls this once at start-up, before it
// builds any partition. Best-effort: a file that cannot be removed stays
// leaked, nothing more.
func RemoveStaleRuns(fs faultfs.FS, root string) {
	if fs == nil {
		fs = faultfs.DefaultFS
	}
	stale, _ := fs.Glob(filepath.Join(root, "*", "run-*.idx"))
	for _, p := range stale {
		fs.Remove(p)
	}
}

func (t *TieredIndex) nextRunPath() string {
	t.tableMu.Lock()
	seq := t.fileSeq
	t.fileSeq++
	t.tableMu.Unlock()
	return filepath.Join(t.cfg.Dir, fmt.Sprintf("run-%06d.idx", seq))
}

// Close retires every run (unlinking disk files once pinned probes drain)
// and empties the table. Like Maintain it must be called without the
// external lock; callers must guarantee no concurrent LookupInsert (the
// engine does: the governor and Engine.Close nil the partition reference
// under the database mutex).
func (t *TieredIndex) Close() error {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	t.tableMu.Lock()
	if t.closed {
		t.tableMu.Unlock()
		return nil
	}
	t.closed = true
	old := t.table.Load()
	t.table.Store(emptyTable)
	t.pending = nil
	t.tableMu.Unlock()
	for _, r := range old.runs {
		r.retire()
	}
	return nil
}

// Len is the hot tier's occupancy (the entries resident in the cuckoo
// table); cold-tier totals are in Snapshot.
func (t *TieredIndex) Len() int { return t.hot.Len() }

// MemoryBytes is the total in-memory footprint: hot cuckoo entries, the
// pending log, resident (unwritten) runs, and Bloom filters. Disk-resident
// run bytes are excluded — that is the point of the tier.
func (t *TieredIndex) MemoryBytes() int64 {
	total := t.hot.MemoryBytes() + int64(len(t.log))*recBytes
	for _, r := range t.table.Load().runs {
		total += r.memoryBytes()
	}
	return total
}

// AllocatedBytes is MemoryBytes with the hot table counted at its allocation,
// every slot at its real size, in place of its occupied entries at the design
// size.
func (t *TieredIndex) AllocatedBytes() int64 {
	return t.MemoryBytes() - t.hot.MemoryBytes() + t.hot.AllocatedBytes()
}

// CapacityBytes is the configured memory bound: the budget, or without one
// the hot table's fully grown size.
func (t *TieredIndex) CapacityBytes() int64 {
	if !t.bounded() {
		return t.hot.CapacityBytes()
	}
	return t.cfg.BudgetBytes
}

// Stats reports lifetime probe counters: the hot table's, plus the matches
// the pending log and cold runs contributed. With a cold tier behind them,
// evictions are no longer permanent losses, merely "migrated to disk" (once
// the generation holding them freezes).
func (t *TieredIndex) Stats() (lookups, matches, evictions uint64) {
	lookups, matches, evictions = t.hot.Stats()
	return lookups, matches + t.tierMatches, evictions
}

// Snapshot is the tiered index's observability surface.
type Snapshot struct {
	// Enabled reports that a budget is set and the cold tier exists;
	// without one the whole snapshot is zero.
	Enabled bool
	// BudgetBytes / MemoryBytes: the bound and the current in-memory use.
	BudgetBytes int64
	MemoryBytes int64
	// HotEntries is cuckoo occupancy; PendingEntries the unfrozen log.
	HotEntries     int
	PendingEntries int
	// ColdRuns / ColdEntries / ColdDiskBytes describe the cold tier;
	// ResidentRuns counts frozen runs still waiting for disk.
	ColdRuns      int
	ResidentRuns  int
	ColdEntries   int64
	ColdDiskBytes int64
	// BloomMemoryBytes plus the filter-effectiveness counters: a check is
	// one filter consult, a hit sends the probe to the run, a false
	// positive is a hit whose run search found nothing.
	BloomMemoryBytes    int64
	BloomChecks         uint64
	BloomHits           uint64
	BloomFalsePositives uint64
	// DiskProbes / DiskProbeHits / DiskReadErrors count run searches.
	DiskProbes     uint64
	DiskProbeHits  uint64
	DiskReadErrors uint64
	// Freezes / Merges lifecycle counters, with their failure twins and
	// the resident runs dropped under persistent disk failure.
	Freezes        uint64
	FreezeFailures uint64
	Merges         uint64
	MergeFailures  uint64
	DroppedRuns    uint64
}

// Accumulate folds another partition's snapshot into s (engine-wide
// aggregation across databases).
func (s *Snapshot) Accumulate(o Snapshot) {
	s.Enabled = s.Enabled || o.Enabled
	s.BudgetBytes += o.BudgetBytes
	s.MemoryBytes += o.MemoryBytes
	s.HotEntries += o.HotEntries
	s.PendingEntries += o.PendingEntries
	s.ColdRuns += o.ColdRuns
	s.ResidentRuns += o.ResidentRuns
	s.ColdEntries += o.ColdEntries
	s.ColdDiskBytes += o.ColdDiskBytes
	s.BloomMemoryBytes += o.BloomMemoryBytes
	s.BloomChecks += o.BloomChecks
	s.BloomHits += o.BloomHits
	s.BloomFalsePositives += o.BloomFalsePositives
	s.DiskProbes += o.DiskProbes
	s.DiskProbeHits += o.DiskProbeHits
	s.DiskReadErrors += o.DiskReadErrors
	s.Freezes += o.Freezes
	s.FreezeFailures += o.FreezeFailures
	s.Merges += o.Merges
	s.MergeFailures += o.MergeFailures
	s.DroppedRuns += o.DroppedRuns
}

// Snapshot reports the partition's current tier state. Caller holds the
// external database lock (probe counters are plain fields); maintenance
// counters are atomics, so a concurrent Maintain is safe.
func (t *TieredIndex) Snapshot() Snapshot {
	if !t.bounded() {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled:             true,
		BudgetBytes:         t.cfg.BudgetBytes,
		MemoryBytes:         t.MemoryBytes(),
		HotEntries:          t.hot.Len(),
		PendingEntries:      len(t.log),
		ColdEntries:         t.coldEntryCnt.Load(),
		BloomChecks:         t.bloomChecks,
		BloomHits:           t.bloomHits,
		BloomFalsePositives: t.bloomFPs,
		DiskProbes:          t.diskProbes,
		DiskProbeHits:       t.diskHits,
		DiskReadErrors:      t.diskIOErrs,
		Freezes:             t.freezes.Load(),
		FreezeFailures:      t.freezeFailures.Load(),
		Merges:              t.merges.Load(),
		MergeFailures:       t.mergeFailures.Load(),
		DroppedRuns:         t.droppedRuns.Load(),
	}
	for _, r := range t.table.Load().runs {
		s.ColdRuns++
		if r.mem != nil {
			s.ResidentRuns++
		}
		s.ColdDiskBytes += r.diskBytes()
		if r.filter != nil {
			s.BloomMemoryBytes += r.filter.memoryBytes()
		}
	}
	return s
}
