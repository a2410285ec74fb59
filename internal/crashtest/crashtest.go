// Package crashtest is the crash-recovery harness built on the faultfs
// fault-injection seam. It runs scripted client workloads against a node
// whose filesystem is a faultfs.Injector, kills the "process" at every
// registered fault point (or injects a transient error the process
// survives), reopens the directory on a clean filesystem, and holds the
// recovered store to the invariants the paper's substrate promises:
//
//   - the store reopens without panic or error at every fault point
//   - with SyncWrites, no acknowledged write from before a successful
//     flush is lost (the shared histcheck.History, floor at the barrier)
//   - no dangling key→ID mappings: every visible key decodes
//   - every surviving record decodes via VerifyAll
//   - a fresh secondary resyncs the recovered primary to histcheck.Equal
//
// The matrix is deterministic: a census pass runs the workload once with a
// counting-only injector, Points turns the per-class op counts into a
// fault-point schedule, and every point replays the same seed-pinned
// workload with exactly one rule armed. A failing point is reproduced by
// (workload, seed, rule) alone.
package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dbdedup/internal/core"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// Config pins the harness parameters shared by the census and every matrix
// point.
type Config struct {
	// Seed drives the workload's content generation (and, offset per
	// point, the injector's torn-write prefixes).
	Seed int64
	// SyncWrites runs the store with per-seal fsync; the history then
	// enforces zero acknowledged-write loss across flush barriers.
	SyncWrites bool
	// BlockSize / SegmentSize are kept small so workloads cross many
	// seal and segment-roll boundaries. Defaults: 1 KiB / 8 KiB.
	BlockSize   int
	SegmentSize int
}

func (cfg *Config) defaults() {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 1 << 10
	}
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 8 << 10
	}
}

// Workload is one scripted client session.
type Workload struct {
	Name string
	// Replicated workloads attach a live secondary mid-script and get a
	// post-recovery convergence check.
	Replicated bool
	// Tune, when set, adjusts the node options for both the faulted run
	// and the recovery reopen (e.g. shrink the feature index so the
	// compaction re-dedup pass has evictions to recover from).
	Tune   func(o *node.Options)
	Script func(c *Ctx)
}

// Ctx is the handle a workload script drives. Every mutation is recorded in
// the history — successes as acknowledged state, failures as ambiguous — and
// once a crash point fires every subsequent operation silently no-ops (the
// simulated process is dead).
type Ctx struct {
	n       *node.Node
	m       *histcheck.History
	rng     *rand.Rand
	sync    bool
	crashed bool
	lastAck uint64 // oplog seq of the last acknowledged mutation

	prim *repl.Primary
	secN *node.Node
	sec  *repl.Secondary
}

// fail notes process death on ErrCrashed.
func (c *Ctx) fail(err error) {
	if errors.Is(err, faultfs.ErrCrashed) {
		c.crashed = true
	}
}

// record files a mutation's outcome in the history: acknowledged, or — on
// any failure — ambiguous.
func (c *Ctx) record(err error, db, key string, val []byte) {
	if err != nil {
		c.fail(err)
		c.m.Ambiguous(db, key, val, c.crashed)
		return
	}
	c.lastAck = c.n.LastAssignedSeq()
	c.m.Acked(db, key, val)
}

// Insert inserts (db, key) = val.
func (c *Ctx) Insert(db, key string, val []byte) {
	if !c.crashed {
		c.record(c.n.Insert(db, key, val), db, key, val)
	}
}

// Update overwrites (db, key) with val.
func (c *Ctx) Update(db, key string, val []byte) {
	if !c.crashed {
		c.record(c.n.Update(db, key, val), db, key, val)
	}
}

// Delete removes (db, key).
func (c *Ctx) Delete(db, key string) {
	if !c.crashed {
		c.record(c.n.Delete(db, key), db, key, nil)
	}
}

// Flush applies pending write-backs, then seals + syncs the pending block.
func (c *Ctx) Flush() {
	if !c.crashed {
		c.n.FlushWritebacks(-1)
		c.Seal()
	}
}

// Seal seals and syncs the pending block WITHOUT applying deferred
// write-backs, leaving the backlog in memory — the state a crash with a
// full write-back queue tears away. A successful synced seal is still the
// durability barrier the history holds recovery to: the lossy write-back
// contract is that dropping the backlog loses no data, only re-encoding.
func (c *Ctx) Seal() {
	if c.crashed {
		return
	}
	if err := c.n.Store().Flush(); err != nil {
		c.fail(err)
		return
	}
	if c.sync {
		c.m.DurableBarrier()
	}
}

// Compact runs one segment-compaction pass. Compaction never changes
// logical state, so the history is untouched whether it succeeds or dies.
func (c *Ctx) Compact() {
	if !c.crashed {
		_, err := c.n.Compact()
		c.fail(err)
	}
}

// Junk generates n incompressible random bytes: filler whose sketch
// features evict resident entries from a bounded feature index without ever
// matching anything.
func (c *Ctx) Junk(n int) []byte {
	b := make([]byte, n)
	c.rng.Read(b)
	return b
}

// Doc generates n bytes of pseudo-prose from the workload seed.
func (c *Ctx) Doc(n int) []byte {
	words := []string{"online", "dedup", "for", "databases", "segment",
		"block", "delta", "chain", "record", "store", "replica", "sync"}
	b := make([]byte, 0, n+12)
	for len(b) < n {
		b = append(b, words[c.rng.Intn(len(words))]...)
		b = append(b, ' ')
	}
	return b[:n]
}

// Edit returns a lightly mutated copy of doc (same length, a few changed
// bytes — dedup-friendly, like the paper's document-revision workloads).
func (c *Ctx) Edit(doc []byte) []byte {
	out := append([]byte(nil), doc...)
	for k := 0; k < 3; k++ {
		out[c.rng.Intn(len(out))] = byte('a' + c.rng.Intn(26))
	}
	return out
}

// StartReplica attaches a live in-memory secondary to the node over TCP.
// No-op after a crash or if already attached.
func (c *Ctx) StartReplica() {
	if c.crashed || c.sec != nil {
		return
	}
	p, err := repl.ListenAndServe(c.n, "127.0.0.1:0")
	if err != nil {
		return
	}
	sn, err := node.Open(secondaryOpts())
	if err != nil {
		p.Close()
		return
	}
	s, err := repl.Connect(sn, p.Addr(), 0)
	if err != nil {
		sn.Close()
		p.Close()
		return
	}
	c.prim, c.secN, c.sec = p, sn, s
}

// SyncReplica waits for the secondary to apply the last acknowledged
// mutation. Bounded, so a stream severed by a crash point cannot stall the
// matrix.
func (c *Ctx) SyncReplica() {
	if c.sec == nil || c.lastAck == 0 {
		return
	}
	c.sec.WaitForSeq(c.lastAck, 5*time.Second)
}

func (c *Ctx) stopReplica() {
	if c.sec != nil {
		c.sec.Close()
		c.sec = nil
	}
	if c.secN != nil {
		c.secN.Close()
		c.secN = nil
	}
	if c.prim != nil {
		c.prim.Close()
		c.prim = nil
	}
}

// primaryOpts builds the node options for a harness run. Everything
// asynchronous is off — inline encode, no idle flusher, no background
// compactor — so the workload's filesystem op sequence is a pure function
// of (workload, seed) and census positions line up with injected runs.
func primaryOpts(cfg Config, dir string, fs faultfs.FS) node.Options {
	opts := node.Options{
		Dir:                 dir,
		FS:                  fs,
		SyncWrites:          cfg.SyncWrites,
		BlockSize:           cfg.BlockSize,
		SegmentSize:         cfg.SegmentSize,
		SyncEncode:          true,
		DisableAutoFlush:    true,
		WritebackCacheBytes: 4 << 20,
	}
	opts.Engine = core.Config{GovernorWindow: 1 << 30}
	// Re-dedup during Ctx.Compact keeps conversion commits (and their
	// crash points) inside the matrix. The background compactor stays off.
	opts.Compaction = node.CompactionOptions{Rededup: true, RededupMaxChainDepth: 8}
	return opts
}

func secondaryOpts() node.Options {
	opts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	opts.Engine = core.Config{GovernorWindow: 1 << 30}
	return opts
}

// Result is one matrix point's outcome.
type Result struct {
	// Rule is the armed fault (nil for the census/baseline pass).
	Rule *faultfs.Rule
	// Crashed reports whether the crash point fired during the workload.
	Crashed bool
	// Counts are the per-class filesystem op totals the run issued (the
	// census reads these to enumerate the matrix).
	Counts [faultfs.NumOps]uint64
	// Events are the injector's fired-fault log, for failure messages.
	Events []string
	// Problems lists every violated invariant (empty = point passed).
	Problems []string
}

func injected(err error) bool {
	return errors.Is(err, faultfs.ErrInjected) || errors.Is(err, faultfs.ErrCrashed)
}

// RunPoint runs one workload under at most one armed fault rule in dir
// (which must be empty), then reopens on a clean filesystem and checks
// every recovery invariant. injSeed pins the injector's randomness
// (torn-write prefix lengths); the workload's own randomness is pinned by
// cfg.Seed so every point replays the identical op schedule.
func RunPoint(cfg Config, w Workload, rule *faultfs.Rule, injSeed int64, dir string) Result {
	cfg.defaults()
	var rules []faultfs.Rule
	if rule != nil {
		rules = append(rules, *rule)
	}
	inj := faultfs.NewInjector(faultfs.DefaultFS, injSeed, rules...)
	m := histcheck.New(histcheck.FloorAtBarrier)
	res := Result{Rule: rule}

	popts := primaryOpts(cfg, dir, inj)
	if w.Tune != nil {
		w.Tune(&popts)
	}
	n, err := node.Open(popts)
	if err != nil {
		if !injected(err) {
			res.Problems = append(res.Problems, fmt.Sprintf("initial open: %v", err))
		}
		// Fault during the very first open: nothing was acknowledged;
		// recovery of the (possibly empty) directory is still checked.
	} else {
		c := &Ctx{n: n, m: m, rng: rand.New(rand.NewSource(cfg.Seed)), sync: cfg.SyncWrites}
		w.Script(c)
		c.stopReplica()
		// Post-crash this only releases descriptors: every mutating
		// filesystem op fails with ErrCrashed, so nothing the dead
		// process buffered can escape to disk.
		n.Close()
	}
	res.Crashed = inj.Crashed()
	res.Counts = inj.Counts()
	res.Events = inj.Events()

	// Recovery: reopen the directory on the real filesystem.
	ropts := primaryOpts(cfg, dir, nil)
	if w.Tune != nil {
		w.Tune(&ropts)
	}
	n2, err := node.Open(ropts)
	if err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("reopen after fault: %v", err))
		return res
	}
	defer n2.Close()

	if rep := n2.VerifyAll(); !rep.Ok() {
		res.Problems = append(res.Problems, rep.Errors...)
	}
	res.Problems = append(res.Problems, problems(m.Check(histcheck.NodeView{Node: n2}))...)
	if w.Replicated {
		res.Problems = append(res.Problems, checkConvergence(n2)...)
	}
	return res
}

func problems(vs []histcheck.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Error()
	}
	return out
}

// checkConvergence attaches a fresh secondary to the recovered primary,
// forces a full snapshot resync (the recovered oplog is a new epoch, so a
// mismatched resume cursor is exactly the post-crash situation), and
// requires byte-for-byte equality.
func checkConvergence(n2 *node.Node) []string {
	p, err := repl.ListenAndServe(n2, "127.0.0.1:0")
	if err != nil {
		return []string{fmt.Sprintf("resync listener: %v", err)}
	}
	defer p.Close()
	sn, err := node.Open(secondaryOpts())
	if err != nil {
		return []string{fmt.Sprintf("resync secondary open: %v", err)}
	}
	defer sn.Close()
	staleEpoch := n2.Oplog().Epoch() + 1
	if staleEpoch == 0 {
		staleEpoch = 2
	}
	s, err := repl.ConnectResume(sn, p.Addr(), 0, staleEpoch)
	if err != nil {
		return []string{fmt.Sprintf("resync connect: %v", err)}
	}
	defer s.Close()
	// A marker mutation guarantees a sequence to wait on even when the
	// recovered store is empty, and proves the primary accepts writes.
	if err := n2.Insert("crashtest", "resync-marker", []byte("marker")); err != nil {
		return []string{fmt.Sprintf("recovered primary rejects writes: %v", err)}
	}
	if err := s.WaitForSeq(n2.LastAssignedSeq(), 10*time.Second); err != nil {
		return []string{fmt.Sprintf("secondary did not converge: %v", err)}
	}
	return problems(histcheck.Equal(histcheck.NodeView{Node: n2}, histcheck.NodeView{Node: sn}))
}

// Points turns a census (per-class op counts) into the fault-point
// schedule: a crash at every mutating filesystem operation the workload
// performed, plus transient write/sync error and torn-write points, each
// class sampled down to at most maxPerClass points (0 = unlimited). The
// sampling stride is deterministic, so a pinned seed names a stable matrix.
func Points(counts [faultfs.NumOps]uint64, maxPerClass int) []faultfs.Rule {
	var rules []faultfs.Rule
	sample := func(total uint64, mk func(nth uint64) faultfs.Rule) {
		if total == 0 {
			return
		}
		stride := uint64(1)
		if maxPerClass > 0 && total > uint64(maxPerClass) {
			stride = (total + uint64(maxPerClass) - 1) / uint64(maxPerClass)
		}
		for nth := uint64(1); nth <= total; nth += stride {
			rules = append(rules, mk(nth))
		}
		// The last op of a class is the most interesting tear point
		// (freshest acknowledged data); always include it.
		if stride > 1 && (total-1)%stride != 0 {
			rules = append(rules, mk(total))
		}
	}
	sample(counts[faultfs.OpWrite], faultfs.CrashAtWrite)
	sample(counts[faultfs.OpSync], faultfs.CrashAtSync)
	sample(counts[faultfs.OpOpen], faultfs.CrashAtOpen)
	sample(counts[faultfs.OpRemove], faultfs.CrashAtRemove)
	// Transient faults the process survives: failed and torn writes,
	// failed fsyncs. Sparser — they multiply runtime without adding
	// tear positions, so probe first/middle/last.
	probe := func(total uint64, mk func(nth uint64) faultfs.Rule) {
		if total == 0 {
			return
		}
		seen := map[uint64]bool{}
		for _, nth := range []uint64{1, (total + 1) / 2, total} {
			if nth >= 1 && !seen[nth] {
				seen[nth] = true
				rules = append(rules, mk(nth))
			}
		}
	}
	probe(counts[faultfs.OpWrite], faultfs.FailWrite)
	probe(counts[faultfs.OpWrite], faultfs.ShortWrite)
	probe(counts[faultfs.OpSync], faultfs.FailSync)
	probe(counts[faultfs.OpRemove], func(nth uint64) faultfs.Rule {
		return faultfs.Rule{Op: faultfs.OpRemove, Nth: nth, Kind: faultfs.KindErr}
	})
	// Mmap faults: a failed mapping must degrade to pread (FailMmap), and
	// process death at a mapping attempt is a valid tear position (the
	// attempt sits right after a segment roll or replay).
	probe(counts[faultfs.OpMmap], faultfs.FailMmap)
	probe(counts[faultfs.OpMmap], func(nth uint64) faultfs.Rule {
		return faultfs.Rule{Op: faultfs.OpMmap, Nth: nth, Kind: faultfs.KindCrash}
	})
	return rules
}
