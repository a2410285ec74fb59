// Package faulttest is the fault driver: one table of fault classes, one bed
// builder, one traffic loop, one heal → converge → judge. A Schedule names a
// row of the table and a seed. The row says what is built (a single member,
// a primary with its follower, or a four-member cluster with a live router
// client, every process a cluster.Member as dbdedupd starts it, joined only
// through a netsim.Mesh) and which faults run while traffic does: link
// faults, disk faults, membership changes, process kills. After the traffic
// the driver heals the network, restarts what died, drives the cluster to its
// target membership, waits for followers, and holds the bed to the shared
// acked-write history (package histcheck, DESIGN.md §14) in judge, the only
// function here that passes a verdict.
//
// Outcome accounting is explicit: a typed server answer (wrong shard, moving,
// overloaded) means the operation did not apply; a transport failure, or a
// server error on a member whose disk is faulted, means it may have, and the
// history then allows both outcomes and the churn leaves the key alone. The
// traffic and every fault roll derive from the seed. (Goroutine interleaving
// still varies between runs; the seed pins what the schedule and the faults
// do, which in practice reproduces failures.)
package faulttest

import (
	"fmt"
	"math/rand"
	"time"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/netsim"
)

// Schedule is one seed-pinned run of a class.
type Schedule struct {
	Seed  int64
	Class string
	Ops   int // churn operations; ignored by the scripted crash classes
}

// Point is one point of the crash matrix: the rule armed on the single
// member's disk for this run (nil for the census pass), the seed of that
// disk's torn-write draws, and the empty directory the member lives in.
// With no Dir the disk is in memory.
type Point struct {
	Rule     *faultfs.Rule
	TearSeed int64
	Dir      string
}

// Result reports what a schedule observed, so a caller can assert that a
// class exercised its fault path.
type Result struct {
	Keys, LimboKeys int    // live and quarantined keys in the history at the end
	TraceDigest     uint64 // histcheck.Churn.TraceDigest of the issued writes

	// m0's follower.
	Resyncs, BaseFetches                                    uint64
	Reconnects, CorruptFrames, FrameSeqViolations, IdleOuts int64
	Net                                                     netsim.Counters // the link to m0

	// The router clients (the churn's and the verdict's) and the members
	// behind them.
	Rebalances, FailedRebalances                 int
	Redirects, MovingWaits, Transport, Transfers int64

	// Disks: injected faults that fired anywhere, processes killed, and the
	// first member's crash point, census and fault log.
	DiskFaults, Kills int
	Crashed           bool
	Counts            [faultfs.NumOps]uint64
	Events            []string
}

type topology int

const (
	single    topology = iota // one member; a follower only if the script attaches one
	pair                      // m0 and its follower
	clustered                 // m0..m2 in a ring, m3 outside it, a router client
)

// hosts and addresses are fixed: placement must be the same for every seed,
// so the same databases move on every join and leave.
var (
	hosts    = []string{"m0", "m1", "m2", "m3"}
	memAddrs = []string{"m0:1", "m1:1", "m2:1", "m3:1"}
	churnDBs = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	base     = memAddrs[:3]
)

const (
	oplogAddr    = "m0:2" // where m0 serves its oplog
	followerAddr = "m0:3" // the follower's own client listener, on m0's host
	follower     = 4      // the follower's index in class.disks
)

// shapes is what a topology fixes: how many ring members, which databases
// the churn spreads over and in what mix, the oplog's byte budget (small, so a
// long outage resyncs by snapshot), the upper bound of the pause drawn after
// one op in four, and the size of a full and a -short schedule and matrix.
var shapes = [...]struct {
	members    int
	dbs        []string
	mix        histcheck.Mix
	oplog      int64
	pause      time.Duration
	ops, seeds [2]int
}{
	single: {members: 1},
	pair: {members: 1, dbs: churnDBs[:3], oplog: 64 << 10, pause: 400 * time.Microsecond,
		mix: histcheck.Mix{Insert: 0.55, Update: 0.80, Delete: 1, BaseSize: 1024},
		ops: [2]int{110, 70}, seeds: [2]int{26, 2}},
	clustered: {members: 4, dbs: churnDBs, oplog: 128 << 10, pause: 300 * time.Microsecond,
		mix: histcheck.Mix{Insert: 0.50, Update: 0.72, Delete: 0.85, BaseSize: 512},
		ops: [2]int{90, 60}, seeds: [2]int{18, 0}},
}

// class is one row of the table: a topology and, per fault dimension, what
// runs against it.
type class struct {
	name     string
	topology topology
	// seedBase is the row's first seed; its matrix is seedBase, seedBase+1,
	// … for as many seeds as the shape says, or in a -short run the row.
	seedBase int64
	short    int

	// Traffic: a script of client calls (the crash matrix), else the
	// topology's churn.
	script func(*bed)

	// Link: a random per-chunk fault mix on the path to m0, installed once
	// the follower's session is up.
	profile *netsim.Profile
	// step runs before each churn op: outage windows, kills.
	step func(b *bed, op int)

	// Disk: the members (and follower) that live on a faultfs.Injector over
	// a filesystem that survives them, and the rules drawn for each.
	disks []int
	rules func(*rand.Rand) []faultfs.Rule

	// Membership: the rebalance targets, in order, started a third of the
	// way into the churn so the window opens mid-insert; each is attempted
	// only if the one before it succeeded, and the last is where the
	// cluster must end up. beside runs while they do.
	moves  [][]string
	beside func(b *bed, rng *rand.Rand)
	// follows has m0 serve its oplog to a follower: from the start, or, in a
	// single row, from where the script attaches it.
	follows bool

	// exit is how m0's process ends when the traffic does.
	exit exit
	// fired are the counters that must be non-zero over the row's matrix:
	// the class exercised the fault path it is named for.
	fired []counter
}

type exit int

const (
	lives  exit = iota
	closes      // a clean Close; with a crash rule fired it only releases descriptors
	killed      // Member.Kill
)

// counter is one "the fault path actually fired" assertion.
type counter struct {
	never string // "<class> schedules never <never>"
	of    func(*Result) int64
}

var (
	reconnects = counter{"forced a reconnect", func(r *Result) int64 { return r.Reconnects }}
	reordered  = counter{"reordered a frame", func(r *Result) int64 { return r.Net.Reordered }}
	duplicated = counter{"duplicated a frame", func(r *Result) int64 { return r.Net.Duplicated }}
	corrupted  = counter{"corrupted a frame", func(r *Result) int64 { return r.Net.Corrupted }}
	dropped    = counter{"dropped a frame", func(r *Result) int64 { return r.Net.Dropped }}
	cuts       = counter{"cut a connection", func(r *Result) int64 { return r.Net.Cuts }}
	redirects  = counter{"followed a redirect", func(r *Result) int64 { return r.Redirects }}
	transport  = counter{"forced a transport retry", func(r *Result) int64 { return r.Transport }}
	retried    = counter{"failed a rebalance attempt", func(r *Result) int64 { return int64(r.FailedRebalances) }}
	diskFaults = counter{"fired an injected disk error", func(r *Result) int64 { return int64(r.DiskFaults) }}
	kills      = counter{"killed a process", func(r *Result) int64 { return int64(r.Kills) }}
	resyncs    = counter{"resynced by snapshot", func(r *Result) int64 { return int64(r.Resyncs) }}
)

var all, leave, double = memAddrs, memAddrs[:2], []string{memAddrs[0], memAddrs[2], memAddrs[3]}

// classes is the table. The crash rows are driven point by point (RunPoint);
// the others by seed (Run). A member killed while a rebalance is open is a
// cluster row whose beside hook calls b.down and b.up on a member listed in
// disks; it is not here because a restarted member comes back ring-less
// (ROADMAP 4(c)).
var classes = []class{
	// Crash matrix: scripted sessions against one member whose disk is armed
	// with the point's rule.
	{name: "chains", topology: single, script: chains, disks: []int{0}, exit: closes},
	{name: "compact-churn", topology: single, script: compactChurn, disks: []int{0}, exit: closes},
	{name: "replicated", topology: single, script: replicated, disks: []int{0}, exit: closes, follows: true},

	// Network matrix: churn on a primary while the link to it misbehaves.
	{name: "partition", topology: pair, seedBase: 1, follows: true, step: outages(false), fired: []counter{reconnects}},
	{name: "oneway", topology: pair, seedBase: 1001, follows: true, step: outages(true), fired: []counter{reconnects}},
	{name: "reorder", topology: pair, seedBase: 2001, follows: true, fired: []counter{reordered},
		profile: &netsim.Profile{Reorder: 0.15, DelayMax: 2 * time.Millisecond}},
	{name: "duplicate", topology: pair, seedBase: 3001, follows: true, fired: []counter{duplicated},
		profile: &netsim.Profile{Duplicate: 0.20}},
	{name: "corrupt", topology: pair, seedBase: 4001, follows: true, fired: []counter{corrupted},
		profile: &netsim.Profile{Corrupt: 0.05}},
	{name: "drop", topology: pair, seedBase: 5001, follows: true, fired: []counter{dropped},
		profile: &netsim.Profile{Drop: 0.05}},
	{name: "cut", topology: pair, seedBase: 6001, follows: true, fired: []counter{cuts},
		profile: &netsim.Profile{Cut: 0.02}},
	{name: "mixed", topology: pair, seedBase: 7001, follows: true,
		profile: &netsim.Profile{Drop: 0.02, Corrupt: 0.02, Duplicate: 0.05, Reorder: 0.05, Cut: 0.01, DelayMax: time.Millisecond}},
	// Process kills: the follower dies wherever it is, comes back with its
	// disk and no cursor, and dies again inside the snapshot it then asks
	// for; the primary dies mid-stream once the churn is over and comes back
	// with a new oplog epoch, which sends the follower a third snapshot.
	{name: "restart", topology: pair, seedBase: 8001, follows: true, step: killFollower,
		profile: &netsim.Profile{DelayMax: 2 * time.Millisecond},
		disks:   []int{0, follower}, exit: killed, fired: []counter{kills, resyncs}},

	// Cluster matrix: churn through the router while the membership changes.
	{name: "join", topology: clustered, seedBase: 1, short: 3, moves: [][]string{all}, fired: []counter{redirects}},
	{name: "leave", topology: clustered, seedBase: 1001, short: 3, moves: [][]string{leave}},
	{name: "double", topology: clustered, seedBase: 2001, short: 3, moves: [][]string{all, double}, fired: []counter{redirects}},
	{name: "hostpartition", topology: clustered, seedBase: 3001, short: 3, moves: [][]string{all},
		beside: hostPartitions, fired: []counter{transport}},
	// The joiner's listener dies mid-snapshot and comes back; its process
	// and memory stay. The coordinator and the pushing members redial until
	// it does, so the join survives as transport retries. (clustertest
	// asserted "a rebalance retry" here by counting attempts, of which every
	// schedule makes two, failed or not; counted as failures there are none,
	// at that commit or this.)
	{name: "peerdeath", topology: clustered, seedBase: 4001, short: 2, moves: [][]string{all},
		beside: bounceJoiner, fired: []counter{transport}},
	// Leave then rejoin: m0 first gains the leaver's databases (handoff in,
	// its follower copies them) and then sheds them (drop deletes, the
	// follower forgets them).
	{name: "replica", topology: clustered, seedBase: 5001, short: 2, moves: [][]string{leave, base}, follows: true},
	// Disk, network and membership at once: a join under per-host partition
	// windows, a follower on m0, m1 and the joiner on faulted disks.
	{name: "composed", topology: clustered, seedBase: 6001, short: 2, moves: [][]string{all},
		beside: hostPartitions, follows: true,
		disks: []int{1, 3}, rules: transientDiskFaults, fired: []counter{diskFaults, transport, retried}},
}

func classNamed(name string) *class {
	for i := range classes {
		if classes[i].name == name {
			return &classes[i]
		}
	}
	return nil
}

// Run executes one schedule of a seeded class to its verdict. A non-nil
// error is every violated invariant and every set-up failure, joined; the
// messages name the offending record.
func Run(sch Schedule) (Result, error) { return RunPoint(sch, Point{}) }

// RunPoint is Run with one point of the crash matrix armed on the first
// member's disk.
func RunPoint(sch Schedule, pt Point) (Result, error) {
	row := classNamed(sch.Class)
	if row == nil {
		return Result{}, fmt.Errorf("faulttest: no class %q", sch.Class)
	}
	return run(row, sch, pt)
}

func run(row *class, sch Schedule, pt Point) (Result, error) {
	b := build(row, sch, pt)
	defer b.close()
	b.traffic()
	if b.settle() {
		b.note("", b.judge())
	}
	if err := b.err(); err != nil {
		return b.result(), fmt.Errorf("class %s seed %d: %w", row.name, sch.Seed, err)
	}
	return b.result(), nil
}

// transientDiskFaults draws one file-backed member's errors at seed-chosen
// positions: six failed writes and one failed fsync. On an established
// member they land on client writes and surface as server errors. On the
// joiner they fail inbound transfers, which aborts the window, and land
// inside the DropDB that abort runs, sometimes twice running. That is the
// regression for Shard's sticky drop: with the drop's error discarded, as it
// was when PR 16's draw found this at seed 6016, seeds 6002 (in the -short
// slice) and 6010 resurrect a deleted record under this draw on every run.
func transientDiskFaults(rng *rand.Rand) []faultfs.Rule {
	rules := []faultfs.Rule{faultfs.FailSync(1 + uint64(rng.Intn(20)))}
	for i := 0; i < 6; i++ {
		rules = append(rules, faultfs.FailWrite(1+uint64(rng.Intn(30))))
	}
	return rules
}

// outages opens random outage windows on the link to m0, plus a guaranteed
// one a third of the way in so every schedule has at least one. One-way
// windows alternate directions, starting with the one the stack can detect
// (primary → follower starves, so the write and idle timeouts fire). A
// to-server half-open outage is deliberately silent mid-stream: the batch
// flow is one-directional, so it only bites fetch traffic. Worth running,
// not worth asserting reconnects on.
func outages(oneWay bool) func(b *bed, op int) {
	return func(b *bed, op int) {
		link := b.mesh.Sim(hosts[0])
		if b.outageLeft == 0 && (b.rng.Intn(18) == 0 || (b.outages == 0 && op == b.sch.Ops/3)) {
			mode := netsim.PartitionBoth
			if oneWay {
				mode = netsim.PartitionToClient
				if b.outages%2 == 1 {
					mode = netsim.PartitionToServer
				}
			}
			link.SetPartition(mode)
			b.outages++
			b.outageLeft = 30 + b.rng.Intn(40)
		}
		if b.outageLeft > 0 {
			if b.outageLeft--; b.outageLeft == 0 {
				link.SetPartition(netsim.PartitionNone)
			}
			// An outage must span real time, so the idle and write
			// timeouts trip while the primary keeps accepting writes.
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// killFollower is the restart row's step: a quarter of the way in the
// follower is killed and restarted, and killed again as soon as records of
// the snapshot it asks for have begun to land (or entries of the stream, if
// the first kill left its disk empty and it follows from zero).
func killFollower(b *bed, op int) {
	if op != b.sch.Ops/4 {
		return
	}
	b.note("", b.stopWatch())
	b.down(b.follower, true)
	if b.up(b.follower) {
		f := b.follower.Follower
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
			if _, records := f.Resyncs(); records > 0 || f.AppliedSeq() > 0 {
				break
			}
		}
		b.down(b.follower, true)
		b.up(b.follower)
	}
	b.watch()
}

// hostPartitions cuts one or two seed-chosen hosts off for a while, one
// after the other, while the rebalance runs.
func hostPartitions(b *bed, rng *rand.Rand) {
	for w := 0; w < 1+rng.Intn(2); w++ {
		time.Sleep(time.Duration(rng.Intn(15)) * time.Millisecond)
		sim := b.mesh.Sim(hosts[rng.Intn(len(hosts))])
		sim.SetPartition(netsim.PartitionBoth)
		time.Sleep(time.Duration(150+rng.Intn(150)) * time.Millisecond)
		sim.Heal()
	}
}

// bounceJoiner takes the joiner's listener down mid-snapshot and brings it
// back; a listener that does not come back is revived, or reported, by
// settle.
func bounceJoiner(b *bed, rng *rand.Rand) {
	time.Sleep(time.Duration(2+rng.Intn(25)) * time.Millisecond)
	b.mesh.SetDown(hosts[3], true)
	b.members[3].API.Close()
	b.members[3].API = nil
	time.Sleep(time.Duration(40+rng.Intn(80)) * time.Millisecond)
	b.mesh.SetDown(hosts[3], false)
	b.note("", b.listen(b.members[3]))
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
	at := func(op faultfs.Op, kind faultfs.Kind) func(uint64) faultfs.Rule {
		return func(nth uint64) faultfs.Rule { return faultfs.Rule{Op: op, Nth: nth, Kind: kind} }
	}
	probe(counts[faultfs.OpRemove], at(faultfs.OpRemove, faultfs.KindErr))
	return rules
}
