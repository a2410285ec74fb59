package stormtest

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/cluster"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// stormNodeOptions pins the encoder pool's capacity with a simulated
// per-insert encode delay, so "overload" means the same thing on every host:
// 2 workers × 1ms ≈ 2000 dedup-encoded inserts/second. The -short lane drops
// capacity to 2 × 4ms ≈ 500/s: the race detector inflates the *shed* path's
// cost too, and the storm rate must sit between the pinned encode capacity
// (so the encoder is genuinely overloaded) and the shed path's ceiling (so
// shedding can actually keep up).
func stormNodeOptions(adm admission.Options) node.Options {
	delay := time.Millisecond
	if testing.Short() {
		delay = 4 * time.Millisecond
	}
	return node.Options{
		EncodeWorkers:        2,
		EncodeQueue:          8,
		SimulatedEncodeDelay: delay,
		Admission:            adm,
	}
}

// stormConfig is the seed-pinned overload storm both SLO runs use: the same
// seed yields the same arrival schedule, burst sizes, tenants, and payloads,
// so the two runs compare identical offered load.
func stormConfig() Config {
	cfg := Config{
		Rate:     4000, // 2× the pinned encode capacity
		Duration: 2 * time.Second,
		Tenants:  400,
		Conns:    8,
		Seed:     42,
	}
	if testing.Short() {
		cfg.Rate = 1200 // 2.4× the short-mode encode capacity
		cfg.Duration = time.Second
	}
	return cfg
}

// startLocal serves a node with nopts on a loopback port, as dedupstorm
// self-hosts one.
func startLocal(t *testing.T, nopts node.Options) *cluster.Member {
	t.Helper()
	m, err := cluster.StartMember(cluster.MemberConfig{Node: nopts, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// oneStorm spins up a fresh in-process node with the given admission
// configuration, runs cfg against its TCP surface, and returns the report
// plus the node's post-storm stats.
func oneStorm(t *testing.T, label string, adm admission.Options, cfg Config) (*Report, node.Stats) {
	t.Helper()
	local := startLocal(t, stormNodeOptions(adm))
	cfg.Addrs = []string{local.Addr()}
	rep, err := Run(label, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, local.Node.Stats()
}

// verify re-reads every acked write through a fresh connection.
func verify(t *testing.T, rep *Report) (lost, corrupt int) {
	t.Helper()
	lost, corrupt, err := rep.VerifyAckedWrites()
	if err != nil {
		t.Fatal(err)
	}
	return lost, corrupt
}

// TestStormSLOs is the headline assertion set from the issue: at the same
// seed-pinned offered load (2× encode capacity),
//
//  1. no acknowledged write is ever lost or corrupted, with or without
//     shedding;
//  2. shed-counter accounting reconciles exactly with node Stats;
//  3. p99 insert latency with admission+shedding is at most half the
//     no-admission p99 (in practice it is orders of magnitude lower).
func TestStormSLOs(t *testing.T) {
	base := stormConfig()

	// Run A: no admission control. The encoder pool's backpressure is the
	// only defence, so the open-loop backlog grows for the whole storm and
	// the tail collapses.
	repA, statsA := oneStorm(t, "noadm", admission.Options{}, base)
	if repA.Dropped != 0 {
		t.Fatalf("run A dropped %d arrivals; dispatch queue miscapped", repA.Dropped)
	}
	lost, corrupt := verify(t, repA)
	if lost != 0 || corrupt != 0 {
		t.Fatalf("run A lost %d / corrupted %d acked writes", lost, corrupt)
	}
	if statsA.InsertsShedRaw != 0 || statsA.Admission.Shed != 0 {
		t.Fatalf("run A shed %d/%d inserts without a controller", statsA.InsertsShedRaw, statsA.Admission.Shed)
	}

	// Run B: shed-to-raw under overload. Acked writes stay fast because the
	// dedup work, not the write, is shed.
	// OverloadDwell keeps the latch from flapping at the queue-drain rate:
	// sustained overload becomes long shed stretches, so acked inserts are
	// not repeatedly stalled behind full-cost encode jobs on their shard.
	repB, statsB := oneStorm(t, "shed", admission.Options{
		ShedRaw: true, OverloadDwell: 250 * time.Millisecond,
	}, base)
	if repB.Dropped != 0 {
		t.Fatalf("run B dropped %d arrivals", repB.Dropped)
	}
	if repA.Offered != repB.Offered {
		t.Fatalf("offered load differs: %d vs %d — seed pinning broken", repA.Offered, repB.Offered)
	}
	lost, corrupt = verify(t, repB)
	if lost != 0 || corrupt != 0 {
		t.Fatalf("run B lost %d / corrupted %d acked writes", lost, corrupt)
	}

	// SLO: p99 with admission at most half of without, at identical load.
	if repB.Insert.P99US*2 > repA.Insert.P99US {
		t.Fatalf("admission p99 %dµs not ≤ half of no-admission p99 %dµs",
			repB.Insert.P99US, repA.Insert.P99US)
	}
	// And bounded in absolute terms: the whole point of shedding is that
	// acked-write latency stays at append speed, not queue-backlog speed.
	if p99 := time.Duration(repB.Insert.P99US) * time.Microsecond; p99 > 750*time.Millisecond {
		t.Fatalf("shed-mode p99 %v not bounded", p99)
	}

	// Shed accounting reconciles with Stats.
	if repB.ErrorTotal() != 0 {
		t.Fatalf("run B errors: %v", repB.Errors)
	}
	if got, want := statsB.Inserts, uint64(repB.AckedInserts); got != want {
		t.Fatalf("Stats.Inserts = %d, acked inserts = %d", got, want)
	}
	if statsB.Admission.Shed == 0 {
		t.Fatal("overload storm shed nothing; admission controller inert")
	}
	if got, want := statsB.InsertsShedRaw, uint64(statsB.Admission.Shed); got != want {
		t.Fatalf("Stats.InsertsShedRaw = %d, Admission.Shed = %d", got, want)
	}
	if got, want := uint64(statsB.Admission.Admitted+statsB.Admission.Shed), statsB.Inserts; got != want {
		t.Fatalf("Admitted+Shed = %d, Stats.Inserts = %d", got, want)
	}
	// Shed inserts bypass the engine: its insert count is exactly the
	// non-shed remainder.
	if got, want := statsB.Engine.Inserts, statsB.Inserts-statsB.InsertsShedRaw; got != want {
		t.Fatalf("Engine.Inserts = %d, want Inserts−Shed = %d", got, want)
	}
	if statsB.InsertsRejected != 0 || statsB.Admission.Rejected != 0 {
		t.Fatalf("shed-only run rejected %d/%d inserts", statsB.InsertsRejected, statsB.Admission.Rejected)
	}

	t.Logf("run A (no admission): %s", repA)
	t.Logf("run B (shed-raw):     %s", repB)
}

// TestStormFairShareRejection proves the reject path over the wire: with
// per-tenant fair share enabled and a tiny rate, an overload storm bounces
// over-share inserts with the overload status, the client maps it to
// ErrOverloaded, and rejected writes appear in neither Stats.Inserts nor the
// acked set.
func TestStormFairShareRejection(t *testing.T) {
	cfg := stormConfig()
	cfg.Duration = cfg.Duration / 2

	rep, stats := oneStorm(t, "fairshare", admission.Options{
		ShedRaw:    true,
		TenantRate: 5, // a bucket of 2×5 tokens
	}, cfg)

	rejected := rep.Errors[ErrClassOverloaded]
	if rejected == 0 {
		t.Fatal("overload storm with tiny tenant rate rejected nothing")
	}
	if got := int64(stats.InsertsRejected); got != rejected {
		t.Fatalf("Stats.InsertsRejected = %d, client saw %d overload errors", got, rejected)
	}
	if got := stats.Admission.Rejected; got != rejected {
		t.Fatalf("Admission.Rejected = %d, client saw %d", got, rejected)
	}
	if got, want := stats.Inserts, uint64(rep.AckedInserts); got != want {
		t.Fatalf("Stats.Inserts = %d, acked = %d — a rejected write was counted", got, want)
	}
	// Every write that WAS acked is still durable and correct.
	lost, corrupt := verify(t, rep)
	if lost != 0 || corrupt != 0 {
		t.Fatalf("lost %d / corrupted %d acked writes", lost, corrupt)
	}
	t.Logf("fair share: %s", rep)
}

// TestStormHealthyBaseline runs a storm well under capacity with the full
// read mix: nothing is dropped, nothing errors besides reads racing their
// own inserts, and goodput tracks the offered rate.
func TestStormHealthyBaseline(t *testing.T) {
	cfg := stormConfig()
	cfg.Rate = 400
	if testing.Short() {
		cfg.Rate = 150 // stay well under the reduced short-mode capacity
	}
	cfg.Duration = 700 * time.Millisecond
	cfg.Reads = true
	cfg.Blend = []workload.Kind{workload.Enron, workload.MessageBoards}

	rep, stats := oneStorm(t, "healthy", admission.Options{
		ShedRaw: true, TenantRate: 1e6,
	}, cfg)

	if rep.Dropped != 0 {
		t.Fatalf("healthy storm dropped %d", rep.Dropped)
	}
	for class, n := range rep.Errors {
		// A read may overtake its own insert across workers; every other
		// class means the server degraded under a load it had headroom for.
		if class != ErrClassNotFound && n > 0 {
			t.Fatalf("healthy storm errors: %v", rep.Errors)
		}
	}
	if stats.InsertsRejected != 0 {
		t.Fatalf("healthy storm rejected %d inserts", stats.InsertsRejected)
	}
	if rep.GoodputOps <= 0 {
		t.Fatal("no goodput")
	}
	lost, corrupt := verify(t, rep)
	if lost != 0 || corrupt != 0 {
		t.Fatalf("lost %d / corrupted %d acked writes", lost, corrupt)
	}
}

// TestStormCSV checks the CSV artifact: header once, one row per run, column
// count stable.
func TestStormCSV(t *testing.T) {
	cfg := stormConfig()
	cfg.Rate = 300
	cfg.Duration = 300 * time.Millisecond

	rep, _ := oneStorm(t, "csv", admission.Options{}, cfg)

	path := t.TempDir() + "/storm.csv"
	if err := rep.AppendCSV(path); err != nil {
		t.Fatal(err)
	}
	if err := rep.AppendCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), data)
	}
	want := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != want {
			t.Fatalf("csv line %d has %d columns, header has %d", i, got, want)
		}
	}
	if !strings.HasPrefix(lines[0], "label,rate_ops") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "csv,300") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

// TestStormSingleTrace is the way a running server is driven with one of the
// paper's traces (dedupstorm -addr … -blend wikipedia -tenants 1 -reads): one
// tenant, one dataset, below capacity. The server-side line the tool then
// prints must be the node's own Stats, fetched over the client API.
func TestStormSingleTrace(t *testing.T) {
	local := startLocal(t, node.Options{DisableAutoFlush: true})
	rep, err := Run("trace", Config{
		Addrs:    []string{local.Addr()},
		Rate:     300,
		Duration: 500 * time.Millisecond,
		Tenants:  1,
		Seed:     7,
		Blend:    []workload.Kind{workload.Wikipedia},
		// Wikipedia's mix is 99.9 % reads; sample it down to ~2 per insert
		// so half a second still inserts revision chains worth deduping.
		Reads:        true,
		ReadSampling: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedInserts == 0 || rep.ErrorTotal() != rep.Errors[ErrClassNotFound] {
		t.Fatalf("below-capacity trace run: %s", rep)
	}
	// Settle the node: drain the encoders, then apply the write-backs the
	// disabled idle flusher left pending.
	local.Node.Barrier()
	local.Node.FlushWritebacks(-1)

	lines, err := ServerLines(rep.Config)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Node.Stats()
	if len(lines) != 1 || lines[0] != serverLines(local.Addr(), want) {
		t.Fatalf("ServerLines = %q\nnode.Stats() = %+v", lines, want)
	}
	line := lines[0]
	if want.RawInsertBytes != rep.InsertBytes || want.Engine.Deduped == 0 ||
		want.Store.LogicalBytes >= want.RawInsertBytes {
		t.Fatalf("revision chain did not dedup: %s", line)
	}
	for _, part := range []string{
		"server " + local.Addr() + ": raw " + metrics.FormatBytes(want.RawInsertBytes),
		"stored " + metrics.FormatBytes(want.Store.LogicalBytes),
		"oplog " + metrics.FormatBytes(want.OplogBytes),
		fmt.Sprintf("dedup hits %d", want.Engine.Deduped),
	} {
		if !strings.Contains(line, part) {
			t.Fatalf("server line %q lacks %q", line, part)
		}
	}
}
