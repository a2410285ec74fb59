package stormtest

import (
	"os"
	"strings"
	"testing"
	"time"

	"dbdedup/internal/cluster"
	"dbdedup/internal/node"
)

// clusterNodeOptions pins every member's insert cost with a *synchronous*
// 10ms simulated encode: an acked insert blocks on the encode stage, so
// per-op latency is dominated by the pinned sleep, not by however many CPU
// cores the host happens to give three in-process servers. That is what
// makes the single-vs-cluster latency comparison meaningful on a small CI
// box: the cluster's extra work is overlap-able waiting, and a routing or
// handoff regression shows up against a stable 10ms floor.
func clusterNodeOptions() node.Options {
	return node.Options{
		SyncEncode:           true,
		EncodeWorkers:        4, // 4 × 10ms ≈ 400 acked inserts/s per member
		SimulatedEncodeDelay: 10 * time.Millisecond,
	}
}

// startRing self-hosts an n-primary cluster on loopback ports, as dedupstorm
// -cluster does.
func startRing(t *testing.T, n int, nopts node.Options) ([]*cluster.Member, []string) {
	t.Helper()
	members, err := cluster.StartRing(n, cluster.MemberConfig{Node: nopts, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, m := range members {
		m := m
		t.Cleanup(func() { m.Close() })
		addrs = append(addrs, m.Addr())
	}
	return members, addrs
}

// clusterScalingConfig is the seed-pinned storm the scaling comparison uses:
// the single-node run offers ~37% of the member's pinned encode capacity,
// and the cluster run triples both the total rate and the client parallelism
// so every member sees exactly the per-node offered load and per-node client
// concurrency the single node did.
func clusterScalingConfig() Config {
	cfg := Config{
		Rate:     150,
		Duration: 2 * time.Second,
		Tenants:  400,
		Conns:    8,
		Seed:     42,
		// Near-Poisson arrivals: the default Pareto burst sizes have
		// infinite variance, so a 2s schedule's *count* swings ±20% and the
		// goodput ratio would measure arrival luck, not cluster capacity.
		MeanBurst: 1,
	}
	if testing.Short() {
		cfg.Rate = 60 // headroom for the race detector's per-op cost
		cfg.Duration = time.Second
	}
	return cfg
}

// TestStormClusterScaling is the cluster lane's acceptance run: a 3-primary
// cluster at equal per-node offered load must acknowledge ≥2.5× the inserts
// the single node did over the same schedule with nothing dropped or failed,
// every member must carry acked load, and every write acked through the
// router must verify back through it. The assertions count work, not time:
// at 37 % of pinned capacity nothing sheds, so the counts are a function of
// the seed, while the goodput and p99 ratios (logged, and in the
// STORM_CLUSTER_CSV rows) move with whatever else the host is doing.
func TestStormClusterScaling(t *testing.T) {
	base := clusterScalingConfig()
	nopts := clusterNodeOptions()

	local := startLocal(t, nopts)
	single := base
	single.Addrs = []string{local.Addr()}
	repS, err := Run("single", single)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single node: %s", repS)

	members, addrs := startRing(t, 3, nopts)
	cl := base
	cl.Addrs = addrs
	// Nominally 3× the single-node rate, calibrated (for this pinned seed)
	// so the *realized* schedule offers each member what the single node's
	// realized schedule offered it — the per-node equality check below
	// keeps the calibration honest if the generator changes.
	cl.Rate = 3.67 * base.Rate
	cl.Conns = 3 * base.Conns
	repC, err := Run("cluster3", cl)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("3-node cluster: %s", repC)

	for _, rep := range []*Report{repS, repC} {
		if rep.Dropped != 0 {
			t.Fatalf("%s dropped %d arrivals; dispatch queue miscapped", rep.Label, rep.Dropped)
		}
		if rep.ErrorTotal() != 0 {
			t.Fatalf("%s errors under healthy load: %v", rep.Label, rep.Errors)
		}
	}

	// Scaling, as counts over the same seed-pinned schedule. The -short
	// (-race) slice skips it: the calibration above targets the full-mode
	// schedule only.
	if !testing.Short() {
		perNodeS := float64(repS.Offered) / repS.Config.Duration.Seconds()
		perNodeC := float64(repC.Offered) / 3 / repC.Config.Duration.Seconds()
		if perNodeC < 0.9*perNodeS || perNodeC > 1.1*perNodeS {
			t.Errorf("realized per-node offered load %.0f ops/s not within 10%% of single-node %.0f ops/s; recalibrate cl.Rate",
				perNodeC, perNodeS)
		}
		if 2*repC.AckedInserts < 5*repS.AckedInserts {
			t.Errorf("cluster acked %d inserts < 2.5× single-node %d", repC.AckedInserts, repS.AckedInserts)
		}
	}
	t.Logf("wall-clock ratios (not asserted; results_csv/storm_cluster.csv is the scaling record): goodput %.2f×, p99 %.2f×",
		repC.GoodputOps/repS.GoodputOps, float64(repC.Insert.P99US)/float64(repS.Insert.P99US))

	// Per-shard accounting: the standalone member is a ring of one and
	// carries everything; three members, all loaded, sum exactly to the
	// report's acked total (no op attributed nowhere or twice).
	if len(repS.Shards) != 1 || repS.Shards[0].Member != local.Addr() || repS.Shards[0].AckedOps != repS.AckedInserts {
		t.Errorf("single-node report's shard rows = %+v, want all %d acked inserts on %s",
			repS.Shards, repS.AckedInserts, local.Addr())
	}
	if len(repC.Shards) != 3 {
		t.Fatalf("cluster report has %d shard rows, want 3", len(repC.Shards))
	}
	var shardOps int64
	for _, s := range repC.Shards {
		if s.AckedOps == 0 {
			t.Errorf("member %s carried no acked load; ring skew or routing failure", s.Member)
		}
		shardOps += s.AckedOps
	}
	if shardOps != repC.AckedInserts+repC.AckedReads {
		t.Errorf("per-shard acked ops sum to %d, report acked %d",
			shardOps, repC.AckedInserts+repC.AckedReads)
	}

	// Server-side accounting agrees: each member's node counted exactly the
	// inserts the client attributed to it.
	var nodeInserts int64
	for _, m := range members {
		nodeInserts += int64(m.Node.Stats().Inserts)
	}
	if nodeInserts != repC.AckedInserts {
		t.Errorf("members counted %d inserts, client acked %d", nodeInserts, repC.AckedInserts)
	}

	// Every acked write reads back the way it was written: through the
	// single node's server, and through the router.
	lost, corrupt, err := repS.VerifyAckedWrites()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 || corrupt != 0 {
		t.Fatalf("single node lost %d / corrupted %d acked writes", lost, corrupt)
	}
	lost, corrupt, err = repC.VerifyAckedWrites()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 || corrupt != 0 {
		t.Fatalf("cluster lost %d / corrupted %d acked writes", lost, corrupt)
	}

	// STORM_CLUSTER_CSV regenerates the committed baseline
	// (results_csv/storm_cluster.csv) from this exact run pair.
	if path := os.Getenv("STORM_CLUSTER_CSV"); path != "" {
		if err := repS.AppendClusterCSV(path, 3); err != nil {
			t.Fatal(err)
		}
		if err := repC.AppendClusterCSV(path, 3); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStormClusterCSV checks the cluster CSV artifact: base columns then one
// member/acked/goodput/latency group per shard, header stable across rows.
func TestStormClusterCSV(t *testing.T) {
	_, addrs := startRing(t, 3, clusterNodeOptions())

	cfg := clusterScalingConfig()
	cfg.Addrs = addrs
	cfg.Rate = 300
	cfg.Duration = 300 * time.Millisecond
	rep, err := Run("clustercsv", cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/storm_cluster.csv"
	if err := rep.AppendClusterCSV(path, 3); err != nil {
		t.Fatal(err)
	}
	if err := rep.AppendClusterCSV(path, 3); err != nil {
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
	if base := len(csvColumns); want != base+3*5 {
		t.Fatalf("cluster header has %d columns, want %d base + 15 shard", want, base)
	}
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != want {
			t.Fatalf("csv line %d has %d columns, header has %d", i, got, want)
		}
	}
	if !strings.Contains(lines[0], "shard0_member") || !strings.Contains(lines[0], "shard2_ins_p99_us") {
		t.Fatalf("cluster csv header missing shard columns: %q", lines[0])
	}
	for _, m := range addrs {
		if !strings.Contains(lines[1], m) {
			t.Fatalf("csv row names no member %s: %q", m, lines[1])
		}
	}
}
