// Command dedupstorm is the open-loop, heavy-tailed, multi-tenant load
// generator behind the storm experiments (EXPERIMENTS.md): arrivals follow a
// compound Poisson process (exponential gaps between bursts, Pareto burst
// sizes, Zipf tenant choice) scheduled from a pinned seed, and every
// operation's latency is measured from its *scheduled* arrival time — so
// when the server falls behind the offered rate, the backlog shows up in the
// tail instead of being hidden by a closed feedback loop (the way
// benchmark/'s measurements are, by design).
//
// Against a running server, or a running ring (-addr takes one member or a
// comma-separated list; the storm goes through the ring-routing client either
// way, and a standalone daemon is the ring of itself):
//
//	dbdedupd -listen :7070 &
//	dedupstorm -addr 127.0.0.1:7070 -rate 4000 -duration 10s -tenants 1000
//
// One tenant and a one-dataset blend (-blend wikipedia -tenants 1 [-reads])
// drives the server with one of the paper's traces. Below capacity no backlog
// builds, and the latency is the service latency plus the generator's own
// wake-up slack (and queueing inside a burst unless -mean-burst 1).
// Every run ends with each driven server's own line: raw bytes in, stored
// and oplog bytes with their ratios, dedup hits.
//
// Self-hosted (empty -addr): the storm runs against an in-process member
// whose encoder capacity and admission control are set by the -encode-*,
// -admission-tenant-rate and -shed-* flags, which is how the with/without-admission
// baselines in results_csv/storm_*.csv are produced. -cluster N self-hosts an
// in-process N-primary ring of such members instead, how the
// results_csv/storm_cluster.csv baseline is produced.
//
// Every report has one line per member with its share of the acked load, and
// -verify re-reads every acked write back through the router. -csv writes the
// per-shard columns of results_csv/storm_cluster.csv when the storm drove more
// than one member, and the columns of results_csv/storm_overload.csv when it
// drove one.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/cluster"
	"dbdedup/internal/node"
	"dbdedup/internal/stormtest"
	"dbdedup/internal/workload"
)

// The command line. README.md lists the same set, and TestFlagsMatchREADME
// keeps the two equal.
var (
	addr     = flag.String("addr", "", "member API address, or a comma-separated list of ring members (empty: self-host an in-process member)")
	clusterN = flag.Int("cluster", 0, "self-host an in-process N-primary sharded cluster (overrides -addr)")
	rate     = flag.Float64("rate", 2000, "offered arrival rate, ops/second")
	duration = flag.Duration("duration", 5*time.Second, "storm duration")
	tenants  = flag.Int("tenants", 1000, "tenant databases (Zipf-skewed)")
	conns    = flag.Int("conns", 8, "concurrent client connections")
	seed     = flag.Int64("seed", 1, "schedule/trace seed (same seed = same offered load)")
	blend    = flag.String("blend", "wikipedia,enron,stackexchange,messageboards", "comma-separated datasets tenants draw from")
	reads    = flag.Bool("reads", false, "include the datasets' read mixes")
	sampling = flag.Int("read-sampling", 20, "take every Nth read of the mix")
	burst    = flag.Float64("mean-burst", 4, "mean ops per arrival burst (Pareto-tailed)")
	label    = flag.String("label", "storm", "row label for output and CSV")
	csvPath  = flag.String("csv", "", "append the run's row to this CSV file")
	doVerify = flag.Bool("verify", false, "after the storm, re-read every acked write and check payload hashes")

	// Self-host flags (-addr ""): the served node's shape.
	encWorkers = flag.Int("encode-workers", 0, "self-host: encoder pool size (0 = node default)")
	encDelay   = flag.Duration("encode-delay", 0, "self-host: simulated per-insert encode cost, pinning capacity host-independently")
	shedRaw    = flag.Bool("shed-raw", false, "self-host: degrade to raw inserts under overload")
	tenantRate = flag.Float64("admission-tenant-rate", 0, "self-host: per-tenant fair-share inserts/second; when positive, over-share inserts are rejected during overload")
	dwell      = flag.Duration("overload-dwell", 250*time.Millisecond, "self-host: minimum time the overload latch stays engaged")
)

func main() {
	flag.Parse()

	var kinds []workload.Kind
	for _, part := range strings.Split(*blend, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		k, err := workload.ParseKind(part)
		if err != nil {
			log.Fatalf("-blend: %v", err)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		log.Fatal("-blend selects no datasets")
	}
	cfg := stormtest.Config{
		Addrs:        cluster.SplitAddrs(*addr),
		Rate:         *rate,
		Duration:     *duration,
		Tenants:      *tenants,
		Conns:        *conns,
		Seed:         *seed,
		Blend:        kinds,
		Reads:        *reads,
		ReadSampling: *sampling,
		MeanBurst:    *burst,
	}

	nopts := node.Options{
		EncodeWorkers:        *encWorkers,
		SimulatedEncodeDelay: *encDelay,
		Admission: admission.Options{
			ShedRaw:       *shedRaw,
			TenantRate:    *tenantRate,
			OverloadDwell: *dwell,
		},
	}
	self := cluster.MemberConfig{Node: nopts, Listen: "127.0.0.1:0"}
	// -cluster N hosts a ring, no -addr hosts one member; either replaces
	// whatever -addr named.
	var hosted []*cluster.Member
	var err error
	switch {
	case *clusterN > 0:
		hosted, err = cluster.StartRing(*clusterN, self)
	case len(cfg.Addrs) == 0:
		hosted = make([]*cluster.Member, 1)
		hosted[0], err = cluster.StartMember(self)
	}
	if err != nil {
		log.Fatalf("self-host: %v", err)
	}
	if hosted != nil {
		cfg.Addrs = nil
		for _, m := range hosted {
			defer m.Close()
			cfg.Addrs = append(cfg.Addrs, m.Addr())
		}
		log.Printf("self-hosted %d member(s) on %s", len(hosted), strings.Join(cfg.Addrs, ","))
	}

	rep, err := stormtest.Run(*label, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)

	if *doVerify {
		lost, corrupt, err := rep.VerifyAckedWrites()
		if err != nil {
			log.Fatalf("verify: %v", err)
		}
		fmt.Printf("verify: %d acked writes re-read — %d lost, %d corrupt\n",
			rep.AckedWriteCount(), lost, corrupt)
		if lost != 0 || corrupt != 0 {
			log.Fatal("SLO violated: acknowledged writes were lost or corrupted")
		}
	}

	lines, err := stormtest.ServerLines(cfg)
	if err != nil {
		log.Printf("server stats: %v", err) // the storm's own report and CSV row still stand
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	for _, m := range hosted {
		cm := m.Shard.Metrics()
		fmt.Printf("member %s: ring epoch %d, %d redirects, %d moving answers\n",
			m.Addr(), cm.RingEpoch.Value(), cm.RedirectsIssued.Total(), cm.MovingAnswered.Total())
	}

	if *csvPath != "" {
		if n := len(rep.Shards); n > 1 {
			err = rep.AppendClusterCSV(*csvPath, n)
		} else {
			err = rep.AppendCSV(*csvPath)
		}
		if err != nil {
			log.Fatalf("csv: %v", err)
		}
		fmt.Printf("appended row to %s\n", *csvPath)
	}
}
