// Command dbdedupd runs a dbDedup database node: a deduplicating document
// store serving a client API over TCP, optionally replicating to or from
// other nodes.
//
// A primary with a secondary, on one machine:
//
//	dbdedupd -listen :7070 -repl-listen :7071 -dir /var/lib/dbdedup/primary
//	dbdedupd -listen :7080 -follow 127.0.0.1:7071 -dir /var/lib/dbdedup/secondary
//
// A 3-primary sharded cluster, each member owning the databases the ring
// places on it (see DESIGN.md "Sharded cluster"):
//
//	dbdedupd -listen :7070 -cluster-self host1:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//	dbdedupd -listen :7070 -cluster-self host2:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//	dbdedupd -listen :7070 -cluster-self host3:7070 -cluster-peers host1:7070,host2:7070,host3:7070
//
// There is one mode. A daemon started with neither flag is a member with no
// ring yet: it owns every database it holds, and `dedupcli rebalance` can put
// it in a ring later without a restart.
//
// Use dedupcli to talk to the API port; it takes one member or several.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/cluster"
	"dbdedup/internal/featidx/tiered"
	"dbdedup/internal/httpadmin"
	"dbdedup/internal/node"
)

// The command line. README.md's flag table lists the same set, and
// TestFlagTableMatchesREADME keeps the two equal.
var (
	listen     = flag.String("listen", "127.0.0.1:7070", "client API listen address")
	replListen = flag.String("repl-listen", "", "replication listen address (primary role)")
	follow     = flag.String("follow", "", "primary replication address to follow (secondary role)")
	dir        = flag.String("dir", "", "storage directory (empty = in-memory)")
	compress   = flag.Bool("compress", false, "enable block-level compression")
	admin      = flag.String("admin", "", "HTTP admin endpoint address (e.g. :7090; empty = off)")
	shedRaw    = flag.Bool("shed-raw", false, "degrade inserts to raw (no dedup encode) during overload; the shed records' dedup ratio is given up, not recovered")
	admRate    = flag.Float64("admission-tenant-rate", 0, "per-tenant fair-share inserts/second; when positive, an insert over its tenant's share is rejected during overload (0 = shedding only)")
	admDwell   = flag.Duration("overload-dwell", 250*time.Millisecond, "minimum time the overload latch stays engaged once entered")
	idxBudget  = flag.String("index-memory-budget", "", "per-database similarity-index memory bound, e.g. 24MiB; what no longer fits is kept in Bloom-gated cold runs under -dir (empty: no bound)")

	clusterSelf  = flag.String("cluster-self", "", "this member's name in rings: the client address its peers and clients reach it at (empty: the address -listen bound)")
	clusterPeers = flag.String("cluster-peers", "", "comma-separated members of the epoch-1 ring to start under, self included (empty: no ring yet; `dedupcli rebalance` installs one)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// config turns the flags into the member they describe, or says which
// combination makes no sense, before anything is opened.
func config() (cluster.MemberConfig, error) {
	var cfg cluster.MemberConfig
	// The engine runs the paper's headline configuration, core.Config's zero
	// value (64-byte chunks, hop encoding at distance 16), with background
	// compaction on. The experiments
	// sweep these through node.Options and core.Config; no deployment in this
	// repository sets them, so the daemon has no flags for them.
	cfg.Node = node.Options{
		Dir:              *dir,
		BlockCompression: *compress,
		Compaction:       node.CompactionOptions{Enabled: true},
		Admission: admission.Options{
			ShedRaw:       *shedRaw,
			TenantRate:    *admRate,
			OverloadDwell: *admDwell,
		},
	}
	if *idxBudget != "" {
		b, err := tiered.ParseSize(*idxBudget)
		if err != nil {
			return cfg, fmt.Errorf("-index-memory-budget: %w", err)
		}
		cfg.Node.Engine.IndexBudgetBytes = b
	}
	// The follower takes repl's defaults: it reconnects across transient
	// outages until it is closed and resumes from its applied low-water mark,
	// so a primary restart or network blip does not require restarting it.
	cfg.Listen, cfg.ReplListen, cfg.Follow = *listen, *replListen, *follow

	// The node is served behind a shard: the ring routes each database to
	// one member, which answers for the others with the routing taxonomy
	// (wrong-shard redirect / moving retry-later). With no ring yet the
	// member owns every database it holds.
	cfg.Self = *clusterSelf
	if *clusterPeers != "" {
		if *clusterSelf == "" {
			return cfg, fmt.Errorf("-cluster-peers requires -cluster-self")
		}
		peers := cluster.SplitAddrs(*clusterPeers)
		cfg.Ring = cluster.NewRing(1, peers)
		if !cfg.Ring.Has(*clusterSelf) {
			return cfg, fmt.Errorf("-cluster-peers %v does not include -cluster-self %s", peers, *clusterSelf)
		}
	}
	return cfg, nil
}

func run() error {
	cfg, err := config()
	if err != nil {
		return err
	}
	m, err := cluster.StartMember(cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	log.Printf("client API on %s", m.Addr())
	r := m.Shard.Ring()
	log.Printf("cluster member %s, ring epoch %d (%d members)", m.Shard.Self(), r.Epoch, len(r.Members))
	if m.Oplog != nil {
		log.Printf("replication (primary) on %s", m.Oplog.Addr())
	}
	if m.Follower != nil {
		log.Printf("following primary at %s", *follow)
		go func() {
			for {
				time.Sleep(time.Second)
				if err := m.Follower.Err(); err != nil {
					log.Printf("replication stream failed: %v", err)
					return
				}
			}
		}()
	}
	if *admin != "" {
		adm, err := httpadmin.ListenAndServe(m, *admin)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		defer adm.Close()
		log.Printf("HTTP admin on %s", adm.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	return nil
}
