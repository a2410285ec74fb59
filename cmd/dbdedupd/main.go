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
// Use dedupcli to talk to the API port (-addrs for cluster routing).
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
	"dbdedup/internal/apiserver"
	"dbdedup/internal/chain"
	"dbdedup/internal/cluster"
	"dbdedup/internal/core"
	"dbdedup/internal/featidx/tiered"
	"dbdedup/internal/httpadmin"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// The command line. README.md's flag table lists the same set, and
// TestFlagTableMatchesREADME keeps the two equal.
var (
	listen     = flag.String("listen", "127.0.0.1:7070", "client API listen address")
	replListen = flag.String("repl-listen", "", "replication listen address (primary role)")
	follow     = flag.String("follow", "", "primary replication address to follow (secondary role)")
	dir        = flag.String("dir", "", "storage directory (empty = in-memory)")
	compress   = flag.Bool("compress", false, "enable block-level compression")
	rededup    = flag.Bool("compact-rededup", false, "re-deduplicate live raw records during compaction")
	rdMaxChain = flag.Int("rededup-max-chain", 8, "max delta-chain depth a compaction conversion may create")
	admin      = flag.String("admin", "", "HTTP admin endpoint address (e.g. :7090; empty = off)")
	admEnable  = flag.Bool("admission", false, "enable admission control: reject over-fair-share inserts during overload")
	shedRaw    = flag.Bool("shed-raw", false, "degrade inserts to raw (no dedup encode) during overload; pair with -compact-rededup to recover the ratio")
	admRate    = flag.Float64("admission-tenant-rate", 0, "per-tenant fair-share inserts/second enforced during overload (0 = shedding only)")
	admDwell   = flag.Duration("overload-dwell", 250*time.Millisecond, "minimum time the overload latch stays engaged once entered")
	idxBudget  = flag.String("index-memory-budget", "", "per-database similarity-index memory bound, e.g. 24MiB; what no longer fits is kept in Bloom-gated cold runs under -dir (empty: no bound)")

	clusterSelf  = flag.String("cluster-self", "", "this member's advertised client address in the ring (enables cluster mode)")
	clusterPeers = flag.String("cluster-peers", "", "comma-separated initial cluster membership including self (empty: start ring-less and join via `dedupcli rebalance`)")
)

func main() {
	flag.Parse()

	var idxBudgetBytes int64
	if *idxBudget != "" {
		b, err := tiered.ParseSize(*idxBudget)
		if err != nil {
			log.Fatalf("-index-memory-budget: %v", err)
		}
		idxBudgetBytes = b
	}

	// The engine runs the paper's headline configuration (64-byte chunks, hop
	// encoding at distance 16) with background compaction on. The experiments
	// sweep these through node.Options and core.Config; no deployment in this
	// repository sets them, so the daemon has no flags for them.
	n, err := node.Open(node.Options{
		Dir: *dir,
		Engine: core.Config{
			ChunkAvgSize:     64,
			Scheme:           chain.Hop,
			HopDistance:      16,
			IndexBudgetBytes: idxBudgetBytes,
		},
		BlockCompression: *compress,
		Compaction: node.CompactionOptions{
			Enabled:              true,
			Rededup:              *rededup,
			RededupMaxChainDepth: *rdMaxChain,
		},
		Admission: admission.Options{
			Enabled:       *admEnable,
			ShedRaw:       *shedRaw,
			TenantRate:    *admRate,
			OverloadDwell: *admDwell,
		},
	})
	if err != nil {
		log.Fatalf("opening node: %v", err)
	}
	defer n.Close()

	// In cluster mode the node is served behind a shard wrapper: the ring
	// routes each database to one member, everything else is answered with
	// the routing taxonomy (wrong-shard redirect / moving retry-later).
	var sh *cluster.Shard
	if *clusterSelf != "" {
		initial := cluster.NewRing(0, nil)
		if *clusterPeers != "" {
			peers := cluster.SplitAddrs(*clusterPeers)
			found := false
			for _, p := range peers {
				if p == *clusterSelf {
					found = true
				}
			}
			if !found {
				log.Fatalf("-cluster-peers %v does not include -cluster-self %s", peers, *clusterSelf)
			}
			initial = cluster.NewRing(1, peers)
		}
		sh = cluster.NewShard(n, *clusterSelf, initial, nil, nil)
	} else if *clusterPeers != "" {
		log.Fatal("-cluster-peers requires -cluster-self")
	}

	var api *apiserver.Server
	if sh != nil {
		api, err = apiserver.ListenAndServeBackend(sh, *listen, apiserver.Options{})
	} else {
		api, err = apiserver.ListenAndServe(n, *listen)
	}
	if err != nil {
		log.Fatalf("API listener: %v", err)
	}
	defer api.Close()
	log.Printf("client API on %s", api.Addr())
	if sh != nil {
		r := sh.Ring()
		log.Printf("cluster member %s, ring epoch %d (%d members)", sh.Self(), r.Epoch, len(r.Members))
	}

	if *admin != "" {
		adm, err := httpadmin.ListenAndServeCluster(n, *admin, sh)
		if err != nil {
			log.Fatalf("admin listener: %v", err)
		}
		defer adm.Close()
		log.Printf("HTTP admin on %s", adm.Addr())
	}

	if *replListen != "" {
		p, err := repl.ListenAndServe(n, *replListen)
		if err != nil {
			log.Fatalf("replication listener: %v", err)
		}
		defer p.Close()
		log.Printf("replication (primary) on %s", p.Addr())
	}
	if *follow != "" {
		// Reconnect across transient outages; the stream resumes from the
		// applied low-water mark, so a primary restart or network blip does
		// not require restarting the secondary.
		sec, err := repl.ConnectWithOptions(n, *follow, 0, 0, repl.Options{
			MaxReconnects: 1 << 20,
		})
		if err != nil {
			log.Fatalf("following %s: %v", *follow, err)
		}
		defer sec.Close()
		log.Printf("following primary at %s", *follow)
		go func() {
			for {
				time.Sleep(time.Second)
				if err := sec.Err(); err != nil {
					log.Printf("replication stream failed: %v", err)
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
}
