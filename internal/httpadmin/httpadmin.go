// Package httpadmin serves a node's operational state over HTTP for
// dashboards and scripted monitoring:
//
//	GET /stats    node counters and byte meters   (JSON)
//	GET /dbs      per-database dedup/governor state (JSON)
//	GET /metrics  encode- and apply-pipeline instrumentation (JSON):
//	              per-stage latency histograms, throughput, queue
//	              depth/overflows, replication base fetches
//	GET /verify   run the online integrity scrub  (JSON; 503 on errors)
//	GET /cluster  ring status and routing counters (JSON; 404 unclustered)
//	GET /healthz  liveness probe                  (200 "ok")
//	GET /         plain-text summary for humans
package httpadmin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/cluster"
	"dbdedup/internal/docstore"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

// Server is an HTTP admin listener bound to one node.
type Server struct {
	node  *node.Node
	shard *cluster.Shard // nil on an unclustered node
	ln    net.Listener
	srv   *http.Server
}

// ListenAndServe starts the admin endpoint on addr for a bare node.
func ListenAndServe(n *node.Node, addr string) (*Server, error) {
	return ListenAndServeCluster(n, addr, nil)
}

// ListenAndServeCluster starts the admin endpoint on addr for a cluster
// member: /cluster and the index's cluster section render sh's ring state
// and routing counters. sh may be nil (unclustered).
func ListenAndServeCluster(n *node.Node, addr string, sh *cluster.Shard) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpadmin: %w", err)
	}
	s := &Server{node: n, shard: sh, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/dbs", s.handleDBs)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/verify", s.handleVerify)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.node.Stats())
}

func (s *Server) handleDBs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.node.DBStats())
}

// metricsView is the /metrics response shape: the encode-pipeline snapshot
// plus the encoder-pool geometry, the secondary-side apply-pipeline snapshot
// (all zeros on a node that is not replicating), the read-path snapshot
// (latency, per-shard block cache, block-buffer reuse, segment-reader
// gauges), the store's own accounting (block seals, appender waits and seal
// errors among it), the oplog's retention window and evictions, the compaction /
// re-dedup snapshot, the similarity-index occupancy snapshot, the admission
// controller's snapshot (zero when no controller is configured), and the
// cluster routing snapshot (Enabled=false on an unclustered node).
type metricsView struct {
	EncodeWorkers int
	Encode        metrics.EncodeSnapshot
	Apply         metrics.ApplySnapshot
	Read          metrics.ReadSnapshot
	Store         docstore.Stats
	Oplog         oplog.Stats
	Repl          metrics.ReplSnapshot
	Compaction    metrics.CompactionSnapshot
	FeatIdx       metrics.FeatIdxSnapshot
	Admission     admission.Snapshot
	Cluster       metrics.ClusterSnapshot
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.node.Stats()
	writeJSON(w, metricsView{
		EncodeWorkers: st.EncodeWorkers,
		Encode:        s.node.EncodeMetrics().Snapshot(),
		Apply:         s.node.ApplyMetrics().Snapshot(),
		Read:          s.node.ReadSnapshot(),
		Store:         st.Store,
		Oplog:         st.Oplog,
		Repl:          s.node.ReplMetrics().Snapshot(),
		Compaction:    s.node.CompactionSnapshot(),
		FeatIdx:       s.node.FeatIdxSnapshot(),
		Admission:     s.node.AdmissionSnapshot(),
		Cluster:       s.clusterMetrics().Snapshot(),
	})
}

// clusterMetrics returns the shard's counters, nil when unclustered (the
// nil-receiver Snapshot yields the zero, Enabled=false view).
func (s *Server) clusterMetrics() *metrics.ClusterMetrics {
	if s.shard == nil {
		return nil
	}
	return s.shard.Metrics()
}

// clusterView is the /cluster response: the member's ring status (active
// ring, plus the pending ring while a rebalance window is open) and its
// routing/handoff counters.
type clusterView struct {
	Status  cluster.RingStatus
	Metrics metrics.ClusterSnapshot
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.shard == nil {
		http.Error(w, "not clustered", http.StatusNotFound)
		return
	}
	writeJSON(w, clusterView{
		Status: cluster.RingStatus{
			Self:    s.shard.Self(),
			Ring:    s.shard.Ring(),
			Pending: s.shard.Pending(),
		},
		Metrics: s.clusterMetrics().Snapshot(),
	})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	rep := s.node.VerifyAll()
	if !rep.Ok() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, rep)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	st := s.node.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "dbdedup node\n============\n")
	fmt.Fprintf(w, "ops:      %d inserts, %d reads, %d updates, %d deletes\n",
		st.Inserts, st.Reads, st.Updates, st.Deletes)
	fmt.Fprintf(w, "raw:      %s\n", metrics.FormatBytes(st.RawInsertBytes))
	fmt.Fprintf(w, "stored:   %s (%.2fx)\n", metrics.FormatBytes(st.Store.LogicalBytes),
		metrics.Ratio(st.RawInsertBytes, st.Store.LogicalBytes))
	fmt.Fprintf(w, "oplog:    %s (%.2fx); retains %d entries / %s, evicted %d by entry bound, %d by byte bound\n",
		metrics.FormatBytes(st.OplogBytes), metrics.Ratio(st.RawInsertBytes, st.OplogBytes),
		st.Oplog.Entries, metrics.FormatBytes(st.Oplog.Bytes),
		st.Oplog.EvictedByEntries, st.Oplog.EvictedByBytes)
	fmt.Fprintf(w, "dedup:    %d hits, index %s\n", st.Engine.Deduped,
		metrics.FormatBytes(st.Engine.IndexMemoryBytes))
	fmt.Fprintf(w, "wb:       %d applied, %d skipped\n", st.WritebacksApplied, st.WritebacksSkipped)
	fmt.Fprintf(w, "encoder:  %d workers, queue depth %d, %d backpressure stalls\n",
		st.EncodeWorkers, st.EncodeQueueDepth, st.EncodeOverflows)
	if a := st.Admission; a.Enabled || a.ShedRawEnabled {
		mode := "healthy"
		if a.Overloaded {
			mode = "OVERLOADED"
		}
		fmt.Fprintf(w, "admission: %s — %d admitted, %d shed raw, %d rejected (%d tenant throttles), %d/%d overload enters/exits, %d tenants tracked\n",
			mode, a.Admitted, a.Shed, a.Rejected, a.TenantThrottles,
			a.OverloadEnters, a.OverloadExits, a.TrackedTenants)
	}
	es := s.node.EncodeMetrics().Snapshot()
	avgChunk := int64(0)
	if es.Chunks > 0 {
		avgChunk = es.ChunkedBytes / es.Chunks
	}
	fmt.Fprintf(w, "chunking: %d chunks over %s (avg %d B)\n",
		es.Chunks, metrics.FormatBytes(es.ChunkedBytes), avgChunk)
	fmt.Fprintf(w, "write:    %d blocks sealed in %s, %d appender waits (%s), %d seal errors\n",
		st.Store.BlocksSealed, time.Duration(st.Store.SealNanos).Round(time.Microsecond),
		st.Store.SealWaits, time.Duration(st.Store.SealWaitNanos).Round(time.Microsecond),
		st.Store.SealErrors)
	fmt.Fprintf(w, "read:     %d cache hits / %d misses, %d blocks decoded in %s, %d segments (%d pinned handles, %d retiring)\n",
		st.Store.CacheHits, st.Store.CacheMisses,
		st.Store.BlocksDecoded, time.Duration(st.Store.BlockDecodeNanos).Round(time.Microsecond),
		st.Store.LiveSegments, st.Store.PinnedReaders, st.Store.RetiredPending)
	fmt.Fprintf(w, "          block buffers: %d recycled / %d freshly allocated\n",
		st.Store.BlockBuffersRecycled, st.Store.BlockBuffersFresh)
	rp := s.node.ReplMetrics().Snapshot()
	fmt.Fprintf(w, "repl:     %d reconnects (%d dial failures), %d corrupt frames, %d seq violations, %d idle timeouts\n",
		rp.Reconnects, rp.DialFailures, rp.CorruptFrames, rp.FrameSeqViolations, rp.IdleTimeouts)
	cs := s.node.CompactionSnapshot()
	fmt.Fprintf(w, "compact:  %d passes, %d resketched, %d conversions (%d skipped), saved %s logical / %s physical\n",
		cs.Passes, cs.Resketched, cs.Conversions, cs.ConversionsSkipped,
		metrics.FormatBytes(cs.LogicalBytesSaved), metrics.FormatBytes(cs.PhysicalBytesReclaimed))
	fmt.Fprintf(w, "blocks:   %d mmap reads / %d pread reads (%d map failures)\n",
		cs.MmapBlockReads, cs.PreadBlockReads, cs.MmapFailures)
	fi := s.node.FeatIdxSnapshot()
	fmt.Fprintf(w, "featidx:  %d entries (%s of %s), %d lookups, %d matches, %d evictions\n",
		fi.Entries, metrics.FormatBytes(fi.MemoryBytes), metrics.FormatBytes(fi.CapacityBytes),
		fi.Lookups, fi.Matches, fi.Evictions)
	if fi.TieredEnabled {
		fpr := 0.0
		if fi.TieredBloomChecks > 0 {
			fpr = float64(fi.TieredBloomFalsePositives) / float64(fi.TieredBloomChecks)
		}
		fmt.Fprintf(w, "tiered:   %s budget, hot %d + pending %d, cold %d runs / %d entries (%s disk, %d resident), %d freezes (%d failed), %d merges, %d dropped\n",
			metrics.FormatBytes(fi.TieredBudgetBytes), fi.TieredHotEntries,
			fi.TieredPendingEntries, fi.TieredColdRuns, fi.TieredColdEntries,
			metrics.FormatBytes(fi.TieredColdDiskBytes), fi.TieredResidentRuns,
			fi.TieredFreezes, fi.TieredFreezeFailures, fi.TieredMerges, fi.TieredDroppedRuns)
		fmt.Fprintf(w, "bloom:    %s, %d checks -> %d disk probes (%.2f%% false positive), %d hits, %d read errors\n",
			metrics.FormatBytes(fi.TieredBloomMemoryBytes), fi.TieredBloomChecks,
			fi.TieredDiskProbes, fpr*100, fi.TieredDiskProbeHits, fi.TieredDiskReadErrors)
	}
	if s.shard != nil {
		ring := s.shard.Ring()
		cl := s.clusterMetrics().Snapshot()
		fmt.Fprintf(w, "cluster:  member %s, ring epoch %d (%d members)", s.shard.Self(),
			ring.Epoch, len(ring.Members))
		if p := s.shard.Pending(); p != nil {
			fmt.Fprintf(w, ", rebalance to epoch %d in progress", p.Epoch)
		}
		fmt.Fprintf(w, "\n          %d redirects, %d moving answers, %d forwards (%d failed)\n",
			cl.RedirectsIssued, cl.MovingAnswered, cl.ForwardedOps, cl.ForwardFailures)
		fmt.Fprintf(w, "          handoffs %d started / %d committed / %d aborted; moved out %d recs (%s), in %d recs (%s)\n",
			cl.HandoffsStarted, cl.HandoffsCommitted, cl.HandoffsAborted,
			cl.TransferRecordsOut, metrics.FormatBytes(cl.TransferBytesOut),
			cl.TransferRecordsIn, metrics.FormatBytes(cl.TransferBytesIn))
	}
	fmt.Fprintf(w, "\ndatabases:\n")
	for _, d := range s.node.DBStats() {
		verdict := "active"
		if d.Disabled {
			verdict = "governor-disabled"
		}
		fmt.Fprintf(w, "  %-12s %-18s stored %-10s window %.2fx, chains %d\n",
			d.Name, verdict, metrics.FormatBytes(d.StoredBytes), d.WindowRatio(), d.Chains)
	}
	fmt.Fprintf(w, "\nendpoints: /stats /dbs /metrics /verify /cluster /healthz\n")
}
