// Package httpadmin serves a node's operational state over HTTP for
// dashboards and scripted monitoring:
//
//	GET /stats    node counters and byte meters   (JSON)
//	GET /dbs      per-database dedup/governor state (JSON)
//	GET /metrics  every subsystem's live instruments (JSON): the metrics
//	              bundles as they are, plus the store, oplog, index and
//	              admission sections of the one node.Stats() it takes
//	GET /verify   run the online integrity scrub  (JSON; 503 on errors)
//	GET /cluster  ring status and routing counters (JSON)
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
	"dbdedup/internal/docstore/segio"
	"dbdedup/internal/featidx/tiered"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

// Server is an HTTP admin listener bound to one member.
type Server struct {
	node  *node.Node
	shard *cluster.Shard
	ln    net.Listener
	srv   *http.Server
}

// ListenAndServe starts the admin endpoint of m on addr: the node's state,
// and under /cluster and the index's cluster section the shard's ring and
// routing counters.
func ListenAndServe(m *cluster.Member, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpadmin: %w", err)
	}
	s := &Server{node: m.Node, shard: m.Shard, ln: ln}
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

// metricsView is the /metrics response shape. Each number has one owner and
// appears once: the metrics bundles are encoded live (meters as numbers,
// histograms as their one-lock summaries), and the sections that are not
// bundles are cut from the single node.Stats() the request takes. Apply and
// Repl are all zeros on a node that is not replicating, Admission when no
// controller is configured.
type metricsView struct {
	EncodeWorkers int
	Encode        *metrics.EncodeMetrics
	Apply         *metrics.ApplyMetrics
	// Store is the store's own accounting (cache outcomes, block decodes
	// and seals, block loads, segment-reader gauges) with what a
	// reader of the read path wants beside it: client read latency, the
	// client reads that never reached the store because the source record
	// cache answered them, and the per-shard split of the block cache.
	Store struct {
		docstore.Stats
		ReadLatency          *metrics.Histogram
		ReadsFromSourceCache uint64
		CacheShards          []segio.ShardStats
	}
	Oplog      oplog.Stats
	Repl       *metrics.ReplMetrics
	Compaction *metrics.CompactionMetrics
	// FeatIdx is the engine-wide index occupancy and, under Tiered, the
	// cold tier's state (Enabled false when no index budget is set).
	FeatIdx struct {
		metrics.FeatIdxSnapshot
		Tiered tiered.Snapshot
	}
	Admission admission.Snapshot
	Cluster   *metrics.ClusterMetrics
	// Writebacks is what became of the deferred re-encodings: applied or
	// skipped by a flush, dropped by the lossy cache (with the storage they
	// would have saved), or pending.
	Writebacks struct {
		FlushApplied, FlushSkipped, Dropped uint64
		DroppedSavingBytes                  int64
		Pending                             int
	}
	// Memory is what the node's in-memory structures hold of the heap.
	Memory node.MemoryStats
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.node.Stats()
	v := metricsView{
		EncodeWorkers: st.EncodeWorkers,
		Encode:        s.node.EncodeMetrics(),
		Apply:         s.node.ApplyMetrics(),
		Oplog:         st.Oplog,
		Repl:          s.node.ReplMetrics(),
		Compaction:    s.node.CompactionMetrics(),
		Admission:     st.Admission,
		Cluster:       s.shard.Metrics(),
	}
	v.Store.Stats = st.Store
	v.Store.ReadLatency = s.node.ReadLatency()
	v.Store.ReadsFromSourceCache = st.ReadsFromSourceCache
	v.Store.CacheShards = s.node.Store().CacheShardStats()
	v.FeatIdx.FeatIdxSnapshot = st.Engine.FeatIdx()
	v.FeatIdx.Tiered = st.Engine.TieredIdx
	v.Writebacks.FlushApplied, v.Writebacks.FlushSkipped = st.WritebacksApplied, st.WritebacksSkipped
	v.Writebacks.Dropped, v.Writebacks.DroppedSavingBytes = st.WritebacksDropped, st.WritebacksDroppedSaving
	v.Writebacks.Pending = st.WritebacksPending
	v.Memory = st.Memory
	writeJSON(w, v)
}

// clusterView is the /cluster response: the member's ring status (active
// ring, plus the pending ring while a rebalance window is open) and its
// routing/handoff counters.
type clusterView struct {
	Status  cluster.RingStatus
	Metrics *metrics.ClusterMetrics
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, clusterView{
		Status: cluster.RingStatus{
			Self:    s.shard.Self(),
			Ring:    s.shard.Ring(),
			Pending: s.shard.Pending(),
		},
		Metrics: s.shard.Metrics(),
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
	fmt.Fprintf(w, "oplog:    %s (%.2fx); retains %d entries in %s of %s, evicted %d\n",
		metrics.FormatBytes(st.OplogBytes), metrics.Ratio(st.RawInsertBytes, st.OplogBytes),
		st.Oplog.Entries, metrics.FormatBytes(st.Oplog.Bytes),
		metrics.FormatBytes(st.Oplog.BudgetBytes), st.Oplog.Evicted)
	fmt.Fprintf(w, "dedup:    %d hits, index %s\n", st.Engine.Deduped,
		metrics.FormatBytes(st.Engine.IndexMemoryBytes))
	fmt.Fprintf(w, "wb:       %d applied, %d skipped, %d dropped (%s of saving lost), %d pending\n",
		st.WritebacksApplied, st.WritebacksSkipped, st.WritebacksDropped,
		metrics.FormatBytes(st.WritebacksDroppedSaving), st.WritebacksPending)
	fmt.Fprintf(w, "memory:   record table %s (%d live records), feature index %s\n",
		metrics.FormatBytes(st.Memory.RecordTableBytes), st.Store.LiveRecords,
		metrics.FormatBytes(st.Memory.FeatureIndexBytes))
	fmt.Fprintf(w, "encoder:  %d workers, queue depth %d, %d backpressure stalls\n",
		st.EncodeWorkers, st.EncodeQueueDepth, st.EncodeOverflows)
	if a := st.Admission; a.Enabled || a.ShedRawEnabled {
		mode := "healthy"
		if a.Overloaded {
			mode = "OVERLOADED"
		}
		fmt.Fprintf(w, "admission: %s — %d admitted, %d shed raw, %d rejected, %d/%d overload enters/exits, %d tenants tracked\n",
			mode, a.Admitted, a.Shed, a.Rejected, a.OverloadEnters, a.OverloadExits, a.TrackedTenants)
	}
	em := s.node.EncodeMetrics()
	chunks, chunked := em.Chunks.Total(), em.ChunkedBytes.Total()
	avgChunk := int64(0)
	if chunks > 0 {
		avgChunk = chunked / chunks
	}
	fmt.Fprintf(w, "chunking: %d chunks over %s (avg %d B)\n",
		chunks, metrics.FormatBytes(chunked), avgChunk)
	fmt.Fprintf(w, "write:    %d blocks sealed in %s, %d appender waits (%s), %d seal errors\n",
		st.Store.BlocksSealed, time.Duration(st.Store.SealNanos).Round(time.Microsecond),
		st.Store.SealWaits, time.Duration(st.Store.SealWaitNanos).Round(time.Microsecond),
		st.Store.SealErrors)
	perLoad := int64(0)
	if st.Store.BlocksDecoded > 0 {
		perLoad = int64(st.Store.BlockBytesDecoded / st.Store.BlocksDecoded)
	}
	fmt.Fprintf(w, "read:     %d of %d from the source cache, %d block cache hits / %d misses (%s of %s resident, %s of dictionaries), %d blocks decoded in %s, %s inflated per block load, %d segments (%d pinned handles, %d retiring)\n",
		st.ReadsFromSourceCache, st.Reads, st.Store.CacheHits, st.Store.CacheMisses,
		metrics.FormatBytes(st.Store.CacheBytes), metrics.FormatBytes(st.Store.CacheBudgetBytes), metrics.FormatBytes(st.Store.DictBytes),
		st.Store.BlocksDecoded, time.Duration(st.Store.BlockDecodeNanos).Round(time.Microsecond),
		metrics.FormatBytes(perLoad),
		st.Store.LiveSegments, st.Store.PinnedReaders, st.Store.RetiredPending)
	fmt.Fprintf(w, "          block buffers: %d recycled / %d freshly allocated\n",
		st.Store.BlockBuffersRecycled, st.Store.BlockBuffersFresh)
	rp := s.node.ReplMetrics()
	fmt.Fprintf(w, "repl:     %d reconnects (%d dial failures), %d corrupt frames, %d seq violations, %d idle timeouts\n",
		rp.Reconnects.Total(), rp.DialFailures.Total(), rp.CorruptFrames.Total(),
		rp.FrameSeqViolations.Total(), rp.IdleTimeouts.Total())
	cm := s.node.CompactionMetrics()
	fmt.Fprintf(w, "compact:  %d passes, reclaimed %s\n",
		cm.Passes.Total(), metrics.FormatBytes(cm.PhysicalBytesReclaimed.Total()))
	fmt.Fprintf(w, "blocks:   %d loads, each one checksummed read of header and body\n", st.Store.PreadBlockReads)
	fmt.Fprintf(w, "featidx:  %d entries (%s of %s), %d lookups, %d matches, %d evictions\n",
		st.Engine.IndexEntries, metrics.FormatBytes(st.Engine.IndexMemoryBytes),
		metrics.FormatBytes(st.Engine.IndexCapacityBytes),
		st.Engine.IndexLookups, st.Engine.IndexMatches, st.Engine.IndexEvictions)
	if ti := st.Engine.TieredIdx; ti.Enabled {
		fpr := 0.0
		if ti.BloomChecks > 0 {
			fpr = float64(ti.BloomFalsePositives) / float64(ti.BloomChecks)
		}
		fmt.Fprintf(w, "tiered:   %s budget, hot %d + pending %d, cold %d runs / %d entries (%s disk, %d resident), %d freezes (%d failed), %d merges, %d dropped\n",
			metrics.FormatBytes(ti.BudgetBytes), ti.HotEntries,
			ti.PendingEntries, ti.ColdRuns, ti.ColdEntries,
			metrics.FormatBytes(ti.ColdDiskBytes), ti.ResidentRuns,
			ti.Freezes, ti.FreezeFailures, ti.Merges, ti.DroppedRuns)
		fmt.Fprintf(w, "bloom:    %s, %d checks -> %d disk probes (%.2f%% false positive), %d hits, %d read errors\n",
			metrics.FormatBytes(ti.BloomMemoryBytes), ti.BloomChecks,
			ti.DiskProbes, fpr*100, ti.DiskProbeHits, ti.DiskReadErrors)
	}
	ring := s.shard.Ring()
	cl := s.shard.Metrics()
	fmt.Fprintf(w, "cluster:  member %s, ring epoch %d (%d members)", s.shard.Self(),
		ring.Epoch, len(ring.Members))
	if p := s.shard.Pending(); p != nil {
		fmt.Fprintf(w, ", rebalance to epoch %d in progress", p.Epoch)
	}
	fmt.Fprintf(w, "\n          %d redirects, %d moving answers\n",
		cl.RedirectsIssued.Total(), cl.MovingAnswered.Total())
	fmt.Fprintf(w, "          handoffs %d started / %d committed / %d aborted; moved out %d recs (%s), in %d recs (%s)\n",
		cl.HandoffsStarted.Total(), cl.HandoffsCommitted.Total(), cl.HandoffsAborted.Total(),
		cl.TransferRecordsOut.Total(), metrics.FormatBytes(cl.TransferBytesOut.Total()),
		cl.TransferRecordsIn.Total(), metrics.FormatBytes(cl.TransferBytesIn.Total()))
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
