package main

import (
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
)

// layerMetrics fills the per-layer metrics of a traced run. Times come from
// the ladder; counts come from the program's own snapshots of the node the
// end-to-end pass ran against, read once after the encoder drained. A metric
// a workload has nothing to say about (replica lag without a replica) is
// reported as 0: the driver wants every name on every workload.
func layerMetrics(res *result, m *measured, st node.Stats, fi metrics.FeatIdxSnapshot, l *ladder) {
	put := res.put
	rung := func(name string) *rungStat {
		if r := l.rungs[name]; r != nil {
			return r
		}
		return &rungStat{}
	}
	perCall := func(name string) float64 { return rung(name).nsPerCall() }
	perKiB := func(name string) float64 { return rung(name).nsPerKiB() }

	// apiserver
	put("apiserver.stub_insert_rtt_ns", perCall("apiserver.stub.insert"), "ns")
	put("apiserver.stub_get_rtt_ns", perCall("apiserver.stub.get"), "ns")
	put("apiserver.self_ns_per_insert", l.self("apiserver.insert"), "ns")
	put("apiserver.allocs_per_insert", ratio(float64(rung("apiserver.stub.insert").allocs), float64(rung("apiserver.stub.insert").calls)), "count")

	// node
	ni := rung("node.insert")
	put("node.insert_sync_ns", ni.nsPerCall(), "ns")
	put("node.self_ns_per_insert", l.self("node.insert"), "ns")
	put("node.allocs_per_insert", ratio(float64(ni.allocs), float64(ni.calls)), "count")
	put("node.alloc_bytes_per_insert", ratio(float64(ni.allocBytes), float64(ni.calls)), "B")
	put("node.encode_queue_overflows", float64(st.EncodeOverflows), "count")
	put("node.encode_queue_depth_p50", quantile(m.tr.depth, 0.5), "count")
	put("node.drain_s", m.drain.Seconds(), "s")
	put("node.writebacks_applied_share", l.vals["node.writebacks_applied_share"], "ratio")
	put("node.flush_writebacks_s", l.vals["node.flush_writebacks_s"], "s")
	put("node.decode_steps_per_read", l.vals["node.decode_steps_per_read"], "count")
	put("node.read_raw_ns", perCall("node.read_raw"), "ns")
	put("node.read_encoded_ns", perCall("node.read_encoded"), "ns")
	put("node.compact_s", l.vals["node.compact_s"], "s")
	put("node.compaction_bytes_per_user_byte", ratio(float64(st.CompactionBytes), float64(st.RawInsertBytes)), "ratio")
	put("node.reopen_s", l.vals["node.reopen_s"], "s")
	put("node.apply_replicated_ns", perCall("node.apply_replicated"), "ns")

	// core: times from the ladder, outcome shares from the end-to-end node.
	ce := rung("core.encode")
	es := st.Engine
	inserts := float64(es.Inserts)
	put("core.encode_ns", ce.nsPerCall(), "ns")
	put("core.self_ns_per_encode", l.self("core.encode"), "ns")
	put("core.allocs_per_encode", ratio(float64(ce.allocs), float64(ce.calls)), "count")
	put("core.dedup_hit_share", ratio(float64(es.Deduped), inserts), "ratio")
	put("core.size_filtered_share", ratio(float64(es.SizeFiltered), inserts), "ratio")
	put("core.no_candidate_share", ratio(float64(es.NoCandidate), inserts), "ratio")
	put("core.not_worth_share", ratio(float64(es.NotWorthEncoding), inserts), "ratio")
	put("core.forward_bytes_per_deduped_byte", l.vals["core.forward_bytes_per_deduped_byte"], "ratio")

	// chunker, sketch
	put("chunker.split_ns_per_kib", perKiB("chunker.split"), "ns/KiB")
	put("chunker.avg_chunk_bytes", l.vals["chunker.avg_chunk_bytes"], "B")
	sk := rung("sketch.extract")
	put("sketch.extract_ns_per_kib", sk.nsPerKiB(), "ns/KiB")
	put("sketch.allocs_per_record", ratio(float64(sk.allocs), float64(sk.calls)), "count")

	// featidx
	put("featidx.lookup_insert_ns", ratio(float64(rung("featidx.lookup_insert").ns), l.vals["featidx.lookups"]), "ns")
	put("featidx.matches_per_lookup", ratio(float64(fi.Matches), float64(fi.Lookups)), "count")
	put("featidx.evictions_per_insert", ratio(float64(fi.Evictions), inserts), "count")
	put("featidx.bytes_per_record", ratio(float64(fi.MemoryBytes), inserts), "B")

	// dedupcache
	put("dedupcache.source_get_ns", perCall("dedupcache.source_get"), "ns")
	put("dedupcache.source_hit_share", ratio(float64(es.SourceCacheHits), float64(es.SourceCacheHits+es.SourceCacheMiss)), "ratio")

	// delta, chain
	put("delta.compress_ns_per_kib", perKiB("delta.compress"), "ns/KiB")
	put("delta.reencode_ns_per_kib", perKiB("delta.reencode"), "ns/KiB")
	put("delta.apply_ns_per_kib", perKiB("delta.apply"), "ns/KiB")
	put("delta.marshal_ns_per_kib", perKiB("delta.marshal"), "ns/KiB")
	put("delta.encoded_bytes_per_target_byte", l.vals["delta.encoded_bytes_per_target_byte"], "ratio")
	put("delta.share_of_encode", ratio(l.perInsert("delta.compress")+l.perInsert("delta.compress_hop")+
		l.perInsert("delta.reencode")+l.perInsert("dedupcache.source_get"), l.perInsert("core.encode")), "ratio")
	put("chain.writebacks_per_insert", l.vals["chain.writebacks_per_insert"], "count")

	// blockcomp, docstore
	put("blockcomp.encode_ns_per_kib", perKiB("blockcomp.encode"), "ns/KiB")
	put("blockcomp.decode_ns_per_kib", perKiB("blockcomp.decode"), "ns/KiB")
	put("blockcomp.out_bytes_per_in_byte", l.vals["blockcomp.out_bytes_per_in_byte"], "ratio")
	put("docstore.append_ns", perCall("docstore.append"), "ns")
	put("docstore.get_hit_ns", perCall("docstore.get_hit"), "ns")
	put("docstore.get_miss_ns", perCall("docstore.get_miss"), "ns")
	put("docstore.cache_hit_share", ratio(float64(st.Store.CacheHits), float64(st.Store.CacheHits+st.Store.CacheMisses)), "ratio")
	put("docstore.mmap_read_share", ratio(float64(st.Store.MmapBlockReads), float64(st.Store.MmapBlockReads+st.Store.PreadBlockReads)), "ratio")
	put("docstore.bytes_written_per_user_byte", ratio(float64(st.Store.BlockBytesOut), float64(st.RawInsertBytes)), "ratio")
	put("docstore.appends_per_insert", ratio(float64(st.Store.Appends), float64(st.Inserts)), "count")

	// oplog, repl
	put("oplog.append_ns", perCall("oplog.append"), "ns")
	put("oplog.marshal_ns_per_kib", perKiB("oplog.marshal"), "ns/KiB")
	put("repl.apply_ops_s", l.vals["repl.apply_ops_s"], "ops/s")
	put("repl.bytes_sent_per_user_byte", l.vals["repl.bytes_sent_per_user_byte"], "ratio")
	put("repl.lag_ops_p99", quantile(m.tr.lagOps, 0.99), "count")
	put("repl.catchup_ms", l.vals["repl.catchup_ms"], "ms")
	put("repl.base_fetches_per_insert", l.vals["repl.base_fetches_per_insert"], "count")

	// Validity rows: is the load generator cheap, how much of the
	// process is garbage collection, and how far is the ladder to be trusted.
	var genNS, ops, tracedOps, untracedOps int64
	for _, c := range m.outs {
		genNS += c.genNS
		ops += c.attempted
		tracedOps += c.tracedOps
		untracedOps += c.untracedOps
	}
	put("loadgen.gen_ns_per_op", ratio(float64(genNS), float64(ops)), "ns")
	put("proc.gc_cpu_share", m.mem1.GCCPUFraction, "ratio")
	put("proc.alloc_mb_per_s", ratio(float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc)/(1<<20), m.wall.Seconds()), "MiB/s")
	put("trace.unattributed_share", l.unattributedShare(), "ratio")
	// What tracing cost: the throughput the traced slices lost against the
	// untraced ones they alternate with.
	overhead := 0.0
	if tracedOps > 0 && untracedOps > 0 {
		overhead = 1 - ratio(float64(tracedOps)/float64(m.tr.onNS), float64(untracedOps)/float64(m.tr.offNS))
	}
	put("trace.overhead_share", overhead, "ratio")
}
