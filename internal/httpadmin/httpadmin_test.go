package httpadmin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dbdedup/internal/cluster"
	"dbdedup/internal/core"
	"dbdedup/internal/docstore"
	"dbdedup/internal/featidx/tiered"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

// startAdmin starts a member on loopback ports, as dbdedupd does, and its
// admin endpoint.
func startAdmin(t *testing.T, cfg cluster.MemberConfig) (*node.Node, *Server) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	m, err := cluster.StartMember(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	s, err := ListenAndServe(m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return m.Node, s
}

func testAdmin(t *testing.T) (*node.Node, *Server) {
	t.Helper()
	return startAdmin(t, cluster.MemberConfig{Node: node.Options{
		SyncEncode: true, DisableAutoFlush: true,
		Engine: core.Config{GovernorWindow: 1 << 30},
	}})
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// getMetrics fetches /metrics and decodes it into v, a local struct or map
// naming the keys the test is about.
func getMetrics(t *testing.T, s *Server, v any) {
	t.Helper()
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("metrics JSON: %v in %s", err, body)
	}
}

func TestEndpoints(t *testing.T) {
	n, s := testAdmin(t)
	for i := 0; i < 10; i++ {
		payload := []byte(fmt.Sprintf("versioned record content number %d, with enough body to chunk", i))
		if err := n.Insert("wiki", fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	base := "http://" + s.Addr()

	code, body := get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	code, body = get(t, base+"/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var st node.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if st.Inserts != 10 {
		t.Errorf("stats.Inserts = %d", st.Inserts)
	}

	code, body = get(t, base+"/dbs")
	if code != 200 || !strings.Contains(body, "wiki") {
		t.Fatalf("dbs: %d %q", code, body)
	}

	code, body = get(t, base+"/verify")
	if code != 200 || !strings.Contains(body, `"Records"`) {
		t.Fatalf("verify: %d %q", code, body)
	}

	code, body = get(t, base+"/")
	if code != 200 || !strings.Contains(body, "dbdedup node") || !strings.Contains(body, "wiki") {
		t.Fatalf("index: %d %q", code, body)
	}

	code, _ = get(t, base+"/nonexistent")
	if code != 404 {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

func TestMetricsEndpointIncludesApplyPipeline(t *testing.T) {
	// The apply pool is shaped like the encoder pool: two workers.
	n, s := startAdmin(t, cluster.MemberConfig{Node: node.Options{
		SyncEncode: true, DisableAutoFlush: true, EncodeWorkers: 2,
		Engine: core.Config{GovernorWindow: 1 << 30},
	}})
	// Drive the encode pipeline…
	if err := n.Insert("wiki", "k", []byte("some record content to encode")); err != nil {
		t.Fatal(err)
	}
	// …and the apply pipeline, the way a replication secondary would.
	ap := node.NewApplier(n, 0, node.ApplierOptions{})
	ap.EnqueueEntry(oplog.Entry{Seq: 1, Op: oplog.OpInsert, DB: "replica-db",
		Key: "r", Form: oplog.FormRaw, Payload: []byte("replicated content")}, false)
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}

	var v struct {
		Apply struct {
			Workers, Applied int64
			Latency          metrics.LatencySummary
		}
	}
	getMetrics(t, s, &v)
	if v.Apply.Workers != 2 || v.Apply.Applied != 1 {
		t.Errorf("Apply = %+v, want 2 workers / 1 applied", v.Apply)
	}
	if v.Apply.Latency.Count != 1 {
		t.Errorf("Apply.Latency.Count = %d, want 1", v.Apply.Latency.Count)
	}
	// The workers gauge is the pool's: it returns to zero when the pool closes.
	ap.Close()
	getMetrics(t, s, &v)
	if v.Apply.Workers != 0 || v.Apply.Applied != 1 {
		t.Errorf("Apply after Close = %+v, want 0 workers / 1 applied", v.Apply)
	}
}

// TestReadPathShowsBlocksDecoded: what a read cost shows up under Store in
// /metrics and on the index page's read: line, so "blocks loaded and bytes
// inflated per read" can be had from a running node. The first read of a
// never-updated record is answered by the source cache and touches no block;
// after an update the read goes to the store, misses the block cache and
// inflates the one small block its frame is in, and a read of a record in the
// batch's other block inflates that one.
func TestReadPathShowsBlocksDecoded(t *testing.T) {
	n, s := startAdmin(t, cluster.MemberConfig{Node: node.Options{SyncEncode: true, DisableAutoFlush: true, BlockCompression: true}})
	payload := []byte(strings.Repeat("a record that compresses, sealed into a block. ", 40))
	read := func(key string) {
		t.Helper()
		if _, err := n.Read("wiki", key); err != nil {
			t.Fatal(err)
		}
	}
	// The segment's first block is its dictionary, which reads do not load.
	if err := n.Insert("wiki", "first", payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	first := n.Store().Stats().BlockBytesIn
	if err := n.Insert("wiki", "k", payload); err != nil {
		t.Fatal(err)
	}
	read("k") // the insert payload, from the source cache
	if err := n.Update("wiki", "k", payload[:len(payload)-1]); err != nil {
		t.Fatal(err)
	}
	if err := n.Insert("wiki", "l", payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Update("wiki", "l", payload[1:]); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	read("k")
	read("l")

	var v struct {
		Store struct {
			docstore.Stats
			ReadsFromSourceCache uint64
		}
	}
	getMetrics(t, s, &v)
	if v.Store.ReadsFromSourceCache != 1 || v.Store.BlocksDecoded != 2 || v.Store.BlocksSealed != 3 ||
		v.Store.BlockDecodeNanos == 0 || int64(v.Store.BlockBytesDecoded) != v.Store.BlockBytesIn-first ||
		v.Store.CacheBytes < v.Store.BlockBytesIn-first || v.Store.CacheBudgetBytes != 2<<20 || v.Store.DictBytes != first {
		t.Errorf("Store = %+v, want 1 read from the source cache, the second batch's 2 blocks (%d bytes) decoded in some time and resident, and the first batch's %d bytes as the dictionary",
			v.Store, v.Store.BlockBytesIn-first, first)
	}
	perLoad := metrics.FormatBytes((v.Store.BlockBytesIn - first) / 2)
	if _, body := get(t, "http://"+s.Addr()+"/"); !strings.Contains(body, "read:     1 of 3 from the source cache, ") ||
		!strings.Contains(body, " 2 blocks decoded in ") || !strings.Contains(body, ", "+perLoad+" inflated per block load, ") ||
		!strings.Contains(body, " of 2.0 MiB resident, ") {
		t.Errorf("index page read: line does not show the read path (%s per load):\n%s", perLoad, body)
	}
}

// TestWritePathShowsBlocksSealed: the sealer's work (blocks written, time
// spent, appenders that had to wait for it, failed attempts) shows up under
// Store in /metrics and on the index page's write: line.
func TestWritePathShowsBlocksSealed(t *testing.T) {
	n, s := startAdmin(t, cluster.MemberConfig{Node: node.Options{SyncEncode: true, DisableAutoFlush: true, BlockCompression: true, BlockSize: 1 << 10}})
	payload := []byte(strings.Repeat("one record fills one block and the sealer takes it. ", 40))
	for _, key := range []string{"a", "b"} {
		if err := n.Insert("wiki", key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Store().Flush(); err != nil { // waits for the sealer
		t.Fatal(err)
	}

	var v struct{ Store docstore.Stats }
	getMetrics(t, s, &v)
	if v.Store.BlocksSealed != 2 || v.Store.SealNanos == 0 || v.Store.SealErrors != 0 {
		t.Errorf("Store = %+v, want 2 blocks sealed in some time and no errors", v.Store)
	}
	if _, body := get(t, "http://"+s.Addr()+"/"); !strings.Contains(body, "write:    2 blocks sealed in ") ||
		!strings.Contains(body, " appender waits (") || !strings.Contains(body, "), 0 seal errors\n") {
		t.Errorf("index page write: line does not show the sealed blocks:\n%s", body)
	}
}

// summaryKeys is the shape every histogram is served in.
const summaryKeys = "Count MeanUS P50US P90US P99US P999US MaxUS"

// metricsSections is the /metrics contract: the top-level sections and, per
// section, its keys in response order. A rename, a move or a new number is a
// diff of this list.
var metricsSections = map[string]string{
	"EncodeWorkers": "",
	"Encode":        "Stages EncodedRecords EncodedBytes Chunks ChunkedBytes QueueDepth QueueOverflows",
	"Apply":         "Latency Workers QueueDepth QueueOverflows Applied ApplyFailures BaseFetches",
	"Store": "LiveRecords LogicalBytes BlockBytesIn BlockBytesOut DeadBytes Appends CacheHits CacheMisses " +
		"BlockBuffersRecycled BlockBuffersFresh BlocksDecoded BlockBytesDecoded BlockDecodeNanos " +
		"CacheBytes CacheBudgetBytes DictBytes MmapBlockReads PreadBlockReads PinnedReaders RetiredPending LiveSegments BlocksSealed " +
		"SealNanos SealWaits SealWaitNanos SealErrors ReadLatency ReadsFromSourceCache CacheShards",
	"Oplog": "Entries Bytes BudgetBytes Evicted",
	"Repl": "Reconnects Dials DialFailures BackoffNanos CorruptFrames FrameSeqViolations IdleTimeouts " +
		"HeartbeatsSent ForcedResyncs",
	"Compaction": "Passes PassLatency PhysicalBytesReclaimed",
	"FeatIdx":    "Entries MemoryBytes CapacityBytes Lookups Matches Evictions Tiered",
	"Admission": "Enabled ShedRawEnabled Overloaded OverloadEnters OverloadExits Admitted Shed " +
		"Rejected TrackedTenants",
	"Cluster": "RingEpoch RingInstalls RedirectsIssued MovingAnswered HandoffsStarted " +
		"HandoffsCommitted HandoffsAborted TransferRecordsOut TransferBytesOut TransferRecordsIn TransferBytesIn " +
		"TransferFailures DroppedDBs DroppedRecords",
	"Writebacks": "FlushApplied FlushSkipped Dropped DroppedSavingBytes Pending",
	"Memory":     "RecordTableBytes FeatureIndexBytes",
}

// sharedNames are keys two sections may both use because they name different
// numbers: each pool's own queue, the oplog's retained entries against the
// index's occupancy. Any other repeat is one number published twice.
var sharedNames = map[string]bool{"QueueDepth": true, "QueueOverflows": true, "Entries": true}

// objectKeys returns raw's keys in document order (raw must be a JSON object).
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestMetricsSections pins /metrics' key set, section by section, and that no
// number is served under two sections of one response.
func TestMetricsSections(t *testing.T) {
	_, s := testAdmin(t)

	var top map[string]json.RawMessage
	getMetrics(t, s, &top)
	if len(top) != len(metricsSections) {
		t.Errorf("%d top-level sections, want %d", len(top), len(metricsSections))
	}
	owner := make(map[string]string) // key -> the section serving it
	for section, want := range metricsSections {
		raw, ok := top[section]
		if !ok {
			t.Errorf("section %s missing", section)
			continue
		}
		if want == "" {
			continue // a bare number
		}
		got := objectKeys(t, raw)
		if strings.Join(got, " ") != want {
			t.Errorf("section %s keys:\n got %s\nwant %s", section, strings.Join(got, " "), want)
		}
		for _, k := range got {
			if prev, dup := owner[k]; dup && !sharedNames[k] {
				t.Errorf("%s is served under both %s and %s", k, prev, section)
			}
			owner[k] = section
		}
	}

	// The nested shapes: every histogram is one summary, the encode stages are
	// keyed by name, the cold tier is the tiered.Snapshot as it is.
	var nested struct {
		Encode     struct{ Stages map[string]json.RawMessage }
		Apply      struct{ Latency json.RawMessage }
		Store      struct{ ReadLatency json.RawMessage }
		Compaction struct{ PassLatency json.RawMessage }
		FeatIdx    struct{ Tiered json.RawMessage }
	}
	getMetrics(t, s, &nested)
	for name, raw := range map[string]json.RawMessage{"Apply.Latency": nested.Apply.Latency,
		"Store.ReadLatency": nested.Store.ReadLatency, "Compaction.PassLatency": nested.Compaction.PassLatency,
		"Encode.Stages.delta": nested.Encode.Stages["delta"]} {
		if got := strings.Join(objectKeys(t, raw), " "); got != summaryKeys {
			t.Errorf("%s keys %q, want %q", name, got, summaryKeys)
		}
	}
	var stages []string
	for name := range nested.Encode.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	if got := strings.Join(stages, " "); got != "chain chunk delta index sketch source" {
		t.Errorf("Encode.Stages = %q", got)
	}
	if got, want := len(objectKeys(t, nested.FeatIdx.Tiered)), reflect.TypeOf(tiered.Snapshot{}).NumField(); got != want {
		t.Errorf("FeatIdx.Tiered has %d keys, tiered.Snapshot %d fields", got, want)
	}

	// A member started with no ring configuration answers /cluster too:
	// the ring-less ring, and the same bundle /metrics serves.
	var cl struct {
		Status  cluster.RingStatus
		Metrics json.RawMessage
	}
	code, body := get(t, "http://"+s.Addr()+"/cluster")
	if err := json.Unmarshal([]byte(body), &cl); code != 200 || err != nil {
		t.Fatalf("/cluster: %d, %v in %s", code, err, body)
	}
	if r := cl.Status.Ring; r == nil || r.Epoch != 0 || len(r.Members) != 0 || cl.Status.Self == "" {
		t.Errorf("/cluster status of a standalone member = %s", body)
	}
	if got := strings.Join(objectKeys(t, cl.Metrics), " "); got != metricsSections["Cluster"] {
		t.Errorf("/cluster Metrics keys %q, /metrics Cluster keys %q", got, metricsSections["Cluster"])
	}
}

// TestScrapeDuringIngest fetches /metrics and / in a loop while four
// goroutines insert into 200 tenant databases: every response decodes, each
// formerly duplicated counter is served once, and a histogram summary is of
// one instant (ordered percentiles) and never loses samples between scrapes.
func TestScrapeDuringIngest(t *testing.T) {
	n, s := startAdmin(t, cluster.MemberConfig{Node: node.Options{DisableAutoFlush: true, BlockCompression: true,
		Engine: core.Config{GovernorWindow: 1 << 30}}})

	const tenants, writers, perWriter = 200, 4, 600
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				db := fmt.Sprintf("tenant%03d", (w*perWriter+i)%tenants)
				payload := []byte(strings.Repeat(fmt.Sprintf("tenant record %d of writer %d. ", i, w), 30))
				if err := n.Insert(db, fmt.Sprintf("w%d-%d", w, i), payload); err != nil {
					t.Error(err)
					return
				}
				if _, err := n.Read(db, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ingesting := make(chan struct{})
	go func() { wg.Wait(); close(ingesting) }()

	type view struct {
		Encode struct {
			Stages map[string]metrics.LatencySummary
		}
		Store struct{ ReadLatency metrics.LatencySummary }
	}
	once := []string{"CacheHits", "CacheMisses", "BlockBuffersRecycled", "BlockBuffersFresh", "BlocksDecoded",
		"BlockBytesDecoded", "CacheBytes", "CacheBudgetBytes", "DictBytes", "ReadsFromSourceCache", "BlockDecodeNanos", "PinnedReaders", "RetiredPending", "LiveSegments", "MmapBlockReads", "PreadBlockReads"}
	var prev view
	for scrapes, done := 0, false; !done || scrapes < 3; scrapes++ {
		select {
		case <-ingesting:
			done = true
		default:
		}
		code, body := get(t, "http://"+s.Addr()+"/metrics")
		var cur view
		if err := json.Unmarshal([]byte(body), &cur); code != 200 || err != nil {
			t.Fatalf("scrape %d: status %d, %v", scrapes, code, err)
		}
		for _, name := range once {
			if c := strings.Count(body, `"`+name+`":`); c != 1 {
				t.Fatalf("scrape %d: %s appears %d times in one response, want once", scrapes, name, c)
			}
		}
		check := func(what string, was, now metrics.LatencySummary) {
			if now.Count < was.Count {
				t.Errorf("scrape %d: %s count went back, %d -> %d", scrapes, what, was.Count, now.Count)
			}
			if now.P50US > now.P99US || now.P99US > now.MaxUS {
				t.Errorf("scrape %d: %s summary torn: %+v", scrapes, what, now)
			}
		}
		check("Store.ReadLatency", prev.Store.ReadLatency, cur.Store.ReadLatency)
		for stage, now := range cur.Encode.Stages {
			check("Encode.Stages."+stage, prev.Encode.Stages[stage], now)
		}
		prev = cur
		if code, body := get(t, "http://"+s.Addr()+"/"); code != 200 || !strings.Contains(body, "\ndatabases:\n") {
			t.Fatalf("scrape %d: index page: %d", scrapes, code)
		}
	}
	if got := prev.Store.ReadLatency.Count; got != writers*perWriter {
		t.Errorf("last scrape saw %d reads, want %d", got, writers*perWriter)
	}
}
