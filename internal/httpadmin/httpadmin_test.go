package httpadmin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"dbdedup/internal/core"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

func testAdmin(t *testing.T) (*node.Node, *Server) {
	t.Helper()
	n, err := node.Open(node.Options{
		SyncEncode: true, DisableAutoFlush: true,
		Engine: core.Config{GovernorWindow: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	s, err := ListenAndServe(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return n, s
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
	n, s := testAdmin(t)
	// Drive the encode pipeline…
	if err := n.Insert("wiki", "k", []byte("some record content to encode")); err != nil {
		t.Fatal(err)
	}
	// …and the apply pipeline, the way a replication secondary would.
	ap := node.NewApplier(n, 0, node.ApplierOptions{Workers: 2})
	ap.EnqueueEntry(oplog.Entry{Seq: 1, Op: oplog.OpInsert, DB: "replica-db",
		Key: "r", Form: oplog.FormRaw, Payload: []byte("replicated content")}, false)
	ap.Barrier()
	ap.Close()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	var v metricsView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if v.Apply.Workers != 2 || v.Apply.Applied != 1 {
		t.Errorf("Apply snapshot = %+v, want 2 workers / 1 applied", v.Apply)
	}
	if v.Apply.LatencyCount != 1 {
		t.Errorf("Apply.LatencyCount = %d, want 1", v.Apply.LatencyCount)
	}
}

// TestReadPathShowsBlocksDecoded: a read that misses the block cache on a
// compressed block shows up under Read in /metrics and on the index page's
// read: line, so "blocks touched per read" can be had from a running node.
func TestReadPathShowsBlocksDecoded(t *testing.T) {
	n, err := node.Open(node.Options{SyncEncode: true, DisableAutoFlush: true, BlockCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	s, err := ListenAndServe(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	payload := []byte(strings.Repeat("a record that compresses, sealed into a block. ", 40))
	if err := n.Insert("wiki", "k", payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Read("wiki", "k"); err != nil {
		t.Fatal(err)
	}

	_, body := get(t, "http://"+s.Addr()+"/metrics")
	var v metricsView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if v.Read.BlocksDecoded != 1 || v.Read.BlockDecodeNanos == 0 {
		t.Errorf("Read.BlocksDecoded = %d in %d ns, want 1 block and some time", v.Read.BlocksDecoded, v.Read.BlockDecodeNanos)
	}
	if _, body = get(t, "http://"+s.Addr()+"/"); !strings.Contains(body, "1 blocks decoded in ") {
		t.Errorf("index page read: line does not show the decoded block:\n%s", body)
	}
}

// TestWritePathShowsBlocksSealed: the sealer's work (blocks written, time
// spent, appenders that had to wait for it, failed attempts) shows up under
// Store in /metrics and on the index page's write: line.
func TestWritePathShowsBlocksSealed(t *testing.T) {
	n, err := node.Open(node.Options{SyncEncode: true, DisableAutoFlush: true, BlockCompression: true, BlockSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	s, err := ListenAndServe(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	payload := []byte(strings.Repeat("one record fills one block and the sealer takes it. ", 40))
	for _, key := range []string{"a", "b"} {
		if err := n.Insert("wiki", key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Store().Flush(); err != nil { // waits for the sealer
		t.Fatal(err)
	}

	_, body := get(t, "http://"+s.Addr()+"/metrics")
	var v metricsView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if v.Store.BlocksSealed != 2 || v.Store.SealNanos == 0 || v.Store.SealErrors != 0 {
		t.Errorf("Store = %+v, want 2 blocks sealed in some time and no errors", v.Store)
	}
	if _, body = get(t, "http://"+s.Addr()+"/"); !strings.Contains(body, "write:    2 blocks sealed in ") ||
		!strings.Contains(body, " appender waits (") || !strings.Contains(body, "), 0 seal errors\n") {
		t.Errorf("index page write: line does not show the sealed blocks:\n%s", body)
	}
}
