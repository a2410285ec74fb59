package histcheck_test

// Whole-system integration tests: a client driving a primary over the API
// protocol while a secondary follows over the replication protocol, with
// persistence, compaction and write-back flushing all active, the in-process
// equivalent of the paper's 3-node deployment. They live here because the
// history they record and the checker that judges it are this package.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/apiserver"
	"dbdedup/internal/cluster"
	"dbdedup/internal/core"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// pair is one primary + one secondary, both file-backed, each a
// cluster.Member as dbdedupd starts it, and a client of the primary's API.
// Everything is closed at test end; every Close involved tolerates a second
// call, so a test may close a piece early.
type pair struct {
	prim, sec *cluster.Member
	client    *apiserver.Client
	primDir   string
}

// startPair opens the pair; primMut, when set, mutates the primary's options
// before it opens (the secondary keeps the stock configuration, as a real
// replica would: overload is a per-node condition, not a cluster one).
func startPair(t *testing.T, primMut func(*node.Options)) *pair {
	t.Helper()
	c := &pair{primDir: t.TempDir()}
	opts := func(dir string) node.Options {
		return node.Options{
			Dir:        dir,
			Engine:     core.Config{GovernorWindow: 1 << 30},
			Compaction: node.CompactionOptions{Enabled: true},
		}
	}
	popts := opts(c.primDir)
	if primMut != nil {
		primMut(&popts)
	}
	c.prim = member(t, popts, nil)
	c.sec = member(t, opts(t.TempDir()), c.prim)
	c.client = dial(t, c.prim)
	return c
}

// dial connects a client to m's API.
func dial(t *testing.T, m *cluster.Member) *apiserver.Client {
	t.Helper()
	client, err := apiserver.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// ingest drives a whole workload trace through target, recording every ack.
func ingest(t *testing.T, h *histcheck.History, target histcheck.Target, cfg workload.Config) {
	t.Helper()
	tr := workload.New(cfg)
	for {
		op, ok := tr.Next()
		if !ok {
			return
		}
		if err := target.Insert(op.DB, op.Key, op.Payload); err != nil {
			t.Fatalf("insert %s: %v", op.Key, err)
		}
		h.Acked(op.DB, op.Key, op.Payload)
	}
}

// requireHeld fails the test unless view holds exactly what h says it must.
func requireHeld(t *testing.T, where string, h *histcheck.History, view histcheck.View) {
	t.Helper()
	if err := histcheck.Err(where, h.Check(view)); err != nil {
		t.Fatal(err)
	}
}

func TestClusterEndToEnd(t *testing.T) {
	c := startPair(t, nil)

	// Drive a Wikipedia-like workload through the network API.
	hist := histcheck.New(histcheck.FloorAtAck)
	ingest(t, hist, c.client, workload.Config{Kind: workload.Wikipedia, Seed: 11, InsertBytes: 2 << 20})

	// Mix in updates and deletes over the wire.
	some := c.prim.Node.DBKeys("wiki")[:10]
	for i, k := range some {
		if i%2 == 0 {
			content := []byte(fmt.Sprintf("updated %s over the wire", k))
			if err := c.client.Update("wiki", k, content); err != nil {
				t.Fatal(err)
			}
			hist.Acked("wiki", k, content)
		} else {
			if err := c.client.Delete("wiki", k); err != nil {
				t.Fatal(err)
			}
			hist.Acked("wiki", k, nil)
		}
	}

	c.prim.Node.Barrier()
	if err := c.sec.Follower.WaitForSeq(c.prim.Node.Oplog().LastSeq(), 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// Both nodes converge and serve identical content.
	requireHeld(t, "primary over the wire", hist, c.client)
	requireHeld(t, "secondary", hist, histcheck.NodeView{Node: c.sec.Node})

	// The primary deduplicated and replication shipped deltas.
	st, err := c.client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Deduped == 0 {
		t.Error("no dedup hits over the network path")
	}
	if c.sec.Follower.BytesReceived() >= st.RawInsertBytes {
		t.Errorf("replication shipped %d bytes for %d raw", c.sec.Follower.BytesReceived(), st.RawInsertBytes)
	}
}

func TestClusterRestartPreservesData(t *testing.T) {
	c := startPair(t, nil)
	hist := histcheck.New(histcheck.FloorAtAck)
	ingest(t, hist, c.client, workload.Config{Kind: workload.Enron, Seed: 12, InsertBytes: 1 << 20})
	c.prim.Node.Barrier()
	c.prim.Node.FlushWritebacks(-1)

	// Restart the primary from its directory.
	c.client.Close()
	c.sec.Close()
	if err := c.prim.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := member(t, node.Options{Dir: c.primDir, Engine: core.Config{GovernorWindow: 1 << 30}}, nil)
	requireHeld(t, "after restart", hist, dial(t, reopened))
}

func TestClusterSecondaryCatchUpViaSnapshot(t *testing.T) {
	// Secondary joins late, after the (tiny) oplog has rolled over: it
	// must converge via snapshot resync and then track live writes.
	primM := member(t, node.Options{
		Dir:        t.TempDir(),
		Engine:     core.Config{GovernorWindow: 1 << 30},
		OplogBytes: 32 << 10,
	}, nil)
	prim := primM.Node
	hist := histcheck.New(histcheck.FloorAtAck)
	ingest(t, hist, histcheck.NodeView{Node: prim}, workload.Config{Kind: workload.StackExchange, Seed: 13, InsertBytes: 512 << 10})
	prim.Barrier()

	m := member(t, node.Options{Engine: core.Config{GovernorWindow: 1 << 30}}, primM)
	sec, sub := m.Node, m.Follower
	if err := sub.WaitForSeq(prim.Oplog().LastSeq(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if rs, _ := sub.Resyncs(); rs == 0 {
		t.Fatal("expected a snapshot resync")
	}
	requireHeld(t, "late secondary", hist, histcheck.NodeView{Node: sec})
	// Live tail after the snapshot.
	if err := prim.Insert("qa", "tail-record", []byte("written after the snapshot")); err != nil {
		t.Fatal(err)
	}
	prim.Barrier()
	if err := sub.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := sec.Read("qa", "tail-record")
	if err != nil || string(got) != "written after the snapshot" {
		t.Fatal("live streaming after snapshot failed")
	}
}

// TestClusterShedRawReplicates is the graceful-degradation contract over the
// wire (DESIGN.md §12): a primary shedding to raw under overload still
// acknowledges every insert durably, and those raw oplog entries replicate to
// a healthy secondary byte-exactly — degraded dedup ratio, not degraded
// correctness. Overload is forced deterministically: a 1-slot encoder with a
// simulated delay trips the latch on the second insert, and a one-hour dwell
// keeps the primary shedding for the rest of the test.
func TestClusterShedRawReplicates(t *testing.T) {
	c := startPair(t, func(o *node.Options) {
		o.EncodeWorkers = 1
		o.EncodeQueue = 1
		o.SimulatedEncodeDelay = 5 * time.Millisecond
		o.Admission = admission.Options{
			ShedRaw: true, OverloadDwell: time.Hour,
		}
	})

	// A family of mutually similar documents a healthy node would dedup;
	// the shedding primary stores them raw instead.
	base := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 40)
	hist := histcheck.New(histcheck.FloorAtAck)
	const docs = 40
	for i := 0; i < docs; i++ {
		doc := append([]byte(fmt.Sprintf("rev %03d | ", i)), base...)
		key := fmt.Sprintf("doc%03d", i)
		if err := c.client.Insert("shed", key, doc); err != nil {
			t.Fatalf("insert %s during overload: %v", key, err)
		}
		// The ack contract holds even while shedding: readable immediately.
		if got, err := c.client.Get("shed", key); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s not readable right after ack: %v", key, err)
		}
		hist.Acked("shed", key, doc)
	}

	st := c.prim.Node.Stats()
	if st.InsertsShedRaw == 0 {
		t.Fatal("overload never engaged; nothing was shed")
	}
	if st.Inserts != docs {
		t.Fatalf("Stats.Inserts = %d, want %d", st.Inserts, docs)
	}

	c.prim.Node.Barrier()
	if err := c.sec.Follower.WaitForSeq(c.prim.Node.Oplog().LastSeq(), 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// Every shed insert made it to the secondary intact.
	requireHeld(t, "secondary after shed replication", hist, histcheck.NodeView{Node: c.sec.Node})
	if rep := c.sec.Node.VerifyAll(); !rep.Ok() {
		t.Fatalf("secondary VerifyAll after shed replication: %s", rep)
	}
	if rep := c.prim.Node.VerifyAll(); !rep.Ok() {
		t.Fatalf("primary VerifyAll while shedding: %s", rep)
	}
}
