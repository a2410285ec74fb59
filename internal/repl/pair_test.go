package repl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbdedup/internal/cluster"
	"dbdedup/internal/core"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
	"dbdedup/internal/workload"
)

// testPair starts a primary and a secondary following it, each a
// cluster.Member on loopback ports, as dbdedupd starts them, whose governor
// never judges.
func testPair(t *testing.T) (prim, sec *node.Node, s *repl.Secondary) {
	t.Helper()
	return governedPair(t, 1<<30)
}

// governedPair is testPair with the engine's governor window (0: the
// default).
func governedPair(t *testing.T, governorWindow int) (prim, sec *node.Node, s *repl.Secondary) {
	t.Helper()
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	nopts.Engine.GovernorWindow = governorWindow
	start := func(cfg cluster.MemberConfig) *cluster.Member {
		cfg.Node, cfg.Listen = nopts, "127.0.0.1:0"
		m, err := cluster.StartMember(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	p := start(cluster.MemberConfig{ReplListen: "127.0.0.1:0"})
	f := start(cluster.MemberConfig{Follow: p.Oplog.Addr()})
	return p.Node, f.Node, f.Follower
}

func TestReplicationOverTCP(t *testing.T) {
	prim, sec, s := testPair(t)

	rng := rand.New(rand.NewSource(1))
	content := workload.RevisionText(rng, 8192)
	var versions [][]byte
	for i := 0; i < 30; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, content)
		content = workload.Revise(rng, content, 2, 40)
	}
	prim.Update("wiki", "v5", []byte("updated over the wire"))
	prim.Delete("wiki", "v7")

	last := prim.Oplog().LastSeq()
	if err := s.WaitForSeq(last, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	for i, want := range versions {
		key := fmt.Sprintf("v%d", i)
		got, err := sec.Read("wiki", key)
		switch i {
		case 5:
			if err != nil || string(got) != "updated over the wire" {
				t.Errorf("%s = %q, %v", key, got, err)
			}
		case 7:
			if err != node.ErrNotFound {
				t.Errorf("deleted %s err = %v", key, err)
			}
		default:
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s mismatch: %v", key, err)
			}
		}
	}
}

func TestReplicationTrafficReduced(t *testing.T) {
	prim, _, s := testPair(t)

	rng := rand.New(rand.NewSource(2))
	content := workload.RevisionText(rng, 8192)
	var raw int64
	for i := 0; i < 40; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		raw += int64(len(content))
		content = workload.Revise(rng, content, 2, 40)
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got := s.BytesReceived()
	if got*4 > raw {
		t.Errorf("replication shipped %d bytes for %d raw bytes; want >= 4x reduction", got, raw)
	}
}

// TestSecondaryGovernorWindowMatchesPrimary: a secondary accounts each
// database's governor window as its primary does, forward deltas and raw
// entries alike, so for a chain shorter than one window both show the same
// window and ratio on /dbs.
func TestSecondaryGovernorWindowMatchesPrimary(t *testing.T) {
	prim, sec, s := testPair(t)
	rng := rand.New(rand.NewSource(62))
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < 60; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 2, 40)
	}
	// Entries that ship raw: one under the size floor, one with no source.
	noise := make([]byte, 2048)
	rng.Read(noise)
	for i, p := range [][]byte{[]byte("short"), noise} {
		if err := prim.Insert("wiki", fmt.Sprintf("raw%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	window := func(n *node.Node) core.DBStats {
		for _, d := range n.DBStats() {
			if d.Name == "wiki" {
				return d
			}
		}
		t.Fatal("no wiki database")
		return core.DBStats{}
	}
	p, r := window(prim), window(sec)
	if p.WindowInserts != 62 || p.WindowRatio() < 2 {
		t.Fatalf("primary window: %d inserts, ratio %.2f", p.WindowInserts, p.WindowRatio())
	}
	if r.WindowInserts != p.WindowInserts || r.WindowRawBytes != p.WindowRawBytes || r.WindowEncodedBytes != p.WindowEncodedBytes {
		t.Errorf("secondary window %d inserts, %d -> %d bytes (%.2fx); primary %d inserts, %d -> %d bytes (%.2fx)",
			r.WindowInserts, r.WindowRawBytes, r.WindowEncodedBytes, r.WindowRatio(),
			p.WindowInserts, p.WindowRawBytes, p.WindowEncodedBytes, p.WindowRatio())
	}
}

// TestSecondaryFollowsTheGovernorVerdict: payloads that nothing deduplicates
// disable their database on the primary at the end of the first governor
// window. The secondary takes the verdict from the first insert the primary
// ships raw for it: its partition is freed, with no chain left and none of
// the records in its source cache, and that insert is stored whole.
func TestSecondaryFollowsTheGovernorVerdict(t *testing.T) {
	prim, sec, s := governedPair(t, 0)
	rng := rand.New(rand.NewSource(64))
	var last []byte
	for i := 0; i < 2049; i++ {
		last = make([]byte, 512)
		rng.Read(last)
		if err := prim.Insert("noise", fmt.Sprintf("r%d", i), last); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node.Node{prim, sec} {
		d := n.DBStats()[0]
		if d.Name != "noise" || !d.Disabled || d.Chains != 0 {
			t.Errorf("%s: disabled %v with %d chains, want disabled with none", d.Name, d.Disabled, d.Chains)
		}
	}
	if n := sec.Engine().SourceCache().Len(); n != 0 {
		t.Errorf("the secondary's source cache holds %d records of a disabled database", n)
	}
	if got, err := sec.Read("noise", "r2048"); err != nil || !bytes.Equal(got, last) {
		t.Fatalf("the insert after the verdict on the secondary: %v", err)
	}
}

// TestSecondaryFiltersSmallRecords: a record under the size floor is no
// chain head and no cached source on the secondary, as on its primary, so
// the two keep the same chain state, and both count its bytes.
func TestSecondaryFiltersSmallRecords(t *testing.T) {
	prim, sec, s := testPair(t)
	for i := 0; i < 10; i++ {
		if err := prim.Insert("tiny", fmt.Sprintf("t%d", i), []byte("four")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*node.Node{"primary": prim, "secondary": sec} {
		if d := n.DBStats()[0]; d.Chains != 0 {
			t.Errorf("%s: %d chains for 10 records under the size floor, want 0", name, d.Chains)
		}
		if c := n.Engine().SourceCache().Len(); c != 0 {
			t.Errorf("%s: %d cached records for 10 records under the size floor, want 0", name, c)
		}
		if es := n.Stats().Engine; es.SizeFiltered != 10 || es.RawBytes != 40 {
			t.Errorf("%s: %d records size-filtered, %d raw bytes; want 10 and 40", name, es.SizeFiltered, es.RawBytes)
		}
	}
}

// TestSnapshotResyncKeepsTheDatabaseActive: a follower that snapshot-resyncs
// more than a governor window of a database that deduplicates well installs
// every record whole, a window its own governor would judge at 1.00x. It
// takes its primary's verdict instead, so the database stays active on both
// and the next revision is still re-encoded with its backward write-backs.
func TestSnapshotResyncKeepsTheDatabaseActive(t *testing.T) {
	opts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogBytes: 8 << 10}
	open := func() *node.Node {
		n, err := node.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	prim := open()
	rng := rand.New(rand.NewSource(65))
	content := workload.RevisionText(rng, 1024)
	insert := func(i int) {
		if err := prim.Insert("wiki", fmt.Sprintf("v%04d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 1, 20)
	}
	for i := 0; i < core.DefaultGovernorWindow+16; i++ {
		insert(i)
	}
	p, err := repl.ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	sec := open()
	s, err := repl.Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if resyncs, records := s.Resyncs(); resyncs != 1 || records <= core.DefaultGovernorWindow {
		t.Fatalf("%d resyncs carried %d records, want one of more than a window", resyncs, records)
	}
	insert(core.DefaultGovernorWindow + 16)
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node.Node{prim, sec} {
		if d := n.DBStats()[0]; d.Disabled {
			t.Errorf("disabled at window ratio %.2f", d.WindowRatio())
		}
	}
	if n := sec.Stats().WritebacksPending; n == 0 {
		t.Error("the secondary re-encoded the revision after the resync with no write-back")
	}
}

func TestContinuousReplicationWhileWriting(t *testing.T) {
	prim, sec, s := testPair(t)
	rng := rand.New(rand.NewSource(5))
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < 100; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 1, 40)
		if i%10 == 0 {
			time.Sleep(time.Millisecond) // let the stream interleave
		}
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, err := sec.Read("wiki", "v99"); err != nil || !bytes.Equal(got, content[:0:0]) && len(got) == 0 {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sec.Stats().Inserts != 100 {
		t.Fatalf("secondary applied %d inserts, want 100", sec.Stats().Inserts)
	}
}

// TestRevisionOfAnUpdatedRecordReplicates: the primary flushes its write-backs
// and the secondary does not, so when v1 is updated the primary stacks the
// update on v1's stored form (v0 decodes through it) and the secondary, where
// nothing decodes through v1, overwrites it. v2 is a revision of v1 as
// inserted, which only the primary still holds under the update. Whatever v2
// ships as, the secondary must read it byte for byte and keep applying the
// stream: a delta against v1's insert content decoded against the
// secondary's v1 yields other bytes of the same length (a long update) or
// does not apply at all (a short one).
func TestRevisionOfAnUpdatedRecordReplicates(t *testing.T) {
	for _, size := range []int{16 << 10, 4 << 10} {
		t.Run(fmt.Sprintf("update of %d KiB", size>>10), func(t *testing.T) {
			prim, sec, s := testPair(t)
			rng := rand.New(rand.NewSource(66))
			v0 := workload.RevisionText(rng, 4096)
			v1 := workload.Revise(rng, v0, 2, 40)
			v2 := workload.Revise(rng, v1, 2, 40)
			upd := workload.RevisionText(rng, size)
			for i, c := range [][]byte{v0, v1} {
				if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), c); err != nil {
					t.Fatal(err)
				}
			}
			if prim.FlushWritebacks(-1) == 0 || prim.RefCount("wiki", "v1") == 0 {
				t.Fatal("premise: v0 does not decode through v1 on the primary")
			}
			if err := prim.Update("wiki", "v1", upd); err != nil {
				t.Fatal(err)
			}
			if err := prim.Insert("wiki", "v2", v2); err != nil {
				t.Fatal(err)
			}
			if err := s.WaitForSeq(prim.Oplog().LastSeq(), 2*time.Second); err != nil {
				t.Fatalf("the stream stalled: %v", err)
			}
			if sec.RefCount("wiki", "v1") != 0 {
				t.Fatal("premise: something decodes through v1 on the secondary")
			}
			for key, want := range map[string][]byte{"v0": v0, "v1": upd, "v2": v2} {
				if got, err := sec.Read("wiki", key); err != nil || !bytes.Equal(got, want) {
					t.Errorf("secondary %s: %d bytes, %v; want its %d", key, len(got), err, len(want))
				}
			}
		})
	}
}
