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
// cluster.Member on loopback ports, as dbdedupd starts them.
func testPair(t *testing.T) (prim, sec *node.Node, s *repl.Secondary) {
	t.Helper()
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	nopts.Engine.GovernorWindow = 1 << 30
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
