package repl

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

// A secondary's position is one (epoch, seq) pair, stated by every
// connection it opens. These tests restart a primary on its directory, so
// that the position a follower holds is a point of a log that no longer
// exists, and watch what the follower does with it.

// restartablePrimary opens a primary on a directory of its own, serves it on
// sim, and returns a restart that closes both and reopens them on the same
// directory and address, returning the new node: a new log, in a new epoch.
func restartablePrimary(t *testing.T, sim *netsim.Sim) (prim *node.Node, p *Primary, restart func() *node.Node) {
	t.Helper()
	opts := node.Options{SyncEncode: true, DisableAutoFlush: true, Dir: "primary", FS: faultfs.NewMemFS()}
	opts.Engine.GovernorWindow = 1 << 30
	serve := func(addr string) {
		var err error
		if prim, err = node.Open(opts); err != nil {
			t.Fatal(err)
		}
		if p, err = ListenAndServeNetwork(prim, addr, sim); err != nil {
			t.Fatal(err)
		}
	}
	serve("primary")
	t.Cleanup(func() {
		p.Close()
		prim.Close()
	})
	return prim, p, func() *node.Node {
		t.Helper()
		addr := p.Addr()
		p.Close()
		if err := prim.Close(); err != nil {
			t.Fatal(err)
		}
		serve(addr)
		return prim
	}
}

// waitPosition waits until s stands at the end of prim's log, in its epoch.
func waitPosition(t *testing.T, s *Secondary, prim *node.Node) {
	t.Helper()
	epoch, target := prim.Oplog().Epoch(), prim.Oplog().LastSeq()
	for deadline := time.Now().Add(10 * time.Second); s.Epoch() != epoch || s.AppliedSeq() != target; time.Sleep(time.Millisecond) {
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower at (%d, %d), want (%d, %d)", s.Epoch(), s.AppliedSeq(), epoch, target)
		}
	}
}

// TestFetchRefusedByARestartedPrimary: a forward-encoded insert's base fetch
// is held up by a partition while the primary deletes the key, restarts on
// its directory and numbers past the insert in its new log. The fetch then
// reaches the restarted primary, asking in the old epoch. Answered "absent"
// at a stamp below the delete's number, the queued delete found nothing to
// delete and poisoned the apply pool; refused, the key stays covered, and the
// follower converges after the snapshot its reconnect brings.
func TestFetchRefusedByARestartedPrimary(t *testing.T) {
	sim := netsim.NewSim(3)
	prim, p, restart := restartablePrimary(t, sim)
	rng := rand.New(rand.NewSource(6))
	base := workload.RevisionText(rng, 4096)
	if err := prim.Insert("db", "base", base); err != nil {
		t.Fatal(err)
	}
	sec := openReplNode(t)
	s, err := connect(sec, p.Addr(), prim.Oplog().LastSeq(), 0, sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// The stream sends nothing toward the primary after its hello, so it
	// keeps flowing; only the fetch meets the partition.
	sim.SetPartition(netsim.PartitionToServer)

	if err := prim.Insert("db", "derived", workload.Revise(rng, base, 2, 40)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := prim.Insert("db", fmt.Sprintf("filler%d", i), []byte(fmt.Sprintf("filler %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Delete("db", "derived"); err != nil {
		t.Fatal(err)
	}
	ents, _ := prim.Oplog().EntriesSince(0, 0)
	insert, del := ents[1], ents[len(ents)-1]
	if insert.Key != "derived" || insert.Form != oplog.FormDelta || del.Op != oplog.OpDelete {
		t.Fatal("premise: the derived insert is not forward-encoded, or the delete is not last")
	}
	// Every entry after the base is queued behind the fetch.
	for deadline := time.Now().Add(5 * time.Second); s.ApplyMetrics().QueueDepth.Value() < int64(len(ents)-1); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d entries queued behind the fetch", s.ApplyMetrics().QueueDepth.Value(), len(ents)-1)
		}
	}

	prim = restart()
	for i := 0; prim.Oplog().LastSeq() < insert.Seq+2; i++ {
		if err := prim.Insert("db", fmt.Sprintf("after%d", i), []byte(fmt.Sprintf("after restart %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if prim.Oplog().LastSeq() >= del.Seq {
		t.Fatal("premise: the restarted primary numbered past the delete")
	}
	sim.SetPartition(netsim.PartitionNone)

	waitPosition(t, s, prim)
	if n, _ := s.Resyncs(); n != 1 {
		t.Fatalf("follower took %d snapshots, want 1", n)
	}
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("follower differs from the restarted primary: %v", vs)
	}
}

// TestSnapshotInFlightKeepsThePosition: a caught-up follower's primary
// restarts on its directory and sends the follower a snapshot, whose record
// batch stalls on the network. Until the end frame arrives, the follower
// stands where it stood: Epoch still names the log that died with the old
// primary, the one AppliedSeq counts in, rather than pairing the new epoch
// with the old log's number.
func TestSnapshotInFlightKeepsThePosition(t *testing.T) {
	sim := netsim.NewSim(4)
	prim, p, restart := restartablePrimary(t, sim)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if err := prim.Insert("db", fmt.Sprintf("k%d", i), workload.RevisionText(rng, 2048)); err != nil {
			t.Fatal(err)
		}
	}
	sec := openReplNode(t)
	s, err := ConnectNetwork(sec, p.Addr(), sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	waitPosition(t, s, prim)
	epoch, seq := s.Epoch(), s.AppliedSeq()

	// Hold back every large frame toward the follower: the snapshot's
	// records. Its begin frame, like the epoch frame, is a bare header. The
	// stall stays inside the idle bound, so the batch is late on a
	// connection that lives, not a silence that ends it and resyncs again.
	stall := sim.Timing().Idle * 2 / 3
	sim.SetFaults(func(ci netsim.ChunkInfo) netsim.Verdict {
		if !ci.ToServer && ci.Size > 256 {
			return netsim.Verdict{Delay: stall}
		}
		return netsim.Verdict{}
	})
	prim = restart()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, _ := s.Resyncs(); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot began")
		}
	}
	if got, at := s.Epoch(), s.AppliedSeq(); got != epoch || at != seq {
		t.Fatalf("mid-snapshot position (%d, %d), want the pre-snapshot (%d, %d)", got, at, epoch, seq)
	}

	waitPosition(t, s, prim)
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("follower differs from the restarted primary: %v", vs)
	}
}
