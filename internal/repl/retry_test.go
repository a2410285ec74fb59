package repl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbdedup/internal/histcheck"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

// A secondary has one fault policy: every transport failure, on the stream
// or on a base fetch, is retried until it succeeds or Close is called. These
// tests run it with the shipped retry behaviour over a simulated network.

func openReplNode(t *testing.T) *node.Node {
	t.Helper()
	o := node.Options{SyncEncode: true, DisableAutoFlush: true}
	o.Engine.GovernorWindow = 1 << 30
	n, err := node.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestZeroOptionsFollowerReconnects: a follower that sets nothing but its
// network rides out a connection cut and catches up. Reconnecting is not
// something a caller opts into.
func TestZeroOptionsFollowerReconnects(t *testing.T) {
	sim := netsim.NewSim(1)
	prim, sec := openReplNode(t), openReplNode(t)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 20; i++ {
		if err := prim.Insert("db", fmt.Sprintf("k%02d", i), workload.RevisionText(rng, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := ListenAndServeWithOptions(prim, "primary", PrimaryOptions{Network: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := ConnectWithOptions(sec, p.Addr(), Options{Network: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatalf("catch-up: %v", err)
	}

	// Cut the stream on its next frame to the secondary.
	cut := false
	sim.SetFaults(func(ci netsim.ChunkInfo) netsim.Verdict {
		if !cut && !ci.ToServer {
			cut = true
			return netsim.Verdict{Cut: true}
		}
		return netsim.Verdict{}
	})
	for i := 20; i < 40; i++ {
		if err := prim.Insert("db", fmt.Sprintf("k%02d", i), workload.RevisionText(rng, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatalf("after the cut: %v", err)
	}
	if n := s.Metrics().Reconnects.Total(); n < 1 {
		t.Fatalf("reconnects = %d, want the cut to force one", n)
	}
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("secondary differs from the primary: %v", vs)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err after a ridden-out cut: %v", err)
	}
}

// baseMissFollower starts a secondary past the primary's first insert and
// then cuts the link toward the primary, so the forward-encoded insert that
// derive logs arrives on the stream without its base and the apply worker's
// base fetch meets the partition.
func baseMissFollower(t *testing.T, fetchTimeout time.Duration) (sim *netsim.Sim, prim, sec *node.Node, p *Primary, s *Secondary, derive func() []byte) {
	t.Helper()
	sim = netsim.NewSim(2)
	prim, sec = openReplNode(t), openReplNode(t)
	rng := rand.New(rand.NewSource(6))
	base := workload.RevisionText(rng, 4096)
	if err := prim.Insert("db", "base", base); err != nil {
		t.Fatal(err)
	}
	p, err := ListenAndServeWithOptions(prim, "primary", PrimaryOptions{Network: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err = connect(sec, p.Addr(), prim.Oplog().LastSeq(), 0, Options{Network: sim, FetchTimeout: fetchTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// The stream sends nothing toward the primary after its hello, so it
	// keeps flowing; only the fetch meets the partition.
	sim.SetPartition(netsim.PartitionToServer)
	derive = func() []byte {
		t.Helper()
		derived := workload.Revise(rng, base, 2, 40)
		if err := prim.Insert("db", "derived", derived); err != nil {
			t.Fatal(err)
		}
		ents, _ := prim.Oplog().EntriesSince(0, 0)
		if len(ents) != 2 || ents[1].Form != oplog.FormDelta {
			t.Fatal("the derived insert was not forward-encoded; no base fetch to test")
		}
		return derived
	}
	return sim, prim, sec, p, s, derive
}

// TestFetchRidesOutAnOutage: a strict insert's base fetch meets a partition
// that outlasts two fetch round trips. The fetch keeps retrying under the
// stream's backoff, and once the partition heals the record installs and
// the secondary reports no error.
func TestFetchRidesOutAnOutage(t *testing.T) {
	const fetchTimeout = 150 * time.Millisecond
	sim, prim, sec, _, s, derive := baseMissFollower(t, fetchTimeout)
	derived := derive()
	time.Sleep(3 * fetchTimeout)
	if err := s.Err(); err != nil {
		t.Fatalf("during the outage: %v", err)
	}
	sim.SetPartition(netsim.PartitionNone)

	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, err := sec.Read("db", "derived"); err != nil || !bytes.Equal(got, derived) {
		t.Fatalf("derived record after the outage: %v", err)
	}
	if n := s.BaseFetches(); n != 1 {
		t.Fatalf("base fetches = %d, want 1", n)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringFetchRetry: Close returns promptly while an apply worker's
// fetch is retrying against a primary that is gone, and the fetch it cut
// short is not reported as a replication error.
func TestCloseDuringFetchRetry(t *testing.T) {
	const fetchTimeout = 300 * time.Millisecond
	sim, _, sec, p, s, derive := baseMissFollower(t, fetchTimeout)
	derive()
	// Wait for the fetch connection (the stream's is the first dial).
	for deadline := time.Now().Add(5 * time.Second); sim.Counters().Dials < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the base miss never dialled a fetch")
		}
	}
	p.Close()
	time.Sleep(3 * fetchTimeout)
	if err := s.Err(); err != nil {
		t.Fatalf("while the primary is gone: %v", err)
	}

	start := time.Now()
	s.Close()
	if took := time.Since(start); took > fetchTimeout+time.Second {
		t.Fatalf("Close took %v during a fetch retry, want at most %v", took, fetchTimeout+time.Second)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err after Close cut a fetch short: %v", err)
	}
	if _, err := sec.Read("db", "derived"); err != node.ErrNotFound {
		t.Fatalf("derived record without a fetch: %v, want not found", err)
	}
}
