package repl

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dbdedup/internal/histcheck"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// TestSnapshotFramesAreByteBounded: a resync of records whose 128-record
// batch would pass batchBytes (200 records of 16 KiB make 2 MiB) converges,
// and no snapshot frame it sends is larger than the bound. Batches bounded
// by record count alone grew with the records until they passed maxFrame,
// and a secondary then never finished a resync.
func TestSnapshotFramesAreByteBounded(t *testing.T) {
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogBytes: 32 << 10}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })
	rng := rand.New(rand.NewSource(60))
	content := workload.RevisionText(rng, 16<<10)
	for i := 0; i < 200; i++ {
		if err := prim.Insert("db", fmt.Sprintf("k%03d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 2, 40)
	}

	sim := netsim.NewSim(60)
	var mu sync.Mutex
	largest := 0
	sim.SetFaults(func(ci netsim.ChunkInfo) netsim.Verdict {
		if !ci.ToServer {
			mu.Lock()
			largest = max(largest, ci.Size)
			mu.Unlock()
		}
		return netsim.Verdict{}
	})
	p, err := ListenAndServeNetwork(prim, "primary", sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	sec := openReplNode(t)
	s, err := ConnectNetwork(sec, p.Addr(), sim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	waitPosition(t, s, prim)

	if resyncs, records := s.Resyncs(); resyncs != 1 || records != 200 {
		t.Fatalf("%d resyncs carrying %d records, want 1 carrying 200", resyncs, records)
	}
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("secondary differs from the primary: %v", vs)
	}
	mu.Lock()
	defer mu.Unlock()
	if largest-frameHeaderSize > batchBytes {
		t.Fatalf("a %d-byte frame reached the secondary; batches are bounded at %d bytes", largest, batchBytes)
	}
	if largest < batchBytes/2 {
		t.Fatalf("the largest frame is %d bytes: the batches did not fill toward the %d-byte bound", largest, batchBytes)
	}
}

// TestBatchesCarryTheScan: the batches Batches hands out walk, with
// ReadBatch, to exactly the records node.Scan reads, each batch within
// batchBytes unless one record alone passes it. A scan of one database
// stops at the next, so the database named "" does not scan as every
// database.
func TestBatchesCarryTheScan(t *testing.T) {
	n := openReplNode(t)
	rng := rand.New(rand.NewSource(61))
	for i, db := range []string{"", "a", "b"} {
		for k := 0; k < 150; k++ {
			if err := n.Insert(db, fmt.Sprintf("k%03d", k), workload.RevisionText(rng, 64+k*(i+1)*40)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Insert("b", "huge", workload.RevisionText(rng, batchBytes+(1<<10))); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		db, key string
		r       node.Stamped
	}
	for _, c := range []struct {
		db      string
		all     bool
		records int
	}{{"", true, 451}, {"", false, 150}, {"b", false, 151}} {
		var want []rec
		if _, err := n.Scan(c.db, func(db, key string, r node.Stamped) bool {
			if db != c.db && !c.all {
				return false
			}
			want = append(want, rec{db, key, r})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var got []rec
		batches := 0
		if _, err := Batches(n, c.db, c.all, func(batch []byte, records int) error {
			batches++
			held := 0
			err := ReadBatch(batch, func(db, key string, r node.Stamped) error {
				r.Content = bytes.Clone(r.Content) // the batch is reused
				got, held = append(got, rec{db, key, r}), held+1
				return nil
			})
			if held != records {
				t.Errorf("a batch of %d records was handed out as %d", held, records)
			}
			if len(batch) > batchBytes && held != 1 {
				t.Errorf("a %d-byte batch holds %d records", len(batch), held)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != c.records || len(want) != c.records {
			t.Fatalf("Batches(%q, all=%v): %d records in %d batches, the scan read %d, want %d", c.db, c.all, len(got), batches, len(want), c.records)
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.db != w.db || g.key != w.key || g.r.Stamp != w.r.Stamp || g.r.Present != w.r.Present || !bytes.Equal(g.r.Content, w.r.Content) {
				t.Fatalf("record %d: got %s/%s stamp %d, want %s/%s stamp %d", i, g.db, g.key, g.r.Stamp, w.db, w.key, w.r.Stamp)
			}
		}
	}
}
