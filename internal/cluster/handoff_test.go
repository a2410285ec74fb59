package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// fillChains inserts records of about 2 KiB into db: documents of ten
// revisions with small edits between them, each revision under its own key.
func fillChains(tb testing.TB, n *node.Node, db string, records int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(records)))
	var doc []byte
	for i := 0; i < records; i++ {
		if i%10 == 0 {
			doc = workload.RevisionText(rng, 2048)
		} else {
			doc = workload.Revise(rng, doc, 2, 40)
		}
		if err := n.Insert(db, fmt.Sprintf("doc%05d/rev%d", i/10, i%10), doc); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestHandoffIsBatched: a handoff of 2 000 records travels as the snapshot's
// batches, far fewer requests than records. Every connection dialled to b
// runs through b's Sim, so its chunks across BeginHandoff are the transfer
// requests and their answers; one request and one answer per record would be
// 4 000.
func TestHandoffIsBatched(t *testing.T) {
	const records = 2000
	mesh := netsim.NewMesh(17, "a", "b")
	ma := startMember(t, mesh, "a", "a:1", nil)
	mb := startMember(t, mesh, "b", "b:1", nil)
	target := NewRing(1, []string{"a:1", "b:1"})
	db := dbOwnedBy(t, target, "b:1")
	fillChains(t, ma.Node, db, records)

	for _, m := range []*Member{ma, mb} {
		if err := m.Shard.InstallRing(target.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	before := mesh.Sim("b").Counters().Chunks
	if err := ma.Shard.BeginHandoff(); err != nil {
		t.Fatal(err)
	}
	chunks := mesh.Sim("b").Counters().Chunks - before
	for _, m := range []*Member{ma, mb} {
		if err := m.Shard.CommitRing(); err != nil {
			t.Fatal(err)
		}
	}

	if got := len(mb.Node.DBKeys(db)); got != records {
		t.Fatalf("the destination holds %d records of %d", got, records)
	}
	if got := mb.Shard.Metrics().TransferRecordsIn.Total(); got != records {
		t.Fatalf("TransferRecordsIn %d, want %d", got, records)
	}
	if chunks > records/10 {
		t.Fatalf("the handoff of %d records took %d chunks to the destination", records, chunks)
	}
}

// BenchmarkHandoff times one rebalance over loopback TCP that moves a
// database of 2 000 records of about 2 KiB, in ten-revision chains, from a
// one-member ring to two: the writes-frozen window of a join.
func BenchmarkHandoff(b *testing.B) {
	const records = 2000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var members []*Member
		for range 2 {
			m, err := StartMember(MemberConfig{Node: testNodeOptions(), Listen: "127.0.0.1:0"})
			if err != nil {
				b.Fatal(err)
			}
			members = append(members, m)
		}
		src, dst := members[0].Addr(), members[1].Addr()
		db := dbOwnedBy(b, NewRing(1, []string{src, dst}), dst)
		fillChains(b, members[0].Node, db, records)
		b.StartTimer()
		if _, err := Rebalance([]string{src}, []string{src, dst}, RebalanceOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := len(members[1].Node.DBKeys(db)); got != records {
			b.Fatalf("the destination holds %d records of %d", got, records)
		}
		for _, m := range members {
			m.Close()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
