package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbdedup/internal/core"
	"dbdedup/internal/docstore"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/workload"
)

// churnedNode opens a node whose compactor checks on the node's 10 ms tick
// and hammers twenty keys with updates, so old frames pile up as dead bytes
// across many small segments, well past the trigger.
func churnedNode(t *testing.T) *Node {
	t.Helper()
	opts := Options{
		SyncEncode: true, DisableAutoFlush: true,
		BlockSize: 512, SegmentSize: 8 << 10,
		Compaction: CompactionOptions{Enabled: true},
	}
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	rng := rand.New(rand.NewSource(7))
	payload := workload.RevisionText(rng, 512)
	for i := 0; i < 20; i++ {
		n.Insert("db", fmt.Sprintf("k%d", i), payload)
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < 20; i++ {
			if err := n.Update("db", fmt.Sprintf("k%d", i), editText(rng, payload, 1)); err != nil {
				t.Fatal(err)
			}
		}
		n.Store().Flush()
	}
	return n
}

// TestBackgroundCompactor verifies that heavy rewrite traffic triggers
// compaction and the store keeps serving correct data throughout.
func TestBackgroundCompactor(t *testing.T) {
	n := churnedNode(t)
	deadline := time.Now().Add(3 * time.Second)
	passes := n.CompactionMetrics().Passes.Total
	for passes() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if passes() == 0 {
		t.Fatal("compactor never ran despite heavy rewrites")
	}
	for i := 0; i < 20; i++ {
		if _, err := n.Read("db", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("read after compaction: %v", err)
		}
	}
}

// TestCompactorGoesQuiet crosses the dead-space trigger once, with a burst of
// updates that then stops. The compactor reclaims until the ratio is back
// under the trigger or no rolled segment holds a dead byte, and from then on
// a tick finds nothing to do: no pass is counted and no frame is appended.
func TestCompactorGoesQuiet(t *testing.T) {
	n := churnedNode(t)

	// Quiet is a pass count that has stood still for thirty ticks.
	passes := n.CompactionMetrics().Passes.Total
	deadline := time.Now().Add(5 * time.Second)
	last, since := passes(), time.Now()
	for last == 0 || time.Since(since) < 300*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("the compactor is still at it, or never started, after 5s: %d passes, %d dead bytes of %d on disk",
				last, n.Store().Stats().DeadBytes, n.Store().DiskBytes())
		}
		time.Sleep(10 * time.Millisecond)
		if p := passes(); p != last {
			last, since = p, time.Now()
		}
	}
	st := n.Store().Stats()
	if float64(st.DeadBytes) >= 0.5*float64(n.Store().DiskBytes()) {
		if reclaimed, err := n.Compact(); reclaimed != 0 || err != nil {
			t.Fatalf("quiet with the trigger crossed (%d dead bytes of %d) and a victim left: %d, %v",
				st.DeadBytes, n.Store().DiskBytes(), reclaimed, err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if after := n.Store().Stats(); passes() != last || after.Appends != st.Appends {
		t.Fatalf("ten ticks after going quiet: %d more passes, %d more frames", passes()-last, after.Appends-st.Appends)
	}
	for i := 0; i < 20; i++ {
		if _, err := n.Read("db", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("read after compaction: %v", err)
		}
	}
}

// TestCompactorTriggerIgnoresCompression holds the trigger to one unit: dead
// payload bytes against dead plus live payload bytes, all counted before block
// compression. The records are near copies of one text, so compressed they
// take a fraction of their payload on disk; compared with the compressed disk
// size, a dead quarter would look like most of the store.
func TestCompactorTriggerIgnoresCompression(t *testing.T) {
	n, err := Open(Options{
		SyncEncode: true, DisableAutoFlush: true, DisableDedup: true, BlockCompression: true,
		BlockSize: 512, SegmentSize: 8 << 10,
		Compaction: CompactionOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rng := rand.New(rand.NewSource(7))
	payload := workload.RevisionText(rng, 1<<10)
	const keys = 40
	update := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if err := n.Update("db", fmt.Sprintf("k%d", i), editText(rng, payload, 1)); err != nil {
				t.Fatal(err)
			}
		}
		n.Store().Flush()
	}
	for i := 0; i < keys; i++ {
		if err := n.Insert("db", fmt.Sprintf("k%d", i), editText(rng, payload, 1)); err != nil {
			t.Fatal(err)
		}
	}
	n.Store().Flush()
	update(keys / 3)

	passes := n.CompactionMetrics().Passes.Total
	st := n.Store().Stats()
	share := float64(st.DeadBytes) / float64(st.DeadBytes+st.LogicalBytes)
	if share < 0.2 || share > 0.3 {
		t.Fatalf("dead share %.2f, want about a quarter", share)
	}
	if disk := n.Store().DiskBytes(); float64(st.DeadBytes) < 0.5*float64(disk) {
		t.Fatalf("%d dead bytes of %d on disk: compression does not carry the scenario", st.DeadBytes, disk)
	}
	time.Sleep(300 * time.Millisecond)
	if p := passes(); p != 0 {
		t.Fatalf("%d passes with %.2f of the payload bytes dead", p, share)
	}

	update(keys)
	deadline := time.Now().Add(5 * time.Second)
	for passes() == 0 {
		if time.Now().After(deadline) {
			st := n.Store().Stats()
			t.Fatalf("no pass 5s after crossing half: %d dead of %d live payload bytes", st.DeadBytes, st.LogicalBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < keys; i++ {
		if _, err := n.Read("db", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("read after compaction: %v", err)
		}
	}
}

// TestDeletePersistsAcrossReopen covers the clean-shutdown durability of
// deletes: a deleted key must stay deleted after Close + reopen, both for a
// leaf record (refs==0, reclaimed via tombstone) and for a delta base
// (refs>0, rewritten hidden). The tombstone/hidden frame typically sits in
// the unsealed pending block at shutdown, so this exercises Close's final
// seal specifically.
func TestDeletePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncEncode: true, DisableAutoFlush: true}
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	base := workload.RevisionText(rng, 4096)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("d%d", i)
		if err := n.Insert("db", keys[i], editText(rng, base, 1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a chain head (likely a base with live references → hidden
	// rewrite) and the last insert (likely a leaf → tombstone reclaim).
	for _, k := range []string{keys[0], keys[len(keys)-1]} {
		if err := n.Delete("db", k); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	for _, k := range []string{keys[0], keys[len(keys)-1]} {
		if _, err := n2.Read("db", k); err != ErrNotFound {
			t.Fatalf("deleted key %s resurrected after reopen: err=%v", k, err)
		}
	}
	for _, k := range keys[1 : len(keys)-1] {
		if _, err := n2.Read("db", k); err != nil {
			t.Fatalf("surviving key %s unreadable after reopen: %v", k, err)
		}
	}
	verifyRefcounts(t, n2)
}

// TestVerifyAll scrubs a store full of chains, updates and deletes.
func TestVerifyAll(t *testing.T) {
	n := testNode(t, Options{})
	insertChain(t, n, "wiki", 30, 21)
	n.FlushWritebacks(-1)
	n.Update("wiki", "v10", []byte("client update"))
	n.Delete("wiki", "v5")

	rep := n.VerifyAll()
	if !rep.Ok() {
		t.Fatalf("verify failed: %v", rep.Errors)
	}
	if rep.Records < 29 || rep.DeltaEncoded == 0 {
		t.Errorf("report underpopulated: %+v", rep)
	}
	if rep.MaxChainDepth == 0 {
		t.Error("no chains measured")
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}

// TestTornUpdateRetiredAtOpen cuts an update between its two frames, the new
// record and the old one's retirement: the new record, larger than a batch,
// is sealed on its own, and the filesystem crashes before the retirement's
// batch is written. The reopened node must read the key as its old or its new
// value, verify clean, and keep no record that is neither hidden nor named by
// its key, also across a second reopen. The old record is retired by a
// tombstone when nothing decodes through it and hidden when v0 does.
func TestTornUpdateRetiredAtOpen(t *testing.T) {
	for _, referenced := range []bool{false, true} {
		t.Run(fmt.Sprintf("referenced=%v", referenced), func(t *testing.T) {
			mem := faultfs.NewMemFS()
			opts := Options{Dir: "n", FS: mem, BlockSize: 4 << 10, SyncEncode: true, DisableAutoFlush: true,
				Engine: core.Config{GovernorWindow: 1 << 30}}
			n, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(68))
			v0 := workload.RevisionText(rng, 2048)
			v1 := editText(rng, v0, 2)
			// v0 first: v1's insert re-encodes v0 against v1, which makes
			// v1 the referenced one.
			for _, c := range []struct {
				key     string
				content []byte
			}{{"v0", v0}, {"v1", v1}} {
				if err := n.Insert("db", c.key, c.content); err != nil {
					t.Fatal(err)
				}
			}
			if !referenced {
				n.wb.DrainBest(n.wb.Len()) // v0 stays raw
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}

			in := faultfs.NewInjector(mem, 1)
			opts.FS = in
			if n, err = Open(opts); err != nil {
				t.Fatal(err)
			}
			old, _ := n.lookup("db", "v1")
			if got := n.refcnt[old] > 0; got != referenced {
				t.Fatalf("premise: v1 referenced %v, want %v", got, referenced)
			}
			sealed := n.Stats().Store.BlocksSealed
			upd := workload.RevisionText(rng, 8<<10) // fills a batch alone
			if err := n.Update("db", "v1", upd); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); n.Stats().Store.BlocksSealed == sealed; {
				if time.Now().After(deadline) {
					t.Fatal("the new record's batch was never sealed")
				}
				time.Sleep(time.Millisecond)
			}
			in.Crash() // the retirement's batch is never written
			n.Close()

			s, err := docstore.Open(docstore.Options{Dir: "n", FS: mem, BlockSize: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			m, ok := s.Meta(old)
			cur, _ := s.Lookup("db", "v1")
			s.Close()
			if !ok || m.Hidden || cur == old {
				t.Fatalf("premise: after the cut, v1's old record %d is live %v, hidden %v, and the key names %d; want a torn update",
					old, ok, m.Hidden, cur)
			}

			opts.FS = mem
			for _, when := range []string{"reopened", "reopened again"} {
				if n, err = Open(opts); err != nil {
					t.Fatal(err)
				}
				got, err := n.Read("db", "v1")
				if err != nil || !bytes.Equal(got, v1) && !bytes.Equal(got, upd) {
					t.Fatalf("%s: v1 reads %d bytes, %v; want its old or its new value", when, len(got), err)
				}
				if got, err := n.Read("db", "v0"); err != nil || !bytes.Equal(got, v0) {
					t.Fatalf("%s: v0 reads %d bytes, %v", when, len(got), err)
				}
				if rep := n.VerifyAll(); !rep.Ok() {
					t.Fatalf("%s: %s %v", when, rep, rep.Errors)
				}
				verifyNamed(t, n)
				verifyRefcounts(t, n)
				if err := n.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
