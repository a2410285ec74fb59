package repl

import (
	"bytes"
	"dbdedup/internal/oplog"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/metrics"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

func TestLateJoiningSecondary(t *testing.T) {
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	rng := rand.New(rand.NewSource(3))
	content := workload.RevisionText(rng, 4096)
	var versions [][]byte
	for i := 0; i < 10; i++ {
		prim.Insert("wiki", fmt.Sprintf("v%d", i), content)
		versions = append(versions, content)
		content = workload.Revise(rng, content, 2, 40)
	}

	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sec, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	s, err := Connect(sec, p.Addr(), 0) // full history still retained
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, want := range versions {
		got, err := sec.Read("wiki", fmt.Sprintf("v%d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d: %v", i, err)
		}
	}
	if p.BytesSent() == 0 {
		t.Error("primary byte meter not counting")
	}
}

func TestSnapshotResyncAfterTruncation(t *testing.T) {
	// A tiny oplog forces a from-zero secondary past the retained window;
	// the primary must fall back to a full snapshot and the secondary
	// must still converge exactly.
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 8}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	rng := rand.New(rand.NewSource(4))
	content := workload.RevisionText(rng, 2048)
	want := map[string][]byte{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := prim.Insert("db", key, content); err != nil {
			t.Fatal(err)
		}
		want[key] = content
		content = workload.Revise(rng, content, 2, 40)
	}
	prim.Update("db", "k010", []byte("updated before resync"))
	want["k010"] = []byte("updated before resync")
	prim.Delete("db", "k020")
	delete(want, "k020")

	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sec, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	s, err := Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	resyncs, records := s.Resyncs()
	if resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", resyncs)
	}
	if records == 0 {
		t.Fatal("no snapshot records received")
	}

	for key, wc := range want {
		got, err := sec.Read("db", key)
		if err != nil || !bytes.Equal(got, wc) {
			t.Fatalf("%s after resync: %v", key, err)
		}
	}
	if _, err := sec.Read("db", "k020"); err != node.ErrNotFound {
		t.Fatal("deleted record resurrected by snapshot")
	}

	// Live streaming must continue after the snapshot.
	if err := prim.Insert("db", "post", []byte("post-snapshot insert")); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := sec.Read("db", "post")
	if err != nil || string(got) != "post-snapshot insert" {
		t.Fatal("streaming did not resume after snapshot")
	}
}

// TestSnapshotResyncWithConcurrentWrites: writes racing a snapshot land in its
// lenient window and must not corrupt the secondary. The window ends at the
// oplog's own last number once every encode job pushed so far has run. Encodes
// finish out of order, on two encoder shards or for two SyncEncode callers, so
// an insert the scan saw can be logged after a later mutation of another
// database; the window used to end at the node's mutation counter, one short
// of that insert's entry, which then replayed strictly onto the snapshot's
// copy: "replicated insert of existing key".
func TestSnapshotResyncWithConcurrentWrites(t *testing.T) {
	slowEncode := node.Options{EncodeWorkers: 2, DisableAutoFlush: true, OplogCapacity: 2,
		SimulatedEncodeDelay: 500 * time.Millisecond}
	syncSlowEncode := slowEncode
	syncSlowEncode.SyncEncode = true
	for _, tc := range []struct {
		name string
		opts node.Options
		// drive writes to the primary and attaches the fresh secondary when
		// its race calls for it.
		drive func(t *testing.T, prim *node.Node, attach func() *Secondary)
	}{
		{"writes while the snapshot streams", node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 8},
			func(t *testing.T, prim *node.Node, attach func() *Secondary) {
				rng := rand.New(rand.NewSource(5))
				for i := 0; i < 80; i++ {
					if i == 40 {
						attach()
					}
					if err := prim.Insert("db", fmt.Sprintf("k%03d", i), workload.RevisionText(rng, 1024)); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{"insert encoded on another shard", slowEncode, slowInsertRacesSnapshot},
		{"insert encoded by another SyncEncode caller", syncSlowEncode, slowInsertRacesSnapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Engine.GovernorWindow = 1 << 30
			prim, err := node.Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer prim.Close()
			p, err := ListenAndServe(prim, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			sec, err := node.Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sec.Close()
			var s *Secondary
			tc.drive(t, prim, func() *Secondary {
				if s, err = Connect(sec, p.Addr(), 0); err != nil {
					t.Fatal(err)
				}
				return s
			})
			defer s.Close()

			prim.Barrier()
			if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if resyncs, _ := s.Resyncs(); resyncs == 0 {
				t.Fatal("the secondary never resynced from a snapshot")
			}
			if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
				t.Fatalf("secondary differs from the primary: %v", vs)
			}
		})
	}
}

// slowInsertRacesSnapshot makes an insert the snapshot carries reach the oplog
// after a mutation issued once the secondary applied that snapshot. Three
// entries fall out of the two-entry log first, so the fresh secondary needs a
// snapshot; then an insert into one database encodes for SimulatedEncodeDelay
// while the secondary attaches and an update of another database, on the
// other encoder shard, is logged at once.
func slowInsertRacesSnapshot(t *testing.T, prim *node.Node, attach func() *Secondary) {
	slow, fast := twoShardDBs(2)
	if err := prim.Insert(fast, "y", []byte("y0")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := prim.Update(fast, "y", []byte(fmt.Sprintf("y%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	prim.Barrier()
	inserted := make(chan error, 1)
	go func() { inserted <- prim.Insert(slow, "x", []byte("slow to encode")) }()
	for !prim.Has(slow, "x") {
		time.Sleep(time.Millisecond)
	}
	s := attach()
	for deadline := time.Now().Add(10 * time.Second); !s.snapshotApplied(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the secondary did not apply its snapshot")
		}
	}
	if err := prim.Update(fast, "y", []byte("y4")); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
}

// snapshotApplied reports whether a snapshot's end frame has been applied to
// a secondary that started with no position: the end frame gives it one.
func (s *Secondary) snapshotApplied() bool {
	resyncs, _ := s.Resyncs()
	return resyncs > 0 && s.Epoch() != 0
}

// twoShardDBs returns two database names that a pool of the given number of
// shards places on different shards (FNV-1a of the name, as the node's pool
// hashes it).
func twoShardDBs(shards uint32) (string, string) {
	shard := func(db string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(db))
		return h.Sum32() % shards
	}
	first := "a"
	for c := 'b'; ; c++ {
		if db := string(c); shard(db) != shard(first) {
			return first, db
		}
	}
}

func TestBaseMissFetchFallback(t *testing.T) {
	// A secondary that starts mid-stream can receive a forward-encoded
	// insert whose base it never saw; it must fetch the full record from
	// the primary (paper §4.1 fn. 4) instead of failing.
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	rng := rand.New(rand.NewSource(6))
	base := workload.RevisionText(rng, 4096)
	if err := prim.Insert("db", "base", base); err != nil {
		t.Fatal(err)
	}
	derived := workload.Revise(rng, base, 2, 40)
	if err := prim.Insert("db", "derived", derived); err != nil {
		t.Fatal(err)
	}
	ents, _ := prim.Oplog().EntriesSince(0, 0)
	if len(ents) != 2 || ents[1].Form != oplog.FormDelta {
		t.Skip("second insert was not forward-encoded; fallback not exercised")
	}

	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sec, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	// Start after the base's entry: the delta insert arrives baseless.
	s, err := Connect(sec, p.Addr(), ents[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if s.BaseFetches() != 1 {
		t.Fatalf("base fetches = %d, want 1", s.BaseFetches())
	}
	got, err := sec.Read("db", "derived")
	if err != nil || !bytes.Equal(got, derived) {
		t.Fatalf("derived record after fallback: %v", err)
	}
	// Exact accounting through the full stack: the base-missing bail-out
	// must roll its insert back, so the fetched record is the secondary's
	// only counted insert.
	if got := sec.Stats().Inserts; got != 1 {
		t.Fatalf("secondary Inserts after fallback = %d, want exactly 1", got)
	}
	if fetches := sec.ApplyMetrics().BaseFetches.Total(); fetches != 1 {
		t.Fatalf("apply metrics base fetches = %d, want 1", fetches)
	}
}

func TestPrimaryRestartDetectedByEpoch(t *testing.T) {
	// A secondary resuming with a cursor from a previous primary
	// incarnation must get a full resync instead of stalling on
	// meaningless sequence numbers — including reconciling away records
	// the restarted primary no longer has.
	dir := t.TempDir()
	mkPrim := func() *node.Node {
		opts := node.Options{Dir: dir, SyncEncode: true, DisableAutoFlush: true}
		opts.Engine.GovernorWindow = 1 << 30
		p, err := node.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	prim := mkPrim()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		prim.Insert("db", fmt.Sprintf("k%02d", i), workload.RevisionText(rng, 1024))
	}

	srv, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	sopts.Engine.GovernorWindow = 1 << 30
	sec, err := node.Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	sub, err := Connect(sec, srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitForSeq(prim.Oplog().LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cursor := sub.AppliedSeq()
	oldEpoch := sub.Epoch()
	if oldEpoch == 0 {
		t.Fatal("epoch not announced")
	}
	sub.Close()
	srv.Close()

	// Restart the primary: same data directory, fresh oplog (new epoch).
	prim.Delete("db", "k05")
	prim.Close()
	prim = mkPrim()
	defer prim.Close()
	prim.Insert("db", "after-restart", []byte("fresh record on restarted primary"))

	srv2, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	sub2, err := connect(sec, srv2.Addr(), cursor, oldEpoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	// The stale cursor makes WaitForSeq ambiguous until the resync resets
	// it; poll for convergence of the post-restart record instead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := sec.Read("db", "after-restart")
		if err == nil && string(got) == "fresh record on restarted primary" {
			break
		}
		if serr := sub2.Err(); serr != nil {
			t.Fatal(serr)
		}
		if time.Now().After(deadline) {
			t.Fatal("secondary never converged after primary restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stale cursor may already pass the new log's last number, so wait
	// for the position the snapshot's end frame states, after its reconcile.
	waitPosition(t, sub2, prim)
	if rs, _ := sub2.Resyncs(); rs != 1 {
		t.Fatalf("resyncs = %d, want 1 (epoch mismatch)", rs)
	}
	if _, err := sec.Read("db", "k05"); err != node.ErrNotFound {
		t.Fatal("record deleted before restart not reconciled away on secondary")
	}
	for i := 0; i < 20; i++ {
		if i == 5 {
			continue
		}
		key := fmt.Sprintf("k%02d", i)
		wantC, err := prim.Read("db", key)
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := sec.Read("db", key)
		if err != nil || !bytes.Equal(gotC, wantC) {
			t.Fatalf("%s diverged after restart resync: %v", key, err)
		}
	}
}

func TestMultipleSecondaries(t *testing.T) {
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const nSecs = 3
	var secs [nSecs]*node.Node
	var subs [nSecs]*Secondary
	for i := 0; i < nSecs; i++ {
		secs[i], err = node.Open(popts)
		if err != nil {
			t.Fatal(err)
		}
		defer secs[i].Close()
		subs[i], err = Connect(secs[i], p.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer subs[i].Close()
	}

	rng := rand.New(rand.NewSource(10))
	content := workload.RevisionText(rng, 4096)
	var keys []string
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("v%d", i)
		if err := prim.Insert("wiki", key, content); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		content = workload.Revise(rng, content, 2, 40)
	}

	last := prim.Oplog().LastSeq()
	for i, sub := range subs {
		if err := sub.WaitForSeq(last, 10*time.Second); err != nil {
			t.Fatalf("secondary %d: %v", i, err)
		}
	}
	for _, key := range keys {
		want, err := prim.Read("wiki", key)
		if err != nil {
			t.Fatal(err)
		}
		for i := range secs {
			got, err := secs[i].Read("wiki", key)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("secondary %d diverged on %s: %v", i, key, err)
			}
		}
	}
}

// TestShardedApplyMultiDBStress replicates interleaved multi-database
// traffic through the sharded apply path as a secondary sizes it (GOMAXPROCS
// workers; node's applier tests cover small queues under backpressure),
// version chains that mostly ship forward-encoded, and updates/deletes mixed
// in. Every
// secondary record must end up byte-identical to the primary — the
// per-database FIFO invariant leaves no other outcome. Runs under -race.
func TestShardedApplyMultiDBStress(t *testing.T) {
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	sec, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()

	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(20))
	const dbs, versions = 8, 40
	content := make([][]byte, dbs)
	for d := range content {
		content[d] = workload.RevisionText(rng, 2048+128*d)
	}
	for v := 0; v < versions; v++ {
		for d := 0; d < dbs; d++ {
			db := fmt.Sprintf("db%02d", d)
			if err := prim.Insert(db, fmt.Sprintf("v%03d", v), content[d]); err != nil {
				t.Fatal(err)
			}
			content[d] = workload.Revise(rng, content[d], 2, 40)
		}
		if v%5 == 2 {
			prim.Update(fmt.Sprintf("db%02d", v%dbs), fmt.Sprintf("v%03d", v-1), workload.RevisionText(rng, 700))
		}
		if v%9 == 4 {
			prim.Delete(fmt.Sprintf("db%02d", (v+5)%dbs), fmt.Sprintf("v%03d", v-3))
		}
	}

	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dbs; d++ {
		db := fmt.Sprintf("db%02d", d)
		for v := 0; v < versions; v++ {
			key := fmt.Sprintf("v%03d", v)
			want, perr := prim.Read(db, key)
			got, serr := sec.Read(db, key)
			if (perr == node.ErrNotFound) != (serr == node.ErrNotFound) {
				t.Fatalf("%s/%s presence diverged: primary %v, secondary %v", db, key, perr, serr)
			}
			if perr != nil {
				continue
			}
			if serr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s/%s diverged: %v", db, key, serr)
			}
		}
	}
	m := sec.ApplyMetrics()
	if want := int64(runtime.GOMAXPROCS(0)); m.Workers.Value() != want {
		t.Errorf("apply workers = %d, want GOMAXPROCS = %d", m.Workers.Value(), want)
	}
	if m.QueueDepth.Value() != 0 {
		t.Errorf("apply queue depth after drain = %d, want 0", m.QueueDepth.Value())
	}
	if m.Applied.Total() == 0 || m.Latency.Count() == 0 {
		t.Errorf("apply metrics not populated: applied %d, latency samples %d", m.Applied.Total(), m.Latency.Count())
	}
}

// TestShardedApplySnapshotResyncStress forces a full snapshot resync (tiny
// retained oplog window) through a multi-worker apply pool: the snapshot
// frames must act as barriers across the shards, the applied mark must
// rebase to the snapshot cursor, and concurrent-with-scan writes in the
// lenient window must still converge exactly.
func TestShardedApplySnapshotResyncStress(t *testing.T) {
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 8}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	rng := rand.New(rand.NewSource(21))
	const dbs = 4
	for i := 0; i < 60; i++ {
		prim.Insert(fmt.Sprintf("db%d", i%dbs), fmt.Sprintf("k%03d", i), workload.RevisionText(rng, 1024))
	}
	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sec, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	s, err := Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Keep writing while the snapshot streams: these land in the lenient
	// window.
	for i := 60; i < 120; i++ {
		prim.Insert(fmt.Sprintf("db%d", i%dbs), fmt.Sprintf("k%03d", i), workload.RevisionText(rng, 1024))
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	resyncs, records := s.Resyncs()
	if resyncs == 0 || records == 0 {
		t.Fatalf("expected a snapshot resync (resyncs %d, records %d)", resyncs, records)
	}
	for i := 0; i < 120; i++ {
		db, key := fmt.Sprintf("db%d", i%dbs), fmt.Sprintf("k%03d", i)
		want, err := prim.Read(db, key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sec.Read(db, key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s/%s diverged after resync: %v", db, key, err)
		}
	}
}

// fetchTestServer is a scriptable stand-in for the primary's fetch
// endpoint: behaviors[i] governs the i-th accepted connection.
type fetchBehavior int

const (
	fetchServe           fetchBehavior = iota // handshake, then answer every request
	fetchDropImmediately                      // close the connection on accept
	fetchHang                                 // read requests, never reply
)

func startFetchServer(t *testing.T, content []byte, behaviors ...fetchBehavior) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			behavior := fetchServe
			if i < len(behaviors) {
				behavior = behaviors[i]
			}
			go func(conn net.Conn, behavior fetchBehavior) {
				defer conn.Close()
				if behavior == fetchDropImmediately {
					return
				}
				fr := &frameReader{r: conn}
				fw := &frameWriter{w: conn}
				typ, payload, err := fr.read()
				if h, ok := readHello(payload); err != nil || typ != frameHello || !ok || h.mode != helloFetch {
					return
				}
				for {
					typ, _, err := fr.read()
					if err != nil || typ != frameFetch {
						return
					}
					if behavior == fetchHang {
						continue // swallow the request, never reply
					}
					if _, err := fw.write(frameRecord, appendStamped(nil, node.Stamped{Stamp: 1, Present: true, Content: content})); err != nil {
						return
					}
				}
			}(conn, behavior)
		}
	}()
	return ln.Addr().String()
}

// testFetchClient is a fetch client outside a Secondary: TCP, its own
// counters, and a 1ms backoff that never sees a Close.
func testFetchClient(addr string, timeout time.Duration, meter *metrics.Meter) *fetchClient {
	return &fetchClient{addr: addr, timeout: timeout, network: netsim.Default,
		rm: &metrics.ReplMetrics{}, bytesIn: meter,
		backoff:  func(int) bool { time.Sleep(time.Millisecond); return true },
		position: func() (uint64, uint64) { return 1, 0 }}
}

// TestFetchClientTimeoutOnHungPrimary: a primary that accepts the fetch
// connection but never answers must not stall an apply worker forever — the
// configured deadline ends each round-trip, and the fetch redials until a
// connection is answered.
func TestFetchClientTimeoutOnHungPrimary(t *testing.T) {
	var meter metrics.Meter
	want := []byte("answered on the third connection")
	addr := startFetchServer(t, want, fetchHang, fetchHang, fetchServe)
	c := testFetchClient(addr, 150*time.Millisecond, &meter)
	start := time.Now()
	got, err := c.fetch("db", "key")
	elapsed := time.Since(start)
	if err != nil || !bytes.Equal(got.Content, want) {
		t.Fatalf("fetch after two hung round trips: %q, %v", got.Content, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("fetch took %v; deadline not enforced", elapsed)
	}
	if dials := c.rm.Dials.Total(); dials != 3 {
		t.Fatalf("dials = %d, want 3 (one per round trip)", dials)
	}
}

// TestFetchClientReconnectRetry: a transport failure on the fetch
// connection (here: the primary drops it on accept) must trigger a
// reconnect-and-retry, so a single broken connection does not fail an
// otherwise healthy apply.
func TestFetchClientReconnectRetry(t *testing.T) {
	var meter metrics.Meter
	want := []byte("the full record content")
	addr := startFetchServer(t, want, fetchDropImmediately, fetchServe)
	c := testFetchClient(addr, time.Second, &meter)
	got, err := c.fetch("db", "key")
	if err != nil {
		t.Fatalf("fetch did not recover via reconnect: %v", err)
	}
	if !bytes.Equal(got.Content, want) {
		t.Fatalf("fetched %q, want %q", got.Content, want)
	}
	if meter.Total() == 0 {
		t.Error("fetch bytes not metered")
	}
}

// TestSecondaryReconnectResumeAtPhase severs the replication connection at
// each protocol phase — during the handshake, mid-batch, mid-snapshot, and
// after the secondary has fully caught up — and asserts the secondary
// reconnects, resumes from the right point, and applies nothing twice (an
// exact insert count; a double-applied insert would poison the pool as a
// duplicate key).
func TestSecondaryReconnectResumeAtPhase(t *testing.T) {
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("record %04d: some content bytes that pad the record out a little", i))
	}
	cases := []struct {
		name     string
		preOps   int // inserts before the secondary connects
		oplogCap int // 0 = ample; small forces a snapshot on connect
		// cut selects the one chunk to sever; nil = cut after catch-up
		// (the post-ack phase). Conn 0 is the initial stream connection;
		// toClient index 0 is the epoch frame, or a snapshot's begin frame.
		cut        func(netsim.ChunkInfo) bool
		postOps    int
		wantResync bool // a forced-resync hello must have been sent
	}{
		{name: "handshake", preOps: 20, postOps: 10,
			// Sever the hello itself: the write "succeeds" but the frame
			// arrives truncated, so the session dies before streaming.
			cut: func(ci netsim.ChunkInfo) bool { return ci.ToServer && ci.Conn == 0 && ci.Index == 0 }},
		{name: "mid-batch", preOps: 300, postOps: 10,
			// 300 entries stream as a 256-batch then a 44-batch; sever the
			// second, so resume must continue from seq 256 exactly.
			cut: func(ci netsim.ChunkInfo) bool { return !ci.ToServer && ci.Conn == 0 && ci.Index == 2 }},
		{name: "mid-snapshot", preOps: 200, oplogCap: 16, postOps: 10, wantResync: true,
			// The truncated oplog forces a snapshot of 200 records, sent as
			// a 128-batch then a 72-batch; sever the second, so the
			// secondary holds half a snapshot at no position and the
			// reconnect hello must demand a fresh one.
			cut: func(ci netsim.ChunkInfo) bool { return !ci.ToServer && ci.Conn == 0 && ci.Index == 2 }},
		{name: "post-ack", preOps: 50, postOps: 10},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sim := netsim.NewSim(1)
			nopts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: c.oplogCap}
			nopts.Engine.GovernorWindow = 1 << 30
			prim, err := node.Open(nopts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { prim.Close() })
			sopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
			sopts.Engine.GovernorWindow = 1 << 30
			sec, err := node.Open(sopts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sec.Close() })

			for i := 0; i < c.preOps; i++ {
				if err := prim.Insert("db", fmt.Sprintf("k%04d", i), payload(i)); err != nil {
					t.Fatal(err)
				}
			}
			cutOnce := func(match func(netsim.ChunkInfo) bool) {
				done := false
				sim.SetFaults(func(ci netsim.ChunkInfo) netsim.Verdict {
					if !done && match(ci) {
						done = true
						return netsim.Verdict{Cut: true}
					}
					return netsim.Verdict{}
				})
			}
			if c.cut != nil {
				cutOnce(c.cut)
			}

			p, err := ListenAndServeNetwork(prim, "primary", sim)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			s, err := ConnectNetwork(sec, p.Addr(), sim)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })

			if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
				t.Fatalf("catch-up: %v", err)
			}
			if c.cut == nil {
				// Post-ack phase: the secondary is fully caught up and the
				// stream is idle; sever the next heartbeat.
				cutOnce(func(ci netsim.ChunkInfo) bool { return !ci.ToServer })
				deadline := time.Now().Add(5 * time.Second)
				for s.Metrics().Reconnects.Total() == 0 {
					if time.Now().After(deadline) {
						t.Fatal("post-ack cut never forced a reconnect")
					}
					time.Sleep(time.Millisecond)
				}
			}

			for i := 0; i < c.postOps; i++ {
				if err := prim.Insert("db", fmt.Sprintf("post%04d", i), payload(1000+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
				t.Fatalf("post-recovery convergence: %v", err)
			}

			rm := s.Metrics()
			if rm.Reconnects.Total() < 1 {
				t.Error("secondary never reconnected")
			}
			if c.wantResync && rm.ForcedResyncs.Total() == 0 {
				t.Error("mid-snapshot death did not force a resync hello")
			}
			// Exactly-once: every insert applied once, none twice (a
			// double-apply would also have poisoned the pool above).
			want := uint64(c.preOps + c.postOps)
			if got := sec.Stats().Inserts; got != want {
				t.Errorf("secondary Inserts = %d, want exactly %d", got, want)
			}
			for _, key := range []string{"k0000", fmt.Sprintf("k%04d", c.preOps-1), "post0000"} {
				pv, perr := prim.Read("db", key)
				sv, serr := sec.Read("db", key)
				if perr != nil || serr != nil || !bytes.Equal(pv, sv) {
					t.Errorf("key %s diverged after resume: %v/%v", key, perr, serr)
				}
			}
			if rep := sec.VerifyAll(); !rep.Ok() {
				t.Errorf("secondary verify after resume: %v", rep.Errors)
			}
		})
	}
}

// staleSecondary syncs sec from a fresh primary holding stale "gone" keys and
// one "kept" key, disconnects it, and deletes every gone key on the primary.
// The deletes push the returned cursor out of the 8-entry oplog window, so
// the secondary's next session is a snapshot that lacks every gone key and
// must reconcile them away; target is the primary's last sequence number.
func staleSecondary(t *testing.T, sec *node.Node, stale int) (prim *node.Node, p *Primary, cursor, epoch, target uint64) {
	t.Helper()
	prim, err := node.Open(node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })
	if p, err = ListenAndServe(prim, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for i := 0; i < stale; i++ {
		if err := prim.Insert("db", goneKey(i), []byte(goneKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Insert("db", "kept", []byte("survives the resync")); err != nil {
		t.Fatal(err)
	}
	s, err := Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	cursor, epoch = s.AppliedSeq(), s.Epoch()
	s.Close()
	for i := 0; i < stale; i++ {
		if err := prim.Delete("db", goneKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	return prim, p, cursor, epoch, prim.Oplog().LastSeq()
}

func goneKey(i int) string { return fmt.Sprintf("gone%05d", i) }

// waitApplied spins until the secondary's applied mark reaches target; a
// reader polling this closely lands inside any window the mark opens early.
func waitApplied(t *testing.T, s *Secondary, target uint64) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); s.AppliedSeq() < target; runtime.Gosched() {
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied seq %d never reached %d", s.AppliedSeq(), target)
		}
	}
}

// TestResyncReconcilesBeforeRebase pins the order of the two steps that end
// a snapshot resync. Records the primary deleted while the secondary was
// disconnected are removed by reconciliation; the applied low-water mark must
// not reach the snapshot position until that is done, or WaitForSeq callers
// read records the mark says are gone. Thousands of stale keys make the
// reconcile pass long enough that a reader polling the mark always lands
// inside it if the order is wrong.
func TestResyncReconcilesBeforeRebase(t *testing.T) {
	sec, err := node.Open(node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	const stale = 4000
	_, p, cursor, epoch, target := staleSecondary(t, sec, stale)
	s, err := connect(sec, p.Addr(), cursor, epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitApplied(t, s, target)
	// The mark covers every delete: none of their records may be visible.
	visible := 0
	for i := 0; i < stale; i++ {
		if sec.Has("db", goneKey(i)) {
			visible++
		}
	}
	if visible > 0 {
		t.Fatalf("applied seq reached %d with %d of %d deleted records still readable", target, visible, stale)
	}
	if got, err := sec.Read("db", "kept"); err != nil || string(got) != "survives the resync" {
		t.Fatalf("kept record after resync: %q, %v", got, err)
	}
	if resyncs, _ := s.Resyncs(); resyncs != 1 {
		t.Fatalf("second session resyncs = %d, want 1 (the window must force a snapshot)", resyncs)
	}
}

// TestResyncReconcileFailureIsRetried pins what a failed reconcile means: the
// snapshot is not applied. The secondary's disk refuses one write while the
// reconcile pass is deleting what the snapshot did not carry (its tombstones
// are the only thing that fills blocks in the second session: the snapshot is
// one small record and blocks are 128 bytes), so the pass ends on that error
// with stale records left. The applied mark must not reach the snapshot
// position over them; the next connection asks for a fresh snapshot, and only
// the reconcile that completes moves the mark.
func TestResyncReconcileFailureIsRetried(t *testing.T) {
	mem := faultfs.NewMemFS()
	sopts := node.Options{SyncEncode: true, DisableAutoFlush: true, Dir: "sec", FS: mem, BlockSize: 128}
	sec, err := node.Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	prim, p, cursor, epoch, target := staleSecondary(t, sec, 400)
	if err := sec.Close(); err != nil {
		t.Fatal(err)
	}
	// The secondary comes back on a disk whose first write fails.
	inj := faultfs.NewInjector(mem, 1, faultfs.FailWrite(1))
	sopts.FS = inj
	if sec, err = node.Open(sopts); err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	s, err := connect(sec, p.Addr(), cursor, epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Whenever the mark is seen at the target, the reconcile that got there
	// must be the second one: the first met the fault.
	waitApplied(t, s, target)
	if len(inj.Events()) != 1 {
		t.Fatalf("faults fired: %v, want the one failed write", inj.Events())
	}
	if resyncs, _ := s.Resyncs(); resyncs != 2 {
		t.Fatalf("applied seq reached %d after %d snapshots, want 2: the mark moved over a failed reconcile", target, resyncs)
	}
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("secondary differs from the primary after the retried resync: %v", vs)
	}
	if rep := sec.VerifyAll(); !rep.Ok() {
		t.Fatalf("secondary verify: %s", rep)
	}
}

// TestRestartedSecondaryAsksForASnapshot: a secondary that comes back on its
// disk with no cursor holds what an earlier session applied. While the
// primary's oplog still reaches back to sequence 1, streaming from zero
// replayed the inserts of keys it already had and the stream ended on
// "replicated insert of existing key" (the fault driver's restart class found
// this); it must ask for a snapshot instead, and the reconcile then also
// removes what the primary deleted while it was down.
func TestRestartedSecondaryAsksForASnapshot(t *testing.T) {
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	nopts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(nopts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sopts := nopts
	sopts.Dir, sopts.FS = "secondary", faultfs.NewMemFS()
	session := func() (*node.Node, *Secondary) {
		sec, err := node.Open(sopts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Connect(sec, p.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return sec, s
	}

	rng := rand.New(rand.NewSource(9))
	content := workload.RevisionText(rng, 2048)
	for i := 0; i < 10; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 1, 40)
	}
	sec, s := session()
	waitApplied(t, s, prim.Oplog().LastSeq())
	s.Close()
	if err := sec.Close(); err != nil {
		t.Fatal(err)
	}

	if err := prim.Delete("wiki", "v3"); err != nil {
		t.Fatal(err)
	}
	sec, s = session()
	defer sec.Close()
	defer s.Close()
	waitApplied(t, s, prim.Oplog().LastSeq())
	if n, _ := s.Resyncs(); n != 1 {
		t.Fatalf("restarted secondary took %d snapshots, want 1", n)
	}
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("restarted secondary differs from its primary: %v", vs)
	}
}

// TestRestartedPrimarySnapshotsACursorlessFollower attaches a new, empty
// follower with no cursor to a primary reopened on its store. The reopened
// primary's oplog starts at 1 and holds nothing of what the store held, so
// streaming from cursor 0 would deliver only post-restart writes while
// WaitForSeq reported the follower caught up. The primary answers it with a
// snapshot, taken here before any post-restart write (the snapshot's cursor
// is 0 too), and then streams from it without taking another.
func TestRestartedPrimarySnapshotsACursorlessFollower(t *testing.T) {
	popts := node.Options{SyncEncode: true, DisableAutoFlush: true, Dir: "primary", FS: faultfs.NewMemFS()}
	popts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(popts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	content := workload.RevisionText(rng, 2048)
	for i := 0; i < 10; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 1, 40)
	}
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	if prim, err = node.Open(popts); err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	sopts.Engine.GovernorWindow = 1 << 30
	sec, err := node.Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Close()
	s, err := Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for deadline := time.Now().Add(5 * time.Second); !s.snapshotApplied(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			_, rerr := sec.Read("wiki", "v0")
			t.Fatalf("no snapshot applied; a pre-restart record reads %v", rerr)
		}
	}
	time.Sleep(50 * time.Millisecond) // a primary re-snapshotting cursor 0 would by now
	if n, _ := s.Resyncs(); n != 1 {
		t.Fatalf("follower took %d snapshots before any new write, want 1", n)
	}

	if err := prim.Insert("wiki", "after-restart", content); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, prim.Oplog().LastSeq())
	if n, _ := s.Resyncs(); n != 1 {
		t.Fatalf("follower took %d snapshots, want 1", n)
	}
	if vs := histcheck.Equal(histcheck.NodeView{Node: prim}, histcheck.NodeView{Node: sec}); len(vs) != 0 {
		t.Fatalf("follower of the restarted primary differs from it: %v", vs)
	}
}
