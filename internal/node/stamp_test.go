package node

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

// stampRig is a node under test that is either a primary taking client
// operations or a secondary applying what a primary logged for the same ones.
type stampRig struct {
	t       *testing.T
	prim, n *Node // n is prim in the primary role
	shipped uint64
}

func newStampRig(t *testing.T, replica bool) *stampRig {
	// Pure backward chains: inserting v(i+1) queues exactly one write-back,
	// "store v(i) as a delta against v(i+1)".
	opts := Options{Engine: core.Config{Scheme: chain.Backward}}
	r := &stampRig{t: t, prim: testNode(t, opts)}
	r.n = r.prim
	if replica {
		r.n = testNode(t, opts)
	}
	return r
}

// do runs op on the primary and, in the replica role, applies the entries it
// logged to the node under test.
func (r *stampRig) do(op func(p *Node) error) {
	r.t.Helper()
	if err := op(r.prim); err != nil {
		r.t.Fatal(err)
	}
	if r.n == r.prim {
		return
	}
	ents, err := r.prim.Oplog().EntriesSince(r.shipped, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, e := range ents {
		if err := r.n.ApplyReplicated(e); err != nil {
			r.t.Fatalf("apply seq %d: %v", e.Seq, err)
		}
		r.shipped = e.Seq
	}
}

// chain inserts revisions v<from>.. of one document and returns all contents.
func (r *stampRig) chain(contents [][]byte, upTo int, rng *rand.Rand) [][]byte {
	r.t.Helper()
	for i := len(contents); i < upTo; i++ {
		c := workload.RevisionText(rng, 8192)
		if i > 0 {
			c = editText(rng, contents[i-1], 2)
		}
		contents = append(contents, c)
		r.do(func(p *Node) error { return p.Insert("wiki", fmt.Sprintf("v%d", i), c) })
	}
	return contents
}

// check flushes and compares every revision with what it must be now: its
// content (nil: deleted) and how it is stored.
func (r *stampRig) check(contents [][]byte, forms string, skipped uint64) {
	r.t.Helper()
	n := r.n
	before := n.Stats().WritebacksSkipped
	n.FlushWritebacks(-1)
	if got := n.Stats().WritebacksSkipped - before; got != skipped {
		r.t.Errorf("flush skipped %d write-backs, want %d", got, skipped)
	}
	for i, want := range contents {
		key := fmt.Sprintf("v%d", i)
		got, err := n.Read("wiki", key)
		if want == nil {
			if !errors.Is(err, ErrNotFound) {
				r.t.Errorf("%s: deleted, yet Read = %d bytes, %v", key, len(got), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			r.t.Errorf("%s: Read = %d bytes, %v; want its %d bytes", key, len(got), err, len(want))
			continue
		}
		id, _ := n.lookup("wiki", key)
		m, _ := n.store.Meta(id)
		if wantDelta := forms[i] == 'd'; (m.Form == docstore.FormDelta) != wantDelta {
			r.t.Errorf("%s: stored with form %d, want delta=%v (forms %q)", key, m.Form, wantDelta, forms)
		}
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		r.t.Errorf("verify: %s", rep)
	}
	verifyRefcounts(r.t, n)
	verifyNamed(r.t, n)
}

// late runs mutate while the node's pending write-backs are out of the cache
// and puts them back after: an encoder that was accepted before the mutation
// and queued its write-backs after it. (A write-back already in the cache when
// its record is mutated never reaches the guard: the mutation drops it.)
func (r *stampRig) late(mutate func()) {
	held := r.n.wb.DrainBest(r.n.wb.Len())
	mutate()
	for _, wb := range held {
		r.n.wb.Add(wb)
	}
}

// TestStaleWritebackUnderOneStamp mutates a record between the encode that
// computed a write-back and the flush that would apply it. The write-back must
// be skipped whenever the record it rewrites or the base it points at was
// updated or deleted since, which the validity rule (asInserted) decides from
// the key alone; the mutations here leave contents byte-identical (an update
// to the same bytes) or remove the record, so nothing that compared contents
// could have stopped them. On a primary the operations are client calls, on a
// replica the oplog entries a primary logged for them.
func TestStaleWritebackUnderOneStamp(t *testing.T) {
	same := func(key string, contents [][]byte, i int) func(*Node) error {
		return func(p *Node) error { return p.Update("wiki", key, contents[i]) }
	}
	for _, role := range []string{"primary", "replica"} {
		replica := role == "replica"
		// Six revisions, nothing flushed: write-backs (v0→v1) … (v4→v5) pending.
		start := func(t *testing.T) (*stampRig, [][]byte) {
			r := newStampRig(t, replica)
			contents := r.chain(nil, 6, rand.New(rand.NewSource(7)))
			if got := r.n.PendingWritebacks(); got != 5 {
				t.Fatalf("%d write-backs pending after 6 revisions, want 5", got)
			}
			return r, contents
		}
		t.Run(role+"/update of the record and of a base", func(t *testing.T) {
			r, contents := start(t)
			r.late(func() { r.do(same("v2", contents, 2)) }) // the record of (v2→v3), the base of (v1→v2)
			r.check(contents, "drrddr", 2)
		})
		t.Run(role+"/delete reclaims the record and a base", func(t *testing.T) {
			r, contents := start(t)
			r.late(func() { r.do(func(p *Node) error { return p.Delete("wiki", "v2") }) })
			contents[2] = nil
			r.check(contents, "dr-ddr", 2)
		})
		t.Run(role+"/delete hides, repair reclaims", func(t *testing.T) {
			r, contents := start(t)
			r.n.FlushWritebacks(-1) // v0→v1→…→v5, v5 raw
			contents = r.chain(contents, 7, rand.New(rand.NewSource(8)))
			if got := r.n.PendingWritebacks(); got != 1 {
				t.Fatalf("%d write-backs pending after the seventh revision, want (v5→v6)", got)
			}
			v5, _ := r.n.lookup("wiki", "v5")
			r.late(func() {
				r.do(func(p *Node) error { return p.Delete("wiki", "v5") }) // v4 decodes through it: hidden
				contents[5] = nil
				if m, ok := r.n.store.Meta(v5); !ok || !m.Hidden {
					t.Fatalf("v5 after its delete: %+v, %v; want hidden", m, ok)
				}
				// Reading v4 splices it past v5, whose last reference that was.
				if got, err := r.n.Read("wiki", "v4"); err != nil || !bytes.Equal(got, contents[4]) {
					t.Fatalf("v4 through hidden v5: %v", err)
				}
				if _, ok := r.n.store.Meta(v5); ok {
					t.Fatal("v5 not reclaimed by the repair of v4")
				}
			})
			r.check(contents, "ddddr-r", 1)
		})
	}
}

// TestUpdatedRecordIsNeverRebased: v0 decodes through v1, and v2, a revision
// of v1, queues "store v1 as a delta against v2", computed from v1's insert
// content. v1's update lands while that write-back is out of the cache, as
// from an encode that chose v1 before the update (once v1 is updated, the
// engine passes over it): the key gets a new record holding the update, and
// v1's old record stays hidden for v0. The delete of v0 then reclaims it. The
// flush must leave v1 reading its update.
func TestUpdatedRecordIsNeverRebased(t *testing.T) {
	for _, role := range []string{"primary", "replica"} {
		t.Run(role, func(t *testing.T) {
			r, contents := updatedThenReclaimed(t, role == "replica")
			r.check(contents, "-rr", uint64(r.n.PendingWritebacks()))
		})
	}
}

// updatedThenReclaimed runs TestUpdatedRecordIsNeverRebased up to its flush
// and returns what each revision must read then (nil: deleted).
func updatedThenReclaimed(t *testing.T, replica bool) (*stampRig, [][]byte) {
	r := newStampRig(t, replica)
	rng := rand.New(rand.NewSource(8016))
	contents := r.chain(nil, 2, rng)
	r.do(func(p *Node) error { p.FlushWritebacks(-1); return nil })
	r.n.FlushWritebacks(-1)
	if r.n.RefCount("wiki", "v1") == 0 {
		t.Fatal("premise: v0 does not decode through v1")
	}
	upd, v2 := editText(rng, contents[1], 1), editText(rng, contents[1], 2)
	r.do(func(p *Node) error { return p.Insert("wiki", "v2", v2) })
	id, _ := r.n.lookup("wiki", "v1")
	r.late(func() { r.do(func(p *Node) error { return p.Update("wiki", "v1", upd) }) })
	pending := r.n.wb.DrainBest(r.n.wb.Len())
	for _, wb := range pending {
		r.n.wb.Add(wb)
	}
	if m, _ := r.n.store.Meta(id); !m.Hidden || len(pending) != 1 || pending[0].ID != id {
		t.Fatalf("premise: v1's old record %d hidden %v, %d write-backs pending; want hidden, (v1→v2)",
			id, m.Hidden, len(pending))
	}
	r.do(func(p *Node) error { return p.Delete("wiki", "v0") })
	if _, ok := r.n.store.Meta(id); ok {
		t.Fatal("premise: v1's old record outlived its last reference")
	}
	return r, [][]byte{nil, upd, v2}
}

// TestStampUnderConcurrentMutation runs the encoder pool, client updates and
// deletes and the write-back flusher against each other on one document's
// revisions, then checks that every key reads what its last writer left, every
// chain decodes, the reference counts add up and every record its key does not
// name is hidden.
func TestStampUnderConcurrentMutation(t *testing.T) {
	n, err := Open(Options{DisableAutoFlush: true, EncodeWorkers: 2,
		Engine: core.Config{GovernorWindow: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const revisions = 60
	var inserted atomic.Int64
	var wg sync.WaitGroup
	final := make([][]byte, revisions) // written by the inserter, then by the mutator alone
	deleted := make([]bool, revisions)

	wg.Add(3)
	go func() { // inserter
		defer wg.Done()
		rng := rand.New(rand.NewSource(21))
		c := workload.RevisionText(rng, 4096)
		for i := 0; i < revisions; i++ {
			final[i] = c
			if err := n.Insert("wiki", fmt.Sprintf("v%d", i), c); err != nil {
				t.Error(err)
				return
			}
			inserted.Store(int64(i + 1))
			c = editText(rng, c, 2)
		}
	}()
	go func() { // mutator: the only writer of a key once it is inserted
		defer wg.Done()
		rng := rand.New(rand.NewSource(22))
		for inserted.Load() < revisions {
			have := int(inserted.Load())
			if have < 2 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			i := rng.Intn(have - 1) // never the newest: its content is the inserter's still
			key := fmt.Sprintf("v%d", i)
			switch {
			case deleted[i]:
			case rng.Intn(3) == 0:
				if err := n.Delete("wiki", key); err != nil {
					t.Errorf("delete %s: %v", key, err)
				}
				deleted[i] = true
			default:
				c := editText(rng, final[i], 1)
				if err := n.Update("wiki", key, c); err != nil {
					t.Errorf("update %s: %v", key, err)
				}
				final[i] = c
			}
		}
	}()
	go func() { // flusher
		defer wg.Done()
		for inserted.Load() < revisions {
			n.FlushWritebacks(4)
		}
	}()
	wg.Wait()
	n.Barrier()
	n.FlushWritebacks(-1)

	for i := range final {
		got, err := n.Read("wiki", fmt.Sprintf("v%d", i))
		if deleted[i] {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("v%d: deleted, yet Read = %d bytes, %v", i, len(got), err)
			}
		} else if err != nil || !bytes.Equal(got, final[i]) {
			t.Errorf("v%d: Read = %d bytes, %v; want the %d its last writer left", i, len(got), err, len(final[i]))
		}
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Errorf("verify: %s", rep)
	}
	verifyRefcounts(t, n)
	verifyNamed(t, n)
}

// TestFailedMutationChangesNothing makes the store refuse the write of a delete
// or an update, at each entrance the two have: a client call, a replicated
// entry, the delete a Retain pass stops on, the update an Upsert turns into.
// The write refused is the tombstone of a record nothing decodes through or
// the hidden form of one something does, behind an update's new record. The
// error must come back with the key still reading the record, nothing counted
// or logged and the encoder token returned, with SyncEncode and
// without, and what a reopen finds on disk must be what the node
// said before it: the record. A retry then goes through for good. (A delete
// used to unpublish its key first, so the key was gone until the next restart
// and back after it. An update used to stamp, count and queue its oplog job
// first: behind the pool the entry was logged, and a secondary applied an
// update its primary did not hold.)
func TestFailedMutationChangesNothing(t *testing.T) {
	type entrance struct {
		name   string
		update bool
		do     func(n *Node, key string, content []byte) error
	}
	entrances := []entrance{
		{"delete/client", false, func(n *Node, key string, _ []byte) error { return n.Delete("db", key) }},
		{"delete/replicated", false, func(n *Node, key string, _ []byte) error {
			return n.ApplyReplicated(oplog.Entry{Op: oplog.OpDelete, DB: "db", Key: key})
		}},
		{"delete/retain", false, func(n *Node, key string, _ []byte) error {
			_, err := n.Retain("db", func(k string) bool { return k != key }, true)
			return err
		}},
		{"update/client", true, func(n *Node, key string, c []byte) error { return n.Update("db", key, c) }},
		{"update/replicated", true, func(n *Node, key string, c []byte) error {
			return n.ApplyReplicated(oplog.Entry{Op: oplog.OpUpdate, DB: "db", Key: key, Payload: c})
		}},
		{"update/upsert", true, func(n *Node, key string, c []byte) error { return n.Upsert("db", key, c, true) }},
	}
	for _, e := range entrances {
		for _, referenced := range []bool{false, true} {
			for _, syncEncode := range []bool{true, false} {
				name := fmt.Sprintf("%s/referenced=%v/sync=%v", e.name, referenced, syncEncode)
				t.Run(name, func(t *testing.T) { failedMutation(t, e.update, e.do, referenced, syncEncode) })
			}
		}
	}
}

func failedMutation(t *testing.T, update bool, do func(n *Node, key string, content []byte) error, referenced, syncEncode bool) {
	mem := faultfs.NewMemFS()
	opts := Options{Dir: "n", FS: mem, BlockSize: 128, SyncEncode: syncEncode, DisableAutoFlush: true,
		EncodeWorkers: 1, Engine: core.Config{GovernorWindow: 1 << 30, Scheme: chain.Backward}}
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	v0 := workload.RevisionText(rng, 4096)
	v1 := editText(rng, v0, 2)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(n.Insert("db", "v0", v0))
	must(n.Insert("db", "v1", v1))
	n.Barrier()
	key, want := "v1", v1
	if referenced {
		if n.FlushWritebacks(-1) != 1 || n.RefCount("db", "v1") != 1 {
			t.Fatal("v0 was not re-encoded against v1")
		}
	}
	must(n.Close())
	after := []byte(nil) // what the key reads once the mutation went through; nil: nothing
	if update {
		after = editText(rng, v1, 1)
	}

	// Reopen on a disk whose first write fails. A record larger than a
	// block fills it; the sealer meets the fault and leaves the error for
	// the next append, which will be the mutation's.
	opts.FS = faultfs.NewInjector(mem, 1, faultfs.FailWrite(1))
	if n, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	must(n.Insert("db", "filler", workload.RevisionText(rng, 1024)))
	n.Barrier()
	// A compaction pass starts by waiting for the sealer; with one
	// segment it then finds no victim and leaves the error where it is.
	if _, err := n.Store().Compact(); err != nil || n.Stats().Store.SealErrors != 1 {
		t.Fatalf("waiting for the sealer: %v, %d seal errors, want the one injected", err, n.Stats().Store.SealErrors)
	}
	stats, logged := n.Stats(), n.Oplog().LastSeq()

	if err := do(n, key, after); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("on a failing disk = %v, want the injected error", err)
	}
	n.Barrier()
	if got, err := n.Read("db", key); err != nil || !bytes.Equal(got, want) {
		t.Errorf("after the failed mutation the key reads %d bytes, %v; want the record", len(got), err)
	}
	if got, err := n.Read("db", "v0"); err != nil || !bytes.Equal(got, v0) {
		t.Errorf("v0 after the failed mutation: %d bytes, %v", len(got), err)
	}
	if st := n.Stats(); st.Deletes != stats.Deletes || st.Updates != stats.Updates || n.Oplog().LastSeq() != logged {
		t.Errorf("the failed mutation was counted (deletes %d → %d, updates %d → %d) or logged (seq %d → %d)",
			stats.Deletes, st.Deletes, stats.Updates, st.Updates, logged, n.Oplog().LastSeq())
	}
	n.mu.RLock()
	assigned := n.opSeq
	n.mu.RUnlock()
	if assigned != logged {
		t.Errorf("the failed mutation took a sequence number: %d assigned, %d logged", assigned, logged)
	}
	if held := len(n.pool.shardFor("db").sem); held != 0 {
		t.Errorf("the failed mutation kept %d encoder tokens", held)
	}
	must(n.Close())

	opts.FS = mem
	if n, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	if got, err := n.Read("db", key); err != nil || !bytes.Equal(got, want) {
		t.Errorf("after a restart the key reads %d bytes, %v; want the record the node kept serving", len(got), err)
	}
	must(do(n, key, after))
	must(n.Close())
	if n, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got, err := n.Read("db", key)
	if after == nil && !errors.Is(err, ErrNotFound) {
		t.Errorf("after the delete that succeeded and a restart: %v, want not found", err)
	} else if after != nil && (err != nil || !bytes.Equal(got, after)) {
		t.Errorf("after the update that succeeded and a restart the key reads %d bytes, %v; want the update", len(got), err)
	}
	if got, err := n.Read("db", "v0"); err != nil || !bytes.Equal(got, v0) {
		t.Errorf("v0 at the end: %d bytes, %v", len(got), err)
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Errorf("verify: %s", rep)
	}
	verifyRefcounts(t, n)
	verifyNamed(t, n)
}

// TestOpenDecodesEachBlockOnce: opening a node over a sealed, compressed store
// decodes what the store's replay decodes and nothing more. Listing the
// records to rebuild keys and reference counts used to Get every one of them,
// inflating most blocks a second time.
func TestOpenDecodesEachBlockOnce(t *testing.T) {
	mem := faultfs.NewMemFS()
	// Dedup off: every revision stays a raw record in a block of its own, so
	// the live records span far more blocks than the cache replay leaves warm.
	opts := Options{Dir: "n", FS: mem, BlockCompression: true, BlockSize: 4 << 10, CacheBlocks: 2,
		SyncEncode: true, DisableDedup: true}
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	insertChain(t, n, "wiki", 40, 11)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := docstore.Open(docstore.Options{Dir: "n", FS: mem, Compress: true, BlockSize: 4 << 10, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	replay := s.Stats().BlocksDecoded
	s.Close()
	if replay < 10 {
		t.Fatalf("replay decoded %d blocks; the store under test is too small to tell", replay)
	}

	if n, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Stats().Store.BlocksDecoded; got != replay {
		t.Errorf("opening the node decoded %d blocks, the store's replay alone %d", got, replay)
	}
	if st := n.Stats().Store; st.LiveRecords != 40 {
		t.Errorf("%d live records after reopen, want 40", st.LiveRecords)
	}
}

// TestStampUnderMutationRacingFlush mutates each record while the flusher is
// inside the write-back that re-encodes it: it deletes the record, updates it,
// or updates the base the write-back points it at. A write-back passes its
// guards, decodes both sides, and then appends. A delete whose tombstone landed
// in between would have the append put the record back, owned by no key,
// holding a reference on its base, and republished by the next restart; an
// update would be overwritten by the older content; an update of the still
// unreferenced base would overwrite what the record is about to decode from.
// The append is serialized with all three, so every key reads what its last
// writer left, now and after a reopen.
func TestStampUnderMutationRacingFlush(t *testing.T) {
	mem := faultfs.NewMemFS()
	opts := Options{Dir: "n", FS: mem, SyncEncode: true, DisableAutoFlush: true,
		Engine: core.Config{GovernorWindow: 1 << 30, Scheme: chain.Backward}}
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n.Close() }()
	rng := rand.New(rand.NewSource(5))
	want := map[string][]byte{}    // nil: deleted
	olds := map[uint64][2]string{} // older record of a pair → its key and the newer one's
	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			old, cur := fmt.Sprintf("r%d.%d.old", round, i), fmt.Sprintf("r%d.%d.new", round, i)
			want[old] = workload.RevisionText(rng, 16<<10)
			want[cur] = editText(rng, want[old], 2)
			if err := errors.Join(n.Insert("db", old, want[old]), n.Insert("db", cur, want[cur])); err != nil {
				t.Fatal(err)
			}
			id, _ := n.lookup("db", old)
			olds[id] = [2]string{old, cur}
		}
		// What FlushWritebacks does, with the place it has reached on show.
		held := n.wb.DrainBest(n.wb.Len())
		var at atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, wb := range held {
				at.Store(int64(j + 1))
				n.applyWriteback(wb)
			}
		}()
		raced := 0
		for j, wb := range held {
			keys, ok := olds[wb.ID]
			if !ok || want[keys[0]] == nil {
				continue // a write-back across pairs
			}
			old, cur := keys[0], keys[1]
			oldC, curC := editText(rng, want[old], 1), editText(rng, want[cur], 1)
			for at.Load() <= int64(j) {
				runtime.Gosched()
			}
			switch raced % 3 {
			case 0:
				want[old], err = nil, n.Delete("db", old)
			case 1:
				want[old], err = oldC, n.Update("db", old, oldC)
			case 2:
				want[cur], err = curC, n.Update("db", cur, curC)
			}
			if err != nil {
				t.Fatal(err)
			}
			raced++
		}
		wg.Wait()
		if raced < 8 {
			t.Fatalf("round %d: %d of 16 pairs had a write-back to race", round, raced)
		}
	}
	check := func(when string) {
		t.Helper()
		for id, keys := range olds {
			if m, ok := n.store.Meta(id); ok && !m.Hidden && want[keys[0]] == nil {
				t.Errorf("%s: deleted record %d (%s) is in the store: %+v", when, id, keys[0], m)
			}
		}
		for key, c := range want {
			got, err := n.Read("db", key)
			if c == nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: %s reads %d bytes, %v; it was deleted", when, key, len(got), err)
			} else if c != nil && (err != nil || !bytes.Equal(got, c)) {
				t.Errorf("%s: %s reads %d bytes, %v; want the %d its last writer left", when, key, len(got), err, len(c))
			}
		}
		verifyRefcounts(t, n)
	}
	check("after the race")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	check("after a restart")
}

// readGate is a filesystem that can hold one read: once armed, the next read
// of the block at offset at of a segment file waits until it is let go.
type readGate struct {
	faultfs.FS
	at    int64
	armed atomic.Bool
	held  chan struct{} // the read that found the gate armed is waiting
	letGo chan struct{}
}

func (g *readGate) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return readGateFile{f, g}, nil
}

type readGateFile struct {
	faultfs.File
	g *readGate
}

func (f readGateFile) ReadAt(p []byte, off int64) (int, error) {
	if off == f.g.at && f.g.armed.CompareAndSwap(true, false) {
		f.g.held <- struct{}{}
		<-f.g.letGo
	}
	return f.File.ReadAt(p, off)
}

// TestReadNeverSeesAStaleSourceCache: the source cache holds insert payloads
// by record ID, a read is answered from it, and the encoder can put a record's
// insert payload there after an update or a delete of the record removed it.
// The test holds a record's own insert inside the engine (Encode on a
// primary's one encoder, EncodeAsReplica on a replica), at the fetch of a hop
// base from a sealed block, after the key is published and before the engine
// caches the payload. It acknowledges a mutation of the record, then lets the
// insert go with n.mu held and reads while the cache holds the old payload,
// put back by the engine or, should it not have, by the test. Every read after
// the ack must return what was acknowledged: an update moved the key to a new
// record before the ack, so no read asks the cache for the old one. The
// mutations are a delete, an update of a record nothing decodes through ("update
// in place"; its old record gets a tombstone) and of one something does
// ("stacking update"; its old record is hidden, and reclaimed at the end). The
// names are those of the two ways an update used to be written. That the read
// returns at all is Read staying off n.mu.
func TestReadNeverSeesAStaleSourceCache(t *testing.T) {
	for _, role := range []string{"primary", "replica"} {
		for _, mutation := range []string{"update in place", "stacking update", "delete"} {
			t.Run(role+"/"+mutation, func(t *testing.T) {
				staleSourceCache(t, role == "replica", mutation)
			})
		}
	}
}

func staleSourceCache(t *testing.T, replica bool, mutation string) {
	// Hop distance 2: the third revision ends a hop, and finishing it fetches
	// the first, which the source cache has let go by then. Every 8 KiB
	// record fills a 4 KiB block by itself, so the first revision is the
	// second block of the segment (a read of the first, which holds a record
	// of another document, would be served from the segment's dictionary
	// and read nothing), and a one-block cache cannot still hold it after the
	// second revision's block was read.
	gate := &readGate{FS: faultfs.NewMemFS(), held: make(chan struct{}, 1), letGo: make(chan struct{})}
	opts := Options{Dir: "n", FS: gate, BlockSize: 4096, CacheBlocks: 1,
		EncodeWorkers: 1, DisableAutoFlush: true,
		Engine: core.Config{Scheme: chain.Hop, HopDistance: 2, GovernorWindow: 1 << 30}}
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	prim := n
	if replica {
		opts.Dir, opts.FS = "", nil
		if prim, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		defer prim.Close()
	}
	var shipped uint64
	insert := func(key string, content []byte) { // returns once n has the record; its encode may still run
		if err := prim.Insert("wiki", key, content); err != nil {
			t.Error(err)
			return
		}
		prim.Barrier()
		if !replica {
			return
		}
		ents, err := prim.Oplog().EntriesSince(shipped, 0)
		if err != nil {
			t.Error(err)
		}
		for _, e := range ents {
			if err := n.ApplyReplicated(e); err != nil {
				t.Errorf("apply seq %d: %v", e.Seq, err)
			}
			shipped = e.Seq
		}
	}
	rng := rand.New(rand.NewSource(25))
	v0 := workload.RevisionText(rng, 8192)
	v1 := editText(rng, v0, 2)
	v2 := editText(rng, v1, 2)
	insert("other", workload.RevisionText(rand.New(rand.NewSource(29)), 8192))
	if err := n.store.Flush(); err != nil {
		t.Fatal(err)
	}
	gate.at = n.store.DiskBytes()
	insert("v0", v0)
	insert("v1", v1)
	if err := n.store.Flush(); err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if insert("v2", v2); !replica {
			n.Barrier()
		}
	}()
	select {
	case <-gate.held:
	case <-time.After(10 * time.Second):
		gate.armed.Store(false) // or Close's own reads wait here for good
		t.Fatal("the insert's encode never read the first revision's block: the rig no longer holds the job inside the engine")
	}
	id, ok := n.lookup("wiki", "v2")
	if !ok {
		t.Fatal("the held insert has not published its key")
	}

	want := editText(rng, v2, 1) // nil: deleted
	switch {
	case mutation == "delete" && replica:
		err = n.ApplyReplicated(oplog.Entry{Op: oplog.OpDelete, DB: "wiki", Key: "v2"})
		want = nil
	case mutation == "delete":
		err = n.Delete("wiki", "v2")
		want = nil
	case mutation == "stacking update":
		// Nothing can decode through a record whose own insert is still being
		// encoded; make something do so by hand.
		n.applyMu.Lock()
		n.moveRefLocked(0, id)
		n.applyMu.Unlock()
		if replica {
			err = n.Upsert("wiki", "v2", want, false)
		} else {
			err = n.Update("wiki", "v2", want)
		}
	case replica:
		err = n.ApplyReplicated(oplog.Entry{Op: oplog.OpUpdate, DB: "wiki", Key: "v2", Payload: want})
	default:
		err = n.Update("wiki", "v2", want)
	}
	if err != nil {
		t.Fatalf("%s: %v", mutation, err)
	}
	check := func(when string) {
		t.Helper()
		got, err := n.Read("wiki", "v2")
		if want == nil {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: deleted, yet Read = %d bytes, %v", when, len(got), err)
			}
		} else if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: Read = %d bytes (the insert payload: %v), %v; want the acknowledged update",
				when, len(got), bytes.Equal(got, v2), err)
		}
	}
	check("insert held in the engine")

	n.mu.Lock()
	close(gate.letGo)
	cache := n.eng.SourceCache()
	for deadline := time.Now().Add(10 * time.Second); !cache.Contains(id) && (replica || n.encm.QueueDepth.Value() > 0); {
		if time.Now().After(deadline) {
			n.mu.Unlock()
			t.Fatal("the engine never finished the held insert")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if !cache.Contains(id) {
		cache.Put(id, v2)
	}
	check("insert payload back in the source cache")
	n.mu.Unlock()
	<-done
	check("insert finished")

	if mutation == "stacking update" {
		n.applyMu.Lock()
		n.moveRefLocked(id, 0)
		n.applyMu.Unlock()
		if _, ok := n.store.Meta(id); ok {
			t.Error("the hidden record outlived its last reference")
		}
		check("hidden record reclaimed")
	}
	n.FlushWritebacks(-1)
	check("write-backs flushed")
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Errorf("verify: %s", rep)
	}
	verifyRefcounts(t, n)
	verifyNamed(t, n)
}

// TestWritebackRefusesChainCycle pins rebaseLocked's cycle guard: the insert
// path queues a backward write-back (older record re-encoded against the
// newer one), and meanwhile the newer record has come to decode from the
// older one. The write-back must notice the committed chain and skip —
// applying it closes a base cycle that recovery refuses to ground, silently
// dropping every record on it.
func TestWritebackRefusesChainCycle(t *testing.T) {
	dir := t.TempDir()
	// Full-size index so the insert path dedups B against A and queues
	// the A→delta(B) write-back.
	n := testNode(t, Options{Dir: dir, BlockSize: 1 << 10, SegmentSize: 8 << 10})

	rng := rand.New(rand.NewSource(17))
	docA := workload.RevisionText(rng, 1600)
	docB := editText(rng, docA, 4)
	if err := n.Insert("db", "a", docA); err != nil {
		t.Fatal(err)
	}
	if err := n.Insert("db", "b", docB); err != nil {
		t.Fatal(err)
	}
	idA, _ := n.lookup("db", "a")
	idB, _ := n.lookup("db", "b")
	if n.PendingWritebacks() == 0 {
		t.Fatal("insert path queued no write-back; the cycle scenario needs one pending")
	}

	// Commit a conversion of the newer record against the older one by
	// hand: B becomes a delta over A, A is claimed as a base.
	d := delta.Compress(docA, docB, delta.Options{})
	recB, ok, err := n.store.Get(idB)
	if err != nil || !ok {
		t.Fatalf("Get(B): ok=%v err=%v", ok, err)
	}
	recB.Form = docstore.FormDelta
	recB.BaseID = idA
	recB.Payload = d.Marshal()
	n.applyMu.Lock()
	if err := n.store.Append(recB); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.refcnt[idA]++
	n.mu.Unlock()
	n.applyMu.Unlock()

	// The pending write-back would re-encode A against B — a cycle now.
	if applied := n.FlushWritebacks(-1); applied != 0 {
		t.Fatalf("write-back closing a base cycle was applied (%d)", applied)
	}
	if n.Stats().WritebacksSkipped == 0 {
		t.Fatal("refused write-back not counted as skipped")
	}

	for key, want := range map[string][]byte{"a": docA, "b": docB} {
		if got, err := n.Read("db", key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q after refused write-back: %v", key, err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	// The decisive check: recovery can still ground every chain.
	n2, err := Open(Options{Dir: dir, BlockSize: 1 << 10, SegmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	for key, want := range map[string][]byte{"a": docA, "b": docB} {
		if got, err := n2.Read("db", key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q after reopen: %v", key, err)
		}
	}
	if rep := n2.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll after reopen: %s", rep)
	}
}
