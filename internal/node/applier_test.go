package node

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dbdedup/internal/delta"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

// TestReplicatedInsertBaseMissingAccounting is the regression test for the
// insert-counter leak: applyReplicatedInsert used to count the insert before
// it could know the delta base exists, and the ErrBaseMissing bail-out undid
// the key reservation but not the counter, so the fetch fallback's Upsert
// counted the insert a second time. (An append failure at each entrance is
// TestInsertFailureCountsNothing.)
func TestReplicatedInsertBaseMissingAccounting(t *testing.T) {
	n := testNode(t, Options{})

	e := oplog.Entry{
		Seq: 1, Op: oplog.OpInsert, DB: "db", Key: "derived",
		Form: oplog.FormDelta, BaseKey: "never-replicated",
		Payload: delta.Compress([]byte("base content"), []byte("derived content"), delta.Options{}).Marshal(),
	}
	err := n.ApplyReplicated(e)
	if !errors.Is(err, ErrBaseMissing) {
		t.Fatalf("ApplyReplicated = %v, want ErrBaseMissing", err)
	}
	if got := n.Stats().Inserts; got != 0 {
		t.Fatalf("Inserts after base-missing bail-out = %d, want 0 (counter leaked)", got)
	}
	if n.Has("db", "derived") {
		t.Fatal("key reservation not undone on base-missing bail-out")
	}

	// The replication layer's fallback: fetch the full content from the
	// primary and install it as a snapshot record. Exactly one insert.
	if err := n.Upsert("db", "derived", []byte("derived content"), false); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Inserts; got != 1 {
		t.Fatalf("Inserts after fetch fallback = %d, want exactly 1", got)
	}
	got, err := n.Read("db", "derived")
	if err != nil || string(got) != "derived content" {
		t.Fatalf("Read after fallback = %q, %v", got, err)
	}
}

// TestApplierMultiDBConvergence replays a parallel primary's oplog through
// the sharded apply pool and requires byte-identical convergence: the
// per-database FIFO invariant means every forward-encoded insert must
// decode against exactly the base state the primary encoded it against,
// however the shards interleave. Runs under -race in CI.
func TestApplierMultiDBConvergence(t *testing.T) {
	prim := testNode(t, Options{})
	rng := rand.New(rand.NewSource(42))

	// Interleaved multi-database traffic: version chains (the dedup-friendly
	// shape, so most inserts ship forward-encoded), plus updates and
	// deletes mixed in.
	const dbs, versions = 6, 30
	content := make([][]byte, dbs)
	for d := range content {
		content[d] = workload.RevisionText(rng, 2048+d*256)
	}
	for v := 0; v < versions; v++ {
		for d := 0; d < dbs; d++ {
			db := fmt.Sprintf("db%02d", d)
			if err := prim.Insert(db, fmt.Sprintf("v%03d", v), content[d]); err != nil {
				t.Fatal(err)
			}
			content[d] = editText(rng, content[d], 2)
		}
		if v%7 == 3 {
			d := v % dbs
			prim.Update(fmt.Sprintf("db%02d", d), fmt.Sprintf("v%03d", v-1), workload.RevisionText(rng, 512))
		}
		if v%11 == 5 {
			d := (v + 3) % dbs
			prim.Delete(fmt.Sprintf("db%02d", d), fmt.Sprintf("v%03d", v-2))
		}
	}

	ents, err := prim.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	sec := testNode(t, Options{EncodeWorkers: 8, EncodeQueue: 16})
	ap := NewApplier(sec, 0, ApplierOptions{})
	defer ap.Close()
	for _, e := range ents {
		ap.EnqueueEntry(e, false)
	}
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := ap.LowWater(), ents[len(ents)-1].Seq; got != want {
		t.Fatalf("low-water mark = %d, want %d", got, want)
	}

	// Every record byte-identical to the primary (and absences agree).
	for d := 0; d < dbs; d++ {
		db := fmt.Sprintf("db%02d", d)
		for v := 0; v < versions; v++ {
			key := fmt.Sprintf("v%03d", v)
			want, perr := prim.Read(db, key)
			got, serr := sec.Read(db, key)
			if (perr == ErrNotFound) != (serr == ErrNotFound) {
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
	if qd := sec.ApplyMetrics().QueueDepth.Value(); qd != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", qd)
	}
	if applied := sec.ApplyMetrics().Applied.Total(); applied != int64(len(ents)) {
		t.Fatalf("applied = %d, want %d", applied, len(ents))
	}
}

// TestApplierLowWaterAndReset exercises the seq window directly: the mark
// only advances over the completed prefix, and Reset rebases it (downward)
// after a snapshot barrier.
func TestApplierLowWaterAndReset(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 4, EncodeQueue: 8})
	ap := NewApplier(sec, 5, ApplierOptions{})
	defer ap.Close()
	if got := ap.LowWater(); got != 5 {
		t.Fatalf("initial low water = %d, want 5", got)
	}
	for i := uint64(6); i <= 20; i++ {
		ap.EnqueueEntry(oplog.Entry{Seq: i, Op: oplog.OpInsert, DB: fmt.Sprintf("db%d", i%3),
			Key: fmt.Sprintf("k%d", i), Form: oplog.FormRaw,
			Payload: []byte("v")}, false)
	}
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}
	if got := ap.LowWater(); got != 20 {
		t.Fatalf("low water after drain = %d, want 20", got)
	}
	ap.Reset(3)
	if got := ap.LowWater(); got != 3 {
		t.Fatalf("low water after reset = %d, want 3", got)
	}
}

// TestApplierFailureFreezesLowWater is the regression test for the
// poisoned-drain accounting bug: run() used to mark every slot done via a
// deferred complete() — including the failed entry and everything drained
// after it — so the low-water mark advanced past entries that were never
// applied, and AppliedSeq/WaitForSeq reported success after a terminal
// apply failure. The mark must freeze at the last successfully applied
// sequence.
func TestApplierFailureFreezesLowWater(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 4, EncodeQueue: 8})
	ap := NewApplier(sec, 0, ApplierOptions{})
	defer ap.Close()

	// Seqs 1..5 apply cleanly and drain first, so the mark is
	// deterministically 5 before the failure is dispatched.
	for i := uint64(1); i <= 5; i++ {
		ap.EnqueueEntry(oplog.Entry{Seq: i, Op: oplog.OpInsert,
			DB: fmt.Sprintf("db%d", i%3), Key: fmt.Sprintf("k%d", i),
			Form: oplog.FormRaw, Payload: []byte("v")}, false)
	}
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}
	if got := ap.LowWater(); got != 5 {
		t.Fatalf("low water before failure = %d, want 5", got)
	}
	applied := sec.ApplyMetrics().Applied.Total()

	// Seq 6 fails terminally (the store rejects NUL keys); 7..12 ride in
	// behind it on various shards.
	for i := uint64(6); i <= 12; i++ {
		key := fmt.Sprintf("k%d", i)
		if i == 6 {
			key = "bad\x00key"
		}
		ap.EnqueueEntry(oplog.Entry{Seq: i, Op: oplog.OpInsert,
			DB: fmt.Sprintf("db%d", i%3), Key: key,
			Form: oplog.FormRaw, Payload: []byte("v")}, false)
	}
	ap.Barrier()
	if err := ap.Err(); err == nil {
		t.Fatal("expected a terminal apply error")
	}
	if got := ap.LowWater(); got != 5 {
		t.Fatalf("low water after failure = %d, want frozen at 5 (seq 6 never applied)", got)
	}
	m := sec.ApplyMetrics()
	if m.ApplyFailures.Total() < 1 {
		t.Fatal("ApplyFailures not counted")
	}
	// Applied counts only successful applies: the 5 from before the
	// failure, plus whichever of 7..12 beat the poison check — never the
	// failed entry itself.
	if got := m.Applied.Total(); got < applied || got > applied+6 {
		t.Fatalf("Applied = %d, want between %d and %d", got, applied, applied+6)
	}
}

// TestApplierBarrierAfterClose pins the close-safety of Barrier: a sentinel
// appended after the workers drained and exited would never be serviced, so
// a Barrier racing Close (as WaitForSeq can) used to hang forever.
func TestApplierBarrierAfterClose(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	ap := NewApplier(sec, 0, ApplierOptions{})
	ap.EnqueueEntry(oplog.Entry{Seq: 1, Op: oplog.OpInsert, DB: "db", Key: "k",
		Form: oplog.FormRaw, Payload: []byte("v")}, false)
	ap.Close()

	done := make(chan struct{})
	go func() {
		ap.Barrier()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Barrier hung on a closed pool")
	}
	if got := ap.LowWater(); got != 1 {
		t.Fatalf("low water after close = %d, want 1 (entry was accepted before Close)", got)
	}
}

// TestApplierFetchFallback verifies the worker-side base-miss fallback: the
// fetch callback supplies the full content, the insert is counted exactly
// once, and the fetch counter advances exactly once.
func TestApplierFetchFallback(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	fetched := 0
	ap := NewApplier(sec, 0, ApplierOptions{Fetch: func(db, key string) (Stamped, error) {
		fetched++
		return Stamped{Stamp: 1, Present: true, Content: []byte("fetched full content")}, nil
	}})
	defer ap.Close()

	ap.EnqueueEntry(oplog.Entry{Seq: 1, Op: oplog.OpInsert, DB: "db", Key: "orphan",
		Form: oplog.FormDelta, BaseKey: "missing",
		Payload: delta.Compress([]byte("a"), []byte("b"), delta.Options{}).Marshal()}, false)
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}
	if fetches := sec.ApplyMetrics().BaseFetches.Total(); fetched != 1 || fetches != 1 {
		t.Fatalf("fetches = %d/%d, want 1/1", fetched, fetches)
	}
	got, err := sec.Read("db", "orphan")
	if err != nil || string(got) != "fetched full content" {
		t.Fatalf("Read after fallback = %q, %v", got, err)
	}
	if got := sec.Stats().Inserts; got != 1 {
		t.Fatalf("Inserts after fallback = %d, want exactly 1", got)
	}
}

// TestApplierFetchUnavailableVanishedKey covers the delete-raced insert: a
// forward-encoded insert whose base is missing falls back to fetching, but
// the primary no longer holds the record either (it was deleted there after
// the insert was logged). The fetch answers "absent" stamped with the
// primary's number at the read, which covers the update and the delete that
// followed the insert: all three are skipped without poisoning the pool, and
// nothing is installed. A delete numbered past the stamp is not covered.
func TestApplierFetchUnavailableVanishedKey(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	ap := NewApplier(sec, 0, ApplierOptions{Fetch: func(db, key string) (Stamped, error) {
		return Stamped{Stamp: 3}, nil
	}})
	defer ap.Close()

	ap.EnqueueEntry(oplog.Entry{Seq: 1, Op: oplog.OpInsert, DB: "db", Key: "ghost",
		Form: oplog.FormDelta, BaseKey: "missing",
		Payload: delta.Compress([]byte("a"), []byte("b"), delta.Options{}).Marshal()}, false)
	ap.EnqueueEntry(oplog.Entry{Seq: 2, Op: oplog.OpUpdate, DB: "db", Key: "ghost",
		Payload: []byte("newer content")}, false)
	ap.EnqueueEntry(oplog.Entry{Seq: 3, Op: oplog.OpDelete, DB: "db", Key: "ghost"}, false)
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatalf("vanished-key sequence poisoned the pool: %v", err)
	}
	if got := ap.LowWater(); got != 3 {
		t.Fatalf("LowWater = %d, want 3 (skipped ops must still advance it)", got)
	}
	if sec.Has("db", "ghost") {
		t.Fatal("vanished key was installed")
	}
	if got := sec.Stats().Inserts; got != 0 {
		t.Fatalf("Inserts = %d, want 0 (skipped insert leaked the counter)", got)
	}

	// Past the stamp: a miss on the same key has nothing explaining it and
	// must surface as real divergence.
	ap.EnqueueEntry(oplog.Entry{Seq: 4, Op: oplog.OpDelete, DB: "db", Key: "ghost"}, false)
	ap.Barrier()
	if err := ap.Err(); err == nil {
		t.Fatal("unexplained delete of a missing key should poison the pool")
	}
}

// TestFetchFromARestartedPrimary: the base fetch reaches a restarted
// primary, which refuses it: the insert (5) is numbered in a log it no longer
// has. The delete still queued behind the insert must not poison the pool;
// the epoch-mismatch snapshot that follows restates the key, and forgets the
// cover.
func TestFetchFromARestartedPrimary(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	ap := NewApplier(sec, 4, ApplierOptions{Fetch: func(db, key string) (Stamped, error) {
		return Stamped{}, ErrFetchRefused
	}})
	defer ap.Close()
	applyOne(t, ap, oplog.Entry{Seq: 5, Op: oplog.OpInsert, DB: "db", Key: "k",
		Form: oplog.FormDelta, BaseKey: "missing",
		Payload: delta.Compress([]byte("a"), []byte("b"), delta.Options{}).Marshal()})
	applyOne(t, ap, oplog.Entry{Seq: 9, Op: oplog.OpDelete, DB: "db", Key: "k"})
	if sec.Has("db", "k") || ap.LowWater() != 9 {
		t.Fatalf("after the queued delete: present %v, LowWater %d", sec.Has("db", "k"), ap.LowWater())
	}
	snapshotInto(t, ap, "db", 3, map[string]Stamped{"k": {Stamp: 3, Present: true, Content: []byte("new log")}})
	applyOne(t, ap, oplog.Entry{Seq: 4, Op: oplog.OpUpdate, DB: "db", Key: "k", Payload: []byte("applied")})
	if got, err := sec.Read("db", "k"); err != nil || string(got) != "applied" {
		t.Fatalf("after the snapshot: %q, %v", got, err)
	}
}

// TestIdleDatabaseStampsForgotten: a snapshot stamps keys of two databases,
// then only one of them receives writes. Once those carry the low-water mark
// past every stamp, no entry still to come can be covered, and the idle
// database's stamps go with the busy one's instead of waiting for the next
// snapshot.
func TestIdleDatabaseStampsForgotten(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	ap := NewApplier(sec, 0, ApplierOptions{})
	defer ap.Close()
	ap.Barrier()
	ap.BeginSnapshot()
	ap.EnqueueSnapshotRecord("busy", "k", Stamped{Stamp: 3, Present: true, Content: []byte("busy at 3")})
	ap.EnqueueSnapshotRecord("idle", "k", Stamped{Stamp: 4, Present: true, Content: []byte("idle at 4")})
	ap.Barrier()
	if err := ap.EndSnapshot(2); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(3); seq <= 5; seq++ {
		applyOne(t, ap, oplog.Entry{Seq: seq, Op: oplog.OpUpdate, DB: "busy", Key: "k",
			Payload: []byte(fmt.Sprintf("busy at %d", seq))})
	}
	if got, err := sec.Read("busy", "k"); err != nil || string(got) != "busy at 5" {
		t.Fatalf("busy key: %q, %v", got, err)
	}
	ap.mu.Lock()
	left := len(ap.stamps)
	ap.mu.Unlock()
	if low := ap.LowWater(); low != 5 || left != 0 {
		t.Fatalf("low-water mark %d is past every stamp (4) and %d stamp entries remain; want 5 and none", low, left)
	}
}

// snapshotInto applies a snapshot of the given records to ap the way the
// replication layer does, ending at cursor.
func snapshotInto(t *testing.T, ap *Applier, db string, cursor uint64, recs map[string]Stamped) {
	t.Helper()
	ap.Barrier()
	ap.BeginSnapshot()
	for key, r := range recs {
		ap.EnqueueSnapshotRecord(db, key, r)
	}
	ap.Barrier()
	if err := ap.EndSnapshot(cursor); err != nil {
		t.Fatal(err)
	}
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}
}

// applyOne applies e through ap and fails the test on an apply error.
func applyOne(t *testing.T, ap *Applier, e oplog.Entry) {
	t.Helper()
	ap.EnqueueEntry(e, false)
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRecordNotRewound: the snapshot read the key after update u3,
// and the window replays u2 then u3. Both are reflected already, so the key
// never reads u2; u4, past the stamp, applies.
func TestSnapshotRecordNotRewound(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	ap := NewApplier(sec, 0, ApplierOptions{})
	defer ap.Close()
	snapshotInto(t, ap, "db", 1, map[string]Stamped{"k": {Stamp: 3, Present: true, Content: []byte("u3")}})
	for _, step := range []struct {
		seq  uint64
		want string
	}{{2, "u3"}, {3, "u3"}, {4, "u4"}} {
		applyOne(t, ap, oplog.Entry{Seq: step.seq, Op: oplog.OpUpdate, DB: "db", Key: "k",
			Payload: []byte(fmt.Sprintf("u%d", step.seq))})
		if got, err := sec.Read("db", "k"); err != nil || string(got) != step.want {
			t.Fatalf("after u%d the key reads %q, %v; want %q", step.seq, got, err, step.want)
		}
	}
	if got := ap.LowWater(); got != 4 {
		t.Fatalf("LowWater = %d, want 4", got)
	}
}

// TestSnapshotTombstoneNotRevived: the key was listed, then deleted before
// the scan read it, so the snapshot carries it absent at stamp 5. The
// secondary's older copy goes at once, and the window's insert and delete,
// both numbered up to 5, do not bring it back; an insert past 5 does.
func TestSnapshotTombstoneNotRevived(t *testing.T) {
	sec := testNode(t, Options{EncodeWorkers: 2})
	if err := sec.Upsert("db", "k", []byte("held before the snapshot"), false); err != nil {
		t.Fatal(err)
	}
	ap := NewApplier(sec, 0, ApplierOptions{})
	defer ap.Close()
	snapshotInto(t, ap, "db", 2, map[string]Stamped{"k": {Stamp: 5}})
	if sec.Has("db", "k") {
		t.Fatal("the snapshot's tombstone left the older copy")
	}
	applyOne(t, ap, oplog.Entry{Seq: 3, Op: oplog.OpInsert, DB: "db", Key: "k", Payload: []byte("revived")})
	if sec.Has("db", "k") {
		t.Fatal("an insert the tombstone covers revived the key")
	}
	applyOne(t, ap, oplog.Entry{Seq: 5, Op: oplog.OpDelete, DB: "db", Key: "k"})
	applyOne(t, ap, oplog.Entry{Seq: 6, Op: oplog.OpInsert, DB: "db", Key: "k", Payload: []byte("back")})
	if got, err := sec.Read("db", "k"); err != nil || string(got) != "back" {
		t.Fatalf("insert past the tombstone: %q, %v", got, err)
	}
}

// TestWindowInsertDecodesAgainstOlderBase: the snapshot read the base before
// the forward-encoded insert's number, so the base here is the one the
// primary encoded against: the insert decodes locally, without a fetch.
func TestWindowInsertDecodesAgainstOlderBase(t *testing.T) {
	prim := testNode(t, Options{})
	versions := insertChain(t, prim, "wiki", 2, 12)
	ents, err := prim.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ins := ents[1]
	if ins.Seq != 2 || ins.Form != oplog.FormDelta || ins.BaseKey != "v0" {
		t.Fatalf("premise: seq %d shipped as %v against %q, want 2, forward-encoded against v0", ins.Seq, ins.Form, ins.BaseKey)
	}
	sec := testNode(t, Options{})
	fetches := 0
	ap := NewApplier(sec, 0, ApplierOptions{Fetch: func(db, key string) (Stamped, error) {
		fetches++
		return prim.ReadStamped(db, key)
	}})
	defer ap.Close()
	snapshotInto(t, ap, "wiki", 0, map[string]Stamped{"v0": {Stamp: 1, Present: true, Content: versions[0]}})
	applyOne(t, ap, ins)
	if got, err := sec.Read("wiki", "v1"); err != nil || !bytes.Equal(got, versions[1]) {
		t.Fatalf("v1 decoded locally: equal %v, %v", bytes.Equal(got, versions[1]), err)
	}
	if got := sec.ApplyMetrics().BaseFetches.Total(); got != 0 || fetches != 0 {
		t.Fatalf("base fetches = %d (%d calls), want 0", got, fetches)
	}
}

// TestWindowInsertDecodesAgainstVisibleContent: the secondary holds v0 from
// before the snapshot, with w decoding through it. The snapshot's record of
// v0, the primary's content, is a new record under the key, and v0's old one
// stays hidden for w, whose record has not arrived yet. A window insert
// forward-encoded against v0 is decoded against what the key shows, the
// content the primary encoded against, not the hidden record, and without a
// fetch.
func TestWindowInsertDecodesAgainstVisibleContent(t *testing.T) {
	prim := testNode(t, Options{})
	versions := insertChain(t, prim, "wiki", 2, 12)
	ents, err := prim.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ins := ents[1]
	if ins.Seq != 2 || ins.Form != oplog.FormDelta || ins.BaseKey != "v0" {
		t.Fatalf("premise: seq %d shipped as %v against %q, want 2, forward-encoded against v0", ins.Seq, ins.Form, ins.BaseKey)
	}
	sec := testNode(t, Options{})
	rng := rand.New(rand.NewSource(13))
	held := workload.RevisionText(rng, 8192)
	for _, r := range []struct {
		key string
		c   []byte
	}{{"w", editText(rng, held, 2)}, {"v0", held}} {
		if err := sec.Insert("wiki", r.key, r.c); err != nil {
			t.Fatal(err)
		}
	}
	if sec.FlushWritebacks(-1) == 0 || sec.RefCount("wiki", "v0") == 0 {
		t.Fatal("premise: w does not decode through v0 on the secondary")
	}
	fetches := 0
	ap := NewApplier(sec, 0, ApplierOptions{Fetch: func(db, key string) (Stamped, error) {
		fetches++
		return prim.ReadStamped(db, key)
	}})
	defer ap.Close()
	old, _ := sec.lookup("wiki", "v0")
	ap.EnqueueSnapshotRecord("wiki", "v0", Stamped{Stamp: 1, Present: true, Content: versions[0]})
	applyOne(t, ap, ins)
	if m, ok := sec.store.Meta(old); !ok || !m.Hidden {
		t.Fatal("premise: the secondary's old v0 is not kept hidden for w")
	}
	for i, want := range versions {
		key := fmt.Sprintf("v%d", i)
		if got, err := sec.Read("wiki", key); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, %v; want its %d", key, len(got), err, len(want))
		}
	}
	if got := sec.ApplyMetrics().BaseFetches.Total(); got != 0 || fetches != 0 {
		t.Fatalf("base fetches = %d (%d calls), want 0", got, fetches)
	}
}

// TestDefaultsStand pins the values that are constants or derived rather
// than options: a default node's apply pool has GOMAXPROCS workers with
// 1024-deep queues, as its encoder pool does; the idle flusher looks every
// 10 ms; compaction starts at half the payload bytes dead; and the engine's
// deltas sample an anchor every 64 bytes.
func TestDefaultsStand(t *testing.T) {
	ap := NewApplier(testNode(t, Options{}), 0, ApplierOptions{})
	defer ap.Close()
	if len(ap.pool.shards) != runtime.GOMAXPROCS(0) || cap(ap.pool.shards[0].sem) != 1024 {
		t.Errorf("apply pool of %d shards %d deep, want GOMAXPROCS = %d of 1024",
			len(ap.pool.shards), cap(ap.pool.shards[0].sem), runtime.GOMAXPROCS(0))
	}
	// One tick runs the idle flusher and the compaction check alike.
	if tickInterval != 10*time.Millisecond || compactionTrigger != 0.5 || delta.DefaultAnchorInterval != 64 {
		t.Errorf("background tick %v, compaction trigger %v, anchor interval %d; want 10ms, 0.5, 64",
			tickInterval, compactionTrigger, delta.DefaultAnchorInterval)
	}
}
