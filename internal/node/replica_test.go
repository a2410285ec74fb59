package node

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/delta"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/oplog"
	"dbdedup/internal/workload"
)

// TestInsertFailureCountsNothing pins the accounting rule of the one insert
// routine (DESIGN.md §14): a counter moves only after the append it counts.
// Every entrance that can create a record is driven into an append failure
// (docstore.Append deterministically rejects a key containing NUL) and must
// return the error and leave no key, no count, no oplog entry and no encoder
// token behind; the same entrance with a good key then counts exactly once.
// The encoder has one worker and one queue slot, so a token that did not go
// back hangs the insert that follows.
func TestInsertFailureCountsNothing(t *testing.T) {
	base := []byte("the base record content, long enough to delta against")
	payload := []byte("twenty-three bytes long")
	replicated := func(form oplog.PayloadForm) func(n *Node, key string) error {
		return func(n *Node, key string) error {
			e := oplog.Entry{Op: oplog.OpInsert, DB: "db", Key: key, Form: form, Payload: payload}
			if form == oplog.FormDelta {
				e.BaseKey = "base"
				e.Payload = delta.Compress(base, payload, delta.Options{}).Marshal()
			}
			return n.ApplyReplicated(e)
		}
	}
	// Shed for an hour once latchOverload has run.
	shedLatch := admission.Options{ShedRaw: true, OverloadDwell: time.Hour}
	for _, tc := range []struct {
		name   string
		adm    admission.Options
		insert func(n *Node, key string) error
		emit   bool // the entrance writes an oplog entry
		shed   bool
	}{
		{name: "client Insert", emit: true,
			insert: func(n *Node, key string) error { return n.Insert("db", key, payload) }},
		{name: "client Insert under a shed latch", adm: shedLatch, emit: true, shed: true,
			insert: func(n *Node, key string) error { return n.Insert("db", key, payload) }},
		{name: "ApplyReplicated raw", insert: replicated(oplog.FormRaw)},
		{name: "ApplyReplicated forward-encoded", insert: replicated(oplog.FormDelta)},
		{name: "Upsert without emit",
			insert: func(n *Node, key string) error { return n.Upsert("db", key, payload, false) }},
		{name: "Upsert with emit", emit: true,
			insert: func(n *Node, key string) error { return n.Upsert("db", key, payload, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{EncodeWorkers: 1, EncodeQueue: 1, Admission: tc.adm}
			if tc.shed {
				opts.SimulatedEncodeDelay = latchDelay
			}
			n := asyncNode(t, opts)
			if err := n.Insert("db", "base", base); err != nil {
				t.Fatal(err)
			}
			if tc.shed {
				latchOverload(t, n, "db", "base")
			}
			n.Barrier()
			before := n.Stats()

			const badKey = "bad\x00key"
			if err := tc.insert(n, badKey); err == nil {
				t.Fatal("append of a NUL key succeeded: the injection is gone")
			}
			n.Barrier()
			after := n.Stats()
			if n.Has("db", badKey) {
				t.Error("key published for a record the store refused")
			}
			if after.Inserts != before.Inserts || after.RawInsertBytes != before.RawInsertBytes ||
				after.InsertsShedRaw != before.InsertsShedRaw {
				t.Errorf("failed insert counted: Inserts %d→%d, RawInsertBytes %d→%d, InsertsShedRaw %d→%d",
					before.Inserts, after.Inserts, before.RawInsertBytes, after.RawInsertBytes,
					before.InsertsShedRaw, after.InsertsShedRaw)
			}
			if after.Oplog.Entries != before.Oplog.Entries {
				t.Errorf("failed insert logged: oplog entries %d→%d", before.Oplog.Entries, after.Oplog.Entries)
			}
			if after.EncodeQueueDepth != 0 {
				t.Errorf("encode queue depth %d after a failed insert and a barrier", after.EncodeQueueDepth)
			}
			if tc.shed && after.Admission.Shed != before.Admission.Shed+1 {
				t.Fatalf("the failed insert was not a shed one (Admission.Shed %d→%d): the latch is not forced",
					before.Admission.Shed, after.Admission.Shed)
			}

			if err := tc.insert(n, "good"); err != nil {
				t.Fatalf("valid insert after the failed one: %v", err)
			}
			n.Barrier()
			st := n.Stats()
			if st.Inserts != before.Inserts+1 || st.RawInsertBytes != before.RawInsertBytes+int64(len(payload)) {
				t.Errorf("valid insert: Inserts %d→%d, RawInsertBytes %d→%d, want +1 and +%d",
					before.Inserts, st.Inserts, before.RawInsertBytes, st.RawInsertBytes, len(payload))
			}
			wantShed, wantLogged := before.InsertsShedRaw, before.Oplog.Entries
			if tc.shed {
				wantShed++
			}
			if tc.emit {
				wantLogged++
			}
			if st.InsertsShedRaw != wantShed || st.Oplog.Entries != wantLogged {
				t.Errorf("valid insert: InsertsShedRaw %d, oplog entries %d, want %d and %d",
					st.InsertsShedRaw, st.Oplog.Entries, wantShed, wantLogged)
			}
			if got, err := n.Read("db", "good"); err != nil || !bytes.Equal(got, payload) {
				t.Errorf("valid insert reads %q, %v", got, err)
			}
			baseID, _ := n.lookup("db", "base")
			if id, _ := n.lookup("db", "good"); id <= baseID {
				t.Errorf("record IDs not increasing: base %d, good %d", baseID, id)
			}
			if rep := n.VerifyAll(); !rep.Ok() || rep.Records != 2 {
				t.Errorf("verify after the pair: %s, want 2 clean records", rep)
			}
		})
	}
}

// latchDelay is how long latchOverload's first insert stays in the encoder.
const latchDelay = 200 * time.Millisecond

// latchOverload re-inserts key while its insert is still encoding on the
// node's one encoder (EncodeWorkers 1, SimulatedEncodeDelay latchDelay, an
// EncodeQueue of at most 2): the re-insert meets a queue at least half full,
// latches overload for the controller's OverloadDwell, and fails as a
// duplicate.
func latchOverload(t *testing.T, n *Node, db, key string) {
	t.Helper()
	if err := n.Insert(db, key, []byte("again")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("re-insert of %q: %v, want %v", key, err, ErrDuplicateKey)
	}
	if !n.Stats().Admission.Overloaded {
		t.Fatal("premise: overload not latched; the first insert had left the encode queue")
	}
}

// scanAll collects what Scan(db) yields, in the order it yields it.
func scanAll(t *testing.T, n *Node, db string) (names []string, content map[string][]byte) {
	t.Helper()
	content = make(map[string][]byte)
	_, err := n.Scan(db, func(d, key string, r Stamped) bool {
		if !r.Present {
			t.Errorf("Scan(%q): %s/%s absent with nothing deleting it", db, d, key)
		}
		names = append(names, d+"/"+key)
		content[d+"/"+key] = append([]byte(nil), r.Content...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, content
}

// TestScanUpsertRetain covers the three verbs bulk state moves through, once,
// for both of their callers (repl's snapshot resync without emit, cluster's
// shard handoff with it).
func TestScanUpsertRetain(t *testing.T) {
	t.Run("Scan yields the model in sorted order", func(t *testing.T) {
		n := testNode(t, Options{})
		model := make(map[string][]byte) // "db/key" -> visible content
		for d, db := range []string{"alpha", "beta", "gamma"} {
			for i, c := range insertChain(t, n, db, 8, int64(20+d)) {
				model[fmt.Sprintf("%s/v%d", db, i)] = c
			}
		}
		n.FlushWritebacks(-1) // older revisions become hop-encoded deltas
		if n.Stats().WritebacksApplied == 0 || n.RefCount("alpha", "v7") == 0 || n.RefCount("beta", "v7") == 0 {
			t.Fatal("premise: the chains are not delta-encoded against their heads")
		}
		// A referenced record updated or deleted is a hidden base.
		updated := []byte("client update of a decode base")
		if err := n.Update("alpha", "v7", updated); err != nil {
			t.Fatal(err)
		}
		model["alpha/v7"] = updated
		if err := n.Delete("beta", "v7"); err != nil {
			t.Fatal(err)
		}
		delete(model, "beta/v7")

		var want []string
		for name := range model {
			want = append(want, name)
		}
		sort.Strings(want)
		check := func(db string, want []string) {
			t.Helper()
			names, content := scanAll(t, n, db)
			if fmt.Sprint(names) != fmt.Sprint(want) {
				t.Fatalf("Scan(%q) order:\n got %v\nwant %v", db, names, want)
			}
			for _, name := range names {
				if !bytes.Equal(content[name], model[name]) {
					t.Errorf("Scan(%q): %s differs from the model", db, name)
				}
			}
		}
		check("", want)
		for _, db := range []string{"alpha", "beta", "gamma"} {
			var of []string
			for _, name := range want {
				if strings.HasPrefix(name, db+"/") {
					of = append(of, name)
				}
			}
			check(db, of)
		}
		if names, _ := scanAll(t, n, "no such database"); len(names) != 0 {
			t.Errorf("Scan of an absent database yielded %v", names)
		}

		// fn returning false stops the scan; a key deleted after it was
		// listed (here: from inside fn, the listing is already taken)
		// arrives absent, stamped past the delete, not as an error.
		seen := 0
		if _, err := n.Scan("", func(_, _ string, _ Stamped) bool { seen++; return seen < 3 }); err != nil || seen != 3 {
			t.Errorf("Scan stopped after %d records (%v), want 3", seen, err)
		}
		var names []string
		var deleted uint64
		cursor, err := n.Scan("gamma", func(db, key string, r Stamped) bool {
			if len(names) == 0 {
				if err := n.Delete("gamma", "v3"); err != nil {
					t.Error(err)
				}
				deleted = n.Oplog().LastSeq()
			}
			if r.Present {
				names = append(names, key)
			} else if key != "v3" || r.Stamp < deleted {
				t.Errorf("%s absent at stamp %d; the delete of v3 is %d", key, r.Stamp, deleted)
			}
			return true
		})
		if err != nil || len(names) != 7 || fmt.Sprint(names) != "[v0 v1 v2 v4 v5 v6 v7]" {
			t.Errorf("Scan across a delete yielded %v, %v", names, err)
		}
		if cursor >= deleted {
			t.Errorf("cursor %d is not before the delete the listing missed (%d)", cursor, deleted)
		}
	})

	for _, emit := range []bool{false, true} {
		emit := emit
		t.Run(fmt.Sprintf("Upsert and Retain emit=%v", emit), func(t *testing.T) {
			// Overloaded for an hour once latched, with a tenant bucket that
			// never refills: a client insert is rejected, a handoff record
			// is not.
			n := asyncNode(t, Options{EncodeWorkers: 1, EncodeQueue: 2, SimulatedEncodeDelay: latchDelay,
				Admission: admission.Options{OverloadDwell: time.Hour, TenantRate: 1e-9}})
			if err := n.Insert("db", "first", []byte("takes the tenant's first token")); err != nil {
				t.Fatal(err)
			}
			latchOverload(t, n, "db", "first")
			for i := 0; i < 6; i++ { // the bucket holds 8 tokens; spend the rest
				if err := n.Insert("db", "first", []byte("again")); !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("token %d: re-insert returned %v", i+3, err)
				}
			}
			if err := n.Insert("db", "second", []byte("x")); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("premise: reject latch not forced, insert returned %v", err)
			}
			logged := func() uint64 { n.Barrier(); return n.Oplog().LastSeq() }
			perCall := uint64(0)
			if emit {
				perCall = 1
			}
			for round, content := range []string{"handed over", "handed over", "handed over again"} {
				at := logged()
				for i := 0; i < 6; i++ {
					if err := n.Upsert("db", fmt.Sprintf("k%d", i), []byte(content), emit); err != nil {
						t.Fatalf("round %d: Upsert k%d under the reject latch: %v", round, i, err)
					}
				}
				if got := logged() - at; got != 6*perCall {
					t.Errorf("round %d: 6 upserts logged %d entries, want %d", round, got, 6*perCall)
				}
				for i := 0; i < 6; i++ {
					if got, err := n.Read("db", fmt.Sprintf("k%d", i)); err != nil || string(got) != content {
						t.Errorf("round %d: k%d reads %q, %v", round, i, got, err)
					}
				}
			}
			if st := n.Stats(); st.Inserts != 1+6 || st.Updates != 12 {
				t.Errorf("three rounds over 6 keys: Inserts %d, Updates %d, want 7 and 12", st.Inserts, st.Updates)
			}

			// Retain with a keep set leaves exactly it; with nil, nothing.
			at := logged()
			keep := map[string]bool{"k1": true, "k4": true, "first": true}
			dropped, err := n.Retain("db", func(key string) bool { return keep[key] }, emit)
			if err != nil || dropped != 4 {
				t.Fatalf("Retain(keep 3 of 7) = %d, %v, want 4", dropped, err)
			}
			if got := fmt.Sprint(n.DBKeys("db")); got != "[first k1 k4]" {
				t.Errorf("after Retain: %s", got)
			}
			if got := logged() - at; got != 4*perCall {
				t.Errorf("4 drops logged %d entries, want %d", got, 4*perCall)
			}
			if err := n.Upsert("other", "bystander", []byte("another database"), emit); err != nil {
				t.Fatal(err)
			}
			dropped, err = n.Retain("db", nil, emit)
			if err != nil || dropped != 3 || len(n.DBKeys("db")) != 0 {
				t.Fatalf("Retain(nil) = %d, %v, left %v", dropped, err, n.DBKeys("db"))
			}
			if got := fmt.Sprint(n.DBNames()); got != "[other]" {
				t.Errorf("after emptying db: databases %s", got)
			}
			if emit {
				n.Barrier()
				ents, err := n.Oplog().EntriesSince(at, 0)
				if err != nil {
					t.Fatal(err)
				}
				deletes := 0
				for _, e := range ents {
					if e.Op == oplog.OpDelete && e.DB == "db" {
						deletes++
					}
				}
				if deletes != 7 {
					t.Errorf("7 dropped keys, %d oplog deletes", deletes)
				}
			}
			if rep := n.VerifyAll(); !rep.Ok() {
				t.Errorf("verify: %s", rep)
			}
		})
	}

	t.Run("Retain stops at the first error and can be retried", func(t *testing.T) {
		// Tombstones are six or seven bytes and a block 128: a pass over 200
		// keys seals a dozen blocks. Reopened on a disk whose first write
		// fails, the pass gets that error a block or two later.
		mem := faultfs.NewMemFS()
		opts := Options{Dir: "n", FS: mem, BlockSize: 128, SyncEncode: true, DisableDedup: true}
		n, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		const total = 200
		for i := 0; i < total; i++ {
			if err := n.Insert("db", fmt.Sprintf("k%03d", i), []byte("doomed")); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		opts.FS = faultfs.NewInjector(mem, 1, faultfs.FailWrite(1))
		if n, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		dropped, err := n.Retain("db", nil, false)
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Retain on a failing disk = %d, %v, want the injected error", dropped, err)
		}
		left := len(n.DBKeys("db"))
		if dropped == 0 || left == 0 || dropped+left != total {
			t.Fatalf("dropped %d, left %d of %d: want a pass that stopped partway and lost no key to the delete that failed", dropped, left, total)
		}
		again, err := n.Retain("db", nil, false)
		if err != nil || again != left || len(n.DBKeys("db")) != 0 {
			t.Fatalf("retry = %d, %v, left %v; want %d and nothing", again, err, n.DBKeys("db"), left)
		}
	})
}

// TestLenientInsertArrivesWhole replays a forward-encoded insert inside a
// snapshot's window on a secondary whose copy of the base is newer than the
// one the primary encoded against: the snapshot scan read the base after an
// update of the same length. Decoding the delta against that copy would
// succeed and yield wrong bytes, so the base's stamp, past the insert's
// number, sends the applier to its fetch fallback, which installs the
// primary's copy.
func TestLenientInsertArrivesWhole(t *testing.T) {
	prim := testNode(t, Options{})
	versions := insertChain(t, prim, "wiki", 2, 12)
	ents, err := prim.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ins := ents[1]
	if ins.Key != "v1" || ins.Form != oplog.FormDelta || ins.BaseKey != "v0" {
		t.Fatalf("premise: v1 shipped as %v against %q, want forward-encoded against v0", ins.Form, ins.BaseKey)
	}
	newer := bytes.ToUpper(versions[0]) // the base after an update of the same length
	if err := prim.Update("wiki", "v0", newer); err != nil {
		t.Fatal(err)
	}

	sec := testNode(t, Options{})
	a := NewApplier(sec, 0, ApplierOptions{Fetch: prim.ReadStamped})
	defer a.Close()
	base, err := prim.ReadStamped("wiki", "v0") // the snapshot's record
	if err != nil || base.Stamp < ins.Seq {
		t.Fatalf("premise: base read at %d (%v), want at or past the insert's %d", base.Stamp, err, ins.Seq)
	}
	a.EnqueueSnapshotRecord("wiki", "v0", base)
	a.EnqueueEntry(ins, false)
	a.Barrier()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if got, err := sec.Read("wiki", "v1"); err != nil || !bytes.Equal(got, versions[1]) {
		t.Fatalf("v1 after the fetch fallback: equal %v, %v", bytes.Equal(got, versions[1]), err)
	}
	if got := sec.ApplyMetrics().BaseFetches.Total(); got != 1 {
		t.Fatalf("base fetches = %d, want 1", got)
	}
}

// TestReadStampedMatchesItsStamp reads a key while another goroutine updates
// it, then deletes it. Update i is mutation i+1 and writes "i", so a read
// stamped S must return "S-1": content newer than its stamp would let a
// secondary skip an entry the record does not reflect.
func TestReadStampedMatchesItsStamp(t *testing.T) {
	n := testNode(t, Options{})
	if err := n.Insert("db", "k", []byte("0")); err != nil {
		t.Fatal(err)
	}
	const updates = 300
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= updates; i++ {
			if err := n.Update("db", "k", []byte(fmt.Sprint(i))); err != nil {
				done <- err
				return
			}
		}
		done <- n.Delete("db", "k")
	}()
	for {
		r, err := n.ReadStamped("db", "k")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Present {
			if r.Stamp < updates+2 {
				t.Fatalf("absent at stamp %d, before the delete (%d)", r.Stamp, updates+2)
			}
			break
		}
		if want := fmt.Sprint(r.Stamp - 1); string(r.Content) != want {
			t.Fatalf("read at stamp %d returned %q, want %q", r.Stamp, r.Content, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// replicaPair returns a primary, a secondary and a function that applies to
// the secondary every oplog entry the primary logged since it last ran and
// returns the last of them.
func replicaPair(t *testing.T) (prim, sec *Node, ship func() oplog.Entry) {
	t.Helper()
	prim = testNode(t, Options{BlockCompression: true})
	sec = testNode(t, Options{BlockCompression: true})
	var shipped uint64
	return prim, sec, func() oplog.Entry {
		t.Helper()
		ents, err := prim.Oplog().EntriesSince(shipped, 0)
		if err != nil || len(ents) == 0 {
			t.Fatalf("%d oplog entries after seq %d, err %v", len(ents), shipped, err)
		}
		for _, e := range ents {
			if err := sec.ApplyReplicated(e); err != nil {
				t.Fatalf("apply seq %d: %v", e.Seq, err)
			}
			shipped = e.Seq
		}
		return ents[len(ents)-1]
	}
}

// TestReplicaTakesItsBaseFromTheSourceCache: a forward-encoded insert whose
// base the secondary holds in its source cache, under a key never updated, is
// applied from that copy as a read of the base would be answered, with no
// block of the store loaded or inflated, and reads back as the primary's.
// The base is sealed behind a segment's first block, so decoding it would
// load its block.
func TestReplicaTakesItsBaseFromTheSourceCache(t *testing.T) {
	prim, sec, ship := replicaPair(t)
	rng := rand.New(rand.NewSource(46))
	v0 := workload.RevisionText(rng, 8192)
	other := workload.RevisionText(rand.New(rand.NewSource(47)), 8192)
	for i, key := range []string{"other", "v0"} {
		if err := prim.Insert("wiki", key, [][]byte{other, v0}[i]); err != nil {
			t.Fatal(err)
		}
		if e := ship(); e.Form != oplog.FormRaw {
			t.Fatalf("%s shipped in form %d, want raw", key, e.Form)
		}
		if err := sec.Store().Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.Insert("wiki", "v1", editText(rng, v0, 2)); err != nil {
		t.Fatal(err)
	}
	before := sec.Stats().Store
	if e := ship(); e.Form != oplog.FormDelta || e.BaseKey != "v0" {
		t.Fatalf("v1 shipped in form %d against %q, want forward-encoded against v0", e.Form, e.BaseKey)
	}
	if st := sec.Stats().Store; st.PreadBlockReads != before.PreadBlockReads || st.BlocksDecoded != before.BlocksDecoded {
		t.Fatalf("applying v1 loaded %d blocks and decoded %d: its base was not taken from the source cache",
			st.PreadBlockReads-before.PreadBlockReads, st.BlocksDecoded-before.BlocksDecoded)
	}
	want, err := prim.Read("wiki", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sec.Read("wiki", "v1"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("secondary Read(v1) = %d bytes, %v; the primary's is %d", len(got), err, len(want))
	}
}

// TestReplicaBaseUpdatedInPlace: an insert whose source was updated since its
// insert ships raw, as a delta may involve only records their keys name (the
// update gave the key a new record, and retired the source), and both keys
// read back exactly on the secondary.
func TestReplicaBaseUpdatedInPlace(t *testing.T) {
	prim, sec, ship := replicaPair(t)
	rng := rand.New(rand.NewSource(46))
	v0 := workload.RevisionText(rng, 8192)
	upd := editText(rng, v0, 2)
	v1 := editText(rng, upd, 2)
	if err := prim.Insert("wiki", "v0", v0); err != nil {
		t.Fatal(err)
	}
	ship()
	if err := prim.Update("wiki", "v0", upd); err != nil {
		t.Fatal(err)
	}
	ship()
	if err := prim.Insert("wiki", "v1", v1); err != nil {
		t.Fatal(err)
	}
	if e := ship(); e.Form != oplog.FormRaw {
		t.Fatalf("v1 shipped in form %d against %q, want raw: its source v0 was updated", e.Form, e.BaseKey)
	}
	for key, want := range map[string][]byte{"v0": upd, "v1": v1} {
		if got, err := sec.Read("wiki", key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("secondary Read(%s) = %d bytes, %v; want %d", key, len(got), err, len(want))
		}
	}
}

// TestSourceSelectionPassesOverAnUpdatedRecord: v1, a revision of v0, is
// updated after the flush wrote v0 back against it; v2, a revision of v1 as
// inserted, finds both in the index. The engine passes over v1, which the
// validity rule refuses, and encodes v2 against v0, so v2 ships as a delta
// rather than raw, and both members read every key exactly.
func TestSourceSelectionPassesOverAnUpdatedRecord(t *testing.T) {
	prim, sec, ship := replicaPair(t)
	rng := rand.New(rand.NewSource(67))
	v0 := workload.RevisionText(rng, 4096)
	v1 := editText(rng, v0, 2)
	upd := editText(rng, v1, 2)
	v2 := editText(rng, v1, 2)
	for i, key := range []string{"v0", "v1"} {
		if err := prim.Insert("wiki", key, [][]byte{v0, v1}[i]); err != nil {
			t.Fatal(err)
		}
	}
	prim.FlushWritebacks(-1)
	if err := prim.Update("wiki", "v1", upd); err != nil {
		t.Fatal(err)
	}
	ship()
	if err := prim.Insert("wiki", "v2", v2); err != nil {
		t.Fatal(err)
	}
	if e := ship(); e.Form != oplog.FormDelta || e.BaseKey != "v0" {
		t.Fatalf("v2 shipped in form %d against %q (%d bytes), want a delta against v0", e.Form, e.BaseKey, len(e.Payload))
	}
	for key, want := range map[string][]byte{"v0": v0, "v1": upd, "v2": v2} {
		for _, m := range []*Node{prim, sec} {
			if got, err := m.Read("wiki", key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Read(%s) = %d bytes, %v; want %d", key, len(got), err, len(want))
			}
		}
	}
}

// TestReplicatedInsertsCountAsLoad: a secondary applying a replicated stream
// is as busy as the primary that wrote it. Each applied insert moves the
// idleness counter the flush loop reads, as each applied update and delete
// does, so a secondary under an insert stream does not flush write-backs as
// if it were idle.
func TestReplicatedInsertsCountAsLoad(t *testing.T) {
	prim, sec, ship := replicaPair(t)
	rng := rand.New(rand.NewSource(48))
	const n = 5
	for _, step := range []struct {
		name  string
		write func(key string) error
	}{
		{"insert", func(key string) error { return prim.Insert("wiki", key, workload.RevisionText(rng, 2048)) }},
		{"update", func(key string) error { return prim.Update("wiki", key, workload.RevisionText(rng, 2048)) }},
		{"delete", func(key string) error { return prim.Delete("wiki", key) }},
	} {
		for i := 0; i < n; i++ {
			if err := step.write(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		before := sec.recentOps.Load()
		ship()
		if got := sec.recentOps.Load() - before; got != n {
			t.Errorf("%d replicated %ss moved the secondary's idleness counter by %d, want %d", n, step.name, got, n)
		}
	}
}
