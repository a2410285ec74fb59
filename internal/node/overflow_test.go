package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/workload"
)

// TestApplierBackpressureCountsOverflows is the applier-side twin of
// TestEncoderBackpressure: with a 1-slot, 1-worker apply pool, replaying an
// oplog faster than it applies must stall the dispatcher (counted in
// QueueOverflows), never drop entries.
func TestApplierBackpressureCountsOverflows(t *testing.T) {
	prim := testNode(t, Options{})
	rng := rand.New(rand.NewSource(9))
	const entries = 200
	payload := workload.RevisionText(rng, 64<<10)
	for v := 0; v < entries; v++ {
		if err := prim.Insert("db", fmt.Sprintf("v%03d", v), payload); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := prim.Oplog().EntriesSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	sec := testNode(t, Options{EncodeWorkers: 1, EncodeQueue: 1})
	ap := NewApplier(sec, 0, ApplierOptions{})
	defer ap.Close()
	for _, e := range ents {
		ap.EnqueueEntry(e, false)
	}
	ap.Barrier()
	if err := ap.Err(); err != nil {
		t.Fatal(err)
	}

	am := sec.ApplyMetrics()
	if am.QueueOverflows.Total() == 0 {
		t.Error("no overflow stalls recorded with a 1-slot apply queue; backpressure not exercised")
	}
	if got := am.Applied.Total(); got != int64(len(ents)) {
		t.Errorf("applied = %d, want %d — backpressure dropped entries", got, len(ents))
	}
	if qd := am.QueueDepth.Value(); qd != 0 {
		t.Errorf("queue depth after Barrier = %d, want 0", qd)
	}
	for v := 0; v < entries; v++ {
		if _, err := sec.Read("db", fmt.Sprintf("v%03d", v)); err != nil {
			t.Fatalf("v%03d unreadable on secondary: %v", v, err)
		}
	}
}

// TestShedAccountingReconciles drives a slow, tiny-queue encoder into
// overload with shedding enabled and checks the counter algebra end to end:
// every accepted insert is either admitted or shed (never silently dropped),
// shed inserts bypass the engine, and both the backpressure stalls and the
// overload transitions are visible in Stats.
func TestShedAccountingReconciles(t *testing.T) {
	n := asyncNode(t, Options{
		EncodeWorkers:        1,
		EncodeQueue:          2,
		SimulatedEncodeDelay: 2 * time.Millisecond,
		Admission: admission.Options{
			ShedRaw: true, OverloadDwell: 50 * time.Millisecond,
		},
	})

	const goroutines, perG = 16, 25
	payloads := make([][]byte, goroutines)
	for g := range payloads {
		payloads[g] = workload.RevisionText(rand.New(rand.NewSource(int64(g))), 4096)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db := fmt.Sprintf("db%d", g%4)
			for v := 0; v < perG; v++ {
				key := fmt.Sprintf("g%02dv%02d", g, v)
				if err := n.Insert(db, key, payloads[g]); err != nil {
					t.Errorf("%s/%s: %v", db, key, err)
					return
				}
				// A shed insert is acknowledged after the store append, so
				// it must be readable the instant Insert returns.
				if got, err := n.Read(db, key); err != nil || !bytes.Equal(got, payloads[g]) {
					t.Errorf("%s/%s not readable right after ack: %v", db, key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	n.Barrier()

	st := n.Stats()
	const want = goroutines * perG
	if st.Inserts != want {
		t.Fatalf("Stats.Inserts = %d, want %d", st.Inserts, want)
	}
	if st.Admission.Shed == 0 {
		t.Fatal("nothing shed; overload never engaged")
	}
	if got, want := st.InsertsShedRaw, uint64(st.Admission.Shed); got != want {
		t.Errorf("InsertsShedRaw = %d, Admission.Shed = %d", got, want)
	}
	if got := uint64(st.Admission.Admitted + st.Admission.Shed); got != st.Inserts {
		t.Errorf("Admitted+Shed = %d, Inserts = %d — an insert escaped the controller", got, st.Inserts)
	}
	if got, want := st.Engine.Inserts, st.Inserts-st.InsertsShedRaw; got != want {
		t.Errorf("Engine.Inserts = %d, want Inserts−Shed = %d", got, want)
	}
	if st.InsertsRejected != 0 || st.Admission.Rejected != 0 {
		t.Errorf("shed-only node rejected %d/%d inserts", st.InsertsRejected, st.Admission.Rejected)
	}
	if st.EncodeOverflows == 0 {
		t.Error("no backpressure stalls with a 2-slot queue and 16 clients")
	}
	if st.Admission.OverloadEnters == 0 {
		t.Error("overload latch never entered")
	}
	// Every accepted insert reached the oplog — shed ones raw, admitted
	// ones possibly delta-encoded, none dropped.
	if got := n.Oplog().Stats().Entries; got != want {
		t.Errorf("oplog has %d entries, want %d", got, want)
	}
}
