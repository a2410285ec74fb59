package node

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/metrics"
)

// testMeters is a pool's instrument set for tests that build one directly.
type testMeters struct {
	workers, depth metrics.Gauge
	overflows      metrics.Meter
}

// newTestPool builds a pool over m.
func newTestPool(n, queue int, run func(int), m *testMeters) *fifoPool[int] {
	return newFIFOPool(n, queue, run, &m.workers, &m.depth, &m.overflows)
}

// within fails the test if fn has not returned after five seconds: the pool's
// failure mode is a hang, not a wrong answer.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// TestFIFOPool pins the one database-sharded pool the encoder and the applier
// both run on, against an int job.
func TestFIFOPool(t *testing.T) {
	t.Run("per-database FIFO under concurrent producers", func(t *testing.T) {
		const producers, perProducer = 8, 400
		var mu sync.Mutex
		next := make([]int, producers)
		var m testMeters
		p := newTestPool(3, 4, func(job int) {
			who, seq := job/perProducer, job%perProducer
			mu.Lock()
			defer mu.Unlock()
			if next[who] != seq {
				t.Errorf("producer %d: job %d ran when %d was due", who, seq, next[who])
			}
			next[who] = seq + 1
		}, &m)
		var wg sync.WaitGroup
		for who := 0; who < producers; who++ {
			wg.Add(1)
			go func(who int) {
				defer wg.Done()
				db := fmt.Sprintf("db%d", who)
				for seq := 0; seq < perProducer; seq++ {
					p.push(p.reserve(db), who*perProducer+seq)
				}
			}(who)
		}
		wg.Wait()
		within(t, "barrier", p.plant().Wait)
		for who, n := range next {
			if n != perProducer {
				t.Errorf("producer %d: %d of %d jobs ran before the barrier returned", who, n, perProducer)
			}
		}
		if d := m.depth.Value(); d != 0 {
			t.Errorf("depth %d after barrier, want 0", d)
		}
		p.close()
	})

	t.Run("same database, same shard", func(t *testing.T) {
		for _, size := range []int{1, 2, 8} {
			var m testMeters
			p := newTestPool(size, 1, func(int) {}, &m)
			for _, db := range []string{"users", "orders", "wiki", ""} {
				first := p.shardFor(db)
				for i := 0; i < 10; i++ {
					if p.shardFor(db) != first {
						t.Fatalf("%d shards: shardFor(%q) not stable", size, db)
					}
				}
			}
			if got := m.workers.Value(); got != int64(size) {
				t.Errorf("workers gauge %d, want %d", got, size)
			}
			p.close()
		}
	})

	t.Run("full shard blocks, counts one overflow, passes sentinels", func(t *testing.T) {
		var m testMeters
		p := newTestPool(1, 1, func(int) {}, &m)
		defer p.close()
		held := p.reserve("db") // the shard's only token; nothing pushed, so the worker idles
		got := make(chan *fifoShard[int])
		go func() { got <- p.reserve("db") }()
		for m.overflows.Total() == 0 { // counted before the reserver blocks
			runtime.Gosched()
		}
		select {
		case <-got:
			t.Fatal("reserve returned with the shard's only token still held")
		case <-time.After(20 * time.Millisecond):
		}
		within(t, "barrier across a full shard", p.plant().Wait)
		held.release()
		var sh *fifoShard[int]
		within(t, "reserve after release", func() { sh = <-got })
		if n := m.overflows.Total(); n != 1 {
			t.Errorf("overflows = %d, want exactly 1 for one stalled reservation", n)
		}
		sh.release()
	})

	t.Run("close drains accepted jobs, then barrier and push are safe", func(t *testing.T) {
		const jobs = 50
		before := runtime.NumGoroutine()
		var m testMeters
		gate := make(chan struct{})
		ran := 0 // one shard, one worker: no lock needed
		p := newTestPool(1, jobs, func(int) { <-gate; ran++ }, &m)
		for i := 0; i < jobs; i++ {
			p.push(p.reserve("db"), i)
		}
		close(gate)
		within(t, "close", p.close)
		if ran != jobs {
			t.Errorf("%d of %d accepted jobs ran before close returned", ran, jobs)
		}
		if w, d := m.workers.Value(), m.depth.Value(); w != 0 || d != 0 {
			t.Errorf("after close: workers %d, depth %d, want 0, 0", w, d)
		}
		within(t, "barrier after close", p.plant().Wait)
		within(t, "push after close", func() { p.push(p.reserve("db"), jobs) })
		if ran != jobs || m.depth.Value() != 0 || len(p.shards[0].sem) != 0 {
			t.Errorf("a job pushed after close was kept: ran %d, depth %d, tokens %d",
				ran, m.depth.Value(), len(p.shards[0].sem))
		}
		p.close() // idempotent
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after close, %d before the pool existed", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestNodeBarrierDuringClose is the encoder-side twin of
// TestApplierBarrierAfterClose: a Barrier racing Close must return, whether
// its sentinels land before the workers exit or on shards already drained. So
// must SyncEncode mutations racing Close: each is either logged before the
// pool stops or refused, never left waiting on a job the pool dropped.
func TestNodeBarrierDuringClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		n, err := Open(Options{EncodeWorkers: 3, DisableAutoFlush: true, DisableDedup: true, SyncEncode: true})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			if err := n.Insert(fmt.Sprintf("db%d", k), "k", []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		var acked atomic.Int64
		mutate := func(do func() error) {
			defer wg.Done()
			if err := do(); err == nil {
				acked.Add(1)
			} else if !errors.Is(err, errClosed) {
				t.Errorf("iteration %d: a mutation racing Close failed with %v", i, err)
			}
		}
		wg.Add(5)
		go func() { defer wg.Done(); n.Barrier() }()
		go func() { defer wg.Done(); n.Close() }()
		go mutate(func() error { return n.Insert("db0", "k2", []byte("payload")) })
		go mutate(func() error { return n.Update("db1", "k", []byte("update")) })
		go mutate(func() error { return n.Delete("db2", "k") })
		within(t, "Barrier and SyncEncode mutations racing Close", wg.Wait)
		if got, want := n.Oplog().Stats().Entries, 4+int(acked.Load()); got != want {
			t.Fatalf("iteration %d: oplog has %d entries after Close, want %d (%d mutations acknowledged)",
				i, got, want, acked.Load())
		}
	}
}

// TestMutationAfterCloseBeganIsRefused: Close marks the node closed, stops the
// encoder pool, flushes, and closes the store last. A mutation in that window
// must be refused before it writes the store. (An update or delete used to
// write it and have its oplog job dropped by the stopped pool: acknowledged,
// never logged, so a secondary never saw it.)
func TestMutationAfterCloseBeganIsRefused(t *testing.T) {
	for _, syncEncode := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncEncode), func(t *testing.T) {
			n, err := Open(Options{DisableAutoFlush: true, DisableDedup: true, SyncEncode: syncEncode})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Insert("db", "k", []byte("v1 content")); err != nil {
				t.Fatal(err)
			}
			n.Barrier()
			stats, logged := n.Stats(), n.Oplog().LastSeq()

			// Close's first two steps.
			n.mu.Lock()
			n.closed = true
			n.mu.Unlock()
			n.pool.close()

			for what, do := range map[string]func() error{
				"insert": func() error { return n.Insert("db", "k2", []byte("new")) },
				"update": func() error { return n.Update("db", "k", []byte("v2 content")) },
				"delete": func() error { return n.Delete("db", "k") },
			} {
				var err error
				within(t, what+" after Close began", func() { err = do() })
				if !errors.Is(err, errClosed) {
					t.Errorf("%s after Close began = %v, want %v", what, err, errClosed)
				}
			}
			if got, err := n.Read("db", "k"); err != nil || string(got) != "v1 content" {
				t.Errorf("the key reads %q, %v; want %q", got, err, "v1 content")
			}
			if n.Has("db", "k2") {
				t.Error("the refused insert is visible")
			}
			n.mu.RLock()
			assigned := n.opSeq
			n.mu.RUnlock()
			st := n.Stats()
			if st.Inserts != stats.Inserts || st.Updates != stats.Updates || st.Deletes != stats.Deletes ||
				n.Oplog().LastSeq() != logged || assigned != logged {
				t.Errorf("refused mutations left a trace: inserts %d → %d, updates %d → %d, deletes %d → %d, "+
					"oplog %d → %d, %d sequence numbers assigned",
					stats.Inserts, st.Inserts, stats.Updates, st.Updates, stats.Deletes, st.Deletes,
					logged, n.Oplog().LastSeq(), assigned)
			}

			// Finish the Close that began.
			n.mu.Lock()
			n.closed = false
			n.mu.Unlock()
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
