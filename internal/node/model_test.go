package node

import (
	"bytes"
	"dbdedup/internal/docstore"
	"dbdedup/internal/workload"
	"fmt"
	"math/rand"
	"testing"
)

// TestModelRandomOps drives a node with a long random operation sequence and
// checks it against a plain map model after every step window. This is the
// workhorse correctness test: it exercises the full interaction surface —
// dedup chains, write-back timing, updates, hidden deletes, chain
// repair, flushes — against the simplest possible specification. The
// configurations share nothing and run in parallel.
func TestModelRandomOps(t *testing.T) {
	for _, cfg := range []struct {
		name        string
		opts        Options
		flushEachOp bool // every write-back applied right after its op
	}{
		{"default", Options{SyncEncode: true}, false},
		{"flush-each-op", Options{SyncEncode: true}, true},
		{"compressed", Options{SyncEncode: true, BlockCompression: true}, false},
		{"tiny-blocks", Options{SyncEncode: true, BlockSize: 256}, false},
		{"async-pipeline", Options{}, false}, // background encode queue
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			runModel(t, cfg.opts, cfg.flushEachOp, 3000, 42)
		})
	}
}

func runModel(t *testing.T, opts Options, flushEachOp bool, steps int, seed int64) {
	t.Helper()
	opts.DisableAutoFlush = true
	opts.Engine.GovernorWindow = 1 << 30
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rng := rand.New(rand.NewSource(seed))
	model := map[string][]byte{} // key -> expected content
	var keys []string            // insertion order, live keys
	base := workload.RevisionText(rng, 4096)

	newContent := func() []byte {
		// Mix: fresh prose, an edit of the rolling base (dedupable), or
		// an edit of an existing record's content.
		switch rng.Intn(3) {
		case 0:
			return workload.RevisionText(rng, 200+rng.Intn(4000))
		case 1:
			base = editText(rng, base, 1+rng.Intn(3))
			return append([]byte(nil), base...)
		default:
			if len(keys) > 0 {
				k := keys[rng.Intn(len(keys))]
				return editText(rng, model[k], 1+rng.Intn(3))
			}
			return workload.RevisionText(rng, 1000)
		}
	}

	nextKey := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 45: // insert
			key := fmt.Sprintf("k%06d", nextKey)
			nextKey++
			content := newContent()
			if err := n.Insert("db", key, content); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			model[key] = content
			keys = append(keys, key)

		case op < 60 && len(keys) > 0: // update
			key := keys[rng.Intn(len(keys))]
			content := newContent()
			if err := n.Update("db", key, content); err != nil {
				t.Fatalf("step %d: update %s: %v", step, key, err)
			}
			model[key] = content

		case op < 70 && len(keys) > 0: // delete
			i := rng.Intn(len(keys))
			key := keys[i]
			if err := n.Delete("db", key); err != nil {
				t.Fatalf("step %d: delete %s: %v", step, key, err)
			}
			delete(model, key)
			keys = append(keys[:i], keys[i+1:]...)

		case op < 90 && len(keys) > 0: // read + verify
			key := keys[rng.Intn(len(keys))]
			got, err := n.Read("db", key)
			if err != nil {
				t.Fatalf("step %d: read %s: %v", step, key, err)
			}
			if !bytes.Equal(got, model[key]) {
				t.Fatalf("step %d: content mismatch for %s", step, key)
			}

		case op < 95: // flush some write-backs
			n.FlushWritebacks(rng.Intn(8) + 1)

		default: // seal pending block
			if err := n.Store().Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
		}
		if flushEachOp {
			n.FlushWritebacks(-1)
		}

		// Periodically verify the full state.
		if step%500 == 499 {
			n.Barrier()
			n.FlushWritebacks(-1)
			verifyModel(t, n, model, step)
		}
	}
	n.Barrier()
	n.FlushWritebacks(-1)
	verifyModel(t, n, model, steps)
	verifyRefcounts(t, n)
}

// verifyRefcounts recomputes decode-base reference counts from the stored
// records and compares them with the node's live bookkeeping.
func verifyRefcounts(t *testing.T, n *Node) {
	t.Helper()
	recount := map[uint64]int{}
	n.store.Range(func(_ uint64, m docstore.MetaInfo) bool {
		if m.Form == docstore.FormDelta {
			recount[m.BaseID]++
		}
		return true
	})
	n.mu.RLock()
	defer n.mu.RUnlock()
	for id, want := range recount {
		if got := n.refcnt[id]; got != want {
			t.Errorf("refcount of %d = %d, stored records imply %d", id, got, want)
		}
	}
	for id, got := range n.refcnt {
		if got != 0 && recount[id] == 0 {
			t.Errorf("refcount of %d = %d but no stored record references it", id, got)
		}
	}
}

// verifyNamed checks that every record is hidden or named by its key, and that
// none is stacked: an update or a delete retires the record its key named.
func verifyNamed(t *testing.T, n *Node) {
	t.Helper()
	n.store.Range(func(id uint64, m docstore.MetaInfo) bool {
		if cur, ok := n.store.Lookup(m.DB, m.Key); !m.Hidden && (!ok || cur != id) || m.Stacked {
			t.Errorf("record %d (%s/%s, hidden %v, stacked %v) is not its key's, which names %d (%v)",
				id, m.DB, m.Key, m.Hidden, m.Stacked, cur, ok)
		}
		return true
	})
}

func verifyModel(t *testing.T, n *Node, model map[string][]byte, step int) {
	t.Helper()
	for key, want := range model {
		got, err := n.Read("db", key)
		if err != nil {
			t.Fatalf("verify@%d: read %s: %v", step, key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("verify@%d: mismatch for %s (%d vs %d bytes)", step, key, len(got), len(want))
		}
	}
}

// TestModelSurvivesReopen runs a random sequence against a persistent store,
// reopens it, and checks every record — write-backs and all — decodes.
func TestModelSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncEncode: true, DisableAutoFlush: true, BlockSize: 1 << 10}
	opts.Engine.GovernorWindow = 1 << 30

	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	model := map[string][]byte{}
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%05d", i)
		if err := n.Insert("db", key, content); err != nil {
			t.Fatal(err)
		}
		model[key] = content
		content = editText(rng, content, 1+rng.Intn(3))
		if i%7 == 0 {
			n.FlushWritebacks(4)
		}
		if i%31 == 0 && i > 0 {
			k := fmt.Sprintf("k%05d", rng.Intn(i))
			if _, ok := model[k]; ok {
				upd := workload.RevisionText(rng, 500)
				if err := n.Update("db", k, upd); err != nil {
					t.Fatal(err)
				}
				model[k] = upd
			}
		}
		if i%53 == 0 && i > 0 {
			k := fmt.Sprintf("k%05d", rng.Intn(i))
			if _, ok := model[k]; ok {
				if err := n.Delete("db", k); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			}
		}
	}
	n.FlushWritebacks(-1)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	verifyModel(t, n2, model, -1)

	// The reopened node must accept new work and keep deduplicating.
	if err := n2.Insert("db", "post-reopen", content); err != nil {
		t.Fatal(err)
	}
	got, err := n2.Read("db", "post-reopen")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatal("post-reopen insert broken")
	}
}
