package node

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/docstore"
	"dbdedup/internal/workload"
)

// flushInSavingOrder is FlushWritebacks as it was before chain order: the
// whole backlog applied in the order DrainBest returns it, best saving first.
// It is the baseline the tests below hold chain order to.
func flushInSavingOrder(n *Node) int {
	applied := 0
	for _, wb := range n.wb.DrainBest(n.wb.Len()) {
		if n.applyWriteback(wb) {
			applied++
		}
	}
	return applied
}

// flushOrders are the two ways a test applies a node's whole backlog: saving
// order, then chain order.
var flushOrders = [2]func(*Node) int{
	flushInSavingOrder,
	func(n *Node) int { return n.FlushWritebacks(-1) },
}

// chainOrderOptions is the benchmark's node: hop encoding at H = 16 over 64 B
// chunks, blocks compressed behind the segment's dictionary.
func chainOrderOptions(dir string) Options {
	return Options{Dir: dir, BlockCompression: true,
		Engine: core.Config{ChunkAvgSize: 64, Scheme: chain.Hop, HopDistance: 16}}
}

// recordForm is what a write-back decides about a record.
type recordForm struct {
	form   docstore.Form
	baseID uint64
}

// flushOutcome is what one flush order left behind.
type flushOutcome struct {
	applied, skipped uint64
	forms            map[uint64]recordForm
	// loads is the block loads that reading every key back from a one-block
	// cache takes, and oldLoads those of the oldReads reads whose record is
	// stored as a delta (an old revision).
	loads, oldLoads, oldReads uint64
}

// ingestAndFlush opens a node on dir, inserts recs, runs mutate (if any),
// applies the whole write-back backlog with flush, checks that every key in
// want reads back exactly and VerifyAll is clean, and closes the node. It
// then reopens the directory with a one-block cache and counts the block
// loads that reading every key back takes.
func ingestAndFlush(t *testing.T, dir string, recs []workload.Op, mutate func(*Node, map[string][]byte),
	flush func(*Node) int) flushOutcome {
	t.Helper()
	n := testNode(t, chainOrderOptions(dir))
	want := make(map[string][]byte, len(recs))
	for _, op := range recs {
		if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
			t.Fatal(err)
		}
		want[op.DB+"/"+op.Key] = op.Payload
	}
	if mutate != nil {
		mutate(n, want)
	}
	before := n.Stats()
	if got := flush(n); uint64(got) != n.Stats().WritebacksApplied-before.WritebacksApplied {
		t.Fatalf("flush reports %d applied, the counter moved by %d", got, n.Stats().WritebacksApplied-before.WritebacksApplied)
	}
	after := n.Stats()
	out := flushOutcome{
		applied: after.WritebacksApplied - before.WritebacksApplied,
		skipped: after.WritebacksSkipped - before.WritebacksSkipped,
		forms:   make(map[uint64]recordForm),
	}
	n.Store().Range(func(id uint64, m docstore.MetaInfo) bool {
		out.forms[id] = recordForm{m.Form, m.BaseID}
		return true
	})
	readAll(t, n, recs, want)
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll after the flush: %s %v", rep, rep.Errors)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	opts := chainOrderOptions(dir)
	opts.CacheBlocks = 1
	n = testNode(t, opts)
	for _, op := range recs {
		id, _ := n.Store().Lookup(op.DB, op.Key)
		m, _ := n.Store().Meta(id)
		misses := n.Store().Stats().CacheMisses
		readAll(t, n, []workload.Op{op}, want)
		loads := n.Store().Stats().CacheMisses - misses
		out.loads += loads
		if m.Form == docstore.FormDelta {
			out.oldLoads += loads
			out.oldReads++
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// readAll reads every key of recs, in insert order, and compares it with want
// (a key missing from want must be gone).
func readAll(t *testing.T, n *Node, recs []workload.Op, want map[string][]byte) {
	t.Helper()
	for _, op := range recs {
		content, live := want[op.DB+"/"+op.Key]
		got, err := n.Read(op.DB, op.Key)
		switch {
		case !live && err != ErrNotFound:
			t.Fatalf("deleted %s/%s reads as %v", op.DB, op.Key, err)
		case live && (err != nil || !bytes.Equal(got, content)):
			t.Fatalf("Read(%s/%s): %d bytes, err %v; want %d bytes", op.DB, op.Key, len(got), err, len(content))
		}
	}
}

// familyRecords is one workload family's inserts at the unit scale of the
// tests below.
func familyRecords(kind workload.Kind) []workload.Op {
	return workload.New(workload.Config{Kind: kind, Seed: 1, InsertBytes: 8 << 20}).Records()
}

var familyKinds = []workload.Kind{workload.Wikipedia, workload.Enron, workload.StackExchange, workload.MessageBoards}

// TestChainOrderLoadsFewerBlocks: each family's corpus, ingested with every
// write-back left pending and then flushed whole, applies exactly the same
// write-backs in chain order as in saving order, reads back exactly either
// way, and, read back key by key from a one-block cache, loads no more blocks
// in chain order on any family and at most 0.75 of saving order's over all.
// Chain order puts a chain's deltas in neighbouring frames, so a read of an
// old revision finds its hops in the block it already loaded.
func TestChainOrderLoadsFewerBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 8 MiB per family twice")
	}
	var savingLoads, chainLoads, savingOld, chainOld, oldReads uint64
	for _, kind := range familyKinds {
		recs := familyRecords(kind)
		var got [2]flushOutcome
		for i, flush := range flushOrders {
			got[i] = ingestAndFlush(t, t.TempDir(), recs, nil, flush)
		}
		saving, chained := got[0], got[1]
		t.Logf("%v: %d records, %d write-backs applied, %d skipped; block loads %d in saving order, %d in chain order (%.2f per read -> %.2f; %.2f -> %.2f per read of one of %d old revisions)",
			kind, len(recs), chained.applied, chained.skipped, saving.loads, chained.loads,
			float64(saving.loads)/float64(len(recs)), float64(chained.loads)/float64(len(recs)),
			float64(saving.oldLoads)/float64(saving.oldReads), float64(chained.oldLoads)/float64(chained.oldReads), chained.oldReads)
		if chained.applied != saving.applied || chained.skipped != saving.skipped {
			t.Fatalf("%v: chain order applied %d and skipped %d, saving order %d and %d",
				kind, chained.applied, chained.skipped, saving.applied, saving.skipped)
		}
		if chained.applied == 0 {
			t.Fatalf("%v: no write-back applied", kind)
		}
		for id, f := range saving.forms {
			if chained.forms[id] != f {
				t.Fatalf("%v: record %d is %+v after chain order, %+v after saving order", kind, id, chained.forms[id], f)
			}
		}
		if len(chained.forms) != len(saving.forms) {
			t.Fatalf("%v: %d records after chain order, %d after saving order", kind, len(chained.forms), len(saving.forms))
		}
		if chained.loads > saving.loads {
			t.Errorf("%v: chain order loads %d blocks, saving order %d", kind, chained.loads, saving.loads)
		}
		savingLoads += saving.loads
		chainLoads += chained.loads
		savingOld += saving.oldLoads
		chainOld += chained.oldLoads
		oldReads += chained.oldReads
	}
	ratio := float64(chainLoads) / float64(savingLoads)
	t.Logf("all families: %d block loads in saving order, %d in chain order (%.2fx); %.2f -> %.2f per read of an old revision",
		savingLoads, chainLoads, ratio, float64(savingOld)/float64(oldReads), float64(chainOld)/float64(oldReads))
	if ratio > 0.75 {
		t.Fatalf("chain order loads %.2f of saving order's blocks, want at most 0.75", ratio)
	}
}

// TestChainOrderUnderMutations: with client updates and deletes between the
// inserts and the flush, so that the rule on updated and deleted records
// skips some write-backs, chain order applies and skips as many as saving order, every
// key reads back exactly, and VerifyAll is clean.
func TestChainOrderUnderMutations(t *testing.T) {
	recs := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: 2, InsertBytes: 1 << 20}).Records()
	if testing.Short() {
		recs = recs[:len(recs)/4]
	}
	mutate := func(n *Node, want map[string][]byte) {
		rng := rand.New(rand.NewSource(55))
		for i, op := range recs {
			k := op.DB + "/" + op.Key
			switch rng.Intn(10) {
			case 0:
				upd := editText(rng, op.Payload, 3)
				if err := n.Update(op.DB, op.Key, upd); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				want[k] = upd
			case 1:
				if err := n.Delete(op.DB, op.Key); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				delete(want, k)
			}
		}
	}
	var got [2]flushOutcome
	for i, flush := range flushOrders {
		got[i] = ingestAndFlush(t, t.TempDir(), recs, mutate, flush)
	}
	saving, chained := got[0], got[1]
	t.Logf("%d records: saving order applied %d, skipped %d; chain order applied %d, skipped %d",
		len(recs), saving.applied, saving.skipped, chained.applied, chained.skipped)
	if chained.applied != saving.applied || chained.skipped != saving.skipped {
		t.Fatalf("chain order applied %d and skipped %d, saving order %d and %d",
			chained.applied, chained.skipped, saving.applied, saving.skipped)
	}
	if saving.skipped == 0 || saving.applied == 0 {
		t.Fatalf("the mutations left %d write-backs applied and %d skipped; the test needs both", saving.applied, saving.skipped)
	}
}

// checkChainOrder holds chainOrder's answer for links to its contract,
// computed here the slow way: a permutation of the batch in which every
// chain is contiguous, chains ascend by root and IDs ascend within a chain,
// entries of one ID keeping their batch order.
func checkChainOrder(t *testing.T, links []wbLink, order []int) {
	t.Helper()
	if len(order) != len(links) {
		t.Fatalf("order has %d entries for %d links", len(order), len(links))
	}
	seen := make([]bool, len(links))
	for _, i := range order {
		if i < 0 || i >= len(links) || seen[i] {
			t.Fatalf("order %v is not a permutation of %d links", order, len(links))
		}
		seen[i] = true
	}
	base := make(map[uint64]uint64)
	for _, l := range links {
		base[l.id] = l.base
	}
	// rootOf walks at most len(links) steps; a walk that has not left the
	// batch by then is on a cycle, whose members it collects by walking on.
	rootOf := func(id uint64) uint64 {
		for step := 0; step <= len(links); step++ {
			b, ok := base[id]
			if !ok {
				return id
			}
			id = b
		}
		cycle := []uint64{id}
		for next := base[id]; next != id; next = base[next] {
			cycle = append(cycle, next)
		}
		return slices.Min(cycle)
	}
	type key struct{ root, id uint64 }
	var prev key
	for k, i := range order {
		cur := key{rootOf(links[i].id), links[i].id}
		if k > 0 {
			if cur.root < prev.root || cur.root == prev.root && cur.id < prev.id {
				t.Fatalf("position %d: (root %d, id %d) after (root %d, id %d)", k, cur.root, cur.id, prev.root, prev.id)
			}
			if cur == prev && i < order[k-1] {
				t.Fatalf("position %d: two entries of id %d out of batch order", k, cur.id)
			}
		}
		prev = cur
	}
}

func TestChainOrderCases(t *testing.T) {
	for _, c := range []struct {
		name  string
		links []wbLink
		want  []uint64 // ids in the order applied
	}{
		{"empty", nil, nil},
		// Record 1 decodes from 2, 2 from 3, 3 from raw 4; 10 from raw 11.
		{"two chains", []wbLink{{10, 11}, {2, 3}, {3, 4}, {1, 2}}, []uint64{1, 2, 3, 10}},
		// Chains go by their roots (4 and 6), not by their smallest IDs.
		{"roots order chains", []wbLink{{5, 6}, {1, 4}, {3, 4}}, []uint64{1, 3, 5}},
		// A hop: 1 decodes from 3 directly, 2 from 3 too.
		{"tree", []wbLink{{2, 3}, {1, 3}, {3, 9}}, []uint64{1, 2, 3}},
		{"self base", []wbLink{{7, 7}, {1, 2}}, []uint64{1, 7}},
		// 5 -> 6 -> 5 is a cycle rooted at 5; 4 leads into it.
		{"cycle", []wbLink{{6, 5}, {5, 6}, {4, 6}, {1, 2}}, []uint64{1, 4, 5, 6}},
		// 3 is listed twice and keeps its last base, 9.
		{"duplicate", []wbLink{{3, 4}, {1, 3}, {5, 9}, {3, 9}}, []uint64{1, 3, 3, 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			order := chainOrder(c.links)
			checkChainOrder(t, c.links, order)
			var got []uint64
			for _, i := range order {
				got = append(got, c.links[i].id)
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("applied %v, want %v", got, c.want)
			}
		})
	}
}

// FuzzChainOrder: for any batch of (id, base) links, duplicates, self-bases
// and cycles included, chainOrder ends and returns the one permutation its
// contract allows. IDs are drawn from a small range so that links meet.
func FuzzChainOrder(f *testing.F) {
	f.Add([]byte{10, 11, 2, 3, 3, 4, 1, 2})
	f.Add([]byte{6, 5, 5, 6, 4, 6, 1, 2, 7, 7})
	f.Add([]byte{3, 4, 1, 3, 3, 9, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		links := make([]wbLink, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			links = append(links, wbLink{id: uint64(data[i] % 32), base: uint64(data[i+1] % 32)})
		}
		order := chainOrder(links)
		checkChainOrder(t, links, order)
		if again := chainOrder(links); !slices.Equal(again, order) {
			t.Fatalf("two calls disagree: %v and %v", order, again)
		}
	})
}
