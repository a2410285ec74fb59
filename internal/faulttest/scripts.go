package faulttest

import (
	"errors"
	"fmt"
	"time"

	"dbdedup/internal/faultfs"
)

// The scripted sessions of the crash matrix. Each drives the single member
// through the calls below; every mutation is recorded in the history
// (successes as acknowledged, failures as ambiguous), and once a crash point
// has fired every later call is a no-op: the process is dead. The matrix is
// deterministic: a census pass runs the script with nothing armed, Points
// turns the per-class op counts into the fault points, and every point
// replays the same seed-pinned script with exactly one rule armed. Together
// the scripts issue every durability-relevant filesystem op the storage and
// replication paths have.

// died notes process death on ErrCrashed.
func (b *bed) died(err error) {
	if errors.Is(err, faultfs.ErrCrashed) {
		b.dead = true
	}
}

// record files a mutation's outcome: acknowledged, or on any failure
// ambiguous.
func (b *bed) record(err error, db, key string, val []byte) {
	if err != nil {
		b.died(err)
		b.hist.Ambiguous(db, key, val, b.dead)
		return
	}
	// The oplog's own number, the one the follower counts: with SyncEncode
	// the acknowledged mutation's entry is logged when the call returns.
	b.lastAck = b.members[0].Node.Oplog().LastSeq()
	b.hist.Acked(db, key, val)
}

func (b *bed) Insert(db, key string, val []byte) {
	if !b.dead {
		b.record(b.members[0].Node.Insert(db, key, val), db, key, val)
	}
}

func (b *bed) Update(db, key string, val []byte) {
	if !b.dead {
		b.record(b.members[0].Node.Update(db, key, val), db, key, val)
	}
}

func (b *bed) Delete(db, key string) {
	if !b.dead {
		b.record(b.members[0].Node.Delete(db, key), db, key, nil)
	}
}

// Flush applies pending write-backs, then seals and syncs the pending block.
func (b *bed) Flush() {
	if !b.dead {
		b.members[0].Node.FlushWritebacks(-1)
		b.Seal()
	}
}

// Seal seals and syncs the pending block without applying deferred
// write-backs, leaving the backlog in memory: the state a crash with a full
// write-back queue tears away. A successful synced seal is still the
// durability barrier the history holds recovery to: the lossy write-back
// contract is that dropping the backlog loses no data, only re-encoding.
func (b *bed) Seal() {
	if b.dead {
		return
	}
	if err := b.members[0].Node.Store().Flush(); err != nil {
		b.died(err)
		return
	}
	b.hist.DurableBarrier()
}

// Compact runs one segment-compaction pass. Compaction never changes
// logical state, so the history is untouched whether it succeeds or dies.
func (b *bed) Compact() {
	if !b.dead {
		_, err := b.members[0].Node.Compact()
		b.died(err)
	}
}

// Doc generates n bytes of pseudo-prose from the schedule's seed.
func (b *bed) Doc(n int) []byte {
	words := []string{"online", "dedup", "for", "databases", "segment",
		"block", "delta", "chain", "record", "store", "replica", "sync"}
	out := make([]byte, 0, n+12)
	for len(out) < n {
		out = append(out, words[b.rng.Intn(len(words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

// Edit returns a lightly mutated copy of doc (same length, a few changed
// bytes: dedup-friendly, like the paper's document-revision workloads).
func (b *bed) Edit(doc []byte) []byte {
	out := append([]byte(nil), doc...)
	for k := 0; k < 3; k++ {
		out[b.rng.Intn(len(out))] = byte('a' + b.rng.Intn(26))
	}
	return out
}

// StartReplica attaches a live follower to the member. A follower that
// cannot be started is a problem of the run.
func (b *bed) StartReplica() {
	if !b.dead && b.follower.Member == nil {
		b.up(b.follower)
	}
}

// SyncReplica waits for the follower to apply the last acknowledged
// mutation. Bounded, so a stream severed by a crash point cannot stall the
// matrix.
func (b *bed) SyncReplica() {
	if b.follower.Member != nil && b.lastAck != 0 {
		b.follower.Follower.WaitForSeq(b.lastAck, 5*time.Second)
	}
}

// chains exercises the dedup substrate's chain machinery: similar documents
// that delta-encode against each other, client updates (each a new record,
// the old one hidden when a base, tombstoned when a leaf), deletes of bases
// (hidden rewrites) and leaves (tombstone reclaim),
// delete→reinsert cycles, and write-back flushes, with synced flush
// barriers between phases.
func chains(c *bed) {
	doc := c.Doc(1600)
	for i := 0; i < 24; i++ {
		c.Insert("db", fmt.Sprintf("k%03d", i), doc)
		doc = c.Edit(doc)
		if i%6 == 3 {
			c.Flush()
		}
	}
	for i := 0; i < 24; i += 3 {
		doc = c.Edit(doc)
		c.Update("db", fmt.Sprintf("k%03d", i), doc)
	}
	c.Flush()
	for i := 0; i < 24; i += 5 {
		c.Delete("db", fmt.Sprintf("k%03d", i))
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("cycle%d", i)
		c.Insert("db2", key, doc)
		c.Delete("db2", key)
		doc = c.Edit(doc)
		c.Insert("db2", key, doc)
	}
	c.Flush()
}

// compactChurn piles dead bytes through updates across several small
// segments and compacts twice mid-stream, so crash points land inside
// compaction's re-append, flush, and segment-unlink steps.
func compactChurn(c *bed) {
	doc := c.Doc(1200)
	for i := 0; i < 12; i++ {
		c.Insert("db", fmt.Sprintf("k%02d", i), doc)
		doc = c.Edit(doc)
	}
	c.Flush()
	for round := 0; round < 4; round++ {
		for i := 0; i < 12; i += 2 {
			doc = c.Edit(doc)
			c.Update("db", fmt.Sprintf("k%02d", i), doc)
		}
		c.Flush()
	}
	c.Compact()
	for i := 0; i < 12; i += 3 {
		c.Delete("db", fmt.Sprintf("k%02d", i))
	}
	c.Flush()
	c.Compact()
	c.Insert("db", "post-compact", doc)
	c.Flush()
}

// replicated drives the member with a live follower attached mid-script:
// inserts stream, updates and deletes follow, and sync points bound the
// replication lag. Crash points sever the stream at arbitrary places; settle
// then has a new follower resync the recovered member in full.
func replicated(c *bed) {
	doc := c.Doc(1400)
	for i := 0; i < 10; i++ {
		c.Insert("db", fmt.Sprintf("r%02d", i), doc)
		doc = c.Edit(doc)
	}
	c.Flush()
	c.StartReplica()
	c.SyncReplica()
	for i := 0; i < 10; i += 2 {
		doc = c.Edit(doc)
		c.Update("db", fmt.Sprintf("r%02d", i), doc)
	}
	for i := 1; i < 10; i += 4 {
		c.Delete("db", fmt.Sprintf("r%02d", i))
	}
	c.Flush()
	c.SyncReplica()
	for i := 10; i < 16; i++ {
		c.Insert("db", fmt.Sprintf("r%02d", i), doc)
		doc = c.Edit(doc)
	}
	c.Flush()
	c.SyncReplica()
}
