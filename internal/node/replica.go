package node

import (
	"errors"
	"fmt"
	"sort"

	"dbdedup/internal/delta"
	"dbdedup/internal/oplog"
)

// The replication surface: what repl (oplog streaming, snapshot resync) and
// cluster (shard handoff) use to move state between nodes. Bulk state moves
// through three verbs, Scan out of a node and Upsert and Retain into one, and
// an oplog entry through ApplyReplicated. Whatever arrives whole is stored raw
// and left to write-backs to encode; only a forward-encoded entry is
// re-encoded inline.

// ErrBaseMissing reports that a forward-encoded insert references a base
// record this node does not hold. The replication layer reacts by fetching
// the full record from the primary (paper §4.1 fn. 4).
var ErrBaseMissing = errors.New("node: delta base not present")

// ErrFetchUnavailable reports that the base-miss fetch fallback reached the
// primary but the primary no longer holds the record — typically because it
// was deleted (or replaced) after the insert was logged. The stream will
// carry that delete/replace in a later entry, so the applier treats this as
// "skip the insert and expect the follow-up" rather than as pool poison.
var ErrFetchUnavailable = errors.New("node: record unavailable at source")

// DBNames returns the names of databases currently holding at least one key,
// sorted for deterministic iteration.
func (n *Node) DBNames() []string {
	out := n.store.DBNames()
	sort.Strings(out)
	return out
}

// DBKeys returns db's live keys, sorted: a snapshot of the database's key
// directory, which writers may change as soon as it is taken. Handoff callers
// freeze the database's client traffic first, which makes it exact.
func (n *Node) DBKeys(db string) []string {
	out := n.store.Keys(db)
	sort.Strings(out)
	return out
}

// Scan streams the decoded visible content of db's records to fn in sorted
// (db, key) order, every database's when db is "", stopping early if fn
// returns false. It reads live state: a key deleted since it was listed is
// skipped, and a record mutated concurrently may appear in either version.
// That is enough for a resync, which replays the oplog entries issued during
// the scan on top, and exact for a handoff, which freezes the database first.
func (n *Node) Scan(db string, fn func(db, key string, content []byte) bool) error {
	dbs := []string{db}
	if db == "" {
		dbs = n.DBNames()
	}
	for _, d := range dbs {
		for _, key := range n.DBKeys(d) {
			content, err := n.Read(d, key)
			if errors.Is(err, ErrNotFound) {
				continue // deleted during the scan
			}
			if err != nil {
				return err
			}
			if !fn(d, key, content) {
				return nil
			}
		}
	}
	return nil
}

// Upsert stores a record that arrived whole: update if the key is present,
// insert if not, update after all if another writer inserted it in between,
// so replaying it is harmless. Admission control is never consulted: what
// arrives here the cluster already acked, and shedding or rejecting it would
// turn overload into data loss. With emit (a shard-handoff record) it is a
// normal write with an encode job and an oplog entry, so this node's replica
// chain sees it like client traffic; without (a snapshot record, or the fetch
// fallback of a base miss) it is the local half of one.
func (n *Node) Upsert(db, key string, payload []byte, emit bool) error {
	if !n.Has(db, key) {
		// The node keeps what it inserts; payload stays the caller's.
		job, err := n.insertLocalEmit(db, key, append([]byte(nil), payload...), emit, false)
		if err == nil && !emit && n.eng != nil {
			n.eng.ObserveRaw(db, job.id, job.payload)
		}
		if !errors.Is(err, ErrDuplicateKey) {
			return n.finish(job, err)
		}
	}
	return n.finish(n.updateLocalEmit(db, key, payload, emit))
}

// Retain deletes every live key of db that keep rejects (nil keeps nothing),
// in sorted order, and returns how many it deleted. A key already gone is
// skipped; any other error ends the pass with the count so far, and the rest
// stays for the caller to retry: a delete that failed is a record still
// there. With emit each delete is a client delete with its oplog entry (a
// shard shedding a moved-away or half-transferred database, so its replica
// chain sheds it too); without, it is the local half (a secondary dropping
// what the snapshot it just applied did not carry).
func (n *Node) Retain(db string, keep func(key string) bool, emit bool) (dropped int, err error) {
	for _, key := range n.DBKeys(db) {
		if keep != nil && keep(key) {
			continue
		}
		err = n.finish(n.deleteLocalEmit(db, key, emit))
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return dropped, err
		}
		dropped++
	}
	return dropped, nil
}

// ApplyReplicated applies one oplog entry shipped from a primary. Entries
// of one database must be applied in sequence order (a forward-encoded
// insert's BaseKey always names a record of the same database); entries of
// independent databases may be applied concurrently — the Applier's sharding
// invariant. Forward-encoded inserts are decoded
// against the locally stored base record and then re-encoded backward (the
// dbDedup re-encoder of Fig. 8), so the secondary converges to the same
// storage layout as the primary without ever receiving full record contents.
//
// The node keeps e.Payload: a raw insert's bytes become the stored record's
// pending copy, the encoder's input and the source cache's entry without
// another copy, so the caller must not modify them afterwards. oplog.Unmarshal
// hands out a detached Payload and an oplog.Log's retained entries are never
// written again, which covers the wire and the in-process callers.
func (n *Node) ApplyReplicated(e oplog.Entry) error {
	switch e.Op {
	case oplog.OpInsert:
		return n.applyReplicatedInsert(e)
	case oplog.OpUpdate:
		return n.finish(n.updateLocalEmit(e.DB, e.Key, e.Payload, false))
	case oplog.OpDelete:
		return n.finish(n.deleteLocalEmit(e.DB, e.Key, false))
	default:
		return fmt.Errorf("node: unknown replicated op %d", e.Op)
	}
}

// ApplyReplicatedLenient applies an oplog entry with resync tolerance: ops
// may have been concurrent with the snapshot scan, so an insert of an
// existing key is skipped (the snapshot carried the record), updates and
// deletes of missing keys are ignored, and a forward-encoded insert is never
// decoded here. Used by the replication layer while catching up across a
// snapshot window.
func (n *Node) ApplyReplicatedLenient(e oplog.Entry) error {
	if e.Op == oplog.OpInsert && n.Has(e.DB, e.Key) {
		return nil
	}
	if e.Op == oplog.OpInsert && e.Form != oplog.FormRaw {
		// The snapshot's copy of the base can be newer than the one the
		// primary encoded against: the scan may read it after a later
		// update, and delta.Apply checks only ranges and length, so
		// decoding would store wrong bytes without an error. The insert
		// arrives whole instead: ErrBaseMissing sends the applier to its
		// fetch fallback, which installs the primary's copy.
		return fmt.Errorf("%w: %q/%q (insert of %q in a snapshot's window)", ErrBaseMissing, e.DB, e.BaseKey, e.Key)
	}
	err := n.ApplyReplicated(e)
	if e.Op != oplog.OpInsert && errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

func (n *Node) applyReplicatedInsert(e oplog.Entry) error {
	if n.Has(e.DB, e.Key) {
		return fmt.Errorf("node: replicated insert of existing key %q/%q", e.DB, e.Key)
	}
	if e.Form == oplog.FormRaw {
		job, err := n.insertLocalEmit(e.DB, e.Key, e.Payload, false, false)
		if err == nil && n.eng != nil {
			n.eng.ObserveRaw(e.DB, job.id, e.Payload)
		}
		return err
	}

	// Forward-encoded insert: reconstruct the record from the local copy
	// of the base, then mirror the primary's backward encoding.
	srcID, updated, ok := n.store.Lookup(e.DB, e.BaseKey)
	if !ok {
		// Rare: the base is almost always already replicated. Nothing was
		// reserved or counted yet, so the caller falls back to fetching the
		// full record from the primary and Upsert counts it exactly once.
		return fmt.Errorf("%w: %q/%q (insert of %q)", ErrBaseMissing, e.DB, e.BaseKey, e.Key)
	}
	// The base's content is borrowed, from the source cache as a read takes
	// it (only while the key says it was never updated: the cache can still
	// hold an updated record's insert payload) or else from a scratch, for
	// the rest of the call: the new record is applied from it and the
	// backward delta is re-encoded against it, and neither outlives
	// queueWritebacks below.
	srcContent, hit := n.peekSource(srcID, updated)
	if !hit {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		var err error
		if srcContent, err = n.decode(sc, srcID, baseContent); err != nil {
			return fmt.Errorf("node: decoding base %q/%q: %w", e.DB, e.BaseKey, err)
		}
	}
	fwd, err := delta.Unmarshal(e.Payload)
	if err != nil {
		return fmt.Errorf("node: forward delta for %q/%q: %w", e.DB, e.Key, err)
	}
	payload, err := delta.Apply(srcContent, fwd)
	if err != nil {
		return fmt.Errorf("node: applying forward delta for %q/%q: %w", e.DB, e.Key, err)
	}
	job, err := n.insertLocalEmit(e.DB, e.Key, payload, false, false)
	if err != nil {
		return err
	}
	if n.eng != nil {
		res := n.eng.EncodeAsReplica(e.DB, job.id, payload, srcID, srcContent, fwd)
		n.queueWritebacks(res.Writebacks, job.opSeq)
	}
	return nil
}
