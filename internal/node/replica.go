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

// ErrFetchUnavailable reports that the primary answered a base fetch with an
// error instead of the record or its absence: it could not read the record.
// A record deleted there is not this error but an absent Stamped. Retrying
// cannot help, so the applier stops on it.
var ErrFetchUnavailable = errors.New("node: record unavailable at source")

// ErrFetchRefused reports that the primary refused a base fetch asked in
// another log than its own: it restarted since the entry was logged.
var ErrFetchRefused = errors.New("node: fetch refused: the source is in another log")

// Stamped is a key's whole record as a node read it at Stamp, the node's
// mutation number at the time: it reflects every mutation of the key numbered
// up to Stamp. Present is false, and Content nil, when the key was absent.
type Stamped struct {
	Stamp   uint64
	Present bool
	Content []byte
}

// ReadStamped reads (db, key) whole, with the stamp it was read at: the
// record's ID and the stamp under n.mu, then its content, then the ID again,
// retrying if it changed. A mutation of the key moves it to another record or
// to none (IDs are not reused), so no mutation of the key fell between the
// stamp and the read.
func (n *Node) ReadStamped(db, key string) (Stamped, error) {
	for {
		n.mu.RLock()
		id, ok := n.lookup(db, key)
		stamp := n.opSeq
		n.mu.RUnlock()
		if !ok {
			return Stamped{Stamp: stamp}, nil
		}
		content, err := n.Read(db, key)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return Stamped{}, err
		}
		n.mu.RLock()
		again, ok := n.lookup(db, key)
		same := ok && again == id
		n.mu.RUnlock()
		if same && err == nil {
			return Stamped{Stamp: stamp, Present: true, Content: content}, nil
		}
	}
}

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

// Scan streams db's records to fn (every database's when db is ""), each as
// ReadStamped reads it, in sorted (db, key) order, stopping early if fn
// returns false, and returns its cursor: the mutation number in the n.mu
// section that listed the keys. A key missing from the listing was absent at
// the cursor, and a listed key is read at or after it, so the records reflect
// every mutation up to the cursor; a key deleted since the listing arrives
// absent. A handoff freezes the database first, which makes the scan exact.
func (n *Node) Scan(db string, fn func(db, key string, r Stamped) bool) (cursor uint64, err error) {
	dbs := []string{db}
	n.mu.RLock()
	cursor = n.opSeq
	if db == "" {
		dbs = n.DBNames()
	}
	keys := make([][]string, len(dbs))
	for i, d := range dbs {
		keys[i] = n.DBKeys(d)
	}
	n.mu.RUnlock()
	for i, d := range dbs {
		for _, key := range keys[i] {
			r, err := n.ReadStamped(d, key)
			if err != nil {
				return cursor, err
			}
			if !fn(d, key, r) {
				return cursor, nil
			}
		}
	}
	return cursor, nil
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
			n.eng.ObserveRaw(db, job.id, job.payload, false)
		}
		if !errors.Is(err, ErrDuplicateKey) {
			return n.finish(job, err)
		}
	}
	return n.finish(n.mutateLocalEmit(oplog.OpUpdate, db, key, payload, emit))
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
		err = n.finish(n.mutateLocalEmit(oplog.OpDelete, db, key, nil, emit))
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
// against the base key's visible content and then re-encoded backward (the
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
	case oplog.OpUpdate, oplog.OpDelete:
		return n.finish(n.mutateLocalEmit(e.Op, e.DB, e.Key, e.Payload, false))
	default:
		return fmt.Errorf("node: unknown replicated op %d", e.Op)
	}
}

func (n *Node) applyReplicatedInsert(e oplog.Entry) error {
	if n.Has(e.DB, e.Key) {
		return fmt.Errorf("node: replicated insert of existing key %q/%q", e.DB, e.Key)
	}
	if e.Form != oplog.FormDelta {
		job, err := n.insertLocalEmit(e.DB, e.Key, e.Payload, false, false)
		if err == nil && n.eng != nil {
			n.eng.ObserveRaw(e.DB, job.id, e.Payload, e.Form == oplog.FormRawDisabled)
		}
		return err
	}

	// Forward-encoded insert: reconstruct the record from the base key's
	// visible content, then mirror the primary's backward encoding. The
	// primary shipped the delta only against a record its key still named,
	// so that content is what it encoded against, and at this position in the
	// oplog it is the one content of the key both nodes agree on: how the
	// secondary stores the record follows its own flush timing.
	srcID, ok := n.store.Lookup(e.DB, e.BaseKey)
	if !ok {
		// Rare: the base is almost always already replicated. Nothing was
		// reserved or counted yet, so the caller falls back to fetching the
		// full record from the primary and Upsert counts it exactly once.
		return fmt.Errorf("%w: %q/%q (insert of %q)", ErrBaseMissing, e.DB, e.BaseKey, e.Key)
	}
	// The content is borrowed, from the source cache as a read takes it or
	// else from a scratch, for the rest of the call: the new record is applied
	// from it and the backward delta is re-encoded against it, and neither
	// outlives queueWritebacks below.
	srcContent, hit := n.peekSource(srcID)
	if !hit {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		var err error
		if srcContent, err = n.decode(sc, srcID, visibleContent); err != nil {
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
		n.queueWritebacks(res.Writebacks)
	}
	return nil
}
