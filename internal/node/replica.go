package node

import (
	"errors"
	"fmt"

	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
	"dbdedup/internal/oplog"
)

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
		return n.updateLocal(e.DB, e.Key, e.Payload)
	case oplog.OpDelete:
		return n.deleteLocal(e.DB, e.Key)
	default:
		return fmt.Errorf("node: unknown replicated op %d", e.Op)
	}
}

func (n *Node) applyReplicatedInsert(e oplog.Entry) error {
	if _, exists := n.keys.load(e.DB, e.Key); exists {
		return fmt.Errorf("node: replicated insert of existing key %q/%q", e.DB, e.Key)
	}
	n.mu.Lock()
	id := n.nextID
	n.nextID++
	n.stats.Inserts++
	n.mu.Unlock()

	// undoReservation rolls back the insert counter on any failure before
	// the record is durably appended. The key→ID mapping needs no undo:
	// under the keyDir publish discipline it is only stored *after* a
	// successful append, so a failed insert leaves no dangling mapping for
	// readers to trip on — and the ErrBaseMissing fetch fallback can
	// re-install the record via ApplySnapshotRecord without double-counting.
	undoReservation := func() {
		n.mu.Lock()
		n.stats.Inserts--
		n.mu.Unlock()
	}

	if e.Form == oplog.FormRaw {
		payload := e.Payload
		if err := n.store.Append(docstore.Record{ID: id, DB: e.DB, Key: e.Key, Payload: payload}); err != nil {
			undoReservation()
			return err
		}
		n.keys.put(e.DB, e.Key, id)
		n.mu.Lock()
		n.stats.RawInsertBytes += int64(len(payload))
		n.mu.Unlock()
		if n.eng != nil {
			n.eng.ObserveRaw(e.DB, id, payload)
		}
		return nil
	}

	// Forward-encoded insert: reconstruct the record from the local copy
	// of the base, then mirror the primary's backward encoding.
	srcID, ok := n.lookup(e.DB, e.BaseKey)
	if !ok {
		// Rare: the base is almost always already replicated. Undo the
		// reservation and let the caller fall back to fetching the full
		// record from the primary.
		undoReservation()
		return fmt.Errorf("%w: %q/%q (insert of %q)", ErrBaseMissing, e.DB, e.BaseKey, e.Key)
	}
	// The base's content is borrowed from a scratch for the rest of the
	// call: the new record is applied from it and the backward delta is
	// re-encoded against it, and neither outlives queueWritebacks below.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	srcContent, err := n.decode(sc, srcID, baseContent)
	if err != nil {
		undoReservation()
		return fmt.Errorf("node: decoding base %q/%q: %w", e.DB, e.BaseKey, err)
	}
	fwd, err := delta.Unmarshal(e.Payload)
	if err != nil {
		undoReservation()
		return fmt.Errorf("node: forward delta for %q/%q: %w", e.DB, e.Key, err)
	}
	payload, err := delta.Apply(srcContent, fwd)
	if err != nil {
		undoReservation()
		return fmt.Errorf("node: applying forward delta for %q/%q: %w", e.DB, e.Key, err)
	}
	if err := n.store.Append(docstore.Record{ID: id, DB: e.DB, Key: e.Key, Payload: payload}); err != nil {
		undoReservation()
		return err
	}
	n.keys.put(e.DB, e.Key, id)
	n.mu.Lock()
	n.stats.RawInsertBytes += int64(len(payload))
	n.mu.Unlock()

	if n.eng != nil {
		res := n.eng.EncodeAsReplica(e.DB, id, payload, srcID, srcContent, fwd)
		n.mu.RLock()
		newVer := n.version[id]
		n.mu.RUnlock()
		n.queueWritebacks(res.Writebacks, id, newVer)
	}
	return nil
}
