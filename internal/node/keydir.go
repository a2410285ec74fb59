package node

import "sync"

// keyDir is the node's key→record-ID directory, using the same lock-free
// publish discipline as the docstore record maps: readers resolve keys with
// no lock at all (Read/Has stay off n.mu entirely), while writers — already
// serialised per database by n.mu on the client path and by the applier's
// FIFO shards on the replica path — publish a key only after its record is
// durably appended. A reader can therefore never resolve a key to a record
// the store does not yet hold; the price is that a key becomes visible a
// hair later than under the old RLock scheme, which no invariant depends
// on.
//
// Beside the ID a key carries one bit, mutated: the record may no longer hold
// the content it was inserted with. It is the only thing a reader can learn
// without a lock about whether the source cache's copy of the record, which
// is always an insert payload, is still what a client should see. It is
// stored with the key before the update that sets it is acknowledged and never
// cleared; a delete takes the key away altogether. A key directory rebuilt at
// Open knows no record's history, so every key it publishes has the bit set.
type keyDir struct {
	dbs sync.Map // db name -> *sync.Map (key -> uint64: record ID | mutatedBit)
}

// mutatedBit marks a key's value; record IDs count up from 1 and stay below it.
const mutatedBit = 1 << 63

// load resolves (db, key) without locking.
func (d *keyDir) load(db, key string) (id uint64, mutated, ok bool) {
	dv, ok := d.dbs.Load(db)
	if !ok {
		return 0, false, false
	}
	v, ok := dv.(*sync.Map).Load(key)
	if !ok {
		return 0, false, false
	}
	id = v.(uint64)
	return id &^ mutatedBit, id&mutatedBit != 0, true
}

// dbMap returns db's key map, creating it on first use.
func (d *keyDir) dbMap(db string) *sync.Map {
	if v, ok := d.dbs.Load(db); ok {
		return v.(*sync.Map)
	}
	v, _ := d.dbs.LoadOrStore(db, &sync.Map{})
	return v.(*sync.Map)
}

// putMutated publishes (db, key) → id with the mutated bit: a record that is
// being updated, or one found at Open. An insert stores the bare ID into
// dbMap itself, after the record is appended.
func (d *keyDir) putMutated(db, key string, id uint64) {
	d.dbMap(db).Store(key, id|mutatedBit)
}

// delete unpublishes (db, key).
func (d *keyDir) delete(db, key string) {
	if v, ok := d.dbs.Load(db); ok {
		v.(*sync.Map).Delete(key)
	}
}

// rangeDB visits every (key, id) of one database; fn returning false stops the
// walk. Like sync.Map.Range it observes a live directory, which is what the
// scan and retain paths want (their callers replay concurrent mutations on
// top). The cost is db's keys, however many other databases there are.
func (d *keyDir) rangeDB(db string, fn func(key string, id uint64) bool) {
	if v, ok := d.dbs.Load(db); ok {
		v.(*sync.Map).Range(func(k, v any) bool { return fn(k.(string), v.(uint64)&^mutatedBit) })
	}
}

// names returns the databases holding at least one key, unsorted. A database
// whose keys were all deleted keeps its (empty) map and is not listed.
func (d *keyDir) names() []string {
	var out []string
	d.dbs.Range(func(dk, dv any) bool {
		dv.(*sync.Map).Range(func(_, _ any) bool {
			out = append(out, dk.(string))
			return false
		})
		return true
	})
	return out
}
