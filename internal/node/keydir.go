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
type keyDir struct {
	dbs sync.Map // db name -> *sync.Map (key -> uint64 record ID)
}

// load resolves (db, key) without locking.
func (d *keyDir) load(db, key string) (uint64, bool) {
	v, ok := d.dbs.Load(db)
	if !ok {
		return 0, false
	}
	id, ok := v.(*sync.Map).Load(key)
	if !ok {
		return 0, false
	}
	return id.(uint64), true
}

// dbMap returns db's key map, creating it on first use.
func (d *keyDir) dbMap(db string) *sync.Map {
	if v, ok := d.dbs.Load(db); ok {
		return v.(*sync.Map)
	}
	v, _ := d.dbs.LoadOrStore(db, &sync.Map{})
	return v.(*sync.Map)
}

// put publishes (db, key) → id. Call only after the record is appended.
func (d *keyDir) put(db, key string, id uint64) {
	d.dbMap(db).Store(key, id)
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
		v.(*sync.Map).Range(func(k, v any) bool { return fn(k.(string), v.(uint64)) })
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
