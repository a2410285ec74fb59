package docstore

import (
	"maps"
	"sync"
)

// dbDir is one database's part of the key directory, the other half of the
// primary index: (db, key) → record ID, kept beside the record table and
// written only by replace (settle), in the step that changes a record's
// current version. A key is published after its entry is in the record table,
// so a reader that resolves a key finds the record, or is racing the delete
// that removes it. A hidden version or a tombstone unpublishes its key only if
// the key still names that record: a record kept hidden for the chains that
// decode through it and one inserted under the same key since share the key.
//
// mu also guards the database's byte count. Writers hold s.mu and take mu
// after the record table's shard lock is released; readers take only its read
// lock, a leaf.
type dbDir struct {
	name  string
	num   uint32 // what a record's slot holds of its database
	mu    sync.RWMutex
	keys  map[string]uint64 // key -> record ID
	bytes int64             // live payload bytes, hidden records included
}

// noDB is what a database that never held a record reads as.
var noDB dbDir

// db returns the database's directory. s.dbs is copied on write, under s.mu,
// when a database first appears, so readers load it without a lock.
func (s *Store) db(name string) *dbDir {
	if dd := (*s.dbs.Load())[name]; dd != nil {
		return dd
	}
	return &noDB
}

// dbAt returns the database numbered num, as a record's slot names it.
func (s *Store) dbAt(num uint32) *dbDir { return (*s.dbList.Load())[num] }

// dbFor returns the database's directory, creating it when the database
// first appears: s.dbs and s.dbList are copied on write, the list first, so a
// reader that finds a number in a slot finds its directory. Caller holds s.mu
// (or is replay).
func (s *Store) dbFor(name string) *dbDir {
	if dd := s.db(name); dd != &noDB {
		return dd
	}
	list := *s.dbList.Load()
	dd := &dbDir{name: name, num: uint32(len(list)), keys: make(map[string]uint64)}
	list = append(list[:len(list):len(list)], dd)
	s.dbList.Store(&list)
	m := maps.Clone(*s.dbs.Load())
	m[name] = dd
	s.dbs.Store(&m)
	return dd
}

// settle moves the key directory from old, record rec.ID's version until now
// (if had), to rec, which is in database dd unless it is a tombstone. Caller
// is replace.
func (s *Store) settle(rec *Record, dd *dbDir, old *entry, had bool) {
	if had {
		od := s.dbAt(old.db)
		od.mu.Lock()
		od.bytes -= int64(old.payloadLen)
		if (rec.Tombstone || rec.Hidden) && od.keys[old.key] == rec.ID {
			delete(od.keys, old.key)
		}
		od.mu.Unlock()
	}
	if rec.Tombstone {
		return
	}
	dd.mu.Lock()
	dd.bytes += int64(len(rec.Payload))
	if !rec.Hidden {
		dd.keys[rec.Key] = rec.ID
	}
	dd.mu.Unlock()
}

// Lookup resolves (db, key) to the ID of the live, visible record stored under
// it. It takes only the database's read lock, never the writer lock.
func (s *Store) Lookup(db, key string) (id uint64, ok bool) {
	dd := s.db(db)
	dd.mu.RLock()
	id, ok = dd.keys[key]
	dd.mu.RUnlock()
	return id, ok
}

// Keys returns db's published keys, in unspecified order.
func (s *Store) Keys(db string) []string {
	dd := s.db(db)
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	out := make([]string, 0, len(dd.keys))
	for k := range dd.keys {
		out = append(out, k)
	}
	return out
}

// DBNames returns the databases with at least one published key, in
// unspecified order.
func (s *Store) DBNames() []string {
	var out []string
	for name, dd := range *s.dbs.Load() {
		dd.mu.RLock()
		if len(dd.keys) > 0 {
			out = append(out, name)
		}
		dd.mu.RUnlock()
	}
	return out
}

// DBLogicalBytes returns the live stored payload bytes of one database, hidden
// records included. It takes only the database's read lock.
func (s *Store) DBLogicalBytes(db string) int64 {
	dd := s.db(db)
	dd.mu.RLock()
	defer dd.mu.RUnlock()
	return dd.bytes
}
