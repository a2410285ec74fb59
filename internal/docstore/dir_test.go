package docstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dbdedup/internal/faultfs"
)

// published is what the key directory says of one key.
type published struct {
	id      uint64
	updated bool
}

// dirOf is database db's key directory, read through Keys and Lookup.
func dirOf(s *Store, db string) map[string]published {
	out := map[string]published{}
	for _, k := range s.Keys(db) {
		if id, updated, ok := s.Lookup(db, k); ok {
			out[k] = published{id, updated}
		}
	}
	return out
}

// TestKeyDirectory: the key directory follows what replace stores. Each row
// writes through Append and Delete and says what database "d" resolves to and
// how many payload bytes it holds; then the store is reopened, and replay must
// rebuild the same key → ID map, with every key's updated bit set, and the same
// byte count.
func TestKeyDirectory(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	rec := func(id uint64, key string) Record { return Record{ID: id, DB: "d", Key: key, Payload: payload} }
	hidden := func(id uint64, key string) Record { r := rec(id, key); r.Hidden = true; return r }
	updated := func(id uint64, key string) Record { r := rec(id, key); r.Updated = true; return r }
	del := func(id uint64) Record { return Record{ID: id, Tombstone: true} }

	for _, tc := range []struct {
		name  string
		write func(t *testing.T, s *Store)
		want  map[string]published
		bytes int64
	}{
		{
			name:  "an insert publishes its key",
			write: func(t *testing.T, s *Store) { mustAppend(t, s, rec(1, "k")) },
			want:  map[string]published{"k": {1, false}},
			bytes: 100,
		},
		{
			name: "an update sets the bit and a later version of the record keeps it",
			write: func(t *testing.T, s *Store) {
				mustAppend(t, s, rec(1, "k"))
				mustAppend(t, s, rec(2, "j"))
				mustAppend(t, s, updated(1, "k"))
				// The shape of a write-back or a compaction move: the
				// same record re-appended without the flag.
				mustAppend(t, s, Record{ID: 1, DB: "d", Key: "k", Form: FormDelta, BaseID: 2, Payload: payload[:10]})
				mustAppend(t, s, rec(2, "j"))
			},
			want:  map[string]published{"k": {1, true}, "j": {2, false}},
			bytes: 110,
		},
		{
			name: "a hidden record does not take its key back from a re-insert",
			write: func(t *testing.T, s *Store) {
				mustAppend(t, s, rec(5, "k"))
				mustAppend(t, s, hidden(5, "k"))
				mustAppend(t, s, rec(9, "k"))
				mustAppend(t, s, hidden(5, "k")) // a write-back of the hidden record
				mustAppend(t, s, del(5))
			},
			want:  map[string]published{"k": {9, false}},
			bytes: 100,
		},
		{
			name: "a hidden record's bytes still count",
			write: func(t *testing.T, s *Store) {
				mustAppend(t, s, rec(5, "k"))
				mustAppend(t, s, hidden(5, "k"))
			},
			want:  map[string]published{},
			bytes: 100,
		},
		{
			name: "a compacted segment and a carried tombstone",
			write: func(t *testing.T, s *Store) {
				for id := uint64(1); id <= 12; id++ { // fills and rolls the first segment
					mustAppend(t, s, rec(id, fmt.Sprint(id)))
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				// The tombstone, the hidden record and its successor are in
				// the second segment, which compaction moves and retires
				// while the first one stays.
				mustAppend(t, s, del(1))
				mustAppend(t, s, updated(2, "2"))
				mustAppend(t, s, rec(13, "h"))
				mustAppend(t, s, hidden(13, "h"))
				mustAppend(t, s, rec(14, "h"))
				for i := 0; i < 30; i++ {
					mustAppend(t, s, rec(100, "churn"))
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				for !s.segments[1].retired {
					if n, err := s.Compact(); n == 0 || err != nil || s.segments[0].retired {
						t.Fatalf("Compact: %d, %v; first segment retired: %v", n, err, s.segments[0].retired)
					}
				}
			},
			want: func() map[string]published {
				m := map[string]published{"2": {2, true}, "h": {14, false}, "churn": {100, false}}
				for id := uint64(3); id <= 12; id++ {
					m[fmt.Sprint(id)] = published{id, false}
				}
				return m
			}(),
			bytes: 14 * 100,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Dir: "d", FS: faultfs.NewMemFS(), BlockSize: 256, SegmentSize: 1024}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			tc.write(t, s)
			check := func(when string, want map[string]published) {
				t.Helper()
				if got := dirOf(s, "d"); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: directory %v, want %v", when, got, want)
				}
				if got := s.DBLogicalBytes("d"); got != tc.bytes {
					t.Errorf("%s: DBLogicalBytes %d, want %d", when, got, tc.bytes)
				}
				if names := fmt.Sprint(s.DBNames()); (names == "[d]") != (len(want) > 0) {
					t.Errorf("%s: DBNames %s with %d keys", when, names, len(want))
				}
			}
			check("before reopen", tc.want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(opts); err != nil {
				t.Fatal(err)
			}
			replayed := map[string]published{}
			for k, p := range tc.want {
				replayed[k] = published{p.id, true}
			}
			check("after reopen", replayed)
		})
	}
}

// TestDirectoryReadStress races readers resolving keys and reading what they
// resolve against a writer that inserts, updates, hides, re-inserts and
// deletes under the same keys, on small batches so that records seal while
// they are read. A key is published after its record is in the table, so a
// reader that resolves a key to a record finds it, unless the record's
// tombstone has been written since: the writer says which record it is about
// to delete before it does.
func TestDirectoryReadStress(t *testing.T) {
	const (
		keys    = 8
		rounds  = 200
		readers = 3
	)
	s := memStore(t, Options{BlockSize: 512})
	var doomed [keys]atomic.Uint64 // per key, the last record the writer began to delete
	var stop atomic.Bool
	var resolved atomic.Int64
	var wg, running sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		running.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i == 0 {
					running.Done()
				}
				k := (r + i) % keys
				key := fmt.Sprint("k", k)
				id, _, ok := s.Lookup("d", key)
				if !ok {
					continue
				}
				rec, found, err := s.Get(id)
				switch {
				case err != nil:
					t.Errorf("Get(%d) of %s: %v", id, key, err)
					return
				case !found && doomed[k].Load() < id:
					t.Errorf("%s resolved to %d, which the store does not hold", key, id)
					return
				case found && (rec.DB != "d" || rec.Key != key):
					t.Errorf("%s resolved to %d, which is %s/%s", key, id, rec.DB, rec.Key)
					return
				}
				resolved.Add(1)
			}
		}(r)
	}

	payload := bytes.Repeat([]byte("p"), 60)
	app := func(rec Record) {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Every reader is in its loop before the first key appears, so whether
	// one resolves a key is up to the store, not the scheduler.
	running.Wait()
	next := uint64(1)
	for round := 0; round < rounds && !t.Failed(); round++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprint("k", k)
			a, b := next, next+1
			next += 2
			app(Record{ID: a, DB: "d", Key: key, Payload: payload})
			app(Record{ID: a, DB: "d", Key: key, Payload: payload, Updated: true})
			app(Record{ID: a, DB: "d", Key: key, Payload: payload, Hidden: true})
			app(Record{ID: b, DB: "d", Key: key, Payload: payload})
			doomed[k].Store(a)
			app(Record{ID: a, Tombstone: true})
			if id, updated, ok := s.Lookup("d", key); !ok || id != b || updated {
				t.Errorf("%s after its hidden record's tombstone: %d, %v, %v; want %d, not updated", key, id, updated, ok, b)
			}
			doomed[k].Store(b)
			app(Record{ID: b, Tombstone: true})
		}
	}
	stop.Store(true)
	wg.Wait()
	if resolved.Load() == 0 {
		t.Fatal("readers never resolved a key")
	}
	if names := s.DBNames(); len(names) != 0 {
		t.Fatalf("databases with keys after every key was deleted: %v", names)
	}
}
