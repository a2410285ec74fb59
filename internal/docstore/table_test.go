package docstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dbdedup/internal/faultfs"
)

// TestSlotIsPointerFree pins the slot's size and that it holds no pointer, so
// that a page of slots is an allocation the collector never scans.
func TestSlotIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 48 {
		t.Fatalf("a slot is %d bytes, want at most 48", n)
	}
	typ := reflect.TypeOf(slot{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("slot.%s is a %s: a slot holds scalars only", f.Name, f.Type)
		}
	}
}

// TestTableBytesPerLiveRecord appends 100 000 records under dense IDs and
// holds the record table to 64 bytes per live record: by its own account in
// Stats, and by what the heap grows when a bare table takes as many slots.
func TestTableBytesPerLiveRecord(t *testing.T) {
	const n = 100_000
	s := memStore(t, Options{})
	payload := []byte("sixteen byte rec")
	for id := uint64(1); id <= n; id++ {
		if err := s.Append(Record{ID: id, DB: "d", Key: strconv.FormatUint(id, 36), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LiveRecords != n {
		t.Fatalf("%d live records, want %d", st.LiveRecords, n)
	}
	if per := float64(st.RecordTableBytes) / n; per > 64 {
		t.Fatalf("the record table reports %d bytes, %.1f per live record; want at most 64", st.RecordTableBytes, per)
	}

	// The heap's view of the same: a table that takes n sealed records,
	// their keys one shared string (a key's bytes are the key directory's).
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	tab := newRecTable()
	for id := uint64(1); id <= n; id++ {
		tab.put(id, slot{off: int64(id), payloadLen: 16}, "k", nil)
	}
	grew := heap() - before
	if per := float64(grew) / n; per > 64 {
		t.Fatalf("the heap grew %d bytes for %d records, %.1f per record; want at most 64", grew, n, per)
	}
	if got := tab.bytes(); got > int64(grew)+int64(grew)/8 || got < int64(grew)-int64(grew)/8 {
		t.Errorf("the table reports %d bytes; the heap grew %d", got, grew)
	}
	runtime.KeepAlive(tab)
}

// TestSparseIDsCostAPageEach stores records under IDs far apart, the
// planted 1 << 40 among them: each costs one page, and the heap grows by no
// more.
func TestSparseIDsCostAPageEach(t *testing.T) {
	const n = 64
	ids := []uint64{1 << 40}
	for i := uint64(1); len(ids) < n; i++ {
		ids = append(ids, i<<33+i)
	}
	s := memStore(t, Options{})
	for _, id := range ids {
		if err := s.Append(Record{ID: id, DB: "d", Key: fmt.Sprint(id), Payload: []byte("p")}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Stats().RecordTableBytes, int64(n)*pageBytes; got != want {
		t.Fatalf("%d sparse records: the table holds %d bytes, want %d (a page each)", n, got, want)
	}
	for _, id := range ids {
		if m, ok := s.Meta(id); !ok || m.Key != fmt.Sprint(id) {
			t.Fatalf("Meta(%d) = %+v, %v", id, m, ok)
		}
	}

	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	tab := newRecTable()
	for _, id := range ids {
		tab.put(id, slot{}, "k", nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	// A quarter on top of the pages is room for the shards' map buckets
	// (about 3 %) and what the race detector adds (another 4 %).
	if grew, bound := int64(m.HeapAlloc-before), int64(n)*pageBytes*5/4; grew > bound {
		t.Fatalf("%d sparse IDs grew the heap by %d bytes, want at most %d", n, grew, bound)
	}
	runtime.KeepAlive(tab)
}

// TestRetiringAPageFreesIt deletes every record of one page, pending and
// sealed, hidden or not: the page goes with the last of them, and a page
// that still has a record stays. Replaying the tombstones allocates none.
func TestRetiringAPageFreesIt(t *testing.T) {
	opts := Options{Dir: "d", BlockSize: 1 << 10, FS: faultfs.NewMemFS()}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	first := uint64(3 * pageSize) // the page [3*pageSize, 4*pageSize)
	put := func(id uint64, hidden bool) {
		t.Helper()
		if err := s.Append(Record{ID: id, DB: "d", Key: fmt.Sprint(id), Payload: bytes.Repeat([]byte{'x'}, 40), Hidden: hidden}); err != nil {
			t.Fatal(err)
		}
	}
	for id := first; id < first+pageSize; id++ {
		put(id, id%3 == 0)
	}
	put(first+pageSize, false) // the next page's first record
	if got := s.Stats().RecordTableBytes; got != 2*pageBytes {
		t.Fatalf("two pages hold %d bytes, want %d", got, 2*pageBytes)
	}
	for id := first; id < first+pageSize; id++ {
		if id == first+pageSize/2 {
			if err := s.Flush(); err != nil { // half of them are sealed when they go
				t.Fatal(err)
			}
		}
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		if id < first+pageSize-1 && s.Stats().RecordTableBytes != 2*pageBytes {
			t.Fatalf("the page went before its last record (%d)", id)
		}
	}
	st := s.Stats()
	if st.RecordTableBytes != pageBytes || st.LiveRecords != 1 {
		t.Fatalf("after the page's last delete: %d bytes, %d live records; want one page, one record", st.RecordTableBytes, st.LiveRecords)
	}
	for i := range s.recs.shards {
		for pn := range s.recs.shards[i].pages {
			if pn != (first+pageSize)>>pageBits {
				t.Fatalf("page %d is still in the table", pn)
			}
		}
		for id := range s.recs.shards[i].pending {
			if id != first+pageSize {
				t.Fatalf("deleted record %d's pending copy is still held", id)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.RecordTableBytes != pageBytes || st.LiveRecords != 1 {
		t.Fatalf("after replay: %d bytes, %d live records; want one page, one record", st.RecordTableBytes, st.LiveRecords)
	}
}

// TestTableReadStress races readers of the record table (Meta, View, Range)
// against everything that changes it: appends that overwrite, hide and delete
// (whole pages at a time, so pages are freed and allocated again under the
// readers), the sealer retiring pending copies, and compaction moving
// records. Version v of record id has a payload that names (id, v), BaseID v
// and a length and flags that follow from v, so every read can tell which
// version it saw, and it must be one between the last the writer finished
// before the read and the last it began by the read's end, and whole.
func TestTableReadStress(t *testing.T) {
	const (
		ids     = 64
		first   = uint64(pageSize - 24) // the records span two pages
		readers = 3
	)
	versions := 100
	if testing.Short() {
		versions = 20
	}
	deleted := func(v int) bool { return v%5 == 0 }
	hidden := func(v int) bool { return v%7 == 3 }
	var payloads [ids][]([]byte)
	var keys [ids]string
	for i := range payloads {
		id := first + uint64(i)
		keys[i] = fmt.Sprint("k", id)
		for v := 0; v <= versions; v++ {
			payloads[i] = append(payloads[i], []byte(fmt.Sprintf("id=%d v=%d %s", id, v, bytes.Repeat([]byte{'p'}, 16+int(id+uint64(v))%48))))
		}
	}
	payload := func(id uint64, v int) []byte {
		if v < 0 || v > versions {
			return nil
		}
		return payloads[id-first][v]
	}
	key := func(id uint64) string { return keys[id-first] }

	s := memStore(t, Options{BlockSize: 512, SegmentSize: 4 << 10, CacheBlocks: 4})
	var done, begun [ids]atomic.Int64 // per record, the last version written and the last begun
	var stop atomic.Bool
	var reads, moved atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)

	// judge holds a version seen between lo and hi of record id to the rule.
	judge := func(what string, id uint64, lo, hi int64, v int64, present bool) bool {
		if !present {
			for w := lo; w <= hi; w++ {
				if w == 0 || deleted(int(w)) {
					return true
				}
			}
			t.Errorf("%s(%d): absent, but versions %d..%d are all records", what, id, lo, hi)
			return false
		}
		if v < lo || v > hi || deleted(int(v)) {
			t.Errorf("%s(%d): version %d, want a record's version in %d..%d", what, id, v, lo, hi)
			return false
		}
		return true
	}
	checkMeta := func(what string, id uint64, m MetaInfo) int64 {
		v := int64(m.BaseID)
		if m.DB != "d" || m.Key != key(id) || m.Form != FormDelta || m.Hidden != hidden(int(v)) ||
			m.PayloadLen != len(payload(id, int(v))) {
			t.Errorf("%s(%d) = %+v: not version %d's metadata", what, id, m, v)
		}
		return v
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() && !t.Failed() {
				i := rng.Intn(ids)
				id := first + uint64(i)
				lo := done[i].Load()
				switch r {
				case 0:
					m, ok := s.Meta(id)
					v := int64(-1)
					if ok {
						v = checkMeta("Meta", id, m)
					}
					judge("Meta", id, lo, begun[i].Load(), v, ok)
				case 1:
					var st Stored
					var p []byte
					ok, err := s.View(id, func(v Stored) { st, p = v, append([]byte(nil), v.Payload...) })
					if err != nil {
						t.Errorf("View(%d): %v", id, err)
						return
					}
					v := int64(st.BaseID)
					if ok && (st.Form != FormDelta || st.Hidden != hidden(int(v)) || !bytes.Equal(p, payload(id, int(v)))) {
						t.Errorf("View(%d): form %d, hidden %v, payload %q: not version %d", id, st.Form, st.Hidden, p, v)
					}
					judge("View", id, lo, begun[i].Load(), v, ok)
				default:
					var los [ids]int64
					for j := range los {
						los[j] = done[j].Load()
					}
					var seen [ids]int64
					s.Range(func(id uint64, m MetaInfo) bool {
						j := id - first
						if j >= ids {
							t.Errorf("Range: record %d was never written", id)
							return false
						}
						seen[j] = checkMeta("Range", id, m)
						return true
					})
					for j := range seen {
						judge("Range", first+uint64(j), los[j], begun[j].Load(), seen[j], seen[j] != 0)
					}
				}
				reads.Add(1)
				runtime.Gosched() // leave the writer its share of two cores
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			n, err := s.Compact()
			if err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
			moved.Add(n)
			runtime.Gosched()
		}
	}()

	for v := 1; v <= versions && !t.Failed(); v++ {
		for i := 0; i < ids; i++ {
			id := first + uint64(i)
			begun[i].Store(int64(v))
			rec := Record{ID: id, DB: "d", Key: key(id), Form: FormDelta, BaseID: uint64(v), Hidden: hidden(v), Payload: payload(id, v)}
			if deleted(v) {
				rec = Record{ID: id, Tombstone: true}
			}
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
			done[i].Store(int64(v))
		}
	}
	// One pass, at least, moved records under the readers.
	waitFor(t, "a compaction pass", func() bool { return moved.Load() > 0 || t.Failed() })
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return // the writer stopped early
	}
	if reads.Load() == 0 {
		t.Fatal("no read ran")
	}
	t.Logf("%d reads, %d bytes reclaimed", reads.Load(), moved.Load())
	for i := 0; i < ids; i++ {
		id := first + uint64(i)
		got, ok, err := s.Get(id)
		if err != nil || ok == deleted(versions) || (ok && !bytes.Equal(got.Payload, payload(id, versions))) {
			t.Fatalf("record %d after the run: %v %v %q", id, ok, err, got.Payload)
		}
	}
}
