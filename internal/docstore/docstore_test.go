package docstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/faultfs"
)

func memStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendGetPending(t *testing.T) {
	s := memStore(t, Options{})
	rec := Record{ID: 1, DB: "wiki", Key: "page/1", Payload: []byte("hello world")}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	// Still in the unsealed block.
	got, ok, err := s.Get(1)
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if got.DB != "wiki" || got.Key != "page/1" || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("Get = %+v", got)
	}
}

func TestGetAfterSeal(t *testing.T) {
	s := memStore(t, Options{BlockSize: 64})
	payload := bytes.Repeat([]byte("x"), 100) // forces a seal per append
	for i := uint64(1); i <= 10; i++ {
		if err := s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		got, ok, err := s.Get(i)
		if err != nil || !ok || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("Get(%d) = %v %v %v", i, ok, err, got)
		}
	}
}

func TestSupersedeKeepsLatest(t *testing.T) {
	s := memStore(t, Options{BlockSize: 64})
	s.Append(Record{ID: 1, DB: "d", Key: "k", Payload: []byte("version one")})
	s.Flush()
	s.Append(Record{ID: 1, DB: "d", Key: "k", Form: FormDelta, BaseID: 9, Payload: []byte("delta!")})
	got, ok, _ := s.Get(1)
	if !ok || got.Form != FormDelta || got.BaseID != 9 || string(got.Payload) != "delta!" {
		t.Fatalf("Get = %+v", got)
	}
	st := s.Stats()
	if st.LiveRecords != 1 {
		t.Errorf("LiveRecords = %d, want 1", st.LiveRecords)
	}
	if st.LogicalBytes != int64(len("delta!")) {
		t.Errorf("LogicalBytes = %d, want %d", st.LogicalBytes, len("delta!"))
	}
	if st.DeadBytes != int64(len("version one")) {
		t.Errorf("DeadBytes = %d, want %d", st.DeadBytes, len("version one"))
	}
}

func TestSupersedeWithinPendingBlock(t *testing.T) {
	s := memStore(t, Options{BlockSize: 1 << 20})
	s.Append(Record{ID: 1, DB: "d", Key: "k", Payload: []byte("first")})
	s.Append(Record{ID: 1, DB: "d", Key: "k", Payload: []byte("second")})
	got, ok, _ := s.Get(1)
	if !ok || string(got.Payload) != "second" {
		t.Fatalf("Get = %+v", got)
	}
	s.Flush()
	got, ok, _ = s.Get(1)
	if !ok || string(got.Payload) != "second" {
		t.Fatalf("post-seal Get = %+v", got)
	}
}

func TestDelete(t *testing.T) {
	s := memStore(t, Options{})
	s.Append(Record{ID: 1, DB: "d", Key: "k", Payload: []byte("data")})
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(1); ok {
		t.Fatal("deleted record still readable")
	}
	s.Flush()
	if _, ok, _ := s.Get(1); ok {
		t.Fatal("deleted record readable after seal")
	}
	if st := s.Stats(); st.LiveRecords != 0 {
		t.Errorf("LiveRecords = %d, want 0", st.LiveRecords)
	}
}

func TestMeta(t *testing.T) {
	s := memStore(t, Options{})
	s.Append(Record{ID: 3, DB: "mail", Key: "msg9", Form: FormDelta, BaseID: 2, Payload: []byte("abc")})
	m, ok := s.Meta(3)
	if !ok || m.DB != "mail" || m.Key != "msg9" || m.Form != FormDelta || m.BaseID != 2 || m.PayloadLen != 3 {
		t.Fatalf("Meta = %+v %v", m, ok)
	}
	if _, ok := s.Meta(99); ok {
		t.Fatal("Meta of absent record reported ok")
	}
}

func TestRange(t *testing.T) {
	s := memStore(t, Options{BlockSize: 128})
	want := map[uint64]string{}
	for i := uint64(1); i <= 50; i++ {
		payload := fmt.Sprintf("record %d payload", i)
		want[i] = payload
		s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: []byte(payload)})
	}
	s.Delete(7)
	delete(want, 7)

	got := map[uint64]string{}
	s.Range(func(id uint64, m MetaInfo) bool {
		rec, ok, err := s.Get(id)
		if err != nil || !ok || rec.Key != m.Key || len(rec.Payload) != m.PayloadLen {
			t.Errorf("Range showed record %d as %+v; Get: %+v, %v, %v", id, m, rec, ok, err)
		}
		got[id] = string(rec.Payload)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d records, want %d", len(got), len(want))
	}
	for id, p := range want {
		if got[id] != p {
			t.Errorf("record %d = %q, want %q", id, got[id], p)
		}
	}
}

func TestBlockCompression(t *testing.T) {
	comp := memStore(t, Options{BlockSize: 4096, Compress: true})
	plain := memStore(t, Options{BlockSize: 4096})
	payload := bytes.Repeat([]byte("compressible content "), 50)
	for i := uint64(1); i <= 100; i++ {
		comp.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload})
		plain.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload})
	}
	comp.Flush()
	plain.Flush()

	cs, ps := comp.Stats(), plain.Stats()
	if cs.BlockBytesOut >= ps.BlockBytesOut {
		t.Errorf("compressed store used %d bytes, plain %d", cs.BlockBytesOut, ps.BlockBytesOut)
	}
	// Reads must still decode correctly.
	got, ok, err := comp.Get(50)
	if err != nil || !ok || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("compressed read failed: %v %v", ok, err)
	}
}

func TestPersistenceAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, BlockSize: 256, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 30; i++ {
		if err := s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i),
			Payload: []byte(fmt.Sprintf("payload-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.Append(Record{ID: 5, DB: "d", Key: "k5", Payload: []byte("updated-5")})
	s.Delete(9)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, BlockSize: 256, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Get(5)
	if err != nil || !ok || string(got.Payload) != "updated-5" {
		t.Fatalf("Get(5) after reopen = %v %v %+v", ok, err, got)
	}
	if _, ok, _ := s2.Get(9); ok {
		t.Fatal("deleted record resurrected by replay")
	}
	if _, ok, _ := s2.Get(30); !ok {
		t.Fatal("record 30 lost across reopen")
	}
	if st := s2.Stats(); st.LiveRecords != 29 {
		t.Errorf("LiveRecords after replay = %d, want 29", st.LiveRecords)
	}
}

func TestCompaction(t *testing.T) {
	s := memStore(t, Options{BlockSize: 256, SegmentSize: 2048})
	payload := bytes.Repeat([]byte("v"), 100)
	// Write and rewrite the same records so old segments fill with dead frames.
	for round := 0; round < 20; round++ {
		for i := uint64(1); i <= 10; i++ {
			s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload})
		}
	}
	s.Flush()
	before := s.DiskBytes()
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed == 0 {
		t.Fatal("compaction reclaimed nothing despite heavy rewrites")
	}
	if after := s.DiskBytes(); after >= before {
		t.Errorf("disk bytes %d -> %d; compaction did not shrink", before, after)
	}
	for i := uint64(1); i <= 10; i++ {
		got, ok, err := s.Get(i)
		if err != nil || !ok || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("Get(%d) after compaction = %v %v", i, ok, err)
		}
	}
}

// segmentDead sums the dead bytes the segments carry, which is what
// Stats.DeadBytes has to say whenever no frame is waiting for its seal.
func segmentDead(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.segments {
		n += seg.dead
	}
	return n
}

// TestCompactionSettlesDeadBytes: dead bytes are counted in one place, so the
// store's total is the sum over its segments before, between and after
// passes; a retired victim takes its share along, the frames its moved records
// left behind included; and once no rolled segment holds a dead byte a pass
// finds nothing to do and appends nothing.
func TestCompactionSettlesDeadBytes(t *testing.T) {
	s := memStore(t, Options{Dir: t.TempDir(), BlockSize: 256, SegmentSize: 2048})
	payload := bytes.Repeat([]byte("v"), 100)
	for round := 0; round < 20; round++ {
		for i := uint64(1); i <= 10; i++ {
			mustAppend(t, s, Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload})
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	dead := s.Stats().DeadBytes
	if want := int64(19 * 10 * len(payload)); dead != want || segmentDead(s) != want {
		t.Fatalf("DeadBytes %d, segments %d, want %d", dead, segmentDead(s), want)
	}
	passes := 0
	for ; ; passes++ {
		n, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		now := s.Stats().DeadBytes
		if now != segmentDead(s) {
			t.Fatalf("after pass %d: DeadBytes %d, segments hold %d", passes, now, segmentDead(s))
		}
		if n == 0 {
			break
		}
		if now >= dead {
			t.Fatalf("pass %d retired a segment and DeadBytes went %d -> %d", passes, dead, now)
		}
		dead = now
	}
	if passes == 0 {
		t.Fatal("no pass found a victim")
	}
	before := s.Stats()
	if n, err := s.Compact(); n != 0 || err != nil {
		t.Fatalf("a pass right after the last: %d, %v", n, err)
	}
	if after := s.Stats(); after.Appends != before.Appends || after.LiveSegments != before.LiveSegments {
		t.Fatalf("a pass with nothing to reclaim appended %d frames", after.Appends-before.Appends)
	}
	for i := uint64(1); i <= 10; i++ {
		if got, ok, err := s.Get(i); err != nil || !ok || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("Get(%d) after compaction = %v %v", i, ok, err)
		}
	}

	// Rolled segments without a dead byte are not rewritten either.
	clean := memStore(t, Options{BlockSize: 256, SegmentSize: 2048})
	for i := uint64(1); i <= 60; i++ {
		mustAppend(t, clean, Record{ID: i, DB: "d", Key: "k", Payload: payload})
	}
	if err := clean.Flush(); err != nil {
		t.Fatal(err)
	}
	before = clean.Stats()
	if n, err := clean.Compact(); n != 0 || err != nil {
		t.Fatalf("Compact of a store without dead bytes: %d, %v", n, err)
	}
	if after := clean.Stats(); before.LiveSegments < 3 || after.Appends != before.Appends || after.LiveSegments != before.LiveSegments {
		t.Fatalf("%d segments, none with a dead byte: the pass appended %d frames and left %d segments",
			before.LiveSegments, after.Appends-before.Appends, after.LiveSegments)
	}
}

// TestCompactionCarriesTombstones retires the segment a tombstone is in while
// an older segment still holds a frame of the deleted record: the tombstone is
// replayed into the active segment with the live records, or the next open
// would bring the record back. Once the old frame's segment is gone too the
// tombstone has nothing left to do and is dropped.
func TestCompactionCarriesTombstones(t *testing.T) {
	opts := Options{Dir: "d", FS: faultfs.NewMemFS(), BlockSize: 256, SegmentSize: 1024}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for id := uint64(1); id <= 12; id++ { // fills and rolls the first segment
		mustAppend(t, s, Record{ID: id, DB: "d", Key: fmt.Sprint(id), Payload: payload})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil { // the tombstone is in the second segment
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ { // and the later segments have more dead bytes than the first
		mustAppend(t, s, Record{ID: 100, DB: "d", Key: "churn", Payload: payload})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for !s.segments[1].retired {
		if n, err := s.Compact(); n == 0 || err != nil || s.segments[0].retired {
			t.Fatalf("Compact: %d, %v; first segment retired: %v", n, err, s.segments[0].retired)
		}
	}
	reopen := func() {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(1); ok || err != nil {
			t.Fatalf("the deleted record is back after compaction and a reopen: %v, %v", ok, err)
		}
		if live := s.Stats().LiveRecords; live != 12 {
			t.Fatalf("%d live records, want 12", live)
		}
	}
	reopen()
	for { // to the end: the first segment goes, and the tombstone with the next victim that holds it
		n, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	reopen()
	s.Close()
}

// TestCompactWithMoveCallback races what can happen to a record between the
// walk reading its frame and the store moving it. AppendDelay is the hook each
// move calls in that window; it holds the move there so that a newer write
// lands in it often.
//
// "a newer write races the move" overwrites every record, round after round,
// while compaction passes run. The store never drops a live record and never
// brings back a superseded one: a reader never sees a record older than the
// last write acknowledged before its Get, and afterwards, and after a reopen,
// every record holds the last round's payload.
func TestCompactWithMoveCallback(t *testing.T) {
	t.Run("a newer write races the move", func(t *testing.T) {
		payload := func(id uint64, round int) []byte {
			return bytes.Repeat([]byte(fmt.Sprintf("%03d-%03d|", round, id)), 12)
		}
		opts := Options{Dir: "d", FS: faultfs.NewMemFS(), Compress: true, BlockSize: 256, SegmentSize: 1024,
			AppendDelay: 20 * time.Microsecond}
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		const ids, rounds = 60, 12
		for id := uint64(1); id <= ids; id++ {
			mustAppend(t, s, Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: payload(id, 0)})
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var acked [ids + 1]atomic.Int64 // the round of each record's last acknowledged write
		var compacting atomic.Bool
		var raced atomic.Int64 // writes that landed while a pass was moving records
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer stop.Store(true)
			for round := 1; round <= rounds; round++ {
				for id := uint64(1); id <= ids; id++ {
					if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: payload(id, round)}); err != nil {
						t.Error(err)
						return
					}
					acked[id].Store(int64(round))
					if compacting.Load() {
						raced.Add(1)
					}
				}
				if err := s.Flush(); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for id := uint64(1); !stop.Load(); id = id%ids + 1 {
				floor := acked[id].Load()
				rec, ok, err := s.Get(id)
				var round, gotID int64
				if err != nil || !ok {
					t.Errorf("Get(%d): ok %v, err %v", id, ok, err)
					return
				}
				if _, err := fmt.Sscanf(string(rec.Payload), "%d-%d|", &round, &gotID); err != nil || round < floor {
					t.Errorf("Get(%d) = %.24q after round %d was acknowledged", id, rec.Payload, floor)
					return
				}
			}
		}()
		for {
			writing := !stop.Load()
			compacting.Store(true)
			n, err := s.Compact()
			compacting.Store(false)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 && !writing {
				break
			}
		}
		wg.Wait()
		if raced.Load() == 0 {
			t.Fatal("no write landed while a pass was moving records")
		}
		check := func(s *Store) {
			t.Helper()
			for id := uint64(1); id <= ids; id++ {
				rec, ok, err := s.Get(id)
				if err != nil || !ok || !bytes.Equal(rec.Payload, payload(id, rounds)) || rec.Key != fmt.Sprintf("k%d", id) {
					t.Fatalf("Get(%d): ok %v, err %v, key %q, payload %.24q, want %.24q",
						id, ok, err, rec.Key, rec.Payload, payload(id, rounds))
				}
			}
			if got := s.Stats().LiveRecords; got != ids {
				t.Fatalf("%d live records, want %d", got, ids)
			}
		}
		check(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(s)
	})
}

func TestRejectNulInNames(t *testing.T) {
	s := memStore(t, Options{})
	if err := s.Append(Record{ID: 1, DB: "a\x00b", Key: "k"}); err == nil {
		t.Error("NUL in DB accepted")
	}
}

func TestConcurrentAppendGet(t *testing.T) {
	s := memStore(t, Options{BlockSize: 512})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := uint64(g*1000 + i)
				err := s.Append(Record{ID: id, DB: "d", Key: fmt.Sprintf("k%d", id),
					Payload: []byte(fmt.Sprintf("payload %d", id))})
				if err != nil {
					t.Error(err)
					return
				}
				if got, ok, err := s.Get(id); err != nil || !ok ||
					string(got.Payload) != fmt.Sprintf("payload %d", id) {
					t.Errorf("Get(%d) = %v %v", id, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.LiveRecords != 1200 {
		t.Errorf("LiveRecords = %d, want 1200", st.LiveRecords)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rec := Record{
			ID:      rng.Uint64(),
			DB:      fmt.Sprintf("db%d", rng.Intn(5)),
			Key:     fmt.Sprintf("key-%d", rng.Int63()),
			Payload: make([]byte, rng.Intn(500)),
		}
		rng.Read(rec.Payload)
		if rng.Intn(2) == 0 {
			rec.Form = FormDelta
			rec.BaseID = rng.Uint64()
		}
		if rng.Intn(10) == 0 {
			rec.Tombstone = true
		}
		frame := appendFrame(nil, rec)
		got, n, err := parseFrame(frame, true)
		if err != nil || n != len(frame) {
			t.Fatalf("parseFrame: %v (n=%d, len=%d)", err, n, len(frame))
		}
		if got.ID != rec.ID || got.DB != rec.DB || got.Key != rec.Key ||
			got.Form != rec.Form || got.BaseID != rec.BaseID ||
			got.Tombstone != rec.Tombstone || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("frame round trip mismatch: %+v != %+v", got, rec)
		}
	}
}

func TestParseFrameCorrupt(t *testing.T) {
	rec := Record{ID: 1, DB: "d", Key: "k", Payload: []byte("some payload")}
	frame := appendFrame(nil, rec)
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := parseFrame(frame[:cut], true); err == nil && cut < len(frame) {
			t.Fatalf("parseFrame accepted truncation at %d", cut)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	s, _ := Open(Options{BlockSize: 32 << 10})
	defer s.Close()
	payload := bytes.Repeat([]byte("x"), 512)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(Record{ID: uint64(i), DB: "d", Key: "k", Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendParallel is the ack path under contention: two appenders
// share one store with block compression on, on disk, so what an append
// costs includes waiting for the other appender and, when both block buffers
// are full, for the sealer (reported as waits per op).
func BenchmarkAppendParallel(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), BlockSize: 32 << 10, Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(21))
	payload := make([]byte, 3584) // nine to a block, as in the repository benchmark
	for i := range payload {
		payload[i] = "the quick brown fox "[rng.Intn(20)]
	}
	var next atomic.Uint64
	b.SetBytes(int64(len(payload)))
	b.SetParallelism(2) // per GOMAXPROCS; -cpu 1 gives the two appenders the issue names
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := s.Append(Record{ID: next.Add(1), DB: "d", Key: "k", Payload: payload}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().SealWaits)/float64(b.N), "waits/op")
}

func BenchmarkGetSealed(b *testing.B) {
	s, _ := Open(Options{BlockSize: 32 << 10})
	defer s.Close()
	payload := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 10000; i++ {
		s.Append(Record{ID: uint64(i), DB: "d", Key: "k", Payload: payload})
	}
	s.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(uint64(i % 10000)); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func TestSyncWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, BlockSize: 128, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if err := s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i),
			Payload: bytes.Repeat([]byte("p"), 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, BlockSize: 128, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.LiveRecords != 20 {
		t.Fatalf("LiveRecords = %d, want 20", st.LiveRecords)
	}
}

func TestBlockCacheHitAccounting(t *testing.T) {
	s := memStore(t, Options{BlockSize: 256})
	payload := bytes.Repeat([]byte("x"), 100)
	for i := uint64(1); i <= 20; i++ {
		s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload})
	}
	s.Flush()
	// First read of each block misses; repeats hit.
	for round := 0; round < 3; round++ {
		for i := uint64(1); i <= 20; i++ {
			if _, ok, err := s.Get(i); err != nil || !ok {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.CacheMisses == 0 || st.CacheHits == 0 {
		t.Fatalf("cache accounting: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHits < st.CacheMisses {
		t.Errorf("expected mostly hits on repeated reads: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := memStore(t, Options{})
	for i := uint64(1); i <= 10; i++ {
		s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: []byte("p")})
	}
	seen := 0
	s.Range(func(uint64, MetaInfo) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("Range visited %d records after early stop, want 3", seen)
	}
}

func TestCompactEmptyStore(t *testing.T) {
	s := memStore(t, Options{})
	reclaimed, err := s.Compact()
	if err != nil || reclaimed != 0 {
		t.Fatalf("Compact on empty store: %d, %v", reclaimed, err)
	}
}

func TestMultiSegmentSpanning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, BlockSize: 256, SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("s"), 200)
	for i := uint64(1); i <= 50; i++ {
		if err := s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) < 3 {
		t.Fatalf("only %d segments; segment rolling broken", len(segs))
	}
	s2, err := Open(Options{Dir: dir, BlockSize: 256, SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := uint64(1); i <= 50; i++ {
		if got, ok, err := s2.Get(i); err != nil || !ok || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("Get(%d) across segments: %v %v", i, ok, err)
		}
	}
}

func TestDBLogicalBytes(t *testing.T) {
	s := memStore(t, Options{})
	s.Append(Record{ID: 1, DB: "a", Key: "k1", Payload: make([]byte, 100)})
	s.Append(Record{ID: 2, DB: "b", Key: "k2", Payload: make([]byte, 50)})
	s.Append(Record{ID: 1, DB: "a", Key: "k1", Payload: make([]byte, 30)}) // supersede
	if got := s.DBLogicalBytes("a"); got != 30 {
		t.Errorf("a = %d, want 30", got)
	}
	if got := s.DBLogicalBytes("b"); got != 50 {
		t.Errorf("b = %d, want 50", got)
	}
	s.Delete(2)
	if got := s.DBLogicalBytes("b"); got != 0 {
		t.Errorf("b after delete = %d, want 0", got)
	}
}
