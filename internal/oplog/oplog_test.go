package oplog

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestAppendAssignsSequence(t *testing.T) {
	l := New(16)
	for i := 1; i <= 5; i++ {
		seq := l.Append(Entry{Op: OpInsert, DB: "d", Key: fmt.Sprintf("k%d", i)})
		if seq != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, seq)
		}
	}
	if l.LastSeq() != 5 || l.Stats().Entries != 5 {
		t.Fatalf("LastSeq=%d Len=%d", l.LastSeq(), l.Stats().Entries)
	}
}

func TestEntriesSince(t *testing.T) {
	l := New(16)
	for i := 1; i <= 10; i++ {
		l.Append(Entry{Op: OpInsert, Key: fmt.Sprintf("k%d", i)})
	}
	got, err := l.EntriesSince(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 5 || got[2].Seq != 7 {
		t.Fatalf("EntriesSince(4,3) = %+v", got)
	}
	all, err := l.EntriesSince(0, 0)
	if err != nil || len(all) != 10 {
		t.Fatalf("EntriesSince(0) returned %d entries, err %v", len(all), err)
	}
	empty, err := l.EntriesSince(10, 0)
	if err != nil || len(empty) != 0 {
		t.Fatalf("EntriesSince(last) = %v, %v", empty, err)
	}
}

func TestRingOverflowTruncates(t *testing.T) {
	l := New(4)
	for i := 1; i <= 10; i++ {
		l.Append(Entry{Op: OpInsert, Key: fmt.Sprintf("k%d", i)})
	}
	if l.Stats().Entries != 4 {
		t.Fatalf("Len = %d, want 4", l.Stats().Entries)
	}
	if _, err := l.EntriesSince(0, 0); err != ErrTruncated {
		t.Fatalf("EntriesSince(0) err = %v, want ErrTruncated", err)
	}
	got, err := l.EntriesSince(6, 0)
	if err != nil || len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("EntriesSince(6) = %+v, %v", got, err)
	}
}

func TestBytesAccounting(t *testing.T) {
	l := New(4)
	var want int64
	for i := 1; i <= 4; i++ {
		e := Entry{Op: OpInsert, DB: "db", Key: "key", Payload: bytes.Repeat([]byte("p"), i*10)}
		l.Append(e)
		e.Seq = uint64(i)
		want += int64(e.MarshalledSize())
	}
	if l.Stats().Bytes != want {
		t.Fatalf("Bytes = %d, want %d", l.Stats().Bytes, want)
	}
	// Overflow: oldest drops out of accounting.
	l.Append(Entry{Op: OpInsert, DB: "db", Key: "key", Payload: []byte("new")})
	if l.Stats().Bytes >= want+100 {
		t.Fatal("Bytes did not drop the evicted entry")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		e := Entry{
			Seq:     rng.Uint64(),
			TS:      rng.Int63() - rng.Int63(),
			Op:      OpType(rng.Intn(3)),
			DB:      fmt.Sprintf("db%d", rng.Intn(4)),
			Key:     fmt.Sprintf("key-%d", rng.Int63()),
			Form:    PayloadForm(rng.Intn(3)),
			Payload: make([]byte, rng.Intn(300)),
		}
		if e.Form == FormDelta {
			e.BaseKey = fmt.Sprintf("base-%d", rng.Int63())
		}
		rng.Read(e.Payload)

		buf := e.Marshal()
		if len(buf) != e.MarshalledSize() {
			t.Fatalf("MarshalledSize %d != len(Marshal) %d", e.MarshalledSize(), len(buf))
		}
		got, n, err := Unmarshal(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("Unmarshal: %v (n=%d len=%d)", err, n, len(buf))
		}
		if got.Seq != e.Seq || got.TS != e.TS || got.Op != e.Op || got.DB != e.DB ||
			got.Key != e.Key || got.Form != e.Form || got.BaseKey != e.BaseKey ||
			!bytes.Equal(got.Payload, e.Payload) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	e := Entry{Seq: 7, TS: 12345, Op: OpUpdate, DB: "d", Key: "k", Payload: []byte("payload")}
	good := e.Marshal()
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := Unmarshal(good[:cut]); err == nil {
			t.Fatalf("Unmarshal accepted truncation at %d", cut)
		}
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-len(e.Payload)-2] = 0x63 // corrupt the op/form/length area
	_, _, _ = Unmarshal(bad)              // must not panic
}

func TestConcurrentAppendRead(t *testing.T) {
	l := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Append(Entry{Op: OpInsert, Key: "k", Payload: []byte("x")})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor uint64
		for i := 0; i < 200; i++ {
			ents, err := l.EntriesSince(cursor, 64)
			if err == ErrTruncated {
				cursor = 0
				continue
			}
			for j := 1; j < len(ents); j++ {
				if ents[j].Seq != ents[j-1].Seq+1 {
					t.Error("non-contiguous sequence in batch")
					return
				}
			}
			if len(ents) > 0 {
				cursor = ents[len(ents)-1].Seq
			}
		}
	}()
	wg.Wait()
	if l.LastSeq() != 4000 {
		t.Fatalf("LastSeq = %d, want 4000", l.LastSeq())
	}
}

func BenchmarkAppend(b *testing.B) {
	l := New(1 << 16)
	e := Entry{Op: OpInsert, DB: "db", Key: "key", Payload: make([]byte, 256)}
	for i := 0; i < b.N; i++ {
		l.Append(e)
	}
}

func BenchmarkMarshal(b *testing.B) {
	e := Entry{Seq: 1, TS: 2, Op: OpInsert, DB: "db", Key: "key", Payload: make([]byte, 256)}
	b.SetBytes(int64(e.MarshalledSize()))
	for i := 0; i < b.N; i++ {
		e.Marshal()
	}
}

// scanSince is the EntriesSince this package shipped before the cursor was
// indexed: a walk over every retained entry. The indexed version must return
// the same entries and the same ErrTruncated at every cursor.
func scanSince(l *Log, after uint64, max int) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.dropped {
		return nil, ErrTruncated
	}
	if max <= 0 {
		max = l.count
	}
	var out []Entry
	for i := 0; i < l.count && len(out) < max; i++ {
		s := l.ring[(l.start+i)%len(l.ring)]
		if s.e.Seq <= after {
			continue
		}
		if s.size == 0 {
			break
		}
		out = append(out, s.e)
	}
	return out, nil
}

// checkAgainstScan compares EntriesSince with scanSince at every cursor from
// before the retained window to past its end, for a few batch sizes.
func checkAgainstScan(t *testing.T, l *Log, what string) {
	t.Helper()
	st := l.Stats()
	last := l.LastSeq()
	lo := uint64(0)
	if first := last + 1 - uint64(st.Entries); first > 3 {
		lo = first - 3
	}
	cursors := []uint64{0, ^uint64(0)}
	for c := lo; c <= last+2; c++ {
		cursors = append(cursors, c)
	}
	for _, after := range cursors {
		for _, max := range []int{0, 1, 3, st.Entries, st.Entries + 5} {
			want, wantErr := scanSince(l, after, max)
			got, gotErr := l.EntriesSince(after, max)
			if gotErr != wantErr {
				t.Fatalf("%s: EntriesSince(%d, %d) err = %v, scan says %v", what, after, max, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: EntriesSince(%d, %d) returned %d entries, scan %d", what, after, max, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Key != want[i].Key {
					t.Fatalf("%s: EntriesSince(%d, %d)[%d] = seq %d key %q, scan seq %d key %q",
						what, after, max, i, got[i].Seq, got[i].Key, want[i].Seq, want[i].Key)
				}
			}
		}
	}
}

func TestEntriesSinceMatchesScan(t *testing.T) {
	l := New(8)
	checkAgainstScan(t, l, "empty")
	for i := 1; i <= 5; i++ {
		l.Append(Entry{Op: OpInsert, Key: fmt.Sprintf("k%d", i)})
	}
	checkAgainstScan(t, l, "partly filled")
	for i := 6; i <= 21; i++ { // wraps the 8-slot ring twice, start mid-ring
		l.Append(Entry{Op: OpInsert, Key: fmt.Sprintf("k%d", i)})
		checkAgainstScan(t, l, fmt.Sprintf("wrapped at %d", i))
	}

	// Byte eviction: the entries share one payload slice, so the log's
	// accounting hits MaxRetainedBytes without the test holding 64 MiB.
	big := make([]byte, MaxRetainedBytes/8)
	l = New(64)
	for i := 1; i <= 20; i++ {
		l.Append(Entry{Op: OpInsert, Key: fmt.Sprintf("k%d", i), Payload: big})
		checkAgainstScan(t, l, fmt.Sprintf("byte-evicted at %d", i))
	}
}

func TestByteBoundEvictsOldestAndClearsSlots(t *testing.T) {
	big := make([]byte, MaxRetainedBytes/4)
	l := New(16)
	for i := 1; i <= 10; i++ {
		l.Append(Entry{Op: OpInsert, Key: fmt.Sprintf("k%d", i), Payload: big})
		if st := l.Stats(); st.Bytes > MaxRetainedBytes {
			t.Fatalf("after append %d: stats %+v", i, st)
		}
	}
	st := l.Stats()
	// Four quarter-budget payloads plus their headers overshoot: 3 fit.
	if st.Entries != 3 || st.EvictedByBytes != 7 || st.EvictedByEntries != 0 {
		t.Fatalf("stats = %+v, want 3 retained, 7 evicted by bytes", st)
	}
	if _, err := l.EntriesSince(6, 0); err != ErrTruncated {
		t.Fatalf("EntriesSince behind the byte window: err = %v, want ErrTruncated", err)
	}
	if got, err := l.EntriesSince(7, 0); err != nil || len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("EntriesSince(7) = %d entries, %v", len(got), err)
	}

	// An entry larger than the whole budget is still retained, alone.
	l.Append(Entry{Op: OpInsert, Key: "huge", Payload: make([]byte, MaxRetainedBytes+1)})
	if st := l.Stats(); st.Entries != 1 || st.EvictedByBytes != 10 {
		t.Fatalf("after oversized append: %+v", st)
	}
	l.Append(Entry{Op: OpInsert, Key: "small"})
	if got, err := l.EntriesSince(11, 0); err != nil || len(got) != 1 || got[0].Key != "small" {
		t.Fatalf("after oversized entry evicted: %v, %v", got, err)
	}

	// No vacated slot may keep its payload reachable, whatever vacated it.
	live := func(l *Log) int {
		n := 0
		for _, s := range l.ring {
			if s.e.Payload != nil || s.e.Key != "" {
				n++
			}
		}
		return n
	}
	if n := live(l); n != l.Stats().Entries {
		t.Fatalf("byte eviction left %d populated slots for %d retained entries", n, l.Stats().Entries)
	}
	l = New(4)
	for i := 1; i <= 9; i++ {
		l.Append(Entry{Op: OpInsert, Key: "k", Payload: []byte("p")})
	}
	if st := l.Stats(); st.EvictedByEntries != 5 || st.EvictedByBytes != 0 {
		t.Fatalf("entry-bound evictions: %+v", st)
	}
}

// BenchmarkEntriesSinceTail is the replication server's idle poll: a cursor
// at the tail of a full ring. It must not cost a walk of the ring.
func BenchmarkEntriesSinceTail(b *testing.B) {
	l := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		l.Append(Entry{Op: OpInsert, DB: "db", Key: "key"})
	}
	tail := l.LastSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ents, err := l.EntriesSince(tail-1, 256)
		if err != nil || len(ents) != 1 {
			b.Fatalf("EntriesSince(tail-1) = %d entries, %v", len(ents), err)
		}
	}
}

// seqs returns the numbers of ents, in order.
func seqs(ents []Entry) []uint64 {
	out := make([]uint64, len(ents))
	for i, e := range ents {
		out[i] = e.Seq
	}
	return out
}

// TestReservedSlotsFillOutOfOrder: slots filled in any order become readable
// in number order, and a reader stops at the first slot not yet filled.
func TestReservedSlotsFillOutOfOrder(t *testing.T) {
	l := New(16)
	for seq := uint64(1); seq <= 4; seq++ {
		l.Reserve(seq)
	}
	if l.LastSeq() != 4 || l.Stats().Entries != 4 || l.Stats().Bytes != 0 {
		t.Fatalf("after reserving 1..4: LastSeq %d, Len %d, Bytes %d", l.LastSeq(), l.Stats().Entries, l.Stats().Bytes)
	}
	read := func(after uint64) string {
		t.Helper()
		ents, err := l.EntriesSince(after, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(seqs(ents))
	}
	l.Fill(Entry{Seq: 3, Key: "c"})
	l.Fill(Entry{Seq: 2, Key: "b"})
	if got := read(0); got != "[]" {
		t.Fatalf("slot 1 unfilled: EntriesSince(0) = %s, want nothing", got)
	}
	if got := read(1); got != "[2 3]" {
		t.Fatalf("EntriesSince(1) = %s, want [2 3]: the reader stops at unfilled 4", got)
	}
	l.Fill(Entry{Seq: 1, Key: "a"})
	if got := read(0); got != "[1 2 3]" {
		t.Fatalf("EntriesSince(0) = %s, want [1 2 3]", got)
	}
	l.Fill(Entry{Seq: 4, Key: "d"})
	ents, _ := l.EntriesSince(0, 0)
	if got := fmt.Sprint(seqs(ents)); got != "[1 2 3 4]" || ents[0].Key != "a" || ents[3].Key != "d" {
		t.Fatalf("all filled: %s %+v", got, ents)
	}
	want := int64(0)
	for _, e := range ents {
		want += int64(e.MarshalledSize())
	}
	if l.Stats().Bytes != want {
		t.Fatalf("Bytes = %d, want %d (filled entries only)", l.Stats().Bytes, want)
	}
}

// TestNumberingGaps: numbers left out by Reserve are simply absent, a cursor
// inside a gap reads from the next number, and Append continues after the
// last number reserved.
func TestNumberingGaps(t *testing.T) {
	l := New(16)
	for _, seq := range []uint64{2, 3, 7, 10} {
		l.Reserve(seq)
		l.Fill(Entry{Seq: seq})
	}
	for after, want := range map[uint64]string{0: "[2 3 7 10]", 3: "[7 10]", 5: "[7 10]", 7: "[10]", 9: "[10]", 10: "[]"} {
		ents, err := l.EntriesSince(after, 0)
		if err != nil || fmt.Sprint(seqs(ents)) != want {
			t.Errorf("EntriesSince(%d) = %v, %v; want %s", after, seqs(ents), err, want)
		}
	}
	if ents, _ := l.EntriesSince(2, 2); fmt.Sprint(seqs(ents)) != "[3 7]" {
		t.Errorf("EntriesSince(2, 2) = %v, want [3 7]", seqs(ents))
	}
	if seq := l.Append(Entry{}); seq != 11 || l.LastSeq() != 11 {
		t.Fatalf("Append after a gap took %d (LastSeq %d), want 11", seq, l.LastSeq())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reserving a number at or below the last did not panic")
		}
	}()
	l.Reserve(11)
}

// TestTruncatedAcrossGap: a cursor is behind the window exactly when an
// entry numbered after it was discarded, wherever the gaps fall; a slot
// discarded before its fill takes the fill with it.
func TestTruncatedAcrossGap(t *testing.T) {
	l := New(3)
	for _, seq := range []uint64{1, 5, 9, 20} { // 1 falls out of the ring
		l.Reserve(seq)
		l.Fill(Entry{Seq: seq})
	}
	if _, err := l.EntriesSince(0, 0); err != ErrTruncated {
		t.Fatalf("EntriesSince(0) err = %v, want ErrTruncated (1 discarded)", err)
	}
	if ents, err := l.EntriesSince(1, 0); err != nil || fmt.Sprint(seqs(ents)) != "[5 9 20]" {
		t.Fatalf("EntriesSince(1) = %v, %v; want [5 9 20]", seqs(ents), err)
	}
	l.Reserve(30) // discards 5
	for after, wantErr := range map[uint64]bool{1: true, 4: true, 5: false, 7: false} {
		if _, err := l.EntriesSince(after, 0); (err == ErrTruncated) != wantErr {
			t.Errorf("EntriesSince(%d) err = %v, want truncated %v", after, err, wantErr)
		}
	}
	l.Reserve(31) // discards 9
	l.Reserve(32) // discards 20
	l.Fill(Entry{Seq: 31})
	l.Fill(Entry{Seq: 20}) // its slot is gone: dropped
	if _, err := l.EntriesSince(19, 0); err != ErrTruncated {
		t.Fatalf("EntriesSince(19) err = %v, want ErrTruncated", err)
	}
	if ents, err := l.EntriesSince(20, 0); err != nil || len(ents) != 0 {
		t.Fatalf("EntriesSince(20) = %v, %v; want nothing until 30 is filled", seqs(ents), err)
	}
	if st := l.Stats(); st.Entries != 3 || st.EvictedByEntries != 4 || st.Bytes != int64((Entry{Seq: 31}).MarshalledSize()) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHoldsAPosition: a log holds a reader position in its own epoch, one that
// names no epoch unless it is (0, 0) on a reopened store's log, and nothing in
// another epoch or UnknownEpoch.
func TestHoldsAPosition(t *testing.T) {
	fresh, reopened := New(4), Continue(4)
	for _, tc := range []struct {
		l          *Log
		epoch, seq uint64
		want       bool
	}{
		{fresh, fresh.Epoch(), 0, true},
		{fresh, fresh.Epoch(), 9, true},
		{fresh, 0, 0, true},
		{fresh, 0, 3, true},
		{reopened, 0, 0, false},
		{reopened, 0, 3, true},
		{reopened, reopened.Epoch(), 0, true},
		{fresh, reopened.Epoch(), 3, false},
		{fresh, UnknownEpoch, 0, false},
		{reopened, UnknownEpoch, 3, false},
	} {
		if got := tc.l.Holds(tc.epoch, tc.seq); got != tc.want {
			t.Errorf("Holds(%d, %d) on a log that continues=%v: %v, want %v", tc.epoch, tc.seq, tc.l.continues, got, tc.want)
		}
	}
}
