package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dbdedup/internal/faultfs"
)

func fillSegments(t *testing.T, s *Store, n int) map[uint64][]byte {
	t.Helper()
	want := make(map[uint64][]byte)
	for i := 1; i <= n; i++ {
		payload := bytes.Repeat([]byte(fmt.Sprintf("rec-%04d|", i)), 40)
		rec := Record{ID: uint64(i), DB: "db", Key: fmt.Sprintf("k%d", i), Payload: payload}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		want[rec.ID] = payload
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return want
}

func checkAll(t *testing.T, s *Store, want map[uint64][]byte) {
	t.Helper()
	for id, payload := range want {
		rec, ok, err := s.Get(id)
		if err != nil || !ok || !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("Get(%d) = ok=%v err=%v (payload match=%v)", id, ok, err, bytes.Equal(rec.Payload, payload))
		}
	}
}

// TestDictionarySurvivesReopenAndRoll follows a segment's dictionary through
// its life on both filesystems: every block but a segment's first needs it, so
// every record has to read back byte-exact while the segment is active (set
// when its first batch sealed), after the segment rolled, after a reopen (set
// again at replay, from the first block as decoded), after more segments were
// written behind the reopened ones, and after compaction moved
// the records under the active segment's dictionary and retired the segment
// they were in, whose handle, still pinned by a reader, keeps the dictionary
// that reader's block needs.
func TestDictionarySurvivesReopenAndRoll(t *testing.T) {
	for _, mode := range []string{"os", "mem"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Compress: true, BlockSize: 12 << 10, SegmentSize: 24 << 10, CacheBlocks: 1}
			if mode == "mem" {
				opts.FS = faultfs.NewMemFS()
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64][]byte{}
			put := func(id uint64, ver int) {
				t.Helper()
				// Shared text, which the dictionary holds, and noise of the
				// record's own, so that segments fill.
				own := make([]byte, 300)
				rand.New(rand.NewSource(int64(id)<<8 | int64(ver))).Read(own)
				want[id] = append(bytes.Repeat([]byte("what every record has in common. "), 15), own...)
				if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: want[id]}); err != nil {
					t.Fatal(err)
				}
			}
			segments := func() int { return s.Stats().LiveSegments }
			next := uint64(1)
			fill := func(until int) {
				t.Helper()
				for segments() < until {
					put(next, 0)
					next++
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			checkDicts := func() {
				t.Helper()
				var sum int64
				for i, seg := range s.segments {
					if seg.retired || seg.size == 0 {
						continue
					}
					var first []byte
					s.walkBlocks(seg.rd, func(off int64, raw []byte) error {
						first = append([]byte(nil), raw...)
						return errors.New("one block is enough")
					})
					if got := seg.rd.Dict(); !bytes.Equal(got, first[:min(len(first), dictLen)]) {
						t.Fatalf("segment %d: the dictionary (%d bytes) is not its first block's first bytes (%d in the block)", i, len(got), len(first))
					}
					sum += int64(len(seg.rd.Dict()))
				}
				if got := s.Stats().DictBytes; got != sum || sum == 0 {
					t.Fatalf("Stats.DictBytes = %d, the live segments hold %d", got, sum)
				}
			}

			fill(3)
			checkAll(t, s, want)
			checkDicts()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(opts); err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			checkAll(t, s, want)
			checkDicts()
			if st := s.Stats(); st.BlocksDecoded == 0 {
				t.Fatalf("after the reopen: %+v", st)
			}
			fill(segments() + 2) // the reopened active segment takes blocks behind its replayed dictionary, and rolls
			checkAll(t, s, want)
			checkDicts()

			// A reader that pinned the first segment before it is retired,
			// and wants a block behind its dictionary.
			rd, ok := s.table.Pin(0)
			if !ok {
				t.Fatal("cannot pin the first segment")
			}
			var second int64
			s.walkBlocks(rd, func(off int64, _ []byte) error {
				if second = off; off > 0 {
					return errors.New("found it")
				}
				return nil
			})
			for id := uint64(1); id < 40; id += 2 { // dead bytes there
				put(id, 1)
			}
			if n, err := s.Compact(); err != nil || n == 0 || !s.segments[0].retired {
				t.Fatalf("Compact reclaimed %d bytes, err %v; it must retire the first segment", n, err)
			}
			if st := s.Stats(); st.RetiredPending != 1 {
				t.Fatalf("%d retired segments waiting for their readers, want the one that is pinned", st.RetiredPending)
			}
			own := func(n int) []byte { return make([]byte, n) }
			if raw, _, err := s.readBlock(rd, second, own); err != nil || len(raw) == 0 {
				t.Fatalf("a pinned reader's load of a dictionary block of the retired segment: %d bytes, %v", len(raw), err)
			}
			s.table.Unpin(rd)
			if st := s.Stats(); st.RetiredPending != 0 {
				t.Fatalf("%d retired segments still waiting", st.RetiredPending)
			}
			checkAll(t, s, want)
			checkDicts()
		})
	}
}

// TestCompactionAcrossReopen compacts the segments a reopened store replayed
// away and checks reads stay correct across each retirement.
func TestCompactionAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, BlockSize: 512, SegmentSize: 4096}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fillSegments(t, s, 40)
	s.Close()
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Delete half the records, then compact repeatedly: victims are
	// segments replay installed, whose handles must drain cleanly on
	// retirement.
	for id := uint64(1); id <= 20; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(want, id)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, want)
	}
}

// TestInMemoryStoreRunsTheFilePath opens a store without a directory and takes
// it through everything a segment file goes through: blocks are written and
// published, segments roll, reads of rolled segments are checksummed preads,
// a compaction pass moves records and retires its victim while a reader still
// holds a pin on it, and the pinned segment stays readable until the pin is
// returned.
func TestInMemoryStoreRunsTheFilePath(t *testing.T) {
	s, err := Open(Options{BlockSize: 512, SegmentSize: 4096, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fillSegments(t, s, 120)
	st := s.Stats()
	if st.LiveSegments < 4 {
		t.Fatalf("%d live segments after 120 records, want the active one and several rolled", st.LiveSegments)
	}
	checkAll(t, s, want)
	if st = s.Stats(); st.PreadBlockReads == 0 {
		t.Fatal("rolled in-memory segments are not read with pread: no block loads")
	}

	// Pin segment 0 and load its first block.
	rd, ok := s.table.Pin(0)
	if !ok {
		t.Fatal("pin of segment 0 failed")
	}
	own := func(n int) []byte { return make([]byte, n) }
	blockWas, _, err := s.readBlock(rd, 0, own)
	if err != nil {
		t.Fatal(err)
	}

	// Kill most of segment 0 and compact: it is the victim.
	for id := uint64(1); id <= 8; id++ {
		want[id] = bytes.Repeat([]byte(fmt.Sprintf("new-%04d|", id)), 40)
		if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: want[id]}); err != nil {
			t.Fatal(err)
		}
	}
	appends := s.Stats().Appends
	reclaimed, err := s.Compact()
	if moved := s.Stats().Appends - appends; err != nil || reclaimed == 0 || moved == 0 {
		t.Fatalf("Compact: reclaimed %d bytes, moved %d records, err %v", reclaimed, moved, err)
	}
	if _, ok := s.table.Pin(0); ok {
		t.Fatal("segment 0 still pins after its retirement")
	}
	if st = s.Stats(); st.RetiredPending != 1 || st.PinnedReaders != 1 {
		t.Fatalf("RetiredPending %d, PinnedReaders %d while the victim is pinned, want 1 and 1", st.RetiredPending, st.PinnedReaders)
	}
	if got, _, err := s.readBlock(rd, 0, own); err != nil || !bytes.Equal(got, blockWas) {
		t.Fatalf("a load from the pinned, retired segment changed or failed: %v", err)
	}
	s.table.Unpin(rd)
	if st = s.Stats(); st.RetiredPending != 0 || st.PinnedReaders != 0 {
		t.Fatalf("RetiredPending %d, PinnedReaders %d after the last unpin, want 0 and 0", st.RetiredPending, st.PinnedReaders)
	}
	checkAll(t, s, want)
}

// TestInMemoryStoreHoldsSegmentsOnce fills an in-memory store with rolled
// segments and checks the heap grew by about what the segments hold: reads of
// a MemFS file go through the bounded block cache, so the bytes are not held
// a second time.
func TestInMemoryStoreHoldsSegmentsOnce(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	s, err := Open(Options{SegmentSize: 1 << 20, CacheBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := func(id uint64) []byte { return bytes.Repeat([]byte(fmt.Sprintf("%08d", id)), 512) }
	const records = 2048 // 8 MiB in 4 KiB records
	for id := uint64(1); id <= records; id++ {
		if err := s.Append(Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: payload(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= records; id += 97 {
		if rec, ok, err := s.Get(id); err != nil || !ok || !bytes.Equal(rec.Payload, payload(id)) {
			t.Fatalf("Get(%d): ok %v, err %v", id, ok, err)
		}
	}
	st := s.Stats()
	if st.LiveSegments < 8 || st.PreadBlockReads == 0 {
		t.Fatalf("%d live segments, %d block loads: the store under test is not rolled and read", st.LiveSegments, st.PreadBlockReads)
	}
	held, grew := s.DiskBytes(), heap()-before
	if grew > held*3/2 {
		t.Fatalf("heap grew by %d bytes for %d bytes of segments: rolled segments are held twice", grew, held)
	}
	runtime.KeepAlive(s)
}

// TestEveryLoadIsChecksummed flips one byte of a rolled segment's block body
// behind a reopened store's back: every Get returns the original bytes or an
// error, never other bytes, and the damaged block's load is refused by its
// checksum.
func TestEveryLoadIsChecksummed(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, BlockSize: 512, SegmentSize: 4096, CacheBlocks: 2}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fillSegments(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.LiveSegments < 3 {
		t.Fatalf("only %d segments; the damaged block must sit in a rolled one", st.LiveSegments)
	}

	// The second block: a read of the first may be served from the
	// segment's dictionary without a load.
	name := filepath.Join(dir, "seg-000001.log")
	file, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	spans := blockSpans(file)
	if len(spans) < 2 {
		t.Fatalf("%d blocks in %s, want two or more", len(spans), name)
	}
	// A digit of a payload in the middle of the body, so that what a load
	// without a checksum would hand out parses and is other bytes.
	body := spans[1].off + blockHeaderSize
	mid := body + spans[1].stored/2
	k := bytes.Index(file[mid:body+spans[1].stored], []byte("|rec-"))
	if k < 0 {
		t.Fatal("no payload in the second half of the block's body")
	}
	at := mid + int64(k) + 5 // the first digit behind "|rec-"
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{file[at] ^ 0x01}, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	refused := 0
	for id, payload := range want {
		rec, ok, err := s.Get(id)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), "block checksum mismatch") {
				t.Errorf("Get(%d): %v, want a checksum mismatch", id, err)
			}
			refused++
		case !ok || !bytes.Equal(rec.Payload, payload):
			t.Errorf("Get(%d) = ok %v, %q; want the original bytes or an error", id, ok, rec.Payload)
		}
	}
	if refused == 0 {
		t.Fatal("no Get loaded the damaged block")
	}
}
