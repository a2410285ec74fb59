package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dbdedup/internal/faultfs"
)

// osMaps reports whether faultfs.DefaultFS can memory-map a file here: false
// on non-unix platforms and under the nommap build tag (the CI lane that
// keeps the pread fallback green), where Mmap answers ErrMmapUnsupported.
func osMaps(tb testing.TB) bool {
	tb.Helper()
	f, err := faultfs.DefaultFS.OpenFile(filepath.Join(tb.TempDir(), "probe"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("probe"), 0); err != nil {
		tb.Fatal(err)
	}
	mp, err := f.(faultfs.Mapper).Mmap(5)
	if errors.Is(err, faultfs.ErrMmapUnsupported) {
		return false
	}
	if err != nil {
		tb.Fatal(err)
	}
	mp.Close()
	return true
}

// noMapFS is the os filesystem with the Mapper capability hidden: its files
// are read through ReadAt only, as on a filesystem that cannot map.
type noMapFS struct{ faultfs.FS }

func (fs noMapFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return struct{ faultfs.File }{f}, nil
}

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

// TestMmapReadEquivalence reopens the same on-disk segments on the os
// filesystem and on one whose files do not map, and checks both return
// identical records, with the read-path counters attributing the reads to the
// right path. Where the os itself cannot map, both reopens must be pread.
func TestMmapReadEquivalence(t *testing.T) {
	maps := osMaps(t)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			// CacheBlocks is tiny so reads actually hit the block-read
			// path instead of the decode cache replay left behind.
			opts := Options{Dir: dir, BlockSize: 512, SegmentSize: 1024, Compress: compress, CacheBlocks: 2}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := fillSegments(t, s, 40)
			checkAll(t, s, want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen on the os filesystem: every sealed segment maps at
			// Open, so cold block reads come from the mapping.
			s, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, s, want)
			st := s.Stats()
			if maps {
				if st.MmapBlockReads == 0 {
					t.Fatalf("no mmap block reads after mapped reopen (pread=%d)", st.PreadBlockReads)
				}
				if st.MmapFailures != 0 {
					t.Fatalf("unexpected mmap failures: %d", st.MmapFailures)
				}
			} else if st.MmapBlockReads != 0 || st.PreadBlockReads == 0 {
				t.Fatalf("os cannot map, yet %d mmap / %d pread block reads", st.MmapBlockReads, st.PreadBlockReads)
			}
			s.Close()

			// Reopen on files that do not map: identical results via pread.
			opts.FS = noMapFS{faultfs.DefaultFS}
			s, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, s, want)
			st = s.Stats()
			if st.MmapBlockReads != 0 {
				t.Fatalf("mmap reads from unmappable files: %d", st.MmapBlockReads)
			}
			if st.PreadBlockReads == 0 {
				t.Fatal("no pread block reads from unmappable files")
			}
			s.Close()
		})
	}
}

// TestDictionarySurvivesReopenAndRoll follows a segment's dictionary through
// its life on both read paths: every block but a segment's first needs it, so
// every record has to read back byte-exact while the segment is active (set
// when its first batch sealed), after the segment rolled and was mapped, after
// a reopen (set again at replay, from the first block as decoded), after more
// segments were written behind the reopened ones, and after compaction moved
// the records under the active segment's dictionary and retired the segment
// they were in, whose handle, still pinned by a reader, keeps the dictionary
// that reader's block needs.
func TestDictionarySurvivesReopenAndRoll(t *testing.T) {
	for _, mode := range []string{"os", "pread"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Compress: true, BlockSize: 12 << 10, SegmentSize: 24 << 10, CacheBlocks: 1}
			if mode == "pread" {
				opts.FS = noMapFS{faultfs.DefaultFS}
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
			if st := s.Stats(); mode == "pread" && st.MmapBlockReads != 0 || st.BlocksDecoded == 0 {
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
			if raw, _, _, err := s.readBlock(rd, second, own); err != nil || len(raw) == 0 {
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

// TestMmapFailureFallsBack injects an mmap failure at reopen and checks the
// store degrades to pread with nothing lost.
func TestMmapFailureFallsBack(t *testing.T) {
	fs := faultfs.NewMemFS()
	opts := Options{Dir: "d", BlockSize: 512, SegmentSize: 4096, FS: fs}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fillSegments(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts.FS = faultfs.NewInjector(fs, 1, faultfs.FailMmap(1))
	s, err = Open(opts)
	if err != nil {
		t.Fatalf("open must survive a failed mapping: %v", err)
	}
	checkAll(t, s, want)
	st := s.Stats()
	if st.MmapFailures == 0 {
		t.Fatal("injected mmap failure not counted")
	}
	if st.PreadBlockReads == 0 {
		t.Fatal("unmapped segment should be read via pread")
	}
	s.Close()
}

// TestMmapRetirementSafety compacts mapped segments away and checks reads
// stay correct across retirement (the unmap is tied to the refcount drain).
func TestMmapRetirementSafety(t *testing.T) {
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
	// Delete half the records, then compact repeatedly: victims are mapped
	// segments whose mappings must tear down cleanly on retirement.
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
// published, segments roll and are mapped, reads of rolled segments come from
// the mapping, a compaction pass offers records to its hook and retires its
// victim while a reader still holds a pin on it, and the pinned mapping stays
// readable until the pin is returned.
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
	if st = s.Stats(); st.MmapBlockReads == 0 || st.MmapFailures != 0 {
		t.Fatalf("rolled in-memory segments are not read through their mapping: %d mmap / %d pread block reads, %d mmap failures",
			st.MmapBlockReads, st.PreadBlockReads, st.MmapFailures)
	}

	// Pin segment 0 and borrow its first block header from the mapping.
	rd, ok := s.table.Pin(0)
	if !ok {
		t.Fatal("pin of segment 0 failed")
	}
	hdr, mapped := rd.MappedRange(0, blockHeaderSize)
	if !mapped {
		t.Fatal("rolled segment 0 is not mapped")
	}
	hdrWas := append([]byte(nil), hdr...)

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
	if got, ok := rd.MappedRange(0, blockHeaderSize); !ok || !bytes.Equal(got, hdrWas) {
		t.Fatal("the pinned mapping of the retired segment changed or went away")
	}
	s.table.Unpin(rd)
	if st = s.Stats(); st.RetiredPending != 0 || st.PinnedReaders != 0 {
		t.Fatalf("RetiredPending %d, PinnedReaders %d after the last unpin, want 0 and 0", st.RetiredPending, st.PinnedReaders)
	}
	checkAll(t, s, want)
}

// TestInMemoryStoreHoldsSegmentsOnce fills an in-memory store with rolled,
// mapped segments and checks the heap grew by about what the segments hold:
// the mapping of a MemFS file is a loan of the file's bytes, not a second copy.
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
	if st.LiveSegments < 8 || st.MmapBlockReads == 0 {
		t.Fatalf("%d live segments, %d mmap block reads: the store under test is not rolled and mapped", st.LiveSegments, st.MmapBlockReads)
	}
	held, grew := s.DiskBytes(), heap()-before
	if grew > held*3/2 {
		t.Fatalf("heap grew by %d bytes for %d bytes of segments: mapped segments are held twice", grew, held)
	}
	runtime.KeepAlive(s)
}

// BenchmarkSealedReads compares cold block reads from sealed segments via
// the mmap path against the pread path. CacheBlocks is kept tiny so every
// read goes to the segment bytes.
func BenchmarkSealedReads(b *testing.B) {
	dir := b.TempDir()
	const records = 512
	opts := Options{Dir: dir, BlockSize: 4096, SegmentSize: 64 << 10, CacheBlocks: 2}
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("sealed-segment-read-benchmark-"), 50)
	for i := 1; i <= records; i++ {
		if err := s.Append(Record{ID: uint64(i), DB: "db", Key: fmt.Sprintf("k%d", i), Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	s.Close()

	for _, mode := range []struct {
		name string
		fs   faultfs.FS
	}{{"mmap", faultfs.DefaultFS}, {"pread", noMapFS{faultfs.DefaultFS}}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.name == "mmap" && !osMaps(b) {
				b.Skip("os filesystem cannot map here")
			}
			o := opts
			o.FS = mode.fs
			s, err := Open(o)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := uint64(i%records) + 1
				rec, ok, err := s.Get(id)
				if err != nil || !ok || len(rec.Payload) != len(payload) {
					b.Fatalf("Get(%d): ok=%v err=%v", id, ok, err)
				}
			}
		})
	}
}
