package docstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The golden directories hold segment files written by running goldenOps, one
// per format. The frame and block formats are not supposed to move: whoever
// changes them on purpose re-runs goldenOps at the commit to pin, adds a
// directory, and keeps the old ones opening.
//
// golden_pr18 was written by the parent of the allocation-diet change (commit
// 45008b0): every batch one self-contained block. golden_pr29 is this format:
// batches large enough to be cut into several blocks, every block but a
// segment's first compressed behind that segment's dictionary.
const (
	goldenPR18 = "testdata/golden_pr18"
	goldenPR29 = "testdata/golden_pr29"
)

// goldenSegments is the SHA-256 of each segment file goldenOps writes today.
// A change that moves these bytes without changing the format (where batches
// are cut, how blocks are parsed) replaces the sums.
var goldenSegments = map[string]string{
	"seg-000001.log": "5c76df66a3439f0c63ec358472111d256088591129f288ba7f093c8915fe29fd",
	"seg-000002.log": "03d6813c7e45d60e131995ccf2ce408d98886c113abc86bc58a508b53731358d",
	"seg-000003.log": "2a799760b96f54d5009445a90d12e0a2c68d267d2bcee9b9019e127f955aa1d3",
}

func goldenOptions(dir, golden string) Options {
	if golden == goldenPR18 {
		return Options{Dir: dir, BlockSize: 1 << 10, SegmentSize: 4 << 10, Compress: true}
	}
	return Options{Dir: dir, BlockSize: 10 << 10, SegmentSize: 16 << 10, Compress: true}
}

// goldenOps drives a fixed operation sequence through every frame flag, both
// block encodings (compressible and incompressible blocks), supersedes,
// tombstones, a record several blocks long, segment rolls and a compaction,
// and returns the live records it leaves behind.
func goldenOps(t testing.TB, s *Store) map[uint64]Record {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	live := make(map[uint64]Record)
	text := func(id uint64, n int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("record %d says hello; ", id)), n)[:n*17]
	}
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	put := func(rec Record) {
		t.Helper()
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		live[rec.ID] = rec
	}
	for id := uint64(1); id <= 240; id++ {
		rec := Record{ID: id, DB: fmt.Sprintf("db%d", id%3), Key: fmt.Sprintf("key-%03d", id)}
		switch {
		case id%11 <= 1:
			rec.Payload = noise(1100 + int(id)) // a block of its own, stored uncompressed
		case id%7 == 0:
			rec.Form, rec.BaseID, rec.Payload = FormDelta, id-1, noise(40)
		default:
			rec.Payload = text(id, 6+int(id%9))
		}
		rec.Stacked = id%13 == 0
		rec.Hidden = id%17 == 0
		put(rec)
	}
	put(Record{ID: 500, DB: "db0", Key: "large", Payload: text(500, 400)}) // > 4 blocks
	put(Record{ID: 501, DB: "db1", Key: "empty"})
	for id := uint64(2); id <= 240; id += 5 { // supersede: dead bytes in the early segments
		put(Record{ID: id, DB: fmt.Sprintf("db%d", id%3), Key: fmt.Sprintf("key-%03d", id), Payload: text(id+1000, 5)})
	}
	for id := uint64(3); id <= 240; id += 10 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Compact(); err != nil || n == 0 {
		t.Fatalf("Compact reclaimed %d bytes, err %v; the sequence must retire a segment", n, err)
	}
	for id := uint64(600); id < 620; id++ {
		put(Record{ID: id, DB: "db2", Key: fmt.Sprintf("tail-%d", id), Payload: text(id, 12)})
	}
	return live
}

func checkGoldenRecords(t *testing.T, s *Store, live map[uint64]Record) {
	t.Helper()
	if got := s.Stats().LiveRecords; got != len(live) {
		t.Fatalf("LiveRecords = %d, want %d", got, len(live))
	}
	for id, want := range live {
		got, ok, err := s.Get(id)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = ok %v, err %v", id, ok, err)
		}
		if got.DB != want.DB || got.Key != want.Key || got.Form != want.Form || got.BaseID != want.BaseID ||
			got.Stacked != want.Stacked || got.Hidden != want.Hidden || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("Get(%d) = %+v, want %+v", id, got, want)
		}
	}
}

// TestGoldenSegmentsByteIdentical: the same operations must produce the same
// bytes on disk as the commit that pinned them produced, file for file.
func TestGoldenSegmentsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(goldenOptions(dir, ""))
	if err != nil {
		t.Fatal(err)
	}
	live := goldenOps(t, s)
	checkGoldenRecords(t, s, live)
	if st := s.Stats(); st.BlocksSealed < 2*uint64(st.LiveSegments) {
		t.Fatalf("%d blocks in %d segments: the batches are not being cut", st.BlocksSealed, st.LiveSegments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(got) != len(goldenSegments) {
		t.Fatalf("wrote %d segment files, want %d", len(got), len(goldenSegments))
	}
	for _, g := range got {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), goldenSegments[filepath.Base(g)]; got != want {
			t.Fatalf("%s (%d bytes) has SHA-256 %s, want %s", filepath.Base(g), len(b), got, want)
		}
	}
}

// TestGoldenSegmentsOpen: files an earlier format's store wrote, and the files
// this one writes, replay, serve every record and keep accepting writes.
func TestGoldenSegmentsOpen(t *testing.T) {
	for _, golden := range []string{goldenPR18, goldenPR29, ""} {
		name := filepath.Base(golden)
		if golden == "" {
			name = "written_now"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if golden == "" {
				s, err := Open(goldenOptions(dir, golden))
				if err != nil {
					t.Fatal(err)
				}
				goldenOps(t, s)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				files, _ := filepath.Glob(filepath.Join(golden, "seg-*.log"))
				if len(files) < 2 {
					t.Fatalf("golden files: %v", files)
				}
				for _, f := range files {
					b, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The model comes from running the same sequence on a scratch store.
			scratch, err := Open(goldenOptions("", golden))
			if err != nil {
				t.Fatal(err)
			}
			live := goldenOps(t, scratch)
			scratch.Close()

			s, err := Open(goldenOptions(dir, golden))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkGoldenRecords(t, s, live)
			added := Record{ID: 999, DB: "db0", Key: "new", Payload: []byte("appended to files an earlier store wrote")}
			if err := s.Append(added); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			live[999] = added
			checkGoldenRecords(t, s, live)
		})
	}
}
