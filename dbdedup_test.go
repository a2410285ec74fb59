package dbdedup

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbdedup/internal/workload"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	opts.SyncEncode = true
	opts.ManualFlush = true
	if opts.GovernorWindow == 0 {
		opts.GovernorWindow = 1 << 30
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPublicAPICRUD(t *testing.T) {
	s := testStore(t, Options{})
	payload := []byte("a record that is long enough to be interesting to the engine")
	if err := s.Insert("db", "k", payload); err != nil {
		t.Fatal(err)
	}
	if !s.Has("db", "k") || s.Has("db", "other") {
		t.Fatal("Has is wrong")
	}
	got, err := s.Read("db", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if err := s.Update("db", "k", []byte("new content")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Read("db", "k")
	if string(got) != "new content" {
		t.Fatalf("after update: %q", got)
	}
	if err := s.Delete("db", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("db", "k"); err != ErrNotFound {
		t.Fatalf("after delete err = %v", err)
	}
}

func TestCompressionRatioSurface(t *testing.T) {
	s := testStore(t, Options{})
	rng := rand.New(rand.NewSource(1))
	content := workload.RevisionText(rng, 8192)
	for i := 0; i < 40; i++ {
		if err := s.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 2, 40)
	}
	s.FlushWritebacks(-1)
	st := s.Stats()
	if r := st.StorageCompressionRatio(); r < 4 {
		t.Errorf("storage ratio %.1f, want >= 4 on a versioned workload", r)
	}
	if r := st.NetworkCompressionRatio(); r < 4 {
		t.Errorf("network ratio %.1f, want >= 4", r)
	}
	if st.DedupHits < 35 {
		t.Errorf("dedup hits = %d, want >= 35", st.DedupHits)
	}
}

func TestPublicReplication(t *testing.T) {
	prim := testStore(t, Options{})
	sec := testStore(t, Options{})

	srv, err := prim.ServeReplication("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := sec.FollowPrimary(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	rng := rand.New(rand.NewSource(2))
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < 20; i++ {
		if err := prim.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
			t.Fatal(err)
		}
		content = workload.Revise(rng, content, 2, 40)
	}
	if err := rep.WaitForSeq(prim.LastSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := sec.Read("wiki", "v19")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := prim.Read("wiki", "v19")
	if !bytes.Equal(got, want) {
		t.Fatal("secondary content mismatch")
	}
	if rep.BytesReceived() == 0 || srv.BytesSent() == 0 {
		t.Error("byte meters not counting")
	}
}

func TestDisableDedupBaseline(t *testing.T) {
	s := testStore(t, Options{DisableDedup: true})
	rng := rand.New(rand.NewSource(3))
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < 10; i++ {
		s.Insert("wiki", fmt.Sprintf("v%d", i), content)
	}
	st := s.Stats()
	if st.DedupHits != 0 {
		t.Error("dedup active despite DisableDedup")
	}
	if st.StorageCompressionRatio() > 1.01 {
		t.Errorf("baseline ratio %.2f, want ~1", st.StorageCompressionRatio())
	}
}

func TestSchemeSelection(t *testing.T) {
	for _, scheme := range []Scheme{SchemeHop, SchemeBackward, SchemeVersionJump} {
		s := testStore(t, Options{Scheme: scheme, HopDistance: 4})
		rng := rand.New(rand.NewSource(4))
		content := workload.RevisionText(rng, 4096)
		var versions [][]byte
		for i := 0; i < 20; i++ {
			if err := s.Insert("wiki", fmt.Sprintf("v%d", i), content); err != nil {
				t.Fatal(err)
			}
			versions = append(versions, content)
			content = workload.Revise(rng, content, 2, 40)
		}
		s.FlushWritebacks(-1)
		for i, want := range versions {
			got, err := s.Read("wiki", fmt.Sprintf("v%d", i))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("scheme %d v%d: %v", scheme, i, err)
			}
		}
	}
}

// TestOpenRejectsBadChunkSize: the chunk size is operator input, so a bad one
// is an error from Open, not a panic out of the chunker's constructor.
func TestOpenRejectsBadChunkSize(t *testing.T) {
	for _, size := range []int{-64, 1, 3, 100} {
		s, err := Open(Options{ChunkSize: size})
		if err == nil {
			s.Close()
			t.Errorf("Open(ChunkSize: %d) succeeded, want an error", size)
		}
	}
	for _, size := range []int{0, 2, 64, 1024} {
		s, err := Open(Options{ChunkSize: size})
		if err != nil {
			t.Errorf("Open(ChunkSize: %d): %v", size, err)
			continue
		}
		s.Close()
	}
}

func TestPersistentStore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncEncode: true, ManualFlush: true, GovernorWindow: 1 << 30}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("persistent record content, long enough to chunk")
	s.Insert("db", "k", payload)
	s.FlushWritebacks(-1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Read("db", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
}

func TestCompactPublicAPI(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir, BlockCompression: false})
	rng := rand.New(rand.NewSource(9))
	payload := workload.RevisionText(rng, 1024)
	for i := 0; i < 20; i++ {
		s.Insert("db", fmt.Sprintf("k%d", i), payload)
	}
	// Rewrite everything several times to accumulate dead frames.
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			if err := s.Update("db", fmt.Sprintf("k%d", i), workload.Revise(rng, payload, 1, 40)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Read("db", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("read after compaction: %v", err)
		}
	}
}

func TestStatsZeroValueSafety(t *testing.T) {
	var st Stats
	if st.StorageCompressionRatio() != 0 || st.NetworkCompressionRatio() != 0 {
		t.Error("zero stats should yield zero ratios, not NaN/Inf")
	}
}

func TestPublicDBStatsAndVerify(t *testing.T) {
	s := testStore(t, Options{})
	rng := rand.New(rand.NewSource(11))
	content := workload.RevisionText(rng, 4096)
	for i := 0; i < 15; i++ {
		s.Insert("wiki", fmt.Sprintf("v%d", i), content)
		content = workload.Revise(rng, content, 1, 40)
	}
	s.FlushWritebacks(-1)

	dbs := s.DBStats()
	if len(dbs) != 1 || dbs[0].Name != "wiki" {
		t.Fatalf("DBStats = %+v", dbs)
	}
	if dbs[0].WindowRatio < 2 || dbs[0].GovernorDisabled {
		t.Errorf("wiki stats off: %+v", dbs[0])
	}
	rep := s.Verify()
	if !rep.Ok() || rep.Records < 15 {
		t.Fatalf("Verify = %+v", rep)
	}
}
