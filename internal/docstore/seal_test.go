package docstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/faultfs"
)

// gateFS is a filesystem whose segment writes wait at a gate, so a test can
// hold the sealer in the middle of a block for as long as it likes.
type gateFS struct {
	faultfs.FS
	held chan struct{} // one token per write that found the gate shut
	open chan struct{} // closed to let writes through, for good
}

func newGateFS(inner faultfs.FS) *gateFS {
	return &gateFS{FS: inner, held: make(chan struct{}, 64), open: make(chan struct{})}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f gateFile) WriteAt(p []byte, off int64) (int, error) {
	select {
	case <-f.g.open:
	default:
		f.g.held <- struct{}{}
		<-f.g.open
	}
	return f.File.WriteAt(p, off)
}

// sealRec is a record whose frame is 100 bytes of payload plus a few of
// header: three fill a 256-byte block.
func sealRec(id uint64, ver int) Record {
	return Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id),
		Payload: bytes.Repeat([]byte(fmt.Sprintf("%03d.%03d|", id, ver)), 13)[:100]}
}

func mustAppend(t *testing.T, s *Store, rec Record) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Append(rec) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append(%d): %v", rec.ID, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Append(%d) is blocked behind the sealer", rec.ID)
	}
}

func mustRead(t *testing.T, s *Store, want Record) {
	t.Helper()
	got, ok, err := s.Get(want.ID)
	if err != nil || !ok || got.Form != want.Form || got.BaseID != want.BaseID || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("Get(%d) = %+v, ok %v, err %v; want %+v", want.ID, got, ok, err, want)
	}
	if m, ok := s.Meta(want.ID); !ok || m.Key != want.Key || m.PayloadLen != len(want.Payload) {
		t.Fatalf("Meta(%d) = %+v, %v", want.ID, m, ok)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSealDoesNotBlockAppend holds the sealer inside the write of the first
// block. Appends and reads, of records in the block in flight too, go on
// until the second buffer is full as well; the next appender then waits,
// alone and counted, and goes through as soon as the sealer lets go.
func TestSealDoesNotBlockAppend(t *testing.T) {
	gate := newGateFS(faultfs.NewMemFS())
	s, err := Open(Options{Dir: "d", BlockSize: 256, Compress: true, FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for id := uint64(1); id <= 3; id++ { // the third fills block 1
		mustAppend(t, s, sealRec(id, 0))
	}
	<-gate.held // the sealer is in its first write
	for id := uint64(4); id <= 6; id++ {
		mustAppend(t, s, sealRec(id, 0)) // the sixth fills the second buffer and still returns
	}
	for id := uint64(1); id <= 6; id++ {
		mustRead(t, s, sealRec(id, 0))
		if e, _ := s.recs.get(id); e.sealed() {
			t.Fatalf("record %d is sealed while the sealer is held", id)
		}
	}
	if st := s.Stats(); st.SealWaits != 0 || st.BlocksSealed != 0 {
		t.Fatalf("before the second buffer filled: %d waits, %d blocks sealed", st.SealWaits, st.BlocksSealed)
	}

	seventh := make(chan error, 1)
	go func() { seventh <- s.Append(sealRec(7, 0)) }()
	waitFor(t, "the seventh append to wait for the sealer", func() bool { return s.Stats().SealWaits == 1 })
	select {
	case err := <-seventh:
		t.Fatalf("the seventh append returned (%v) with both buffers full", err)
	default:
	}
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("the waiting append's record is readable before it was stored")
	}
	mustRead(t, s, sealRec(2, 0)) // readers are not behind the writer lock

	close(gate.open)
	if err := <-seventh; err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SealWaits != 1 || st.SealWaitNanos == 0 || st.BlocksSealed != 3 || st.SealNanos == 0 || st.SealErrors != 0 {
		t.Fatalf("after the run: %+v; want 1 wait, 3 blocks sealed", st)
	}
	for id := uint64(1); id <= 7; id++ {
		mustRead(t, s, sealRec(id, 0))
		if e, _ := s.recs.get(id); !e.sealed() || e.payload != nil {
			t.Fatalf("record %d still has its pending copy after Flush: %+v", id, e)
		}
	}
}

// TestOverwriteAndDeleteDuringSeal changes records whose frames are in the
// block the sealer is holding: a same-length overwrite, a write-back's
// re-encoding and a tombstone. The newest version must win, and what the
// run leaves behind — segment bytes, dead bytes per segment and in total,
// live records and bytes — must be what the same operations leave when every
// block is sealed before the next append.
func TestOverwriteAndDeleteDuringSeal(t *testing.T) {
	run := func(serial bool) (*Store, *faultfs.MemFS) {
		mem := faultfs.NewMemFS()
		gate := newGateFS(mem)
		if serial {
			close(gate.open)
		}
		s, err := Open(Options{Dir: "d", BlockSize: 256, SegmentSize: 1 << 10, FS: gate})
		if err != nil {
			t.Fatal(err)
		}
		put := func(rec Record) {
			mustAppend(t, s, rec)
			if serial {
				sealerIdle(s)
			}
		}
		for id := uint64(1); id <= 3; id++ {
			put(sealRec(id, 0))
		}
		if !serial {
			<-gate.held
		}
		put(sealRec(1, 1)) // same shape, new content
		reenc := Record{ID: 2, DB: "db", Key: "k2", Form: FormDelta, BaseID: 1, Payload: []byte("delta against 1")}
		put(reenc)
		put(Record{ID: 3, Tombstone: true})
		put(sealRec(1, 2)) // and again, inside the block that holds the first overwrite
		if !serial {
			for id := uint64(1); id <= 3; id++ {
				if e, ok := s.recs.get(id); ok && e.sealed() {
					t.Fatalf("record %d sealed while the sealer is held", id)
				}
			}
			mustRead(t, s, sealRec(1, 2))
			mustRead(t, s, reenc)
			if _, ok, _ := s.Get(3); ok {
				t.Fatal("tombstoned record readable while its frame is in flight")
			}
			close(gate.open)
		}
		for id := uint64(4); id <= 12; id++ { // roll a segment or two
			put(sealRec(id, 0))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		mustRead(t, s, sealRec(1, 2))
		mustRead(t, s, reenc)
		if _, ok, _ := s.Get(3); ok {
			t.Fatal("tombstoned record came back when its old frame was sealed")
		}
		return s, mem
	}
	got, gotFS := run(false)
	defer got.Close()
	want, wantFS := run(true)
	defer want.Close()

	gs, ws := got.Stats(), want.Stats()
	if gs.DeadBytes != ws.DeadBytes || gs.LiveRecords != ws.LiveRecords || gs.LogicalBytes != ws.LogicalBytes ||
		gs.BlocksSealed != ws.BlocksSealed || gs.Appends != ws.Appends {
		t.Fatalf("accounting differs from the serial run:\n got %+v\nwant %+v", gs, ws)
	}
	if ws.DeadBytes != 100+100+100+100 { // record 1 twice, the raw 2, the deleted 3
		t.Fatalf("serial run counts %d dead bytes, want 400", ws.DeadBytes)
	}
	if len(got.segments) != len(want.segments) || len(want.segments) < 2 {
		t.Fatalf("%d segments, the serial run has %d (want at least 2)", len(got.segments), len(want.segments))
	}
	for i, seg := range want.segments {
		if got.segments[i].dead != seg.dead {
			t.Errorf("segment %d: %d dead bytes, the serial run has %d", i, got.segments[i].dead, seg.dead)
		}
		name := fmt.Sprintf("d/seg-%06d.log", seg.id)
		if !bytes.Equal(gotFS.Bytes(name), wantFS.Bytes(name)) {
			t.Errorf("%s differs from the serial run's", name)
		}
	}
}

// TestConcurrentReadsAcrossSeal is the property the old reader's retry loop
// existed for: while blocks fill, go in flight and are sealed, and records are
// overwritten at every stage of that, a reader never misses a live ID and
// never sees bytes that were not some version of it. One reader asks with Get
// and two with View: on a batch that sealed a moment ago they meet on frames
// of one block, or of neighbouring blocks of the batch. In the batches mode a
// batch is cut into several blocks and a segment rolls every third batch or
// so, so the readers keep crossing from a segment's first block, which needs
// no dictionary, to the blocks behind it, which need the one that block's
// installation set: it has to be there before any of them can be found.
func TestConcurrentReadsAcrossSeal(t *testing.T) {
	const ids = 2000
	for _, mode := range []string{"file", "mem", "batches"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{BlockSize: 512, SegmentSize: 8 << 10, Compress: true, CacheBlocks: 4}
			wantBlocks, wantSegments := ids/5, 1
			switch mode {
			case "file":
				opts.Dir = t.TempDir()
			case "batches":
				opts.Dir, opts.BlockSize, opts.SegmentSize = t.TempDir(), 10<<10, 5<<10
				wantBlocks, wantSegments = 2*ids*100/opts.BlockSize, 4
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var live atomic.Uint64 // IDs [1, live] have been acknowledged
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := uint64(g); !stop.Load(); i += 7 {
						n := live.Load()
						if n == 0 {
							continue
						}
						id := 1 + i%n
						if i%3 == 0 && n > 8 {
							id = n - i%8 // the newest: pending, in flight or just sealed
						}
						valid := func(p []byte) bool {
							var gotID uint64
							var ver int
							_, err := fmt.Sscanf(string(p[:8]), "%03d.%03d|", &gotID, &ver)
							return err == nil && gotID == id%1000 && bytes.Equal(p, sealRec(id%1000, ver).Payload)
						}
						var ok, good bool
						var err error
						if g == 0 {
							var rec Record
							rec, ok, err = s.Get(id)
							good = ok && valid(rec.Payload)
						} else {
							ok, err = s.View(id, func(v Stored) { good = valid(v.Payload) })
						}
						if err != nil || !ok {
							t.Errorf("read of %d with %d acknowledged: ok %v, err %v", id, n, ok, err)
							return
						}
						if !good {
							t.Errorf("read of %d returned bytes that are no version of it", id)
							return
						}
						if m, ok := s.Meta(id); !ok || m.PayloadLen != 100 {
							t.Errorf("Meta(%d) = %+v, %v", id, m, ok)
							return
						}
					}
				}(g)
			}
			for id := uint64(1); id <= ids; id++ {
				rec := sealRec(id%1000, 0)
				rec.ID = id
				if err := s.Append(rec); err != nil {
					t.Fatal(err)
				}
				live.Store(id)
				if id%5 == 0 { // overwrite something recent, wherever it is by now
					old := id - id%4
					rec := sealRec(old%1000, int(id%900)+1)
					rec.ID = old
					if err := s.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.LiveRecords != ids || int(st.BlocksSealed) < wantBlocks || st.LiveSegments < wantSegments {
				t.Fatalf("after the run: %d live records, %d blocks sealed in %d segments; want %d and at least %d in %d",
					st.LiveRecords, st.BlocksSealed, st.LiveSegments, ids, wantBlocks, wantSegments)
			}
		})
	}
}

// TestBatchIsOneWrite: a sealed batch reaches the file with one WriteAt (and,
// under SyncWrites, one Sync), however many blocks it was cut into; header
// and body used to be a write each.
func TestBatchIsOneWrite(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.NewMemFS(), 1)
	s, err := Open(Options{Dir: "d", FS: inj, Compress: true, SyncWrites: true, BlockSize: 12 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 13 records of 1000 bytes fill a 12 KiB batch; 4 of them fit in the
	// 4 KiB a block holds, so the batch is cut into blocks of 4, 4, 4 and 1.
	const batches, perBatch = 5, 13
	for id := uint64(1); id <= batches*perBatch; id++ {
		noise := make([]byte, 1000)
		rand.New(rand.NewSource(int64(id))).Read(noise)
		mustAppend(t, s, Record{ID: id, DB: "db", Key: "k", Payload: noise})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BlocksSealed != 1+(batches-1)*4 {
		t.Fatalf("%d blocks sealed, want the first batch whole and four to each of the other %d", st.BlocksSealed, batches-1)
	}
	if w, sy := inj.Count(faultfs.OpWrite), inj.Count(faultfs.OpSync); w != batches || sy != batches {
		t.Fatalf("%d writes and %d syncs for %d batches", w, sy, batches)
	}
}

// TestBlockLoadIsOneRead: a cold point read of a block of at most 4 KiB,
// compressed or not, reads the file once; header and body used to be a read
// each.
func TestBlockLoadIsOneRead(t *testing.T) {
	for _, compress := range []bool{true, false} {
		inj := faultfs.NewInjector(faultfs.NewMemFS(), 1)
		opts := Options{Dir: "d", FS: inj, Compress: compress}
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Records of 1000 bytes, half noise: the first batch is one large
		// block, each later one is cut into blocks of four records.
		const records = 100
		for id := uint64(1); id <= records; id++ {
			payload := bytes.Repeat([]byte{byte('a' + id%26)}, 1000)
			rand.New(rand.NewSource(int64(id))).Read(payload[500:])
			mustAppend(t, s, Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id), Payload: payload})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(opts); err != nil { // a cold block cache
			t.Fatal(err)
		}
		before, reads := s.Stats(), inj.Count(faultfs.OpRead)
		rec, ok, err := s.Get(records - 10)
		if err != nil || !ok || len(rec.Payload) != 1000 {
			t.Fatalf("compress %v: Get: ok %v, err %v", compress, ok, err)
		}
		after := s.Stats()
		if loads := after.PreadBlockReads - before.PreadBlockReads; loads != 1 {
			t.Fatalf("compress %v: the read loaded %d blocks, the test wants one", compress, loads)
		}
		if compress && after.BlockBytesDecoded-before.BlockBytesDecoded > blockTarget {
			t.Fatalf("compress %v: the block holds %d bytes, the test wants one of at most %d",
				compress, after.BlockBytesDecoded-before.BlockBytesDecoded, blockTarget)
		}
		if got := inj.Count(faultfs.OpRead) - reads; got != 1 {
			t.Errorf("compress %v: a cold point read of one block read the file %d times, want 1", compress, got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBlocksNeverPassTheTarget: a batch is cut before the frame that would take
// a block past blockTarget, so no block of two or more frames holds more than
// blockTarget raw bytes, except a segment's first, which is its batch whole. A
// frame longer than the target is a block of its own, frames that fill the
// target exactly share one, no block is empty, and every frame reads back.
func TestBlocksNeverPassTheTarget(t *testing.T) {
	s, err := Open(Options{Dir: "d", FS: faultfs.NewMemFS(), Compress: true, SegmentSize: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// sized returns record id with a frame of exactly n bytes, half of its
	// payload noise, so the segments fill and roll.
	rng := rand.New(rand.NewSource(46))
	sized := func(id uint64, n int) Record {
		rec := Record{ID: id, DB: "db", Key: fmt.Sprintf("k%d", id)}
		for p := n; len(appendFrame(nil, rec)) != n; p-- {
			rec.Payload = bytes.Repeat([]byte{byte('a' + id%26)}, p)
		}
		rng.Read(rec.Payload[len(rec.Payload)/2:])
		return rec
	}
	want := make(map[uint64]Record)
	var id uint64
	add := func(n int) {
		id++
		rec := sized(id, n)
		mustAppend(t, s, rec)
		want[id] = rec
	}
	for round := 0; round < 40; round++ {
		add(40)
		add(1500)
		add(1500)
		add(40)
		add(9 << 10)
		add(1500) // this and the next fill a block exactly
		add(blockTarget - 1500)
		add(40)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	frames, full := 0, 0
	for _, seg := range s.segments {
		_, err := s.walkBlocks(seg.rd, func(off int64, raw []byte) error {
			n := 0
			for at := 0; at < len(raw); n++ {
				_, used, err := parseFrame(raw[at:], false)
				if err != nil {
					return err
				}
				at += used
			}
			switch {
			case n == 0:
				t.Errorf("segment %d, block at %d: empty", seg.id, off)
			case off > 0 && n > 1 && len(raw) > blockTarget:
				t.Errorf("segment %d, block at %d: %d frames in %d bytes, past the target of %d", seg.id, off, n, len(raw), blockTarget)
			case off > 0 && n > 1 && len(raw) == blockTarget:
				full++
			}
			frames += n
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segments) < 2 || full == 0 {
		t.Fatalf("%d segments, %d blocks of several frames that fill the target exactly: the sequence no longer covers the rule", len(s.segments), full)
	}
	if frames != len(want) {
		t.Fatalf("the blocks hold %d frames, %d were appended", frames, len(want))
	}
	for id, rec := range want {
		got, ok, err := s.Get(id)
		if err != nil || !ok || !bytes.Equal(got.Payload, rec.Payload) || got.Key != rec.Key {
			t.Fatalf("Get(%d): ok %v, err %v, %d bytes; want %d", id, ok, err, len(got.Payload), len(rec.Payload))
		}
	}
}

// TestFlushIsTheBarrier: under SyncWrites, whatever was acknowledged before a
// Flush that returned nil survives a crash at any filesystem operation after
// it, whether its block was under construction, in flight or already sealed
// when Flush was called.
func TestFlushIsTheBarrier(t *testing.T) {
	// script appends before blocks' worth of records, flushes, and keeps
	// appending; it returns the op counts at the barrier.
	const before, after = 20, 12
	script := func(s *Store, inj *faultfs.Injector) (writes, syncs uint64, err error) {
		for id := uint64(1); id <= before; id++ {
			if err := s.Append(sealRec(id, 0)); err != nil {
				return 0, 0, err
			}
		}
		if err := s.Flush(); err != nil {
			return 0, 0, err
		}
		writes, syncs = inj.Count(faultfs.OpWrite), inj.Count(faultfs.OpSync)
		for id := uint64(before + 1); id <= before+after; id++ {
			s.Append(sealRec(id, 0)) // may fail: the process is dying
		}
		s.Flush()
		return writes, syncs, nil
	}
	opts := func(fs faultfs.FS) Options {
		return Options{Dir: "d", BlockSize: 256, SegmentSize: 2 << 10, SyncWrites: true, Compress: true, FS: fs}
	}
	census := faultfs.NewInjector(faultfs.NewMemFS(), 1)
	s, err := Open(opts(census))
	if err != nil {
		t.Fatal(err)
	}
	writes, syncs, err := script(s, census)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if total := census.Count(faultfs.OpWrite); total < writes+4 {
		t.Fatalf("only %d writes after the barrier's %d; nothing to crash at", total-writes, writes)
	}

	var rules []faultfs.Rule
	for i := uint64(1); i <= 4; i++ {
		rules = append(rules, faultfs.CrashAtWrite(writes+i))
	}
	rules = append(rules, faultfs.CrashAtSync(syncs+1), faultfs.CrashAtSync(syncs+2))
	for i, rule := range rules {
		t.Run(fmt.Sprintf("%s#%d", rule.Op, rule.Nth), func(t *testing.T) {
			mem := faultfs.NewMemFS()
			inj := faultfs.NewInjector(mem, int64(i), rule)
			s, err := Open(opts(inj))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := script(s, inj); err != nil {
				t.Fatalf("the crash point fired before the barrier: %v", err)
			}
			s.Close()
			if !inj.Crashed() {
				t.Fatal("the crash point never fired")
			}
			s2, err := Open(opts(mem))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for id := uint64(1); id <= before; id++ {
				mustRead(t, s2, sealRec(id, 0))
			}
			if st := s2.Stats(); st.LiveRecords >= before+after {
				t.Fatalf("%d records survived; the crash cost nothing", st.LiveRecords)
			}
		})
	}
}

// TestCloseWaitsForSealer: Close does not return while the sealer holds a
// block, and when it returns every acknowledged record is in a segment and
// nothing of the store is still running.
func TestCloseWaitsForSealer(t *testing.T) {
	mem := faultfs.NewMemFS()
	gate := newGateFS(mem)
	s, err := Open(Options{Dir: "d", BlockSize: 256, FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ { // one block in flight, two records behind it
		mustAppend(t, s, sealRec(id, 0))
	}
	<-gate.held
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the sealer was inside a write", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate.open)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	s.sealers.Wait() // returns at once: Close has waited already
	image := append([]byte(nil), mem.Bytes("d/seg-000000.log")...)
	if len(blockSpans(image)) != 2 {
		t.Fatalf("Close left %d blocks in the segment, want 2", len(blockSpans(image)))
	}
	if err := s.Append(sealRec(6, 0)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	s2, err := Open(Options{Dir: "d", BlockSize: 256, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id := uint64(1); id <= 5; id++ {
		mustRead(t, s2, sealRec(id, 0))
	}
}
