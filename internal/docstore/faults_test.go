package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dbdedup/internal/faultfs"
)

// blockSpans walks a segment image and returns the (offset, storedLen) of
// every well-formed block header whose body fits, i.e. the blocks replay
// would visit.
type blockSpan struct {
	off    int64
	stored int64
}

func blockSpans(data []byte) []blockSpan {
	var spans []blockSpan
	var off int64
	for off+blockHeaderSize <= int64(len(data)) {
		if binary.LittleEndian.Uint32(data[off:]) != blockMagic {
			break
		}
		stored := int64(binary.LittleEndian.Uint32(data[off+8:]))
		if off+blockHeaderSize+stored > int64(len(data)) {
			break
		}
		spans = append(spans, blockSpan{off: off, stored: stored})
		off += blockHeaderSize + stored
	}
	return spans
}

// TestReplayTornSegments is the table-driven torn-tail matrix that replaces
// the old single "-10 bytes off the last segment" case. It tears or corrupts
// a block at every structural boundary — inside the block header, inside a
// record frame header, and mid-payload — in the first, middle, and last
// segments, over both the os-backed and in-memory filesystems. Replay must
// reopen without error, keep exactly the records whose blocks precede the
// damage (everything in other segments plus earlier blocks of the damaged
// one), drop the rest, and accept and persist new writes afterwards.
func TestReplayTornSegments(t *testing.T) {
	type fsMode struct {
		name string
		mk   func(t *testing.T) (fs faultfs.FS, dir string, corrupt func(name string, data []byte))
	}
	modes := []fsMode{
		{name: "file", mk: func(t *testing.T) (faultfs.FS, string, func(string, []byte)) {
			dir := t.TempDir()
			return faultfs.OS{}, dir, func(name string, data []byte) {
				if err := os.WriteFile(name, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "mem", mk: func(t *testing.T) (faultfs.FS, string, func(string, []byte)) {
			mem := faultfs.NewMemFS()
			return mem, "m", mem.SetBytes
		}},
	}
	segPositions := []string{"first", "middle", "last"}
	boundaries := []struct {
		name string
		// cut returns the damage: the byte length to keep (truncation) or
		// -1 with a flip offset for in-place corruption.
		cut  func(b blockSpan) int64
		flip func(b blockSpan) int64 // -1 = truncate instead
	}{
		{name: "block-header", cut: func(b blockSpan) int64 { return b.off + 9 }, flip: func(blockSpan) int64 { return -1 }},
		{name: "record-header", cut: func(b blockSpan) int64 { return b.off + blockHeaderSize + 2 }, flip: func(blockSpan) int64 { return -1 }},
		{name: "mid-payload", cut: func(b blockSpan) int64 { return b.off + blockHeaderSize + b.stored - 7 }, flip: func(blockSpan) int64 { return -1 }},
		{name: "payload-bitflip", cut: func(blockSpan) int64 { return -1 },
			flip: func(b blockSpan) int64 { return b.off + blockHeaderSize + b.stored/2 }},
	}

	for _, mode := range modes {
		for _, pos := range segPositions {
			for _, bd := range boundaries {
				t.Run(fmt.Sprintf("%s/%s/%s", mode.name, pos, bd.name), func(t *testing.T) {
					fs, dir, corrupt := mode.mk(t)
					opts := Options{Dir: dir, BlockSize: 128, SegmentSize: 600, FS: fs}
					s, err := Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					payloads := map[uint64][]byte{}
					for i := uint64(1); i <= 36; i++ {
						p := bytes.Repeat([]byte(fmt.Sprintf("p%03d-", i)), 20) // 100 bytes
						payloads[i] = p
						if err := s.Append(Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: p}); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					// Snapshot each live record's home segment before closing.
					recSeg := map[uint64]entry{}
					for id := range payloads {
						e, ok := s.recs.get(id)
						if !ok || !e.sealed() {
							t.Fatalf("record %d not sealed after Flush", id)
						}
						recSeg[id] = e
					}
					var segNames []string
					for _, seg := range s.segments {
						if seg.size > 0 {
							segNames = append(segNames, filepath.Join(dir, fmt.Sprintf("seg-%06d.log", seg.id)))
						}
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if len(segNames) < 3 {
						t.Fatalf("only %d non-empty segments; need 3 for first/middle/last", len(segNames))
					}

					dmgSlot := map[string]int{"first": 0, "middle": len(segNames) / 2, "last": len(segNames) - 1}[pos]
					name := segNames[dmgSlot]
					var data []byte
					if mem, ok := fs.(*faultfs.MemFS); ok {
						data = mem.Bytes(name)
					} else {
						data, err = os.ReadFile(name)
						if err != nil {
							t.Fatal(err)
						}
					}
					spans := blockSpans(data)
					if len(spans) == 0 {
						t.Fatal("damaged segment has no blocks")
					}
					target := spans[len(spans)-1] // tear the segment's tail block
					if cut := bd.cut(target); cut >= 0 {
						data = data[:cut]
					} else {
						data = append([]byte(nil), data...)
						data[bd.flip(target)] ^= 0x40
					}
					corrupt(name, data)

					// Reopen: survivors are exactly the records outside the
					// damaged segment or in blocks before the damaged one.
					s2, err := Open(opts)
					if err != nil {
						t.Fatalf("reopen over damage failed: %v", err)
					}
					lost := 0
					for id, p := range payloads {
						loc := recSeg[id]
						wantLive := int(loc.seg) != dmgSlot || loc.off < target.off
						got, ok, err := s2.Get(id)
						if err != nil {
							t.Fatalf("Get(%d): %v", id, err)
						}
						if ok != wantLive {
							t.Fatalf("record %d (seg %d off %d): live=%v, want %v", id, loc.seg, loc.off, ok, wantLive)
						}
						if ok && !bytes.Equal(got.Payload, p) {
							t.Fatalf("record %d payload corrupted after recovery", id)
						}
						if !wantLive {
							lost++
						}
					}
					if lost == 0 {
						t.Fatal("damage cost no records; the case exercises nothing")
					}

					// The store must keep working: a new write lands, is
					// readable, and survives another reopen.
					if err := s2.Append(Record{ID: 999, DB: "d", Key: "post-damage", Payload: []byte("fresh")}); err != nil {
						t.Fatal(err)
					}
					if err := s2.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := s2.Close(); err != nil {
						t.Fatal(err)
					}
					s3, err := Open(opts)
					if err != nil {
						t.Fatalf("third open failed: %v", err)
					}
					defer s3.Close()
					got, ok, err := s3.Get(999)
					if err != nil || !ok || string(got.Payload) != "fresh" {
						t.Fatalf("post-damage write lost: %v %v", ok, err)
					}
					for id, p := range payloads {
						loc := recSeg[id]
						if int(loc.seg) != dmgSlot || loc.off < target.off {
							if got, ok, _ := s3.Get(id); !ok || !bytes.Equal(got.Payload, p) {
								t.Fatalf("survivor %d lost on third open", id)
							}
						}
					}
				})
			}
		}
	}
}

// TestReplayTornBehindADictionary is the torn-segment matrix for the format
// in which only a segment's first block stands alone: batches of several
// blocks, each compressed behind the dictionary that block's first bytes
// are. A tear or a flipped bit costs the block it is in and what is behind it
// in that segment, and nothing else: not the earlier blocks of the same batch
// (a batch is written with one call but is not a unit of recovery), not
// another segment's blocks, whose dictionary is their own. Damage to the first
// block leaves an empty segment, and if it is the active one the next batch
// written gives it a new dictionary.
func TestReplayTornBehindADictionary(t *testing.T) {
	cases := []struct {
		name string
		seg  string // which segment: "rolled" (the first) or "active" (the last)
		// block picks the damaged block among the segment's n; at is the
		// damage within it: a length to cut the file at, or a bit to flip.
		block func(n int) int
		cut   bool
	}{
		{name: "torn tail block", seg: "active", block: func(n int) int { return n - 1 }, cut: true},
		{name: "flip in the middle of the last batch", seg: "active", block: func(n int) int { return n - 2 }},
		{name: "flip in a rolled segment", seg: "rolled", block: func(n int) int { return n / 2 }},
		{name: "torn first block", seg: "active", block: func(int) int { return 0 }, cut: true},
		{name: "flip in a rolled segment's first block", seg: "rolled", block: func(int) int { return 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := faultfs.NewMemFS()
			opts := Options{Dir: "d", FS: mem, Compress: true, BlockSize: 12 << 10, SegmentSize: 24 << 10}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			payloads := map[uint64][]byte{}
			put := func(s *Store, id uint64) {
				t.Helper()
				// Half of every payload is shared text, which the dictionary
				// holds, and half its own, which nothing compresses.
				own := make([]byte, 400)
				rand.New(rand.NewSource(int64(id))).Read(own)
				p := append(bytes.Repeat([]byte("the common part of every record. "), 12), own...)
				payloads[id] = p
				mustAppend(t, s, Record{ID: id, DB: "d", Key: fmt.Sprintf("k%d", id), Payload: p})
			}
			// Until the active segment, the third at least, holds two batches.
			for id := uint64(1); ; id++ {
				put(s, id)
				s.mu.Lock()
				s.waitSealerLocked()
				done := len(s.segments) >= 3 && s.active.size >= 14<<10
				s.mu.Unlock()
				if done {
					break
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			home := map[uint64]entry{}
			for id := range payloads {
				home[id], _ = s.recs.get(id)
			}
			dmgSlot := 0
			if tc.seg == "active" {
				dmgSlot = len(s.segments) - 1
			}
			name := s.segments[dmgSlot].file.Name()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if dmgSlot == 0 && tc.seg == "active" {
				t.Fatal("one segment only")
			}
			data := append([]byte(nil), mem.Bytes(name)...)
			spans := blockSpans(data)
			if len(spans) < 4 || data[spans[0].off+16]&flagDict != 0 || data[spans[1].off+16]&flagDict == 0 {
				t.Fatalf("%d blocks in the damaged segment, flags %#x then %#x: want a classic block and dictionary blocks behind it",
					len(spans), data[spans[0].off+16], data[spans[1].off+16])
			}
			target := spans[tc.block(len(spans))]
			if tc.cut {
				data = data[:target.off+blockHeaderSize+target.stored/2]
			} else {
				data[target.off+blockHeaderSize+target.stored/2] ^= 0x40
			}
			mem.SetBytes(name, data)

			survives := func(id uint64) bool {
				return int(home[id].seg) != dmgSlot || home[id].off < target.off
			}
			check := func(s *Store) (lost int) {
				t.Helper()
				for id, p := range payloads {
					got, ok, err := s.Get(id)
					if err != nil {
						t.Fatalf("Get(%d): %v", id, err)
					}
					if ok != survives(id) {
						t.Fatalf("record %d (segment %d, block at %d): live=%v, want %v", id, home[id].seg, home[id].off, ok, survives(id))
					}
					if ok && !bytes.Equal(got.Payload, p) {
						t.Fatalf("record %d reads back wrong after recovery", id)
					}
					if !ok {
						lost++
					}
				}
				return lost
			}
			s2, err := Open(opts)
			if err != nil {
				t.Fatalf("reopen over damage failed: %v", err)
			}
			if lost := check(s2); lost == 0 {
				t.Fatal("damage cost no records; the case exercises nothing")
			}
			if got := s2.segments[dmgSlot].size; got != target.off {
				t.Fatalf("the damaged segment ends at %d, want %d, where the damaged block starts", got, target.off)
			}
			// New batches land behind the damage (behind a new first block,
			// if that is what was lost), are readable and survive a reopen.
			for id := uint64(1000); id < 1040; id++ {
				put(s2, id)
				home[id] = entry{slot: slot{seg: -1}}
			}
			if err := s2.Flush(); err != nil {
				t.Fatal(err)
			}
			check(s2)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(opts)
			if err != nil {
				t.Fatalf("third open failed: %v", err)
			}
			defer s3.Close()
			check(s3)
		})
	}
}

// TestReplayEndsASegmentWhereItStopped damages the body of the active
// segment's last block, whose header stays valid. Replay stops in front of
// that block, so the segment ends there and the next block written replaces
// the damaged one; were it put behind, the following replay would stop at the
// same place and lose it.
func TestReplayEndsASegmentWhereItStopped(t *testing.T) {
	mem := faultfs.NewMemFS()
	opts := Options{Dir: "d", FS: mem, BlockSize: 128}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 6; id++ {
		mustAppend(t, s, sealRec(id, 0))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const name = "d/seg-000000.log"
	data := append([]byte(nil), mem.Bytes(name)...)
	spans := blockSpans(data)
	last := spans[len(spans)-1]
	data[last.off+blockHeaderSize+last.stored/2] ^= 0x40
	mem.SetBytes(name, data)

	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	if live := s.Stats().LiveRecords; live == 0 || live == 6 {
		t.Fatalf("%d live records after the damage, want those of the blocks before it", live)
	}
	if s.segments[0].size != last.off {
		t.Fatalf("the segment ends at %d, want %d, where the damaged block starts", s.segments[0].size, last.off)
	}
	mustAppend(t, s, sealRec(999, 0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec, ok, err := s.Get(999); err != nil || !ok || !bytes.Equal(rec.Payload, sealRec(999, 0).Payload) {
		t.Fatalf("the record written after the damaged block is gone after a reopen: ok %v, err %v", ok, err)
	}
}

// sealerIdle returns once no sealer goroutine is running.
func sealerIdle(s *Store) {
	s.mu.Lock()
	s.waitSealerLocked()
	s.mu.Unlock()
}

// checkSealFailure holds the store to the rule for a block that cannot be
// written or synced, once for each call that can come next. The append that
// filled the block was acknowledged before the sealer ran, so it cannot carry
// the error; its record stays readable from the pending copy; the error is
// returned exactly once, by the next Append (which stores nothing), Flush or
// Close; the retry puts the block where the failed attempt started, so the
// segment holds one block and no orphan header; and the directory reopens to
// the acknowledged records.
func checkSealFailure(t *testing.T, rule faultfs.Rule) {
	for _, next := range []string{"append", "flush", "close"} {
		t.Run(next, func(t *testing.T) {
			mem := faultfs.NewMemFS()
			inj := faultfs.NewInjector(mem, 1, rule)
			s, err := Open(Options{Dir: "d", BlockSize: 64, SyncWrites: true, FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("s"), 100) // > BlockSize: the append fills the block
			if err := s.Append(Record{ID: 1, DB: "db", Key: "k", Payload: payload}); err != nil {
				t.Fatalf("the append that filled the block returned %v; it is acknowledged before the block is written", err)
			}
			sealerIdle(s)
			if st := s.Stats(); st.SealErrors != 1 || st.BlocksSealed != 0 {
				t.Fatalf("after the injected fault: %d seal errors, %d blocks sealed; want 1, 0", st.SealErrors, st.BlocksSealed)
			}
			if got, ok, err := s.Get(1); err != nil || !ok || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("acknowledged record unreadable while its block is in flight: %v %v", ok, err)
			}
			if e, _ := s.recs.get(1); e.sealed() {
				t.Fatal("record points at a block that was never written")
			}

			switch next {
			case "append":
				err = s.Append(Record{ID: 2, DB: "db", Key: "k2", Payload: payload})
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("the next Append returned %v, want the injected error", err)
				}
				if _, ok, _ := s.Get(2); ok || s.Stats().Appends != 1 {
					t.Fatal("the Append that returned the seal error stored its record")
				}
				if err := s.Append(Record{ID: 3, DB: "db", Key: "k3", Payload: []byte("after")}); err != nil {
					t.Fatalf("the error was handed over twice: %v", err)
				}
				if err := s.Flush(); err != nil {
					t.Fatalf("flush after the retry: %v", err)
				}
			case "flush":
				if err := s.Flush(); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("the next Flush returned %v, want the injected error", err)
				}
				if err := s.Flush(); err != nil {
					t.Fatalf("second flush: %v", err)
				}
			}
			if next != "close" {
				if e, ok := s.recs.get(1); !ok || !e.sealed() || e.off != 0 {
					t.Fatalf("after the retry record 1 is at %+v, want sealed at offset 0", e)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else if err := s.Close(); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Close returned %v, want the injected error", err)
			}

			spans := blockSpans(mem.Bytes("d/seg-000000.log"))
			wantBlocks := 1
			if next == "append" {
				wantBlocks = 2
			}
			if len(spans) != wantBlocks || spans[0].off != 0 {
				t.Fatalf("segment holds blocks %v, want %d starting at 0 (failed attempt not overwritten in place)", spans, wantBlocks)
			}
			// Replay must find the retried block, not an orphan header that
			// poisons the scan.
			s2, err := Open(Options{Dir: "d", BlockSize: 64, FS: mem})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			got, ok, err := s2.Get(1)
			if err != nil || !ok || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("acknowledged record lost after the retry: %v %v", ok, err)
			}
			if st := s2.Stats(); st.LiveRecords != wantBlocks {
				t.Fatalf("reopened to %d records, want %d", st.LiveRecords, wantBlocks)
			}
		})
	}
}

// TestSyncFailurePropagation: with SyncWrites set, a failed fsync leaves the
// block unsealed and reaches the caller by the rule checkSealFailure spells
// out; the retry, whose sync succeeds, makes the records durable exactly once.
func TestSyncFailurePropagation(t *testing.T) {
	checkSealFailure(t, faultfs.FailSync(1))
}

// TestWriteFailureRollback is the regression test for the orphan-header bug:
// a seal whose header reached the file and whose body did not used to leave a
// valid-magic header in front of the retried block. Replay would read the
// orphan, fail its checksum, truncate there — and silently discard the
// retried (acknowledged, synced) block. A batch is only part of its segment
// once it is whole, so the retry overwrites the partial one in place.
func TestWriteFailureRollback(t *testing.T) {
	// A batch is one write: tear it behind the first block's header.
	checkSealFailure(t, faultfs.Rule{Op: faultfs.OpWrite, Nth: 1, Kind: faultfs.KindShort, Keep: blockHeaderSize})
}
