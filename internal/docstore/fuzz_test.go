package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"dbdedup/internal/blockcomp"
	"dbdedup/internal/faultfs"
)

// FuzzParseFrame feeds arbitrary bytes to the record-frame parser; it must
// never panic or over-read.
func FuzzParseFrame(f *testing.F) {
	f.Add(appendFrame(nil, Record{ID: 1, DB: "db", Key: "key", Payload: []byte("payload")}))
	f.Add(appendFrame(nil, Record{ID: 2, Form: FormDelta, BaseID: 1, DB: "d", Key: "k", Payload: []byte("delta")}))
	f.Add([]byte{})
	// Every Form × Tombstone × Stacked × Hidden combination, so corpus
	// mutation starts from each flag-byte shape the store can emit.
	for combo := 0; combo < 16; combo++ {
		rec := Record{
			ID:        uint64(100 + combo),
			DB:        "fz",
			Key:       "flags",
			Payload:   []byte("body"),
			Tombstone: combo&1 != 0,
			Stacked:   combo&2 != 0,
			Hidden:    combo&4 != 0,
		}
		if combo&8 != 0 {
			rec.Form = FormDelta
			rec.BaseID = 7
		}
		f.Add(appendFrame(nil, rec))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, n, err := parseFrame(buf, true)
		if err != nil {
			return
		}
		if n > len(buf) {
			t.Fatalf("parseFrame consumed %d of %d bytes", n, len(buf))
		}
		// A parsed frame must re-serialise and re-parse to itself.
		again, _, err := parseFrame(appendFrame(nil, rec), true)
		if err != nil {
			t.Fatalf("re-parse of re-serialised frame: %v", err)
		}
		if again.ID != rec.ID || again.DB != rec.DB || again.Key != rec.Key {
			t.Fatal("frame identity not preserved")
		}
	})
}

// FuzzCutBlock cuts a batch of frames of arbitrary lengths into blocks the way
// writeInFlight does. The blocks must cover the batch exactly, in order, each
// ending on a frame boundary; none is empty; one of two or more frames holds
// at most blockTarget bytes; and each ends only where its next frame would
// take it past the target.
func FuzzCutBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x28, 0x00, 0xdc, 0x05, 0xdc, 0x05, 0x00, 0x24, 0x24, 0x0a}) // 40, 1500, 1500, 9 KiB, 2596
	f.Add(bytes.Repeat([]byte{0xe8, 0x03}, 13))                               // 13 × 1000
	f.Add(bytes.Repeat([]byte{0x00, 0x10, 0x01, 0x00}, 3))                    // 4 KiB, 1
	f.Fuzz(func(t *testing.T, lens []byte) {
		// Each two bytes are a frame body's length, under 16 KiB.
		var raw []byte
		var bounds []int
		for i := 0; i+1 < len(lens); i += 2 {
			n := int(binary.LittleEndian.Uint16(lens[i:]) & (16<<10 - 1))
			raw = binary.AppendUvarint(raw, uint64(n))
			raw = append(raw, make([]byte, n)...)
			bounds = append(bounds, len(raw))
		}
		at := 0 // index of the next frame boundary
		for from := 0; from < len(raw); {
			to := cutBlock(raw, from, blockTarget)
			if to <= from || to > len(raw) {
				t.Fatalf("block at %d cut at %d of %d", from, to, len(raw))
			}
			frames := 0
			for at < len(bounds) && bounds[at] < to {
				at, frames = at+1, frames+1
			}
			if at == len(bounds) || bounds[at] != to {
				t.Fatalf("block [%d, %d) does not end on a frame boundary", from, to)
			}
			at++
			frames++
			if frames > 1 && to-from > blockTarget {
				t.Fatalf("block [%d, %d) holds %d frames in %d bytes, past %d", from, to, frames, to-from, blockTarget)
			}
			if to < len(raw) && bounds[at]-from <= blockTarget {
				t.Fatalf("block [%d, %d) ends, yet its next frame, to %d, fits", from, to, bounds[at])
			}
			from = to
		}
		if at != len(bounds) {
			t.Fatalf("the blocks cover %d of %d frames", at, len(bounds))
		}
	})
}

// replayModel is the reference semantics of segment replay, computed
// directly over the raw bytes: walk well-formed blocks (magic, bounds,
// checksum, decompression behind the first block's first bytes where a block
// says so, length) until the first damage, apply frames in
// order with last-writer-wins and tombstone deletion. framesOK reports
// whether every frame inside the valid blocks parsed — when false, Open is
// expected to fail (corruption inside a checksummed block is an integrity
// error, not a torn tail).
func replayModel(data []byte) (live map[uint64]Record, framesOK bool) {
	live = map[uint64]Record{}
	var off int64
	var dict []byte
	for off+blockHeaderSize <= int64(len(data)) {
		if binary.LittleEndian.Uint32(data[off:]) != blockMagic {
			break
		}
		rawLen := int64(binary.LittleEndian.Uint32(data[off+4:]))
		storedLen := int64(binary.LittleEndian.Uint32(data[off+8:]))
		sum := binary.LittleEndian.Uint32(data[off+12:])
		flags := data[off+16]
		if off+blockHeaderSize+storedLen > int64(len(data)) {
			break
		}
		stored := data[off+blockHeaderSize : off+blockHeaderSize+storedLen]
		if crc32.ChecksumIEEE(stored) != sum {
			break
		}
		raw := stored
		if flags&flagCompressed != 0 {
			n, err := blockcomp.DecodedLen(stored)
			if err != nil || int64(n) != rawLen {
				break
			}
			var blockDict []byte
			if flags&flagDict != 0 {
				blockDict = dict
			}
			if raw, err = blockcomp.DecodeDict(make([]byte, n), stored, blockDict); err != nil {
				break
			}
		}
		if int64(len(raw)) != rawLen {
			break
		}
		if off == 0 {
			dict = raw[:min(len(raw), dictLen)]
		}
		scan := 0
		for scan < len(raw) {
			rec, n, err := parseFrame(raw[scan:], true)
			if err != nil {
				return live, false
			}
			if rec.Tombstone {
				delete(live, rec.ID)
			} else {
				rec.Payload = append([]byte(nil), rec.Payload...)
				live[rec.ID] = rec
			}
			scan += n
		}
		off += blockHeaderSize + storedLen
	}
	return live, true
}

// FuzzSegmentReplay opens a store over arbitrarily corrupted segment bytes.
// It must never panic, never error except on in-block frame corruption, and
// the recovered state must match the reference model exactly — in
// particular, a key whose last valid frame is a tombstone must never come
// back (no resurrection), and no record the bytes never encoded may appear.
func FuzzSegmentReplay(f *testing.F) {
	seed := func(compress bool) []byte {
		mem := faultfs.NewMemFS()
		s, err := Open(Options{Dir: "seed", BlockSize: 128, Compress: compress, FS: mem})
		if err != nil {
			f.Fatal(err)
		}
		doc := bytes.Repeat([]byte("seed payload "), 8)
		for i := uint64(1); i <= 10; i++ {
			rec := Record{ID: i, DB: "d", Key: fmt.Sprintf("k%d", i), Payload: doc}
			if i%3 == 0 {
				rec.Form = FormDelta
				rec.BaseID = i - 1
			}
			if err := s.Append(rec); err != nil {
				f.Fatal(err)
			}
		}
		s.Flush()
		s.Delete(2)
		s.Delete(7) // tombstones in a later block: resurrection bait
		s.Append(Record{ID: 4, DB: "d", Key: "k4", Payload: []byte("rewritten")})
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
		return mem.Bytes("seed/seg-000000.log")
	}
	plain := seed(false)
	f.Add(plain)
	f.Add(seed(true))
	f.Add(plain[:len(plain)-9])
	f.Add([]byte{})
	mangled := append([]byte(nil), plain...)
	mangled[len(mangled)/2] ^= 0xff
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		mem := faultfs.NewMemFS()
		mem.SetBytes("fz/seg-000000.log", data)
		model, framesOK := replayModel(data)
		s, err := Open(Options{Dir: "fz", BlockSize: 128, FS: mem})
		if !framesOK {
			if err == nil {
				s.Close()
				t.Fatal("Open succeeded over a checksummed block with corrupt frames")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open over %d bytes: %v", len(data), err)
		}
		defer s.Close()
		if st := s.Stats(); st.LiveRecords != len(model) {
			t.Fatalf("LiveRecords = %d, model has %d", st.LiveRecords, len(model))
		}
		for id, want := range model {
			got, ok, err := s.Get(id)
			if err != nil || !ok {
				t.Fatalf("Get(%d) = %v %v; model has it live", id, ok, err)
			}
			if got.DB != want.DB || got.Key != want.Key || got.Form != want.Form ||
				got.BaseID != want.BaseID || got.Hidden != want.Hidden ||
				got.Stacked != want.Stacked || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("record %d diverges from model:\n got %+v\nwant %+v", id, got, want)
			}
		}
	})
}
