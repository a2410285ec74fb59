package repl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

// realFrameStream builds a corpus entry from genuine wire traffic: the frames
// a short replication session actually exchanges. The stream hello states
// position (42, 7), which the primary holds, so the epoch frame follows it; a
// later snapshot ends at (42, 8). The fetch connection's hello states the
// same position and is answered once, then refused once.
func realFrameStream() []byte {
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	fw.write(frameHello, realHellos[0].append(nil))
	fw.write(frameEpoch, binary.AppendUvarint(nil, 42))
	e := oplog.Entry{Seq: 8, Op: oplog.OpInsert, DB: "db", Key: "k",
		Form: oplog.FormRaw, Payload: []byte("record content")}
	batch := binary.AppendUvarint(nil, 1)
	batch = append(batch, e.Marshal()...)
	fw.write(frameBatch, batch)
	fw.write(frameHeartbeat, nil)
	fw.write(frameSnapBegin, nil)
	fw.write(frameSnapBatch, realBatch())
	fw.write(frameSnapEnd, binary.AppendUvarint(binary.AppendUvarint(nil, 8), 42))
	fw.write(frameHello, realHellos[1].append(nil))
	fw.write(frameFetch, appendLenBytes(appendLenBytes(nil, []byte("db")), []byte("k")))
	fw.write(frameRecord, appendStamped(nil, realStamped[0]))
	fw.write(frameFetch, appendLenBytes(appendLenBytes(nil, []byte("db")), []byte("k")))
	fw.write(frameRefusal, nil)
	return buf.Bytes()
}

// realBatch is the snapshot batch realFrameStream carries: both realStamped
// records, as Batches frames them.
func realBatch() []byte {
	batch := AppendRecord(binary.AppendUvarint(nil, 2), "db", "k", realStamped[0])
	return AppendRecord(batch, "db", "gone", realStamped[1])
}

// realHellos are the hellos realFrameStream carries, and one of a secondary
// that holds records at no position.
var realHellos = []hello{
	{mode: helloStream, seq: 7, epoch: 42},
	{mode: helloFetch, seq: 8, epoch: 42},
	{mode: helloStream, epoch: oplog.UnknownEpoch},
}

// realStamped are the records realFrameStream carries: one present, one
// absent.
var realStamped = []node.Stamped{
	{Stamp: 9, Present: true, Content: []byte("record content")},
	{Stamp: 11},
}

// FuzzFrameDecode feeds arbitrary byte streams into the wire-frame parser.
// The parser must never panic, must never hand back a payload the stream did
// not carry, and must not let a lying length prefix drive allocation beyond
// its bounded growth step — truncated headers, garbage type/seq/CRC fields,
// and oversized lengths all have to surface as clean errors.
func FuzzFrameDecode(f *testing.F) {
	real := realFrameStream()
	f.Add(real)
	// Truncations at every interesting boundary: mid-header, exactly one
	// header, mid-payload.
	f.Add(real[:5])
	f.Add(real[:frameHeaderSize])
	f.Add(real[:frameHeaderSize+3])
	// A frame whose length prefix claims far more than the stream holds.
	over := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(over[0:4], maxFrame)
	f.Add(over)
	// Length prefix beyond the allowed maximum.
	tooBig := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(tooBig[0:4], maxFrame+1)
	f.Add(tooBig)
	// Flag garbage: valid length, nonsense type and CRC.
	garbage := append([]byte{4, 0, 0, 0, 0xFF, 9, 9, 9, 9, 1, 2, 3, 4}, "junk"...)
	f.Add(garbage)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data)}
		for i := 0; i < 1<<10; i++ {
			_, payload, err := fr.read()
			if err != nil {
				return // every malformed stream must end in an error, not a panic
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes exceeds the %d-byte input", len(payload), len(data))
			}
		}
	})
}

// FuzzReadStamped feeds arbitrary bytes to the one decoder of a stamped
// record, the snapshot batch's and the fetch answer's, and to ReadBatch, the
// one decoder of a batch, a snapshot's and a handoff's. Neither may panic,
// and whatever either accepts must survive a re-encode unchanged, in no more
// bytes than it consumed (a uvarint may arrive overlong).
func FuzzReadStamped(f *testing.F) {
	for _, r := range realStamped {
		f.Add(appendStamped(nil, r))
	}
	f.Add(realBatch())
	f.Add(realBatch()[:9])                  // cut inside the first record's content
	f.Add(append(realBatch(), 0))           // a byte past the last record
	f.Add(binary.AppendUvarint(nil, 1<<40)) // a count no batch could hold
	f.Add(appendStamped(nil, node.Stamped{Present: true}))
	f.Add([]byte{0x80})                // truncated stamp
	f.Add([]byte{7})                   // no present byte
	f.Add([]byte{7, 2})                // a present byte out of range
	f.Add([]byte{7, 1, 9, 'a'})        // content shorter than its length
	f.Add([]byte{7, 0, 'x', 'y', 'z'}) // trailing bytes after an absent record

	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatch(t, data)
		r, rest, ok := readStamped(data)
		if !ok {
			return
		}
		if !r.Present && r.Content != nil {
			t.Fatalf("absent record with content %q", r.Content)
		}
		again := appendStamped(nil, r)
		r2, tail, ok := readStamped(again)
		if !ok || len(tail) != 0 || r2.Stamp != r.Stamp || r2.Present != r.Present || !bytes.Equal(r2.Content, r.Content) {
			t.Fatalf("%+v re-encoded as %x decodes as %+v (%v, %d left)", r, again, r2, ok, len(tail))
		}
		if used := len(data) - len(rest); len(again) > used {
			t.Fatalf("re-encoded in %d bytes, consumed %d", len(again), used)
		}
	})
}

// checkBatch walks data with ReadBatch. A batch it accepts must re-encode,
// record by record, into no more bytes, which walk to the same records.
func checkBatch(t *testing.T, data []byte) {
	reencode := func(batch []byte) (n uint64, recs []byte, err error) {
		err = ReadBatch(batch, func(db, key string, r node.Stamped) error {
			if !r.Present && r.Content != nil {
				t.Fatalf("absent record %s/%s with content %q", db, key, r.Content)
			}
			n, recs = n+1, AppendRecord(recs, db, key, r)
			return nil
		})
		return n, recs, err
	}
	n, recs, err := reencode(data)
	if err != nil {
		return
	}
	again := append(binary.AppendUvarint(nil, n), recs...)
	n2, recs2, err := reencode(again)
	if err != nil || n2 != n || !bytes.Equal(recs2, recs) {
		t.Fatalf("batch %x re-encoded as %x walks to %d records %x (%v), not %d records %x", data, again, n2, recs2, err, n, recs)
	}
	if len(again) > len(data) {
		t.Fatalf("re-encoded in %d bytes, from %d", len(again), len(data))
	}
}

// FuzzReadHello feeds arbitrary bytes to the one decoder of a hello, the
// stream's and the fetch connection's. It must never panic, and whatever it
// accepts must be a known mode and survive a re-encode unchanged, in no more
// bytes than the payload (a uvarint may arrive overlong).
func FuzzReadHello(f *testing.F) {
	for _, h := range realHellos {
		f.Add(h.append(nil))
	}
	f.Add([]byte{})                         // no mode
	f.Add([]byte{'R', 0, 0})                // an unknown mode
	f.Add([]byte{helloStream, 0x80})        // truncated seq
	f.Add([]byte{helloFetch, 7})            // no epoch
	f.Add([]byte{helloStream, 7, 42, 'x'})  // trailing bytes
	f.Add([]byte{helloStream, 0x87, 0, 42}) // an overlong seq

	f.Fuzz(func(t *testing.T, data []byte) {
		h, ok := readHello(data)
		if !ok {
			return
		}
		if h.mode != helloStream && h.mode != helloFetch {
			t.Fatalf("accepted mode %q", h.mode)
		}
		again := h.append(nil)
		h2, ok := readHello(again)
		if !ok || h2 != h {
			t.Fatalf("%+v re-encoded as %x decodes as %+v (%v)", h, again, h2, ok)
		}
		if len(again) > len(data) {
			t.Fatalf("re-encoded in %d bytes, from %d", len(again), len(data))
		}
	})
}
