package apiserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"dbdedup/internal/core"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// fuzzBackend is a ClusterBackend over a map. It records the most bytes the
// request decoder ever handed it in one call, so the fuzz target can hold
// that against the size of the frame the bytes came from.
type fuzzBackend struct {
	recs   map[[2]string][]byte
	handed int
}

func (b *fuzzBackend) took(parts ...int) {
	n := 0
	for _, p := range parts {
		n += p
	}
	if n > b.handed {
		b.handed = n
	}
}

func (b *fuzzBackend) Insert(db, key string, payload []byte) error {
	b.took(len(db), len(key), len(payload))
	b.recs[[2]string{db, key}] = append([]byte(nil), payload...)
	return nil
}

func (b *fuzzBackend) Update(db, key string, payload []byte) error {
	b.took(len(db), len(key), len(payload))
	if _, ok := b.recs[[2]string{db, key}]; !ok {
		return node.ErrNotFound
	}
	b.recs[[2]string{db, key}] = append([]byte(nil), payload...)
	return nil
}

func (b *fuzzBackend) Delete(db, key string) error {
	b.took(len(db), len(key))
	if _, ok := b.recs[[2]string{db, key}]; !ok {
		return node.ErrNotFound
	}
	delete(b.recs, [2]string{db, key})
	return nil
}

func (b *fuzzBackend) Read(db, key string) ([]byte, error) {
	b.took(len(db), len(key))
	v, ok := b.recs[[2]string{db, key}]
	if !ok {
		return nil, node.ErrNotFound
	}
	return v, nil
}

func (b *fuzzBackend) Stats() node.Stats            { return node.Stats{} }
func (b *fuzzBackend) DBStats() []core.DBStats      { return nil }
func (b *fuzzBackend) VerifyAll() node.VerifyReport { return node.VerifyReport{} }
func (b *fuzzBackend) RingJSON() []byte             { return []byte(`{"epoch":1}`) }
func (b *fuzzBackend) BeginHandoff() error          { return nil }
func (b *fuzzBackend) CommitRing() error            { return nil }
func (b *fuzzBackend) AbortRing() error             { return nil }
func (b *fuzzBackend) InstallRing(body []byte) error {
	b.took(len(body))
	return nil
}
func (b *fuzzBackend) Transfer(batch []byte) error {
	b.took(len(batch))
	return repl.ReadBatch(batch, func(db, key string, r node.Stamped) error {
		if !r.Present {
			return nil
		}
		return b.Insert(db, key, r.Content)
	})
}

// Without it, a Transfer whose signature drifts from the interface's leaves
// the backend a plain Backend, and every cluster op answers "not clustered".
var _ ClusterBackend = (*fuzzBackend)(nil)

// realRequestStream is one well-formed request of every op, framed exactly as
// Client frames them, back to back as they would arrive on one connection.
func realRequestStream() []byte {
	keyed := func(op byte, db, key string, payload []byte) []byte {
		req := appendStr(appendStr([]byte{op}, db), key)
		if payload != nil {
			req = append(binary.AppendUvarint(req, uint64(len(payload))), payload...)
		}
		return req
	}
	payload := bytes.Repeat([]byte("a record body, long enough to matter. "), 8)
	var stream bytes.Buffer
	for _, req := range [][]byte{
		keyed(opInsert, "wiki", "article/1", payload),
		keyed(opGet, "wiki", "article/1", nil),
		keyed(opUpdate, "wiki", "article/1", payload[:40]),
		append([]byte{opTransfer}, repl.AppendRecord(binary.AppendUvarint(nil, 1), "wiki", "article/2",
			node.Stamped{Stamp: 3, Present: true, Content: payload})...),
		keyed(opDelete, "wiki", "article/1", nil),
		{opStats}, {opDBStats}, {opVerify},
		{opRing}, {opBeginHandoff}, {opCommitRing}, {opAbortRing},
		append([]byte{opInstallRing}, `{"epoch":2,"members":["a:1","b:1"]}`...),
	} {
		stream.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(req))))
		stream.Write(req)
	}
	return stream.Bytes()
}

// FuzzHandleFrame feeds arbitrary byte streams through the request path of
// one connection: readRequest's framing, then Server.handle's op decoder,
// over a stub backend, with one request buffer and one response buffer
// reused across the stream's frames as serveConn reuses them. Neither may
// panic; no frame may be accepted, and so allocated, beyond maxRequestBytes
// whatever its length prefix claims; the decoder may never hand the backend
// more bytes than the frame carried, whatever the varint lengths inside it
// claim; and every response is one well-formed frame.
func FuzzHandleFrame(f *testing.F) {
	const maxRequest = 1 << 12

	real := realRequestStream()
	f.Add(real)
	f.Add(real[:3])  // mid-header
	f.Add(real[:30]) // mid-body
	f.Add([]byte{0, 0, 0, 0})
	// A length prefix beyond the bound, and one within it that lies.
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRequest+1))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, maxRequest), opInsert))
	// Varint lengths inside the frame that claim more than it holds.
	f.Add([]byte{4, 0, 0, 0, opInsert, 0xff, 0xff, 0x7f})
	f.Add([]byte{12, 0, 0, 0, opGet, 2, 'd', 'b', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{2, 0, 0, 0, '?', 0})

	// Only deadlines are ever set on the connection; the bytes come from r.
	conn, peer := net.Pipe()
	f.Cleanup(func() { conn.Close(); peer.Close() })

	f.Fuzz(func(t *testing.T, stream []byte) {
		b := &fuzzBackend{recs: make(map[[2]string][]byte)}
		lim := defaultLimits
		lim.maxRequestBytes = maxRequest
		s := newServer(b, lim)
		r := bufio.NewReader(bytes.NewReader(stream))
		var req, resp []byte
		for {
			frame, release, err := s.readRequest(conn, r, req)
			if err != nil {
				return // every malformed stream ends in an error, not a panic
			}
			if len(frame) > maxRequest || len(frame) > len(stream) {
				t.Fatalf("accepted a %d-byte frame from a %d-byte stream (bound %d)", len(frame), len(stream), maxRequest)
			}
			b.handed = 0
			resp = s.handle(resp[:0], frame)
			release()
			if len(resp) < 5 || binary.LittleEndian.Uint32(resp) != uint32(len(resp)-4) {
				t.Fatalf("response % x to frame %q is not one frame", resp, frame)
			}
			if status := resp[4]; status > statusMoving {
				t.Fatalf("unknown status %d for frame %q", status, frame)
			}
			if b.handed > len(frame) {
				t.Fatalf("decoder handed the backend %d bytes out of a %d-byte frame", b.handed, len(frame))
			}
			req, resp = keep(frame), keep(resp)
		}
	})
}
