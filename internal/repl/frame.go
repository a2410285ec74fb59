package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dbdedup/internal/metrics"
)

// Hardened wire framing. Every frame carries a per-direction sequence number
// and a CRC so the receiver can tell apart the three ways a hostile network
// mangles a byte stream:
//
//   - corruption (bit flips, truncation landing mid-frame): CRC mismatch;
//   - duplication or reordering (a resent or overtaken frame): CRC-valid
//     frame with the wrong sequence number;
//   - loss (a frame silently dropped): the next frame's sequence number
//     skips ahead — also a sequence violation, since the reader's expected
//     counter lags.
//
// All three resolve the same way — the connection is untrusted and the
// secondary reconnects and resumes from its applied low-water mark — but
// the distinction is kept in separate metrics counters because they point
// at different network pathologies.
//
//	frame := uint32(len) byte(type) uint32(frameSeq) uint32(crc32c) payload
//
// The CRC (Castagnoli) covers type, frameSeq, and payload, so a frame
// cannot be replayed at a different stream position even if its payload is
// intact. Each frame is issued as a single Write call, which keeps a
// message-boundary-preserving transport (like netsim's simulator) aligned:
// one simulated chunk == one frame.

const frameHeaderSize = 13

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// errOversizedFrame: the length prefix exceeds maxFrame — either
	// corruption or a mid-frame resynchronisation reading garbage as a
	// header. Rejected before any allocation.
	errOversizedFrame = errors.New("repl: oversized frame")
	// errCorruptFrame: the frame's CRC did not match its contents.
	errCorruptFrame = errors.New("repl: corrupt frame")
	// errFrameSeq: a CRC-valid frame arrived out of sequence (duplicated,
	// reordered, or following a silent loss).
	errFrameSeq = errors.New("repl: frame sequence violation")
)

// countFrameError counts a read error that shows the wire mangled a frame.
func countFrameError(rm *metrics.ReplMetrics, err error) {
	switch {
	case errors.Is(err, errCorruptFrame) || errors.Is(err, errOversizedFrame):
		rm.CorruptFrames.Add(1)
	case errors.Is(err, errFrameSeq):
		rm.FrameSeqViolations.Add(1)
	}
}

// frameCRC computes the checksum covering type, sequence number, and
// payload.
func frameCRC(typ byte, seq uint32, payload []byte) uint32 {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], seq)
	crc := crc32.Update(0, crcTable, hdr[:])
	return crc32.Update(crc, crcTable, payload)
}

// frameWriter stamps outgoing frames with this direction's sequence counter
// and CRC. Not safe for concurrent use; each connection direction has
// exactly one writer.
type frameWriter struct {
	w   io.Writer
	seq uint32
	buf []byte
}

// write sends one frame as a single Write call and returns the bytes put on
// the wire.
func (fw *frameWriter) write(typ byte, payload []byte) (int, error) {
	n := frameHeaderSize + len(payload)
	if cap(fw.buf) < n {
		fw.buf = make([]byte, n)
	}
	b := fw.buf[:n]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	b[4] = typ
	binary.LittleEndian.PutUint32(b[5:9], fw.seq)
	binary.LittleEndian.PutUint32(b[9:13], frameCRC(typ, fw.seq, payload))
	copy(b[frameHeaderSize:], payload)
	fw.seq++
	if _, err := fw.w.Write(b); err != nil {
		return 0, err
	}
	return n, nil
}

// frameReader decodes and validates incoming frames: length bound before
// allocation, then CRC, then sequence. CRC comes first — a corrupt frame's
// sequence field is itself untrustworthy.
type frameReader struct {
	r   io.Reader
	seq uint32
	hdr [frameHeaderSize]byte
}

func (fr *frameReader) read() (byte, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n > maxFrame {
		return 0, nil, errOversizedFrame
	}
	typ := fr.hdr[4]
	seq := binary.LittleEndian.Uint32(fr.hdr[5:9])
	crc := binary.LittleEndian.Uint32(fr.hdr[9:13])
	// Grow the payload buffer in bounded steps rather than trusting the
	// length prefix up front: a corrupt 64MB length on a stream that holds
	// three bytes costs a 1MB allocation, not a 64MB one.
	const growStep = 1 << 20
	payload := make([]byte, 0, min(n, growStep))
	for uint32(len(payload)) < n {
		chunk := n - uint32(len(payload))
		if chunk > growStep {
			chunk = growStep
		}
		off := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(fr.r, payload[off:]); err != nil {
			return 0, nil, err
		}
	}
	if frameCRC(typ, seq, payload) != crc {
		return 0, nil, errCorruptFrame
	}
	if seq != fr.seq {
		return 0, nil, fmt.Errorf("%w: got frame %d, expected %d", errFrameSeq, seq, fr.seq)
	}
	fr.seq++
	return typ, payload, nil
}
