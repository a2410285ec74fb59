// Package oplog implements the operation log the replication layer ships to
// secondaries. The primary appends one entry per mutating operation; a
// syncer reads entries in batches from a sequence cursor and transmits them.
//
// dbDedup hooks in by rewriting insert payloads to their forward-encoded
// form (a reference to a similar record plus a delta) before entries leave
// the primary — the oplog itself is agnostic: it stores whatever payload and
// form it is given and reports exact byte sizes so the experiments can
// account replication traffic.
package oplog

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// OpType identifies the mutation an entry describes.
type OpType byte

const (
	// OpInsert adds a new record.
	OpInsert OpType = 0
	// OpUpdate overwrites a record's content.
	OpUpdate OpType = 1
	// OpDelete removes a record.
	OpDelete OpType = 2
)

// String returns the op name.
func (o OpType) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// PayloadForm describes how an entry's payload is encoded.
type PayloadForm byte

const (
	// FormRaw means Payload is the record's full content.
	FormRaw PayloadForm = 0
	// FormDelta means Payload is a forward delta; the full content is
	// obtained by applying it to the record identified by BaseKey.
	FormDelta PayloadForm = 1
)

// Entry is one logged operation.
type Entry struct {
	// Seq is the log sequence number, assigned by Append.
	Seq uint64
	// TS is the operation time in Unix nanoseconds.
	TS int64
	// Op is the mutation type.
	Op OpType
	// DB and Key identify the record.
	DB, Key string
	// Form describes the payload encoding (inserts/updates only).
	Form PayloadForm
	// BaseKey identifies the delta base record (same DB) when Form is
	// FormDelta.
	BaseKey string
	// Payload is the record content or marshalled forward delta.
	Payload []byte
}

// Log is a bounded in-memory operation log. It retains at most its capacity
// in entries and at most MaxRetainedBytes in marshalled bytes; past either
// bound the oldest entries are discarded, and a reader that has fallen behind
// the retained window gets ErrTruncated and must resynchronise by other
// means. Retained sequence numbers are contiguous: first, first+1, ...,
// next-1.
//
// Log is safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	epoch     uint64
	continues bool // see Continue
	ring      []Entry
	first     uint64 // seq of ring[start]
	next      uint64 // seq to assign to the next append
	start     int
	count     int
	bytes     int64 // marshalled size of retained entries
	appends   uint64

	evictedByEntries uint64
	evictedByBytes   uint64
}

// ErrTruncated reports that the requested entries have been discarded.
var ErrTruncated = errors.New("oplog: requested entries no longer retained")

// DefaultCapacity is the default number of retained entries.
const DefaultCapacity = 1 << 16

// MaxRetainedBytes bounds the marshalled size of the retained entries,
// whatever the entry bound says: the log holds the payloads it retains, so
// an entry count alone lets its footprint follow the record size (65 536
// entries of 3.6 KB are 234 MB). 64 MiB is twice the source cache and, like
// MongoDB's capped oplog collection, a size in bytes. The newest entry is
// always retained, even when it alone exceeds the bound.
const MaxRetainedBytes = 64 << 20

// New returns a log retaining up to capacity entries (DefaultCapacity if
// capacity <= 0). Sequence numbers start at 1.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{epoch: newEpoch(), ring: make([]Entry, capacity), first: 1, next: 1}
}

// Continue returns a log like New for a store that already holds records
// when the log starts: a reopened one. No entry describes those records, so a
// reader holding nothing (cursor 0) cannot be brought up to date from the
// log, and its server must send it a snapshot first. Numbering still starts
// at 1.
func Continue(capacity int) *Log {
	l := New(capacity)
	l.continues = true
	return l
}

// Continues reports whether the log was made by Continue: cursor 0 on it is
// behind its window.
func (l *Log) Continues() bool { return l.continues }

// newEpoch draws a random log identity. Sequence numbers are only
// meaningful within one epoch: a restarted primary gets a fresh log (and a
// fresh epoch), so replicas holding cursors from the old log can detect the
// mismatch and resynchronise instead of silently stalling.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to a fixed-but-nonzero epoch; the failure mode is
		// merely a missed restart detection.
		return 1
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return e
}

// Epoch returns the log's identity.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Append assigns the entry a sequence number and stores it, returning the
// sequence number.
func (l *Log) Append(e Entry) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.next
	l.next++
	l.appends++

	size := int64(e.MarshalledSize())
	if l.count == len(l.ring) {
		l.dropOldest()
		l.evictedByEntries++
	}
	for l.count > 0 && l.bytes+size > MaxRetainedBytes {
		l.dropOldest()
		l.evictedByBytes++
	}
	l.ring[(l.start+l.count)%len(l.ring)] = e
	l.count++
	l.bytes += size
	return e.Seq
}

// dropOldest discards the oldest retained entry and clears its slot, so the
// ring never keeps a discarded payload reachable. Caller holds mu and
// guarantees count > 0.
func (l *Log) dropOldest() {
	l.bytes -= int64(l.ring[l.start].MarshalledSize())
	l.ring[l.start] = Entry{}
	l.start = (l.start + 1) % len(l.ring)
	l.count--
	l.first++
}

// EntriesSince returns up to max entries with Seq > after, in order. It
// returns ErrTruncated if entries immediately following `after` have been
// discarded.
func (l *Log) EntriesSince(after uint64, max int) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after+1 < l.first {
		return nil, ErrTruncated
	}
	// Retained seqs are contiguous from first, so the entry after the
	// cursor sits at a known ring offset: a caught-up reader costs O(1)
	// under the mutex every Append also takes, not a walk of the ring.
	skip := after + 1 - l.first
	if skip >= uint64(l.count) {
		return nil, nil
	}
	n := l.count - int(skip)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Entry, n)
	at := (l.start + int(skip)) % len(l.ring)
	for i := range out {
		out[i] = l.ring[at]
		if at++; at == len(l.ring) {
			at = 0
		}
	}
	return out, nil
}

// LastSeq returns the most recently assigned sequence number (0 if empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Len returns the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Bytes returns the marshalled size of retained entries.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Stats is the log's retention accounting.
type Stats struct {
	// Entries and Bytes are what the log retains now (Bytes is the
	// marshalled size).
	Entries int
	Bytes   int64
	// EvictedByEntries and EvictedByBytes count entries discarded because
	// the entry bound, respectively MaxRetainedBytes, was hit.
	EvictedByEntries, EvictedByBytes uint64
}

// Stats returns the retention accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Entries: l.count, Bytes: l.bytes,
		EvictedByEntries: l.evictedByEntries, EvictedByBytes: l.evictedByBytes}
}

// Marshal serialises the entry:
//
//	uvarint seq | varint ts | op byte | form byte |
//	uvarint len(db) db | uvarint len(key) key |
//	uvarint len(baseKey) baseKey | uvarint len(payload) payload
func (e Entry) Marshal() []byte {
	return e.AppendMarshal(make([]byte, 0, e.MarshalledSize()))
}

// AppendMarshal appends the entry's serialised form to dst.
func (e Entry) AppendMarshal(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendVarint(dst, e.TS)
	dst = append(dst, byte(e.Op), byte(e.Form))
	dst = appendString(dst, e.DB)
	dst = appendString(dst, e.Key)
	dst = appendString(dst, e.BaseKey)
	dst = binary.AppendUvarint(dst, uint64(len(e.Payload)))
	return append(dst, e.Payload...)
}

// MarshalledSize returns len(Marshal()) without allocating.
func (e Entry) MarshalledSize() int {
	return uvarintLen(e.Seq) + varintLen(e.TS) + 2 +
		uvarintLen(uint64(len(e.DB))) + len(e.DB) +
		uvarintLen(uint64(len(e.Key))) + len(e.Key) +
		uvarintLen(uint64(len(e.BaseKey))) + len(e.BaseKey) +
		uvarintLen(uint64(len(e.Payload))) + len(e.Payload)
}

// Unmarshal parses one entry from buf, returning it and the bytes consumed.
// Payload and string fields are copied, so buf may be reused.
func Unmarshal(buf []byte) (Entry, int, error) {
	var e Entry
	p := buf
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return e, 0, errCorrupt
	}
	p = p[n:]
	ts, n := binary.Varint(p)
	if n <= 0 {
		return e, 0, errCorrupt
	}
	p = p[n:]
	if len(p) < 2 {
		return e, 0, errCorrupt
	}
	op, form := OpType(p[0]), PayloadForm(p[1])
	if op > OpDelete || form > FormDelta {
		return e, 0, fmt.Errorf("oplog: bad op/form %d/%d", op, form)
	}
	p = p[2:]

	read := func() ([]byte, error) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return nil, errCorrupt
		}
		v := p[n : n+int(l)]
		p = p[n+int(l):]
		return v, nil
	}
	db, err := read()
	if err != nil {
		return e, 0, err
	}
	key, err := read()
	if err != nil {
		return e, 0, err
	}
	baseKey, err := read()
	if err != nil {
		return e, 0, err
	}
	payload, err := read()
	if err != nil {
		return e, 0, err
	}
	e.Seq = seq
	e.TS = ts
	e.Op = op
	e.Form = form
	e.DB = string(db)
	e.Key = string(key)
	e.BaseKey = string(baseKey)
	e.Payload = append([]byte(nil), payload...)
	return e, len(buf) - len(p), nil
}

var errCorrupt = errors.New("oplog: corrupt entry")

func appendString(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}
