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
	"math"
	"sort"
	"sync"
	"unsafe"
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
	// FormRawDisabled is FormRaw shipped after the primary's governor
	// disabled dedup for the record's database (paper §3.4.1). A replica
	// takes the verdict from it, so one node decides it.
	FormRawDisabled PayloadForm = 2
)

// Entry is one logged operation.
type Entry struct {
	// Seq is the log sequence number: the one Reserve took, or the next one
	// Append assigned.
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

// Log is a bounded in-memory operation log. An entry's number is reserved
// before the entry exists (Reserve) and the entry fills its slot later
// (Fill), in any order; a reader sees only the filled prefix, so entries
// become readable in number order. Numbers increase but need not be
// contiguous: a mutation that is never logged leaves a gap. The log keeps
// one bound, a byte budget: the marshalled size of the entries it retains
// plus the slot array that holds them. Past it the oldest slots are
// discarded, filled or not, and a reader that has fallen behind the retained
// window gets ErrTruncated and must resynchronise by other means.
//
// Log is safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	epoch     uint64
	continues bool  // see Continue
	budget    int64 // bytes stays within it but for one oversized entry
	ring      []slot
	start     int
	count     int
	last      uint64 // highest number reserved
	dropped   uint64 // highest number discarded
	bytes     int64  // the slot array plus the retained entries, marshalled
	evicted   uint64
}

// slot is one reserved number and, once filled, its entry and the entry's
// marshalled size, which is never 0: 0 marks a slot not yet filled.
type slot struct {
	e    Entry
	size int64
}

// slotBytes is what one slot of the array costs against the budget.
const slotBytes = int64(unsafe.Sizeof(slot{}))

// ErrTruncated reports that the requested entries have been discarded.
var ErrTruncated = errors.New("oplog: requested entries no longer retained")

// MaxRetainedBytes is the default budget. 64 MiB is twice the source cache
// and, like MongoDB's capped oplog collection, a size in bytes.
const MaxRetainedBytes = 64 << 20

// New returns a log whose retained entries and slots stay within budget
// bytes (MaxRetainedBytes if budget <= 0). An entry being filled is always
// retained, even when it alone exceeds the budget. No slot is allocated
// before an entry needs it. Sequence numbers start at 1.
func New(budget int64) *Log {
	if budget <= 0 {
		budget = MaxRetainedBytes
	}
	return &Log{epoch: newEpoch(), budget: budget}
}

// Continue returns a log like New for a store that already holds records
// when the log starts: a reopened one. No entry describes those records (see
// Holds). Numbering still starts at 1.
func Continue(budget int64) *Log {
	l := New(budget)
	l.continues = true
	return l
}

// UnknownEpoch is the epoch a reader states when it holds records at no
// position in any log. No log draws it.
const UnknownEpoch = math.MaxUint64

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
	if e == 0 || e == UnknownEpoch {
		e = 1
	}
	return e
}

// Holds reports whether the reader position (epoch, seq) is a point of this
// log, from which EntriesSince(seq) brings the reader up to date unless the
// window has passed it (ErrTruncated). Epoch 0 names no log and holds, except
// at seq 0 on a Continue'd log, whose store holds what no entry describes.
func (l *Log) Holds(epoch, seq uint64) bool {
	return epoch == l.epoch || (epoch == 0 && (seq > 0 || !l.continues))
}

// Epoch returns the log's identity, fixed when the log is made.
func (l *Log) Epoch() uint64 { return l.epoch }

// Append assigns the entry the number after the last one reserved and
// stores it, returning the number.
func (l *Log) Append(e Entry) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.last + 1
	l.reserveLocked(e.Seq)
	l.fillLocked(e, int64(e.MarshalledSize()))
	return e.Seq
}

// Reserve takes slot seq, which must exceed every number reserved before,
// for the entry Fill will bring; readers stop at it until then.
func (l *Log) Reserve(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reserveLocked(seq)
}

func (l *Log) reserveLocked(seq uint64) {
	if seq <= l.last {
		panic(fmt.Sprintf("oplog: reserve %d after %d", seq, l.last))
	}
	if l.count == len(l.ring) {
		l.growOrDrop()
	}
	l.ring[(l.start+l.count)%len(l.ring)] = slot{e: Entry{Seq: seq}}
	l.count++
	l.last = seq
}

// Fill stores e in the slot Reserve took for e.Seq. An entry whose slot was
// discarded meanwhile is dropped: its readers get ErrTruncated.
func (l *Log) Fill(e Entry) {
	size := int64(e.MarshalledSize())
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fillLocked(e, size)
}

func (l *Log) fillLocked(e Entry, size int64) {
	i := l.search(e.Seq)
	if i == l.count || l.at(i).e.Seq != e.Seq {
		return
	}
	for ; i > 0 && l.bytes+size > l.budget; i-- {
		l.dropOldest()
	}
	*l.at(i) = slot{e: e, size: size}
	l.bytes += size
}

// growOrDrop makes room in a full ring: it doubles the array if that fits
// the budget, and otherwise discards the oldest slot. Caller holds mu.
func (l *Log) growOrDrop() {
	grow := int64(max(len(l.ring), 1)) * slotBytes
	if l.count > 0 && l.bytes+grow > l.budget {
		l.dropOldest()
		return
	}
	ring := make([]slot, max(2*len(l.ring), 1))
	copy(ring, l.ring[l.start:])
	copy(ring[len(l.ring)-l.start:], l.ring[:l.start])
	l.ring, l.start, l.bytes = ring, 0, l.bytes+grow
}

// at returns the i-th retained slot, oldest first. Caller holds mu.
func (l *Log) at(i int) *slot { return &l.ring[(l.start+i)%len(l.ring)] }

// search returns the index of the first retained slot numbered seq or
// later (count if none). Caller holds mu.
func (l *Log) search(seq uint64) int {
	// Where seq sits when no number after it is a gap, as on a primary.
	if seq <= l.last && l.last-seq < uint64(l.count) {
		if i := l.count - 1 - int(l.last-seq); l.at(i).e.Seq == seq {
			return i
		}
	}
	return sort.Search(l.count, func(i int) bool { return l.at(i).e.Seq >= seq })
}

// dropOldest discards the oldest retained slot and clears it, so the ring
// never keeps a discarded payload reachable. Caller holds mu and guarantees
// count > 0.
func (l *Log) dropOldest() {
	s := &l.ring[l.start]
	l.bytes -= s.size
	l.dropped = s.e.Seq
	*s = slot{}
	l.start = (l.start + 1) % len(l.ring)
	l.count--
	l.evicted++
}

// EntriesSince returns up to max entries with Seq > after, in order, as far
// as they are filled. It returns ErrTruncated if an entry numbered after
// `after` has been discarded.
func (l *Log) EntriesSince(after uint64, max int) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.dropped {
		return nil, ErrTruncated
	}
	from := l.search(after)
	if from < l.count && l.at(from).e.Seq == after {
		from++
	}
	n := l.count - from
	if max > 0 && max < n {
		n = max
	}
	out := make([]Entry, 0, n)
	for i := from; i < from+n && l.at(i).size > 0; i++ {
		out = append(out, l.at(i).e)
	}
	return out, nil
}

// LastSeq returns the most recently reserved sequence number (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Stats is the log's retention accounting.
type Stats struct {
	// Entries is what the log retains now, and Bytes what that costs
	// against BudgetBytes: the slot array plus the entries, marshalled.
	Entries            int
	Bytes, BudgetBytes int64
	Evicted            uint64 // slots discarded to stay within the budget
}

// Stats returns the retention accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Entries: l.count, Bytes: l.bytes, BudgetBytes: l.budget, Evicted: l.evicted}
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
	if op > OpDelete || form > FormRawDisabled {
		return e, 0, fmt.Errorf("oplog: bad op/form %d/%d", op, form)
	}
	p = p[2:]
	var f [4][]byte // db, key, baseKey, payload
	for i := range f {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return e, 0, errCorrupt
		}
		f[i], p = p[n:n+int(l)], p[n+int(l):]
	}
	return Entry{Seq: seq, TS: ts, Op: op, Form: form, DB: string(f[0]), Key: string(f[1]),
		BaseKey: string(f[2]), Payload: append([]byte(nil), f[3]...)}, len(buf) - len(p), nil
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
