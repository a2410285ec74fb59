// Package segio is the docstore's concurrent segment-read subsystem.
//
// A log-structured store's sealed segments are immutable, so reads of them
// need no store-wide lock — what they need is a lifetime protocol that keeps
// a segment's bytes alive while a reader is mid-read even though compaction
// may concurrently retire and delete the segment. segio provides the three
// pieces of that protocol:
//
//   - Reader: a refcounted handle over one segment file's bytes. The
//     published size is advanced atomically by the writer as blocks seal, so
//     readers can safely read the already-sealed prefix of the segment that
//     is still being appended to.
//   - Table: the epoch structure. An atomically published snapshot maps
//     segment slots to Readers; readers pin a slot (refcount increment that
//     fails once the segment drained), compaction retires a slot by
//     publishing a new snapshot without it and dropping the table's
//     reference. The release hook — closing the file — runs exactly once,
//     when the last pin drains.
//   - Cache (cache.go): a sharded, byte-bounded LRU over decompressed blocks,
//     so cache hits on different shards never contend on one lock.
//
// The intended retirement sequence, from the store's point of view:
//
//  1. move every live record out of the victim segment (writer lock)
//  2. table.Retire(slot)           — new snapshot; table ref dropped
//  3. os.Remove(victim path)       — safe: pinned readers keep the fd,
//     POSIX keeps the inode until close
//  4. cache.DropSegment(slot)
//
// A reader that loses the race — pins after the refcount drained — gets a
// pin failure and re-resolves through the index, which no longer references
// the victim (step 1 happened before step 2).
package segio

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrRetired reports a read that raced segment retirement: the caller must
// re-resolve its locator (the record was moved before the segment retired).
var ErrRetired = errors.New("segio: segment retired")

// File is the read-side handle segio needs from a segment file. *os.File
// satisfies it directly; crash tests hand in a fault-injecting wrapper
// (internal/faultfs) instead.
type File interface {
	io.ReaderAt
	Close() error
}

// Reader is a refcounted handle over one segment's bytes. The refcount
// starts at 1 (the Table's reference); every successful pin adds one. When
// the count drains to zero — only possible after Retire dropped the table's
// reference — the release hook runs exactly once.
type Reader struct {
	slot int
	file File
	size atomic.Int64 // published (sealed, durable) byte count

	// dict is the segment's compression dictionary: the first raw bytes of
	// its first block, which later blocks of the segment were encoded behind.
	// The store sets it once, before it publishes a block that needs it (at
	// replay, or when the first block seals), and it goes with the handle.
	dict atomic.Pointer[[]byte]

	refs    atomic.Int64
	release func() // user hook: close the file (may be nil)
	onDrain func() // table bookkeeping, set once at Install
}

// NewFileReader wraps an open segment file. size is the initially published
// length; the writer advances it with SetSize as blocks seal.
func NewFileReader(slot int, f File, size int64) *Reader {
	r := &Reader{slot: slot, file: f}
	r.size.Store(size)
	r.refs.Store(1)
	r.release = func() { f.Close() }
	return r
}

// Slot returns the table slot this reader serves.
func (r *Reader) Slot() int { return r.slot }

// Size returns the published byte count — the sealed prefix readable now.
func (r *Reader) Size() int64 { return r.size.Load() }

// SetSize publishes a new sealed length. The writer must have completed the
// WriteAt for every byte below n before calling.
func (r *Reader) SetSize(n int64) { r.size.Store(n) }

// ReadAt fills p from offset off. Only the published prefix is readable;
// reads past it report an out-of-range error rather than returning torn
// bytes from an in-flight append.
func (r *Reader) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > r.size.Load() {
		return errors.New("segio: read past published segment size")
	}
	_, err := r.file.ReadAt(p, off)
	return err
}

// Dict returns the segment's dictionary, nil while it has none.
func (r *Reader) Dict() []byte {
	if d := r.dict.Load(); d != nil {
		return *d
	}
	return nil
}

// SetDict installs the segment's dictionary, which must never change again.
func (r *Reader) SetDict(d []byte) { r.dict.Store(&d) }

// tryPin atomically takes a reference unless the reader already drained.
func (r *Reader) tryPin() bool {
	for {
		n := r.refs.Load()
		if n <= 0 {
			return false
		}
		if r.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unref drops one reference, running the release hook on the final drop.
func (r *Reader) unref() {
	if r.refs.Add(-1) == 0 {
		if r.release != nil {
			r.release()
		}
		if r.onDrain != nil {
			r.onDrain()
		}
	}
}

// snapshot is one epoch of the segment table: an immutable slot → Reader
// mapping. Publishing a new snapshot is the only way membership changes.
type snapshot struct {
	readers []*Reader
}

// Table maps segment slots to refcounted Readers via atomically published
// snapshots. Pin/Unpin are lock-free; Install/Retire serialise on a small
// publisher mutex (they are writer-side operations).
type Table struct {
	mu   sync.Mutex // serialises snapshot publishers
	snap atomic.Pointer[snapshot]

	pinned         atomic.Int64 // currently pinned handles (gauge)
	retiredPending atomic.Int64 // retired readers whose refs have not drained
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{}
	t.snap.Store(&snapshot{})
	return t
}

// Install publishes r at its slot, growing the table as needed. The slot
// must not currently hold a live reader.
func (t *Table) Install(r *Reader) {
	r.onDrain = func() { t.retiredPending.Add(-1) }
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	n := len(old.readers)
	if r.slot >= n {
		n = r.slot + 1
	}
	readers := make([]*Reader, n)
	copy(readers, old.readers)
	readers[r.slot] = r
	t.snap.Store(&snapshot{readers: readers})
}

// Pin takes a reference on the reader at slot. It fails (false) when the
// slot is empty or its segment retired — the caller re-resolves its locator.
func (t *Table) Pin(slot int) (*Reader, bool) {
	s := t.snap.Load()
	if slot < 0 || slot >= len(s.readers) || s.readers[slot] == nil {
		return nil, false
	}
	r := s.readers[slot]
	if !r.tryPin() {
		return nil, false
	}
	t.pinned.Add(1)
	return r, true
}

// Unpin returns a pinned reader. The segment's release hook runs here if
// this was the last pin of a retired segment.
func (t *Table) Unpin(r *Reader) {
	t.pinned.Add(-1)
	r.unref()
}

// Retire removes the slot from the next epoch and drops the table's
// reference. In-flight pins keep the bytes alive; once they drain the
// reader's release hook closes the file.
func (t *Table) Retire(slot int) {
	t.mu.Lock()
	old := t.snap.Load()
	if slot < 0 || slot >= len(old.readers) || old.readers[slot] == nil {
		t.mu.Unlock()
		return
	}
	r := old.readers[slot]
	readers := make([]*Reader, len(old.readers))
	copy(readers, old.readers)
	readers[slot] = nil
	t.snap.Store(&snapshot{readers: readers})
	t.mu.Unlock()
	t.retiredPending.Add(1)
	r.unref()
}

// Close retires every slot. Pinned readers drain on their own schedule.
func (t *Table) Close() {
	t.mu.Lock()
	old := t.snap.Load()
	t.snap.Store(&snapshot{})
	t.mu.Unlock()
	for _, r := range old.readers {
		if r != nil {
			t.retiredPending.Add(1)
			r.unref()
		}
	}
}

// Pinned returns the number of currently pinned handles.
func (t *Table) Pinned() int64 { return t.pinned.Load() }

// RetiredPending returns how many retired segments still await their last
// unpin before their files close.
func (t *Table) RetiredPending() int64 { return t.retiredPending.Load() }

// Dict returns the dictionary of the segment at slot, nil if the slot is
// empty or the segment has none. The bytes are immutable heap memory, so they
// need no pin.
func (t *Table) Dict(slot int) []byte {
	s := t.snap.Load()
	if slot < 0 || slot >= len(s.readers) || s.readers[slot] == nil {
		return nil
	}
	return s.readers[slot].Dict()
}

// DictBytes returns how many dictionary bytes the table's readers hold.
func (t *Table) DictBytes() (n int) {
	for _, r := range t.snap.Load().readers {
		if r != nil {
			n += len(r.Dict())
		}
	}
	return n
}

// Live returns how many slots currently hold a reader.
func (t *Table) Live() int {
	s := t.snap.Load()
	n := 0
	for _, r := range s.readers {
		if r != nil {
			n++
		}
	}
	return n
}
