package tiered

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/featidx"
)

// rec is one cold-tier posting: a 32-bit fold of the 64-bit feature plus the
// 4-byte record reference. The fold costs some precision versus the full
// feature, but — like the hot tier's 16-bit checksums — a collision only
// manufactures a false-positive candidate; the delta stage is byte-exact, so
// correctness never depends on the index.
type rec struct {
	key uint32
	ref featidx.Ref
}

const (
	recBytes      = 8
	runHeaderSize = 16
	runMagic      = "FIDXRUN1"
	// pageRecs is how many records a 4 KiB page of a disk run holds. The run
	// keeps each page's first key in memory, so a search reads only the
	// pages its key can be on: one, or two when its postings straddle a
	// page boundary.
	pageRecs = 4096 / recBytes
)

// run is one immutable sorted (key → ref) table in the cold tier, either
// still memory-resident (mem != nil: just frozen, or its disk write failed)
// or disk-backed (f != nil) behind a Bloom filter and its page keys, read
// with positional reads.
//
// Runs are refcounted exactly like segio segment readers: the published run
// table holds one reference, probes pin/unpin around each search, and the
// last unpin after retirement closes the file and unlinks it. All fields are
// immutable after the run is published; only the refcount moves.
type run struct {
	count int
	mem   []rec // resident form; nil once disk-backed

	filter   *bloom   // nil for resident runs
	pageKeys []uint32 // the first key of each page of a disk run
	f        faultfs.File
	path     string
	fs       faultfs.FS

	refs    atomic.Int32
	retired atomic.Bool
}

func newResidentRun(recs []rec) *run {
	r := &run{count: len(recs), mem: recs}
	r.refs.Store(1)
	return r
}

// pin takes a read reference; it fails only when the run has already drained
// after retirement.
func (r *run) pin() bool {
	for {
		c := r.refs.Load()
		if c <= 0 {
			return false
		}
		if r.refs.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

func (r *run) unpin() {
	if r.refs.Add(-1) == 0 {
		r.release()
	}
}

// retire drops the run table's reference; resources free once the last
// pinned probe finishes.
func (r *run) retire() {
	if r.retired.CompareAndSwap(false, true) {
		r.unpin()
	}
}

func (r *run) release() {
	if r.f != nil {
		r.f.Close()
	}
	if r.path != "" && r.fs != nil {
		r.fs.Remove(r.path) // best-effort: runs are soft state
	}
}

func (r *run) diskBytes() int64 {
	if r.f == nil {
		return 0
	}
	return runHeaderSize + int64(r.count)*recBytes
}

func (r *run) memoryBytes() int64 {
	if r.mem != nil {
		return int64(r.count) * recBytes
	}
	if r.filter != nil {
		return r.filter.memoryBytes() + int64(len(r.pageKeys))*4
	}
	return 0
}

func decodeRec(b []byte) rec {
	return rec{key: binary.LittleEndian.Uint32(b[0:4]), ref: binary.LittleEndian.Uint32(b[4:8])}
}

// pagePool holds the buffers disk-run searches read their pages into.
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// readRecs reads records [from, to) of a disk run, encoded, into buf's
// storage (grown if it is short) with one positional read.
func (r *run) readRecs(buf []byte, from, to int) ([]byte, error) {
	n := (to - from) * recBytes
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := r.f.ReadAt(buf, int64(runHeaderSize+from*recBytes))
	return buf, err
}

// search finds key's postings and emits their refs newest-first (descending
// ref order — recent records are the better dedup sources, with the smaller
// deltas) until emit returns false. found reports whether any record with the
// key exists (the Bloom false-positive signal); ok is false on a
// positional-read error (fault injection or a dying disk), which aborts the
// search — a pure recall loss. A disk run is read only where its page keys
// say key can be: from the last page that starts below key to the last that
// starts at or below it, in one read.
func (r *run) search(key uint32, emit func(featidx.Ref) bool) (found, ok bool) {
	if r.mem != nil {
		return emitPostings(len(r.mem), func(i int) rec { return r.mem[i] }, key, emit), true
	}
	last := sort.Search(len(r.pageKeys), func(p int) bool { return r.pageKeys[p] > key })
	if last == 0 {
		return false, true // key sorts before the run's first record
	}
	first := max(sort.Search(len(r.pageKeys), func(p int) bool { return r.pageKeys[p] >= key })-1, 0)
	bp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bp)
	raw, err := r.readRecs(*bp, first*pageRecs, min(last*pageRecs, r.count))
	*bp = raw
	if err != nil {
		return false, false
	}
	return emitPostings(len(raw)/recBytes, func(i int) rec { return decodeRec(raw[i*recBytes:]) }, key, emit), true
}

// emitPostings binary-searches the n sorted records at(0..n-1) for key and
// emits its refs from the last posting back, as search describes.
func emitPostings(n int, at func(i int) rec, key uint32, emit func(featidx.Ref) bool) (found bool) {
	first := sort.Search(n, func(i int) bool { return at(i).key >= key })
	last := first
	for last < n && at(last).key == key {
		last++
	}
	for i := last - 1; i >= first; i-- {
		found = true
		if !emit(at(i).ref) {
			break
		}
	}
	return found
}

// sortRecs orders by (key, ref) and drops exact duplicates in place.
func sortRecs(recs []rec) []rec {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].ref < recs[j].ref
	})
	out := recs[:0]
	for i, rc := range recs {
		if i > 0 && rc == recs[i-1] {
			continue
		}
		out = append(out, rc)
	}
	return out
}

// encodeRun serialises sorted records into the on-disk run format:
// an 8-byte magic, a LE uint32 record count, 4 reserved bytes, then the
// packed 8-byte records. No checksum: the index is soft state, never
// reopened after restart, and a flipped bit merely yields a bogus candidate
// that the byte-exact delta stage discards.
func encodeRun(recs []rec) []byte {
	buf := make([]byte, runHeaderSize+len(recs)*recBytes)
	copy(buf[0:8], runMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(recs)))
	for i, rc := range recs {
		off := runHeaderSize + i*recBytes
		binary.LittleEndian.PutUint32(buf[off:off+4], rc.key)
		binary.LittleEndian.PutUint32(buf[off+4:off+8], rc.ref)
	}
	return buf
}

// writeRunFile writes and syncs one run file through the fault seam. On any
// error the partial file is removed and nothing leaks.
func writeRunFile(fs faultfs.FS, path string, recs []rec) (faultfs.File, error) {
	buf := encodeRun(recs)
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		fs.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(path)
		return nil, err
	}
	return f, nil
}

// loadRecs reads every record of a disk run back for merging, with one
// positional read.
func (r *run) loadRecs() ([]rec, error) {
	if r.mem != nil {
		return r.mem, nil
	}
	raw, err := r.readRecs(nil, 0, r.count)
	if err != nil {
		return nil, fmt.Errorf("tiered: reading %s: %w", r.path, err)
	}
	out := make([]rec, r.count)
	for i := range out {
		out[i] = decodeRec(raw[i*recBytes:])
	}
	return out, nil
}
