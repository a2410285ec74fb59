package docstore

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// slot is what the store keeps in memory about one record, its key and pending
// copy aside: its metadata, and where its current version is. A record is
// either pending (slotPending: the frame sits at recStart of the unsealed
// batch numbered off, which is still under construction or in flight, and the
// table keeps the slice Append was given beside it) or sealed (the frame is at
// recStart of the block at off in segment slot seg, one of the blocks its
// batch was cut into). A slot holds no pointer, so a page of them is never
// scanned by the collector, and it is 40 bytes.
type slot struct {
	off        int64 // sealed: offset of the block in its segment; pending: the batch's number
	baseID     uint64
	seg        int32  // sealed: segment slot
	recStart   uint32 // frame start within the unsealed batch, or the uncompressed block
	payloadLen uint32
	db         uint32 // the database's number (Store.dbAt)
	form       Form
	flags      uint8
}

const (
	slotLive uint8 = 1 << iota // the ID is a record; a zero slot is none
	slotPending
	slotStacked
	slotHidden
)

func (e *slot) sealed() bool  { return e.flags&slotPending == 0 }
func (e *slot) stacked() bool { return e.flags&slotStacked != 0 }
func (e *slot) hidden() bool  { return e.flags&slotHidden != 0 }

// entry is what a reader copies out of the table: one consistent version of
// a record, its slot with its key and, while it is pending, its pending copy
// (nil once sealed).
type entry struct {
	slot
	key     string
	payload []byte
}

// The table is a slab indexed by record ID. IDs are dense (the node numbers
// its records from 1 up, and from the highest replayed ID + 1 after a
// restart), so the slots of pageSize consecutive IDs share a page, which is
// allocated with the first of them and freed with the last: a live record
// costs its share of a page, 56 bytes, and a stray sparse ID one page. The
// pages are spread over 64 shards, which keep the appenders, the sealer and
// the readers of a busy node off each other's locks.
const (
	pageBits       = 8
	pageSize       = 1 << pageBits
	tableShardBits = 6
	tableShards    = 1 << tableShardBits
)

// page holds the slots and keys of pageSize consecutive IDs. The two arrays
// are allocations of their own: the slots' is pointer-free, so the collector
// skips it, and each is exactly a size class of the allocator, so nothing is
// rounded up. A key shares its bytes with the key directory's.
type page struct {
	slots *[pageSize]slot
	keys  *[pageSize]string
	live  int
}

// pageBytes is what one page holds of the heap.
const pageBytes = int64(unsafe.Sizeof([pageSize]slot{}) + unsafe.Sizeof([pageSize]string{}) + unsafe.Sizeof(page{}))

// tableShard owns the pages whose numbers hash to it, and the pending copies
// of their records: the records of the two unsealed batches at most.
type tableShard struct {
	mu      sync.RWMutex
	pages   map[uint64]*page  // page number -> page
	pending map[uint64][]byte // record ID -> pending copy
}

// recTable maps record IDs to their current versions. Every change of a
// record is one store under one shard lock, so a reader sees a record's old
// version or its new one and never neither: there is no hand-off between
// structures to order. Writers hold the store's writer lock and then the
// shard lock; readers take only the shard's read lock, which is a leaf
// (nothing is acquired under it).
type recTable struct {
	shards [tableShards]tableShard
	pages  atomic.Int64
}

func newRecTable() *recTable {
	t := new(recTable)
	for i := range t.shards {
		t.shards[i].pages = make(map[uint64]*page)
		t.shards[i].pending = make(map[uint64][]byte)
	}
	return t
}

// locate returns id's shard, page number and index in its page. The shard is
// picked by the top bits of a multiplicative hash of the page number, so
// that sequential pages and pages with a common stride both spread.
func (t *recTable) locate(id uint64) (*tableShard, uint64, int) {
	pn := id >> pageBits
	return &t.shards[pn*0x9e3779b97f4a7c15>>(64-tableShardBits)], pn, int(id & (pageSize - 1))
}

// load copies id's current version out of its page. Caller holds sh.mu.
func (sh *tableShard) load(id, pn uint64, i int) (entry, bool) {
	p := sh.pages[pn]
	if p == nil || p.slots[i].flags&slotLive == 0 {
		return entry{}, false
	}
	e := entry{slot: p.slots[i], key: p.keys[i]}
	if !e.sealed() {
		e.payload = sh.pending[id]
	}
	return e, true
}

func (t *recTable) get(id uint64) (entry, bool) {
	sh, pn, i := t.locate(id)
	sh.mu.RLock()
	e, ok := sh.load(id, pn, i)
	sh.mu.RUnlock()
	return e, ok
}

// put stores s, with its key and, if s is pending, its pending copy, as id's
// current version, and returns the one it replaced.
func (t *recTable) put(id uint64, s slot, key string, payload []byte) (old entry, had bool) {
	sh, pn, i := t.locate(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, had = sh.load(id, pn, i)
	p := sh.pages[pn]
	if p == nil {
		p = &page{slots: new([pageSize]slot), keys: new([pageSize]string)}
		sh.pages[pn] = p
		t.pages.Add(1)
	}
	if !had {
		p.live++
	}
	s.flags |= slotLive
	p.slots[i], p.keys[i] = s, key
	if !s.sealed() {
		sh.pending[id] = payload
	} else if had && !old.sealed() {
		delete(sh.pending, id)
	}
	return old, had
}

// remove deletes id and returns the version it held. The last record of a
// page takes the page with it.
func (t *recTable) remove(id uint64) (old entry, had bool) {
	sh, pn, i := t.locate(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, had = sh.load(id, pn, i); !had {
		return old, false
	}
	p := sh.pages[pn]
	p.slots[i], p.keys[i] = slot{}, ""
	delete(sh.pending, id)
	if p.live--; p.live == 0 {
		delete(sh.pages, pn)
		t.pages.Add(-1)
	}
	return old, true
}

// seal points id at its sealed location, sealedStart of the block at off in
// segment slot seg, if the frame at recStart of unsealed batch number batch is
// still its current version, and reports whether it was. A record
// overwritten, re-encoded or deleted since that frame was appended keeps what
// it has.
func (t *recTable) seal(id, batch uint64, recStart int, seg int, off int64, sealedStart int) bool {
	sh, pn, i := t.locate(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.pages[pn]
	if p == nil {
		return false
	}
	s := &p.slots[i]
	if s.flags&(slotLive|slotPending) != slotLive|slotPending || uint64(s.off) != batch || s.recStart != uint32(recStart) {
		return false
	}
	s.flags &^= slotPending
	s.seg, s.off, s.recStart = int32(seg), off, uint32(sealedStart)
	delete(sh.pending, id)
	return true
}

// at returns id's entry and whether the frame at recStart of the block at off
// in segment slot seg is still the record's current version.
func (t *recTable) at(id uint64, seg int, off int64, recStart int) (entry, bool) {
	e, ok := t.get(id)
	return e, ok && e.sealed() && int(e.seg) == seg && e.off == off && int(e.recStart) == recStart
}

// ids returns the IDs of all records, in unspecified order.
func (t *recTable) ids() []uint64 {
	var out []uint64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for pn, p := range sh.pages {
			for j := range p.slots {
				if p.slots[j].flags&slotLive != 0 {
					out = append(out, pn<<pageBits|uint64(j))
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// bytes is what the table's pages hold of the heap. The pending copies are
// the callers' slices and not counted; their map holds two batches' records
// at most.
func (t *recTable) bytes() int64 { return t.pages.Load() * pageBytes }
