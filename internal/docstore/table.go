package docstore

import "sync"

// entry is everything the store keeps in memory about one live record: its
// metadata, and where its current version is. A record is either pending
// (block != 0: the frame sits at recStart of the batch with that number, which
// is still under construction or in flight, and payload is the slice Append
// was given) or sealed (block == 0: the frame is at recStart of the block at
// off in segment slot seg, one of the blocks its batch was cut into). The
// entry is a value: a reader that copies it out under the shard lock holds one
// consistent version of the record.
type entry struct {
	db, key    string
	payload    []byte // pending copy; nil once sealed
	baseID     uint64
	block      uint64 // number of the unsealed batch holding the frame; 0 once sealed
	off        int64  // sealed: offset of the block in its segment
	seg        int32  // sealed: segment slot
	recStart   uint32 // frame start within the unsealed batch, or the uncompressed block
	payloadLen uint32
	form       Form
	stacked    bool
	hidden     bool
}

func (e *entry) sealed() bool { return e.block == 0 }

// 64 shards keep the appenders, the sealer and the readers of a busy node off
// each other's locks.
const (
	tableShardBits = 6
	tableShards    = 1 << tableShardBits
)

// recTable maps record IDs to entries. Every update is one store under one
// shard lock, so a reader sees a record's old version or its new one and
// never neither: there is no hand-off between maps to order. Writers hold the
// store's writer lock and then the shard lock; readers take only the shard's
// read lock, which is a leaf (nothing is acquired under it).
type recTable struct {
	shards [tableShards]struct {
		mu sync.RWMutex
		m  map[uint64]entry
	}
}

func newRecTable() *recTable {
	t := new(recTable)
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]entry)
	}
	return t
}

// shardOf picks by the top bits of a multiplicative hash, so that sequential
// IDs and IDs with a common stride both spread.
func shardOf(id uint64) int { return int(id * 0x9e3779b97f4a7c15 >> (64 - tableShardBits)) }

func (t *recTable) get(id uint64) (entry, bool) {
	sh := &t.shards[shardOf(id)]
	sh.mu.RLock()
	e, ok := sh.m[id]
	sh.mu.RUnlock()
	return e, ok
}

// put stores e as id's current version and returns the one it replaced.
func (t *recTable) put(id uint64, e entry) (old entry, had bool) {
	sh := &t.shards[shardOf(id)]
	sh.mu.Lock()
	old, had = sh.m[id]
	sh.m[id] = e
	sh.mu.Unlock()
	return old, had
}

// remove deletes id and returns the version it held.
func (t *recTable) remove(id uint64) (old entry, had bool) {
	sh := &t.shards[shardOf(id)]
	sh.mu.Lock()
	old, had = sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	return old, had
}

// seal points id at its sealed location, sealedStart of the block at off in
// segment slot seg, if the frame at recStart of unsealed batch number block is
// still its current version, and reports whether it was. A record
// overwritten, re-encoded or deleted since that frame was appended keeps what
// it has.
func (t *recTable) seal(id, block uint64, recStart int, seg int, off int64, sealedStart int) bool {
	sh := &t.shards[shardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[id]
	if !ok || e.block != block || e.recStart != uint32(recStart) {
		return false
	}
	e.block, e.payload = 0, nil
	e.seg, e.off, e.recStart = int32(seg), off, uint32(sealedStart)
	sh.m[id] = e
	return true
}

// at returns id's entry and whether the frame at recStart of the block at off
// in segment slot seg is still the record's current version.
func (t *recTable) at(id uint64, seg int, off int64, recStart int) (entry, bool) {
	e, ok := t.get(id)
	return e, ok && e.sealed() && int(e.seg) == seg && e.off == off && int(e.recStart) == recStart
}

// ids returns the IDs of all entries, in unspecified order.
func (t *recTable) ids() []uint64 {
	var out []uint64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}
