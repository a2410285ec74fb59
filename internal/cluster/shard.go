package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/core"
	"dbdedup/internal/metrics"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// transferTimeout bounds each transfer round trip of a handoff: one batch.
const transferTimeout = 10 * time.Second

// Shard wraps a node with ring routing: it serves operations for databases
// the active ring places on this member and classifies the rest with the
// explicit routing taxonomy (wrong-shard redirect, or retry-later while a
// rebalance window holds the database). Under the ring-less ring (epoch 0, no
// members: a member nobody has put in a ring) it owns every database it
// holds, which is the standalone node. It is the apiserver.Backend and
// apiserver.ClusterBackend every member serves.
//
// Concurrency: opMu is the routing lock. Every client operation holds it
// shared from the routing decision through the node mutation, and every ring
// transition (install, commit, abort) holds it exclusively — so a window can
// never open or cut over *between* an op's route check and its write. That
// gap is precisely where an acked write could land on a database whose
// snapshot already streamed out, i.e. a lost acked write; the lock closes it.
type Shard struct {
	n    *node.Node
	self string
	nw   netsim.Network
	cm   *metrics.ClusterMetrics

	opMu    sync.RWMutex
	ring    *Ring // active placement this member serves under
	pending *Ring // non-nil while a rebalance window is open

	// xferMu guards the per-window transfer bookkeeping. On a ring-less
	// member (empty active ring) the ring cannot say which local databases
	// are inbound half-transferred copies and which are pre-window data the
	// member has been serving all along — the created set is that
	// discriminator: those are the only copies a ring-less abort may drop.
	xferMu      sync.Mutex
	xferSeen    map[string]bool // dbs that received >=1 transfer this window
	xferCreated map[string]bool // subset the transfer stream created from nothing
	// dirty outlives windows: databases this member owes a drop. A ring
	// transition marks them while it holds opMu exclusively and the drop runs
	// after; one the node fails partway stays marked. A dirty database holds
	// only stale copies and is never served or streamed: whoever touches it
	// next (client operation, inbound transfer, handoff, commit) finishes the
	// drop first, so no acked write ever lands beside the survivors and none
	// is ever deleted with them. Drops run one at a time under xferMu; the
	// mark is a sync.Map so the check on every operation waits for none.
	dirty sync.Map // db -> struct{}
}

// ownerOrSelf returns the member r places db on, treating an empty ring as
// placing everything on self: a ring-less member (a daemon started without
// -cluster-peers) serves every database it holds, so for freeze and handoff
// purposes it is the source owner of all of them — not the owner of none,
// which would let a join window stream nothing and then drop acked data at
// commit.
func ownerOrSelf(r *Ring, self, db string) string {
	if len(r.Members) == 0 {
		return self
	}
	return r.Owner(db)
}

// NewShard wraps n as the cluster member named self (its client address),
// serving under the initial ring. nw is the transport used to push handoffs
// to other members (nil = real TCP).
func NewShard(n *node.Node, self string, initial *Ring, nw netsim.Network) *Shard {
	s := &Shard{n: n, self: self, nw: nw, cm: &metrics.ClusterMetrics{}, ring: initial}
	s.clearXfer()
	s.cm.RingEpoch.Set(int64(initial.Epoch))
	return s
}

// Self returns this member's ring name.
func (s *Shard) Self() string {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return s.self
}

// SetSelf renames the member. Harnesses binding to an OS-assigned port only
// learn their address after the server starts; call this before the member
// serves any cluster traffic or joins a ring.
func (s *Shard) SetSelf(addr string) {
	s.opMu.Lock()
	s.self = addr
	s.opMu.Unlock()
}

// Ring returns the active ring.
func (s *Shard) Ring() *Ring {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return s.ring
}

// Pending returns the pending ring, or nil when no window is open.
func (s *Shard) Pending() *Ring {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return s.pending
}

// classify routes db under the current rings and, where that says serve
// locally, finishes a drop the database is still owed. Nil means serve.
// Caller holds opMu (shared or exclusive).
func (s *Shard) classify(db string, write bool) error {
	if err := s.route(db, write); err != nil {
		return err
	}
	if s.finishDrop(db) != nil {
		// The stale copies are still there; hold the client off rather
		// than serve them or ack a write the finished drop would delete.
		return s.moving(s.ring.Epoch)
	}
	return nil
}

// moving counts and builds the retry-later answer.
func (s *Shard) moving(epoch uint64) error {
	s.cm.MovingAnswered.Add(1)
	return &apiserver.ShardMovingError{Epoch: epoch}
}

// route is the ring half of classify.
func (s *Shard) route(db string, write bool) error {
	r, p := s.ring, s.pending
	// A ring-less member owns everything it holds, like a single-node
	// deployment — but the window checks below still apply, so a join
	// rebalance write-freezes its moving databases instead of letting
	// acked writes slip in behind the outbound snapshot.
	owner := ownerOrSelf(r, s.self, db)
	if p != nil {
		powner := p.Owner(db)
		if powner == s.self && owner != s.self {
			// Gained under the pending ring but not yet cut over: the
			// source is still authoritative, so serving here — even a
			// read — could expose or accept state the abort path would
			// then throw away. Hold the client off until commit.
			return s.moving(p.Epoch)
		}
		if owner == s.self && powner != s.self {
			// Moving away: a write would miss the snapshot already
			// streaming to the new owner — a lost acked write at cutover —
			// so writes freeze until the window resolves. Reads keep being
			// served from the local frozen copy, a deliberate
			// availability-over-freshness tradeoff: during the commit
			// fan-out the destination may commit (and ack new writes)
			// moments before this member hears its own commit, so a client
			// on the old ring can read a value here that is already
			// overwritten at the new owner. Such reads are never torn and
			// never resurrect deleted keys — they are just at most one
			// cutover window behind.
			if write {
				return s.moving(p.Epoch)
			}
			return nil
		}
		if len(r.Members) == 0 && powner == s.self && s.transferCreated(db) {
			// Ring-less member acting as a destination: this database did
			// not exist here before the window — it is an inbound
			// half-transferred copy and the true source is still
			// authoritative. Serving it, even a read, would expose partial
			// state the abort path would then throw away.
			return s.moving(p.Epoch)
		}
	}
	if owner != s.self {
		s.cm.RedirectsIssued.Add(1)
		return &apiserver.WrongShardError{Owner: owner, Epoch: r.Epoch}
	}
	return nil
}

// ---- apiserver.Backend ----

// Insert routes and stores a new record.
func (s *Shard) Insert(db, key string, payload []byte) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, true); err != nil {
		return err
	}
	return s.n.Insert(db, key, payload)
}

// Update routes and overwrites a record.
func (s *Shard) Update(db, key string, payload []byte) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, true); err != nil {
		return err
	}
	return s.n.Update(db, key, payload)
}

// Delete routes and removes a record.
func (s *Shard) Delete(db, key string) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, true); err != nil {
		return err
	}
	return s.n.Delete(db, key)
}

// Read routes and fetches a record.
func (s *Shard) Read(db, key string) ([]byte, error) {
	return s.AppendRead(nil, db, key)
}

// AppendRead routes and appends a record's content to dst, as
// node.Node.AppendRead does.
func (s *Shard) AppendRead(dst []byte, db, key string) ([]byte, error) {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, false); err != nil {
		return dst, err
	}
	return s.n.AppendRead(dst, db, key)
}

// Stats reports the wrapped node's stats.
func (s *Shard) Stats() node.Stats { return s.n.Stats() }

// DBStats reports the wrapped node's per-database dedup state.
func (s *Shard) DBStats() []core.DBStats { return s.n.DBStats() }

// VerifyAll runs the wrapped node's integrity scan.
func (s *Shard) VerifyAll() node.VerifyReport { return s.n.VerifyAll() }

// ---- apiserver.ClusterBackend ----

// RingStatus is the wire form of a member's ring state: the active ring it
// serves under and, while a rebalance window is open, the pending ring. The
// coordinator reads Pending to recover windows a crashed predecessor left
// behind.
type RingStatus struct {
	Self    string `json:"self"`
	Ring    *Ring  `json:"ring"`
	Pending *Ring  `json:"pending,omitempty"`
}

// RingJSON returns the member's ring status wire form.
func (s *Shard) RingJSON() []byte {
	s.opMu.RLock()
	st := RingStatus{Self: s.self, Ring: s.ring, Pending: s.pending}
	s.opMu.RUnlock()
	buf, _ := json.Marshal(st)
	return buf
}

// InstallRing opens a rebalance window under the proposed ring. Epochs are
// strictly monotonic: a ring at or below the active epoch — or at or below
// an open window's epoch — is refused unless it is byte-identical to the
// active or pending ring (idempotent re-install, so a coordinator retry
// after a partial failure converges instead of erroring). A higher-epoch
// install while a window is already open aborts the stale window first —
// the coordinator that opened it is gone.
func (s *Shard) InstallRing(body []byte) error {
	r, err := UnmarshalRing(body)
	if err != nil {
		return err
	}
	s.opMu.Lock()
	if r.Equal(s.ring) || (s.pending != nil && r.Equal(s.pending)) {
		s.opMu.Unlock()
		return nil
	}
	if r.Epoch <= s.ring.Epoch {
		cur := s.ring.Epoch
		s.opMu.Unlock()
		return fmt.Errorf("cluster: stale ring epoch %d (active %d)", r.Epoch, cur)
	}
	if s.pending != nil && r.Epoch <= s.pending.Epoch {
		// A lagging coordinator must not replace a newer open window with
		// its stale proposal — that would abandon the newer window's
		// half-transferred copies in favour of an older placement.
		cur := s.pending.Epoch
		s.opMu.Unlock()
		return fmt.Errorf("cluster: stale ring epoch %d (pending window %d)", r.Epoch, cur)
	}
	if s.pending != nil {
		s.abandonPendingLocked()
	}
	s.pending = r
	s.cm.RingInstalls.Add(1)
	s.opMu.Unlock()
	s.finishDrops()
	return nil
}

// abandonPendingLocked clears an open window without committing it and marks
// the databases whose half-transferred local copies must be dropped. Caller
// holds opMu exclusively and runs finishDrops once it has let go.
func (s *Shard) abandonPendingLocked() {
	p := s.pending
	s.pending = nil
	if len(s.ring.Members) == 0 {
		// Ring-less: the member held (and served) everything before the
		// window, so the active ring cannot tell gained copies apart from
		// pre-window data. Drop only databases the inbound transfer stream
		// created from nothing; anything else might be acked pre-window
		// data, and deleting acked data is the one unrecoverable mistake.
		s.xferMu.Lock()
		for db := range s.xferCreated {
			s.dirty.Store(db, struct{}{})
		}
		s.xferMu.Unlock()
	} else {
		for _, db := range s.n.DBNames() {
			if p.Owner(db) == s.self && s.ring.Owner(db) != s.self {
				s.dirty.Store(db, struct{}{})
			}
		}
	}
	s.clearXfer()
}

// transferCreated reports whether the open window's transfer stream created
// db on this member (it did not exist locally before the first inbound
// record).
func (s *Shard) transferCreated(db string) bool {
	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	return s.xferCreated[db]
}

// clearXfer resets the per-window transfer bookkeeping at every window
// resolution (commit, abort, or replacement by a newer install).
func (s *Shard) clearXfer() {
	s.xferMu.Lock()
	s.xferSeen, s.xferCreated = map[string]bool{}, map[string]bool{}
	s.xferMu.Unlock()
}

// BeginHandoff streams every database this member loses under the pending
// ring to its new owner, in a snapshot's batches, and blocks until done.
// Writes to those databases are already frozen (classify answers
// ShardMovingError once the window is open), and Barrier drains the encode
// queues, so the stream is a complete, stable snapshot of everything ever
// acked for those databases. Safe to re-run: the destination upserts.
func (s *Shard) BeginHandoff() error {
	s.opMu.RLock()
	r, p := s.ring, s.pending
	s.opMu.RUnlock()
	if p == nil {
		return errors.New("cluster: no rebalance window open")
	}
	s.cm.HandoffsStarted.Add(1)
	s.n.Barrier()

	pool := apiserver.NewPool(s.nw, transferTimeout)
	defer pool.Close()
	for _, db := range s.n.DBNames() {
		dest := p.Owner(db)
		// A ring-less member is the source owner of everything it holds
		// (ownerOrSelf), so a bootstrap join streams its whole corpus out to
		// the pending owners instead of skipping every database.
		if ownerOrSelf(r, s.self, db) != s.self || dest == s.self || dest == "" {
			continue
		}
		if s.finishDrop(db) != nil {
			continue // stale copies only; the database's owner streams it
		}
		c, err := pool.Get(dest)
		if err != nil {
			s.cm.TransferFailures.Add(1)
			return fmt.Errorf("cluster: handoff dial %s: %w", dest, err)
		}
		_, err = repl.Batches(s.n, db, false, func(batch []byte, records int) error {
			if err := c.Transfer(batch); err != nil {
				return err
			}
			s.cm.TransferRecordsOut.Add(int64(records))
			s.cm.TransferBytesOut.Add(int64(len(batch)))
			return nil
		})
		if err != nil {
			s.cm.TransferFailures.Add(1)
			return fmt.Errorf("cluster: handoff of %s to %s: %w", db, dest, err)
		}
	}
	return nil
}

// CommitRing cuts the open window over: the pending ring becomes active,
// this member starts serving what it gained, and local copies of databases
// it no longer owns are dropped (through the normal delete path, so its
// replica chain drops them too). Idempotent when no window is open.
func (s *Shard) CommitRing() error {
	s.opMu.Lock()
	if s.pending == nil {
		s.opMu.Unlock()
		return nil
	}
	s.ring = s.pending
	s.pending = nil
	s.clearXfer()
	s.cm.HandoffsCommitted.Add(1)
	s.cm.RingEpoch.Set(int64(s.ring.Epoch))
	for _, db := range s.n.DBNames() {
		if s.ring.Owner(db) != s.self {
			s.dirty.Store(db, struct{}{})
		}
	}
	s.opMu.Unlock()
	s.finishDrops()
	return nil
}

// AbortRing reverts the open window: half-transferred local copies of gained
// databases are dropped and the previous membership is reinstalled under a
// fresh (higher) epoch, preserving per-member epoch monotonicity. Sources
// never deleted anything before commit, so abort loses nothing. Idempotent
// when no window is open.
func (s *Shard) AbortRing() error {
	s.opMu.Lock()
	if s.pending == nil {
		s.opMu.Unlock()
		return nil
	}
	epoch := s.pending.Epoch
	if s.ring.Epoch > epoch {
		epoch = s.ring.Epoch
	}
	s.abandonPendingLocked()
	s.ring = NewRing(epoch+1, s.ring.Members)
	s.cm.HandoffsAborted.Add(1)
	s.cm.RingEpoch.Set(int64(s.ring.Epoch))
	s.opMu.Unlock()
	s.finishDrops()
	return nil
}

// Transfer applies a batch of handoff records (repl.Batches), each only while
// a window naming this member as its database's new owner is open; an absent
// one has nothing to move. The shared lock holds commit/abort off mid-batch.
func (s *Shard) Transfer(batch []byte) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return repl.ReadBatch(batch, func(db, key string, r node.Stamped) error {
		if !r.Present {
			return nil
		}
		if s.pending == nil || s.pending.Owner(db) != s.self {
			return fmt.Errorf("cluster: no open handoff window for db %q", db)
		}
		err := s.beginTransfer(db)
		if err == nil {
			err = s.n.Upsert(db, key, r.Content, true)
		}
		if err != nil {
			s.cm.TransferFailures.Add(1)
			return err
		}
		s.cm.TransferRecordsIn.Add(1)
		s.cm.TransferBytesIn.Add(int64(len(r.Content)))
		return nil
	})
}

// beginTransfer does the per-window bookkeeping for db's first inbound
// record: finish the drop db is still owed, then note whether the stream is
// creating the database from nothing.
func (s *Shard) beginTransfer(db string) error {
	if err := s.finishDrop(db); err != nil {
		return fmt.Errorf("cluster: finishing the failed drop of db %q: %w", db, err)
	}
	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	if !s.xferSeen[db] {
		s.xferSeen[db] = true
		if len(s.n.DBKeys(db)) == 0 {
			s.xferCreated[db] = true
		}
	}
	return nil
}

// finishDrops runs every drop this member owes. It holds xferMu per
// database, not opMu: an operation that reaches a marked database first
// finishes that drop itself and this one finds the mark gone.
func (s *Shard) finishDrops() {
	var owed []string
	s.dirty.Range(func(db, _ any) bool {
		owed = append(owed, db.(string))
		return true
	})
	sort.Strings(owed)
	for _, db := range owed {
		s.finishDrop(db)
	}
}

// finishDrop deletes db if it is marked dirty and clears the mark when
// nothing of it is left; a node error keeps the mark for the next caller.
func (s *Shard) finishDrop(db string) error {
	if _, owed := s.dirty.Load(db); !owed {
		return nil
	}
	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	if _, owed := s.dirty.Load(db); !owed {
		return nil // whoever held the lock finished it
	}
	n, err := s.n.Retain(db, nil, true)
	s.cm.DroppedRecords.Add(int64(n))
	if err != nil {
		return err
	}
	s.dirty.Delete(db)
	s.cm.DroppedDBs.Add(1)
	return nil
}

// Metrics returns the shard's cluster metrics.
func (s *Shard) Metrics() *metrics.ClusterMetrics { return s.cm }
