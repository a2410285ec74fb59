package node

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
)

// Read returns the record's visible content in a slice of the caller's own.
// It is AppendRead(nil, db, key). The key lookup takes only the
// store's per-database read lock (docstore.Store.Lookup); Read never touches
// n.mu.
//
// It asks in this order: the store's key directory, which answers with the
// record ID; the source cache, whose copy of a record is its insert payload
// and so its content, which never changes, however the store holds the record
// by now; only then the store, by a planned walk. The cache is peeked: a read
// leaves the encoder's cache as it found it. An update moves the key to a new
// record before it is acknowledged, so a read that begins after the ack never
// asks for the old record's copy, which the cache may still hold.
func (n *Node) Read(db, key string) ([]byte, error) {
	return n.AppendRead(nil, db, key)
}

// AppendRead appends the record's visible content to dst and returns the
// extended slice, the way Read finds it: the one copy of the content is the
// one into dst. On an error dst comes back unextended.
func (n *Node) AppendRead(dst []byte, db, key string) ([]byte, error) {
	start := time.Now()
	id, ok := n.store.Lookup(db, key)
	n.readsTotal.Add(1)
	n.recentOps.Add(1)
	if !ok {
		return dst, ErrNotFound
	}
	if cached, hit := n.peekSource(id); hit {
		dst = append(dst, cached...)
		n.readsFromCache.Add(1)
	} else {
		out, err := n.appendDecoded(dst, id, visibleContent)
		if err != nil {
			return dst, err
		}
		dst = out
	}
	n.latRead.Observe(time.Since(start))
	return dst, nil
}

// peekSource returns the source cache's copy of record id, if it holds one.
func (n *Node) peekSource(id uint64) ([]byte, bool) {
	if n.eng == nil || n.eng.SourceCache() == nil {
		return nil, false
	}
	return n.eng.SourceCache().Peek(id)
}

// lookup resolves (db, key) to a record ID. It takes no node lock; safe with
// or without n.mu held.
func (n *Node) lookup(db, key string) (uint64, bool) {
	return n.store.Lookup(db, key)
}

// Has reports whether (db, key) exists. It takes no node lock.
func (n *Node) Has(db, key string) bool {
	_, ok := n.lookup(db, key)
	return ok
}

// ------------------------------------------------------------------- decode

// fetcher adapts the node to core.Fetcher. The engine needs the content a
// delta against this record would decode from: the record's content, hidden
// or not.
type fetcher struct{ n *Node }

// FetchDecoded returns a copy of its own: the engine builds deltas whose
// literals alias the content, and keeps them past this call.
func (f fetcher) FetchDecoded(id uint64) ([]byte, error) {
	return f.n.appendDecoded(nil, id, baseContent)
}

// Usable admits a delta source only if its key names it (asInserted): the
// engine passes over any other candidate.
func (f fetcher) Usable(id uint64) bool {
	_, ok := f.n.asInserted(id)
	return ok
}

// scratch is the working memory of one chain decode: the plan of the walk,
// the fold its deltas are composed into, and the buffer decode builds the
// content in. What decode returns lives in a scratch (or in the source cache)
// and is good until the scratch is used again. Who owns which: hidden-chain
// repair, which applyMu serialises, uses the node's own applyScratch; Read,
// replica apply, the fetcher and VerifyAll take one
// from scratchPool for the call; the two that hand the content on (Read, the
// fetcher) go through appendDecoded, which builds it straight into theirs.
type scratch struct {
	hops []hop
	// fold composes the walk's deltas, and kept is a copy of it at the hop
	// whose content repair needs.
	fold, kept delta.Fold
	buf        []byte
}

// hop is one delta-encoded record on a planned walk, outermost first, as
// Store.Meta showed it.
type hop struct {
	id, base uint64
	hidden   bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// decodeMode says which content of a record decode produces, and whether it
// may repair the chain it walked.
type decodeMode int

const (
	// visibleContent is what a client read yields: the content,
	// ErrNotFound for a hidden record.
	visibleContent decodeMode = iota
	// baseContent is what other records decode through: the content,
	// hidden or not.
	baseContent
	// baseContentNoRepair is baseContent without the opportunistic splice
	// of a hidden record, for callers that already hold applyMu.
	baseContentNoRepair
)

// errReplan reports that a record was no longer stored the way the plan saw
// it: a write-back, repair or client write got in between.
var errReplan = errors.New("node: stored form changed under a chain walk")

// decode returns the content of record id in memory that belongs to sc or to
// the source cache: valid until sc is used again, not to be modified or kept.
//
// The walk is planned from Store.Meta alone (form, base and hidden need no
// payload), stopping at a raw record or at a base the source cache
// holds. Then every delta on the path is folded into one, innermost first,
// straight from its stored bytes, lent by Store.View for exactly that long,
// and the base is lent last, while the content is built from it and the
// fold's literals: a k-step chain reads each delta once, copies none, and
// writes the content once. A View shows one consistent version of a record
// but the plan is older than it, so each View checks that the record is
// still stored as planned; if not, the walk is planned again. Base contents
// never change while referenced, which is what makes any consistent plan
// decode to the same bytes, whatever order its records are lent in.
func (n *Node) decode(sc *scratch, id uint64, mode decodeMode) ([]byte, error) {
	return n.decodeOwn(sc, id, mode, nil, false)
}

// appendDecoded appends the content of record id to dst, built there once
// from wherever the walk ended: for a record stored raw that is the store's
// lent bytes (a cached block, the unsealed block's copy), with nothing in
// between.
func (n *Node) appendDecoded(dst []byte, id uint64, mode decodeMode) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return n.decodeOwn(sc, id, mode, dst, true)
}

// decodeOwn is decode; with own set the result is dst with the content
// appended instead of memory of sc or of the source cache.
func (n *Node) decodeOwn(sc *scratch, id uint64, mode decodeMode, dst []byte, own bool) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		w, err := n.planWalk(sc, id, mode)
		if err != nil {
			return nil, err
		}
		content, err := n.runWalk(sc, w, dst, own)
		if err != errReplan {
			return content, err
		}
		switch {
		case attempt < 4:
			runtime.Gosched()
		case attempt < 200:
			// A writer is mid-append (Meta and the record maps are a
			// version apart), possibly descheduled: give it time.
			time.Sleep(50 * time.Microsecond)
		default:
			return nil, fmt.Errorf("node: record %d: %w", id, errReplan)
		}
	}
}

// walk is a planned chain walk: the record it ends at, as Store.Meta showed
// it, and what to do on the way. The delta records it passes are sc.hops.
type walk struct {
	baseID uint64
	base   docstore.MetaInfo
	// cached is the base's content when the source cache holds it; the base
	// is then not read at all.
	cached []byte
	// keep indexes the hop whose content repair needs (-1 for none), and
	// hidID is the hidden record right behind it.
	keep  int
	hidID uint64
}

// planWalk collects into sc.hops the delta records from id inward, until a
// record that can be read without decoding another.
func (n *Node) planWalk(sc *scratch, id uint64, mode decodeMode) (walk, error) {
	sc.hops = sc.hops[:0]
	w := walk{baseID: id, keep: -1}
	var ok bool
	w.base, ok = n.store.Meta(id)
	switch {
	case mode == visibleContent && (!ok || w.base.Hidden):
		return w, ErrNotFound
	case !ok:
		return w, fmt.Errorf("node: decode base %d missing", id)
	}
	for w.base.Form == docstore.FormDelta {
		if len(sc.hops) > 1<<20 {
			return w, errors.New("node: decode chain cycle")
		}
		sc.hops = append(sc.hops, hop{id: w.baseID, base: w.base.BaseID, hidden: w.base.Hidden})
		from := w.baseID
		w.baseID = w.base.BaseID
		if w.base, ok = n.store.Meta(w.baseID); !ok {
			return w, fmt.Errorf("node: record %d: base %d missing", from, w.baseID)
		}
		// Source record cache: a decoded base short-circuits the walk. It
		// is peeked: a read leaves the encoder's recency order and counters
		// as it found them.
		if c, hit := n.peekSource(w.baseID); hit {
			w.cached = c
			break
		}
		n.decodeSteps.Add(1)
	}

	// Opportunistic repair (paper §4.1, Garbage Collection): the first
	// hidden record on the path gets spliced out by re-binding its dependant
	// directly to the record behind it (or to raw form when the hidden
	// record terminates the chain). The dependant's content is the one thing
	// repair needs from the walk, so the plan marks which step to keep. At
	// most one repair per read.
	if mode != baseContentNoRepair {
		if w.cached == nil || !w.base.Hidden {
			for i := 0; i+1 < len(sc.hops); i++ {
				if sc.hops[i+1].hidden {
					w.keep, w.hidID = i, sc.hops[i+1].id
					break
				}
			}
		}
		if w.keep < 0 && w.base.Hidden && len(sc.hops) > 0 {
			w.keep, w.hidID = len(sc.hops)-1, w.baseID
		}
	}
	return w, nil
}

// runWalk produces the content w was planned for: the deltas of sc.hops
// folded from the base outward, then the content built from the base, lent
// last, and the fold. It returns errReplan if a record is no longer stored
// the way the plan saw it. With own the content is appended to dst, and
// otherwise built in sc.buf.
func (n *Node) runWalk(sc *scratch, w walk, dst []byte, own bool) ([]byte, error) {
	sc.fold.Reset()
	for i := len(sc.hops) - 1; i >= 0; i-- {
		h := sc.hops[i]
		planned := docstore.MetaInfo{Form: docstore.FormDelta, BaseID: h.base, Hidden: h.hidden}
		err := n.lend(h.id, planned, func(stored []byte) error {
			if err := sc.fold.Add(stored); err != nil {
				return fmt.Errorf("node: applying delta for record %d: %w", h.id, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if i == w.keep {
			sc.kept.CopyFrom(&sc.fold)
		}
	}
	if !own {
		dst = sc.buf[:0]
	}
	var content, kept []byte
	build := func(base []byte) error {
		var err error
		if content, err = sc.fold.AppendTo(dst, base); err == nil && w.keep >= 0 {
			kept, err = sc.kept.AppendTo(nil, base)
		}
		if err != nil {
			return fmt.Errorf("node: applying the deltas onto record %d: %w", w.baseID, err)
		}
		return nil
	}
	var err error
	if w.cached != nil {
		err = build(w.cached)
	} else {
		err = n.lend(w.baseID, w.base, build)
	}
	if err != nil {
		return nil, err
	}
	n.walkBytes.Add(uint64(len(content) - len(dst) + len(kept)))
	if !own {
		sc.buf = content
	}
	if w.keep >= 0 {
		n.repairPastHidden(sc.hops[w.keep].id, w.hidID, kept)
	}
	return content, nil
}

// lend calls fn with record id's stored form, borrowed from the store for the
// length of the call (Store.View's leaf rule applies to fn). It returns
// errReplan when the record is gone or no longer has the form, base and hidden
// flag that planned shows.
func (n *Node) lend(id uint64, planned docstore.MetaInfo, fn func(stored []byte) error) error {
	err := errReplan
	_, viewErr := n.store.View(id, func(v docstore.Stored) {
		if v.Form != planned.Form || v.Form == docstore.FormDelta && v.BaseID != planned.BaseID ||
			v.Hidden != planned.Hidden {
			return
		}
		err = fn(v.Payload)
	})
	if viewErr != nil {
		return viewErr
	}
	return err
}

// repairPastHidden re-binds record depID (whose decoded content is
// depContent, which the store keeps when the dependant goes back to raw) past
// the hidden record hidID: to hidID's own base when hidID is delta-encoded,
// or back to raw form when hidID terminates the chain. One reference to hidID
// is released, eventually reclaiming it.
func (n *Node) repairPastHidden(depID, hidID uint64, depContent []byte) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	// Re-verify under the lock: the dependant must still decode through
	// the hidden record, and the hidden record must still be hidden.
	depMeta, ok := n.store.Meta(depID)
	if !ok || depMeta.Form != docstore.FormDelta || depMeta.BaseID != hidID {
		return
	}
	hidMeta, ok := n.store.Meta(hidID)
	if !ok || !hidMeta.Hidden {
		return
	}

	// The hidden record terminates the chain: the dependant goes back to raw
	// form. Or it is delta-encoded itself: splice, the dependant as a delta
	// directly against the hidden record's own base.
	dep := docstore.Record{ID: depID, DB: depMeta.DB, Key: depMeta.Key, Hidden: depMeta.Hidden,
		Form: hidMeta.Form, BaseID: baseOf(hidMeta.Form, hidMeta.BaseID), Payload: depContent}
	if dep.Form == docstore.FormDelta {
		baseContent, err := n.decode(&n.applyScratch, dep.BaseID, baseContentNoRepair)
		if err != nil {
			return
		}
		dep.Payload = delta.Compress(baseContent, depContent, delta.Options{}).Marshal()
	}
	if n.putLocked(dep, depMeta) != nil {
		return
	}
	n.mu.Lock()
	n.stats.HiddenRepaired++
	n.mu.Unlock()
}
