package node

import (
	"encoding/binary"
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
// key's updated bit beside the record ID; if that bit is clear, the source
// cache, whose copy of a record is its insert payload and so, for a record
// never updated, the content itself, however the store holds the record by
// now; only then the store, by a planned walk. The cache is peeked:
// a read leaves the encoder's cache as it found it. The encoder can put a
// record's insert payload back after an update removed it, which is why the
// bit and not the cache's contents says whether the cache may answer: an
// update sets it before it is acknowledged, so a read that begins after the
// ack does not look.
func (n *Node) Read(db, key string) ([]byte, error) {
	return n.AppendRead(nil, db, key)
}

// AppendRead appends the record's visible content to dst and returns the
// extended slice, the way Read finds it: the one copy of the content is the
// one into dst. On an error dst comes back unextended.
func (n *Node) AppendRead(dst []byte, db, key string) ([]byte, error) {
	start := time.Now()
	id, updated, ok := n.store.Lookup(db, key)
	n.readsTotal.Add(1)
	n.recentOps.Add(1)
	if !ok {
		return dst, ErrNotFound
	}
	if cached, hit := n.peekSource(id, updated); hit {
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

// peekSource returns the source cache's copy of a record whose key says it was
// never updated.
func (n *Node) peekSource(id uint64, updated bool) ([]byte, bool) {
	if updated || n.eng == nil || n.eng.SourceCache() == nil {
		return nil, false
	}
	return n.eng.SourceCache().Peek(id)
}

// lookup resolves (db, key) to a record ID. It takes no node lock; safe with
// or without n.mu held.
func (n *Node) lookup(db, key string) (uint64, bool) {
	id, _, ok := n.store.Lookup(db, key)
	return id, ok
}

// Has reports whether (db, key) exists. It takes no node lock.
func (n *Node) Has(db, key string) bool {
	_, ok := n.lookup(db, key)
	return ok
}

// ------------------------------------------------------------------- decode

// fetcher adapts the node to core.Fetcher. The engine needs the content a
// delta against this record would decode from — the record's base content
// (original, pre-stacked-update).
type fetcher struct{ n *Node }

// FetchDecoded returns a copy of its own: the engine builds deltas whose
// literals alias the content, and keeps them past this call.
func (f fetcher) FetchDecoded(id uint64) ([]byte, error) {
	return f.n.appendDecoded(nil, id, baseContent)
}

// Usable admits a delta source only as inserted (asInserted): the insert
// whose source the rule refuses ships raw and its write-back is skipped.
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
	// visibleContent is what a client read yields: the last stacked
	// section if there is one, ErrNotFound for a hidden record.
	visibleContent decodeMode = iota
	// baseContent is what other records decode through: the original
	// content, ignoring stacked client updates, hidden or not.
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
// The walk is planned from Store.Meta alone (form, base, stacked and hidden
// need no payload), stopping at a raw record or at a base the source cache
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
	// last marks a client read of a stacked record: its content is the
	// base's last section, not the stored form underneath.
	last bool
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
	if mode == visibleContent {
		if !ok || w.base.Hidden {
			return w, ErrNotFound
		}
		if w.base.Stacked {
			w.last = true
			return w, nil
		}
	} else if !ok {
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
		// Source record cache: a decoded base short-circuits the walk.
		// Cached content is the record's base content only when it has no
		// stacked updates. It is peeked: a read leaves the encoder's recency
		// order and counters as it found them.
		if n.eng != nil && n.eng.SourceCache() != nil && !w.base.Stacked {
			if c, hit := n.eng.SourceCache().Peek(w.baseID); hit {
				w.cached = c
				break
			}
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
		err := n.lend(h.id, planned, false, func(stored []byte) error {
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
		err = n.lend(w.baseID, w.base, w.last, build)
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

// lend calls fn with record id's stored bytes, borrowed from the store for
// the length of the call (Store.View's leaf rule applies to fn): the record's
// own stored form, which is section 0 of a stacked record, or with last set
// the last section of a stacked record, which is what a client sees of it. It
// returns errReplan when the record is gone or no longer has the form, base
// and hidden flag that planned shows (and, with last set, is no longer
// stacked).
func (n *Node) lend(id uint64, planned docstore.MetaInfo, last bool, fn func(stored []byte) error) error {
	err := errReplan
	_, viewErr := n.store.View(id, func(v docstore.Stored) {
		if v.Form != planned.Form || v.Form == docstore.FormDelta && v.BaseID != planned.BaseID ||
			v.Hidden != planned.Hidden || last && !v.Stacked {
			return
		}
		stored := v.Payload
		if v.Stacked {
			if stored, err = stackedSection(stored, last); err != nil {
				return
			}
		}
		err = fn(stored)
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
	dep, ok, err := n.store.Get(depID)
	if err != nil || !ok {
		return
	}

	// The hidden record terminates the chain: the dependant goes back to raw
	// form. Or it is delta-encoded itself: splice, the dependant as a delta
	// directly against the hidden record's own base.
	newPayload := depContent
	dep.Form, dep.BaseID = hidMeta.Form, baseOf(hidMeta.Form, hidMeta.BaseID)
	if dep.Form == docstore.FormDelta {
		baseContent, err := n.decode(&n.applyScratch, dep.BaseID, baseContentNoRepair)
		if err != nil {
			return
		}
		newPayload = delta.Compress(baseContent, depContent, delta.Options{}).Marshal()
	}

	if dep.Stacked {
		visible, err := stackedSection(dep.Payload, true)
		if err != nil {
			return
		}
		newPayload = stackPayload(newPayload, visible)
	}
	dep.Payload = newPayload
	if n.putLocked(dep, depMeta) != nil {
		return
	}
	n.mu.Lock()
	n.stats.HiddenRepaired++
	n.mu.Unlock()
}

// ------------------------------------------------------------- stacked utils

// stackedSection returns the first section of a stacked payload (the record's
// own stored form) or, when last is set, the last one (what the client sees),
// without building the section list.
func stackedSection(p []byte, last bool) ([]byte, error) {
	var sec []byte
	for len(p) > 0 {
		l, k := binary.Uvarint(p)
		if k <= 0 || uint64(len(p)-k) < l {
			return nil, errors.New("node: corrupt stacked payload")
		}
		sec, p = p[k:k+int(l)], p[k+int(l):]
		if !last {
			return sec, nil
		}
	}
	if sec == nil {
		return nil, errors.New("node: empty stacked payload")
	}
	return sec, nil
}

// stackPayload builds a stacked payload from its two sections, the record's
// own stored form and what the client sees: stacking replaces the second,
// repair the first, so a stacked record never has more.
func stackPayload(stored, visible []byte) []byte {
	out := make([]byte, 0, 2*binary.MaxVarintLen64+len(stored)+len(visible))
	out = binary.AppendUvarint(out, uint64(len(stored)))
	out = append(out, stored...)
	out = binary.AppendUvarint(out, uint64(len(visible)))
	return append(out, visible...)
}
