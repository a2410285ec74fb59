// Package histcheck is the one acked-write history and the one checker for
// the system's client-visible invariants (stated once, in DESIGN.md §14):
// no lost acked write, byte-exact reads, no resurrection, replica equality
// after convergence, monotone counters. The fault driver (faulttest: disk,
// network, membership and process faults), stormtest (overload) and this
// package's own whole-system tests record what clients were told into a
// History and hand the surviving copies to Check and Equal; none decides
// itself what state is allowed.
package histcheck

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/node"
)

// Floor says when an acknowledged state becomes the oldest state a later
// observation may surface.
type Floor int

const (
	// FloorAtAck: an ack is a promise. Where no process dies, every copy
	// is held to the latest acknowledged state.
	FloorAtAck Floor = iota
	// FloorAtBarrier: an ack is a promise only once DurableBarrier has
	// recorded a successful synced flush; a crash may surface any state
	// acknowledged at or after the last barrier.
	FloorAtBarrier
)

// Key names one record.
type Key struct{ DB, Key string }

func (k Key) String() string { return k.DB + "/" + k.Key }

// state is one value a key may read as: a content digest, or absent. Bytes
// are not kept, so an open-loop storm can track every acked payload.
type state struct {
	hash    uint64
	size    int
	present bool
}

// holding is the state of a key that reads as val.
func holding(val []byte) state {
	h := fnv.New64a()
	h.Write(val)
	return state{hash: h.Sum64(), size: len(val), present: true}
}

// hist is one key's allowed states: states[0] is the floor, later entries
// are acknowledged or ambiguous outcomes recorded since. States below the
// floor are dropped as it advances, so a key acked once costs one entry.
type hist struct {
	states  []state
	lastAck int // index of the latest acknowledged state
	// tainted marks a failed operation the process survived. The node's
	// memory and its disk can diverge for such a key (a re-insert after a
	// failed insert leaves two live record IDs), so the floor freezes.
	tainted bool
}

// raise moves the floor to the latest acknowledged state.
func (kh *hist) raise() {
	if !kh.tainted {
		kh.states = append(kh.states[:0], kh.states[kh.lastAck:]...)
		kh.lastAck = 0
	}
}

// History records, per key, what clients were told. Safe for concurrent use.
type History struct {
	floor Floor
	mu    sync.Mutex
	keys  map[Key]*hist
}

// New returns an empty history: every key reads as absent.
func New(floor Floor) *History {
	return &History{floor: floor, keys: make(map[Key]*hist)}
}

// record appends the state a write of val (nil = a delete) leaves behind.
func (h *History) record(db, key string, val []byte, acked, survived bool) {
	s := state{}
	if val != nil {
		s = holding(val)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	k := Key{db, key}
	kh := h.keys[k]
	if kh == nil {
		kh = &hist{states: []state{{}}}
		h.keys[k] = kh
	}
	kh.states = append(kh.states, s)
	kh.tainted = kh.tainted || survived
	if acked {
		kh.lastAck = len(kh.states) - 1
		if h.floor == FloorAtAck {
			kh.raise()
		}
	}
}

// Acked records a successful client operation: the key now reads as val
// (nil = deleted).
func (h *History) Acked(db, key string, val []byte) { h.record(db, key, val, true, false) }

// Ambiguous records a failed operation that may or may not have applied: the
// key may read as its prior state or as val. processDied separates a failure
// that killed the process (nothing diverges further) from an error it
// survived, which taints the key. A definite "not applied" records nothing.
func (h *History) Ambiguous(db, key string, val []byte, processDied bool) {
	h.record(db, key, val, false, !processDied)
}

// DurableBarrier records a successful synced flush: every untainted key's
// latest acknowledged state must now survive a crash.
func (h *History) DurableBarrier() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, kh := range h.keys {
		kh.raise()
	}
}

// Count returns how many keys must read as exactly one present value (live)
// and how many have more than one allowed state (uncertain).
func (h *History) Count() (live, uncertain int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, kh := range h.keys {
		if len(kh.states) > 1 {
			uncertain++
		} else if kh.states[0].present {
			live++
		}
	}
	return live, uncertain
}

// Kind types a violation.
type Kind string

const (
	Lost         Kind = "lost acked write" // absent or unreadable where a value is required
	Diverged     Kind = "diverged"         // present, but not byte-exact to any allowed state
	Resurrection Kind = "resurrection"     // present where only absence is allowed, or never written
	Regressed    Kind = "regressed"        // a monotone counter moved backwards
)

// Violation is one broken invariant, naming the record that broke it. It is
// an error: a harness returns it, a test recovers the Kind with errors.As.
type Violation struct {
	Kind   Kind
	Key    Key
	Detail string
}

func (v Violation) Error() string {
	if v.Key == (Key{}) {
		return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", v.Kind, v.Key, v.Detail)
}

// Err folds violations into one error naming the first, or nil.
func Err(where string, vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d violations, first: %w", where, len(vs), vs[0])
}

// View is one copy of the data as a reader sees it: a node, or a client
// connection to a server or to the cluster router.
type View interface {
	Get(db, key string) ([]byte, error)
}

// Lister is a View that can also enumerate what it holds. Only such a copy
// can be checked for records nobody wrote; through a client, which cannot
// enumerate, that half of the resurrection check does not exist.
type Lister interface {
	View
	Keys() []Key
}

// NodeView reads a node directly, below any server or router.
type NodeView struct{ *node.Node }

func (v NodeView) Get(db, key string) ([]byte, error) { return v.Read(db, key) }

func (v NodeView) Keys() []Key {
	var out []Key
	for _, db := range v.DBNames() {
		for _, key := range v.DBKeys(db) {
			out = append(out, Key{db, key})
		}
	}
	return out
}

func notFound(err error) bool {
	return errors.Is(err, node.ErrNotFound) || errors.Is(err, apiserver.ErrNotFound)
}

// judge holds one observation of k against its allowed states. This is the
// only place that decides whether an observed state is allowed.
func (h *History) judge(k Key, val []byte, present bool) *Violation {
	var got state
	if present {
		got = holding(val)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	kh := h.keys[k]
	if kh == nil {
		if !present {
			return nil
		}
		return &Violation{Resurrection, k, "exists but was never written"}
	}
	wantPresent := false
	for _, s := range kh.states {
		if s == got {
			return nil
		}
		wantPresent = wantPresent || s.present
	}
	detail := fmt.Sprintf("%d allowed states, tainted=%v", len(kh.states), kh.tainted)
	switch {
	case !present:
		return &Violation{Lost, k, "reads as absent; " + detail}
	case !wantPresent:
		return &Violation{Resurrection, k, fmt.Sprintf("holds %d bytes but was deleted or never acknowledged", len(val))}
	default:
		return &Violation{Diverged, k, fmt.Sprintf("holds %d bytes (%.24q...) matching none of %s", len(val), val, detail)}
	}
}

// Check holds v to the history: every recorded key must read as one of its
// allowed states, and, when v can enumerate, v must hold nothing the history
// never wrote. Violations come back in key order.
func (h *History) Check(v View) []Violation {
	var held []Key
	if l, ok := v.(Lister); ok {
		held = l.Keys()
	}
	h.mu.Lock()
	keys := make([]Key, 0, len(h.keys)+len(held))
	for k := range h.keys {
		keys = append(keys, k)
	}
	for _, k := range held {
		if h.keys[k] == nil {
			keys = append(keys, k)
		}
	}
	h.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.DB < b.DB || a.DB == b.DB && a.Key < b.Key
	})

	var out []Violation
	for _, k := range keys {
		val, err := v.Get(k.DB, k.Key)
		if err != nil && !notFound(err) {
			out = append(out, Violation{Lost, k, fmt.Sprintf("unreadable: %v", err)})
		} else if bad := h.judge(k, val, err == nil); bad != nil {
			out = append(out, *bad)
		}
	}
	return out
}

// Equal holds copy b to reference a after convergence (a primary and its
// secondary, a recovered store and its resynced replica): b must hold
// exactly a's records. It is Check against "a's records were just acked".
func Equal(a, b Lister) []Violation {
	ref := New(FloorAtAck)
	var out []Violation
	for _, k := range a.Keys() {
		val, err := a.Get(k.DB, k.Key)
		if err == nil {
			ref.Acked(k.DB, k.Key, append([]byte{}, val...)) // non-nil: an empty record is not a delete
		} else if !notFound(err) {
			out = append(out, Violation{Lost, k, fmt.Sprintf("unreadable on the reference copy: %v", err)})
		}
	}
	return append(out, ref.Check(b)...)
}
