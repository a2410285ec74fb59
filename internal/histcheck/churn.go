package histcheck

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"dbdedup/internal/workload"
)

// Outcome is what a harness makes of a failed operation.
type Outcome int

const (
	NotApplied Outcome = iota // a typed answer: the operation did not happen
	Uncertain                 // it may or may not have applied
	Fatal                     // nothing in the schedule explains this error
)

// Mix is what differs between the harnesses' churn: the cumulative roll
// thresholds below which a step inserts, updates or deletes (at or above
// Delete it reads), and the minimum size of a fresh document.
type Mix struct {
	Insert, Update, Delete float64
	BaseSize               int
}

// Target is what churn is issued against: a node, or the cluster router.
type Target interface {
	View
	Insert(db, key string, val []byte) error
	Update(db, key string, val []byte) error
	Delete(db, key string) error
}

// doc is a key churn may still touch, with the bytes to derive edits from.
type doc struct {
	key string
	val []byte
}

// Churn issues a seed-pinned insert/update/delete/read mix and records every
// outcome in a History. A key with an uncertain outcome is quarantined
// (never picked again), so its allowed states stay the two the failure left.
type Churn struct {
	hist     *History
	rng      *rand.Rand
	dbs      []string
	mix      Mix
	classify func(error) Outcome
	// live is kept in slices so rng picks are reproducible (map iteration
	// is not).
	live  map[string][]doc
	next  int
	trace hash.Hash64
}

// NewChurn returns a churn over dbs drawing from rng. classify is consulted
// for every non-nil error.
func NewChurn(h *History, rng *rand.Rand, dbs []string, mix Mix, classify func(error) Outcome) *Churn {
	return &Churn{hist: h, rng: rng, dbs: dbs, mix: mix, classify: classify,
		live: make(map[string][]doc), trace: fnv.New64a()}
}

// TraceDigest is the FNV-64a of every write issued so far (kind, db, key,
// content length, content hash). Where no operation can fail it is a pure
// function of the seed, which is what pins "seed N names schedule N".
func (c *Churn) TraceDigest() uint64 { return c.trace.Sum64() }

// Step draws one operation, issues it against t and records the outcome. A
// non-nil error ends the schedule: an unexplained failure, or a read that
// saw a state the history does not allow.
func (c *Churn) Step(t Target) error {
	db := c.dbs[c.rng.Intn(len(c.dbs))]
	keys := c.live[db]
	roll := c.rng.Float64()
	switch {
	case roll < c.mix.Insert || len(keys) == 0:
		key := fmt.Sprintf("k%06d", c.next)
		c.next++
		var val []byte
		if len(keys) > 0 && c.rng.Float64() < 0.8 {
			// Derived content: the engine forward-encodes these, so the
			// wire carries deltas and a secondary resolves bases.
			src := keys[c.rng.Intn(len(keys))].val
			val = workload.Revise(c.rng, src, 1+c.rng.Intn(2), 40)
		} else {
			val = workload.RevisionText(c.rng, c.mix.BaseSize+c.rng.Intn(1024))
		}
		return c.settle("insert", t.Insert(db, key, val), db, -1, key, val)
	case roll < c.mix.Update:
		i := c.rng.Intn(len(keys))
		val := workload.Revise(c.rng, keys[i].val, 1, 40)
		return c.settle("update", t.Update(db, keys[i].key, val), db, i, keys[i].key, val)
	case roll < c.mix.Delete:
		i := c.rng.Intn(len(keys))
		return c.settle("delete", t.Delete(db, keys[i].key), db, i, keys[i].key, nil)
	default:
		// Read-your-writes: a successful read of a live key must see its
		// acknowledged value whichever copy answers.
		key := keys[c.rng.Intn(len(keys))].key
		got, err := t.Get(db, key)
		if err == nil {
			if bad := c.hist.judge(Key{db, key}, got, true); bad != nil {
				return fmt.Errorf("read mid-schedule: %w", *bad)
			}
		} else if c.classify(err) == Fatal {
			return fmt.Errorf("read %s/%s: %w", db, key, err)
		}
		return nil
	}
}

// settle traces a write and records its outcome. i is the key's position in
// its database's live list, or -1 for an insert.
func (c *Churn) settle(op string, err error, db string, i int, key string, val []byte) error {
	fmt.Fprintf(c.trace, "%s %s %s %d %x\n", op, db, key, len(val), holding(val).hash)
	keys := c.live[db]
	drop := func() {
		keys[i] = keys[len(keys)-1]
		c.live[db] = keys[:len(keys)-1]
	}
	if err == nil {
		c.hist.Acked(db, key, val)
		switch {
		case val == nil:
			drop()
		case i < 0:
			c.live[db] = append(keys, doc{key, val})
		default:
			keys[i].val = val
		}
		return nil
	}
	switch c.classify(err) {
	case Uncertain:
		c.hist.Ambiguous(db, key, val, false)
		if i >= 0 {
			drop()
		}
	case Fatal:
		return fmt.Errorf("%s %s/%s: unexpected error: %w", op, db, key, err)
	}
	return nil // NotApplied: for an insert the key name is burned, nothing else
}
