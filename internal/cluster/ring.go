// Package cluster shards a dbDedup deployment horizontally across multiple
// primaries. The database is the shard unit: the engine's dedup state, the
// oplog's FIFO invariant, and the encoder pool's ordering are all
// per-database (DESIGN.md §6), so placing whole databases preserves every
// single-node invariant — each shard simply dedups its own slice of the
// corpus.
//
// The pieces:
//
//   - Ring (this file): a consistent-hash ring mapping database names to
//     member addresses. Placement is bit-pinned by golden-vector tests —
//     an accidental hash change would silently reshuffle every corpus and
//     crater the dedup ratio, so the hash function is versioned and frozen.
//   - Shard (shard.go): wraps a *node.Node behind the apiserver Backend
//     interface, answering operations for databases it owns and classifying
//     the rest as wrong-shard redirects (or forwarding them).
//   - Client (client.go): a cluster-aware client that follows redirects,
//     retries moving shards with bounded backoff, and caches the ring.
//   - Rebalance (rebalance.go): the coordinator that moves databases when
//     members join or leave: ring epoch bump → sources drain and
//     snapshot-transfer their moving databases → commit cutover (or abort).
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"dbdedup/internal/murmur"
)

// HashVersion names the placement function. It is part of the ring's wire
// form: members refuse to install a ring computed under a different hash, and
// the golden-vector tests pin the placement this version produces. Bump it
// only with a migration story — changing placement implicitly reshuffles
// every database in the cluster.
const HashVersion = "murmur64-r1"

// vnodes is the number of virtual points each member contributes. 64 keeps
// the max/mean placement skew under ~1.3x for small clusters while keeping
// rings tiny (a 5-member ring is 320 points).
const vnodes = 64

// ringSeed salts the placement hash so database names do not share hash
// values with other murmur users in the system.
const ringSeed = 0x47F1D9A3C55C9F2B

// Ring is an immutable cluster placement: an epoch and a sorted member list.
// Epochs are strictly monotonic per member — every membership change, commit
// or abort, installs a higher epoch, which is the invariant the model
// checker pins.
type Ring struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
	Hash    string   `json:"hash"`

	once   sync.Once   // guards points: a *Ring is shared across goroutines
	points []ringPoint // built on first Owner call, derived from Members
}

type ringPoint struct {
	point  uint64
	member string
}

// NewRing builds a ring over members at the given epoch. The member list is
// sorted and de-duplicated, so rings built from the same set compare equal
// regardless of input order.
func NewRing(epoch uint64, members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	return &Ring{Epoch: epoch, Members: uniq, Hash: HashVersion}
}

// build materialises the vnode point table, exactly once per ring.
func (r *Ring) build() {
	r.once.Do(func() {
		if len(r.Members) == 0 {
			return
		}
		pts := make([]ringPoint, 0, len(r.Members)*vnodes)
		for _, m := range r.Members {
			for v := 0; v < vnodes; v++ {
				p := murmur.Sum64([]byte(m+"#"+strconv.Itoa(v)), ringSeed)
				pts = append(pts, ringPoint{point: p, member: m})
			}
		}
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].point != pts[j].point {
				return pts[i].point < pts[j].point
			}
			return pts[i].member < pts[j].member
		})
		r.points = pts
	})
}

// Owner returns the member that owns db, or "" on an empty ring.
func (r *Ring) Owner(db string) string {
	if r == nil || len(r.Members) == 0 {
		return ""
	}
	if len(r.Members) == 1 {
		return r.Members[0]
	}
	r.build()
	h := murmur.Sum64([]byte(db), ringSeed)
	// First point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Has reports whether member is part of the ring.
func (r *Ring) Has(member string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.Members, member)
	return i < len(r.Members) && r.Members[i] == member
}

// Equal reports whether two rings describe the same placement at the same
// epoch.
func (r *Ring) Equal(o *Ring) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.Epoch != o.Epoch || len(r.Members) != len(o.Members) {
		return false
	}
	for i := range r.Members {
		if r.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// Marshal renders the ring's wire form.
func (r *Ring) Marshal() []byte {
	buf, _ := json.Marshal(r)
	return buf
}

// UnmarshalJSON decodes a ring's wire form, wherever it is embedded. Ring
// JSON arrives from outside the process, so it is held to what NewRing
// builds: a ring computed under a different placement hash is refused
// (installing one would silently remap every database), and so is an empty
// or repeated member name, which would have two members given "the same"
// membership disagree on placement. Order is normalised.
func (r *Ring) UnmarshalJSON(data []byte) error {
	type wire Ring // the same fields, without this method
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Hash != "" && w.Hash != HashVersion {
		return fmt.Errorf("cluster: ring hash %q incompatible with %q", w.Hash, HashVersion)
	}
	n := NewRing(w.Epoch, w.Members)
	if len(n.Members) != len(w.Members) {
		return fmt.Errorf("cluster: ring names an empty or repeated member: %q", w.Members)
	}
	r.Epoch, r.Members, r.Hash = n.Epoch, n.Members, n.Hash
	return nil
}

// UnmarshalRing parses a ring's wire form. JSON null is not a ring.
func UnmarshalRing(data []byte) (*Ring, error) {
	var r *Ring
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("cluster: bad ring: %w", err)
	}
	if r == nil {
		return nil, errors.New("cluster: bad ring: null")
	}
	return r, nil
}

// String renders the ring for logs and the admin page.
func (r *Ring) String() string {
	if r == nil {
		return "ring(nil)"
	}
	return fmt.Sprintf("ring(epoch=%d, %d members=%v)", r.Epoch, len(r.Members), r.Members)
}
