package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/netsim"
)

// commitRetries is how many times a failed per-member commit is retried
// before the member is left for recovery.
const commitRetries = 3

// Rebalance drives the cluster reachable through seeds to the target
// membership:
//
//	recover any window a dead coordinator left → epoch bump (InstallRing on
//	every involved member) → BeginHandoff on every member (sources drain and
//	snapshot-stream their moving databases) → CommitRing everywhere.
//
// The safety rules the protocol leans on, enforced member-side by Shard:
//
//   - A destination never serves a gained database before commit, and a
//     source never deletes a moved database before commit — so aborting at
//     any point before the first commit loses nothing.
//   - After the first successful commit the window is never aborted; a
//     member that cannot be committed is left with its window open (its
//     databases answer retry-later, unavailable but intact) for a later
//     Rebalance call to recover.
//
// Every member of the old and new membership must be reachable; a rebalance
// against a partitioned cluster fails cleanly (abort) rather than guessing.
// The coordinator dials over nw (nil is TCP), whose Timing bounds each
// control RPC and, longer, each member's handoff stream, which moves data.
// Returns the committed ring.
func Rebalance(seeds, target []string, nw netsim.Network) (*Ring, error) {
	if len(target) == 0 {
		return nil, errors.New("cluster: empty target membership")
	}
	nw = cmp.Or(nw, netsim.Default)
	co := &coordinator{tm: nw.Timing()}
	co.pool = apiserver.NewPool(nw, co.tm.RPC)
	defer co.pool.Close()

	base, err := co.recover(union(seeds, target))
	if err != nil {
		return nil, err
	}
	if sameMembers(base.Members, target) {
		return base, nil
	}
	next := NewRing(base.Epoch+1, target)
	members := union(base.Members, next.Members)

	// Phase 1: install the proposed ring everywhere. From this point every
	// moving database is write-frozen cluster-wide.
	body := next.Marshal()
	for _, m := range members {
		if err := co.call(m, func(c *apiserver.Client) error { return c.InstallRingJSON(body) }); err != nil {
			co.abort(members)
			return nil, fmt.Errorf("cluster: install on %s: %w", m, err)
		}
	}
	// Phase 2: every member drains and streams out what it loses.
	for _, m := range members {
		if err := co.handoff(m); err != nil {
			co.abort(members)
			return nil, fmt.Errorf("cluster: handoff from %s: %w", m, err)
		}
	}
	// Phase 3: commit. Past the first success there is no going back —
	// failures leave that member's window open for recovery, never abort.
	var uncommitted []string
	for _, m := range members {
		var err error
		for i := 0; i <= commitRetries; i++ {
			if err = co.call(m, func(c *apiserver.Client) error { return c.CommitRing() }); err == nil {
				break
			}
		}
		if err != nil {
			uncommitted = append(uncommitted, m)
		}
	}
	if len(uncommitted) > 0 {
		return next, fmt.Errorf("cluster: ring %d committed except on %v; re-run rebalance to recover", next.Epoch, uncommitted)
	}
	return next, nil
}

type coordinator struct {
	tm   netsim.Timing
	pool *apiserver.Pool
}

// call runs one short RPC against addr.
func (co *coordinator) call(addr string, fn func(*apiserver.Client) error) error {
	c, err := co.pool.Get(addr)
	if err != nil {
		return err
	}
	return fn(c)
}

func (co *coordinator) handoff(addr string) error {
	return co.call(addr, func(c *apiserver.Client) error {
		c.SetTimeout(co.tm.Handoff)
		defer c.SetTimeout(co.tm.RPC)
		return c.BeginHandoff()
	})
}

// abort best-effort reverts an uncommitted window on every member. Safe by
// construction: nothing has been committed when abort is reachable, so no
// source has deleted anything yet.
func (co *coordinator) abort(members []string) {
	for _, m := range members {
		co.call(m, func(c *apiserver.Client) error { return c.AbortRing() })
	}
}

// recover inspects every member and resolves any rebalance window a previous
// coordinator left open: if any member already committed the window's ring,
// the commit is finished on the stragglers; if nobody did, the window is
// aborted everywhere. Requires all involved members reachable — deciding
// commit-vs-abort with a member missing could throw away the only copy of a
// handed-off database. Returns the highest committed ring.
func (co *coordinator) recover(members []string) (*Ring, error) {
	status := map[string]*RingStatus{}
	var unreachable []string
	for _, m := range members {
		st, err := co.ringStatus(m)
		if err != nil {
			unreachable = append(unreachable, m)
			continue
		}
		status[m] = st
	}
	if len(status) == 0 {
		return nil, fmt.Errorf("cluster: no member reachable (tried %v)", members)
	}

	// The set of members that matter: everything we were given plus every
	// membership named by an active or pending ring.
	involved := members
	for _, st := range status {
		involved = union(involved, st.Ring.Members)
		if st.Pending != nil {
			involved = union(involved, st.Pending.Members)
		}
	}
	for _, m := range involved {
		if status[m] == nil && !contains(unreachable, m) {
			st, err := co.ringStatus(m)
			if err != nil {
				unreachable = append(unreachable, m)
				continue
			}
			status[m] = st
		}
	}

	var base *Ring
	var pend *Ring
	for _, st := range status {
		if base == nil || st.Ring.Epoch > base.Epoch {
			base = st.Ring
		}
		if st.Pending != nil && (pend == nil || st.Pending.Epoch > pend.Epoch) {
			pend = st.Pending
		}
	}
	if pend == nil {
		// No window anywhere. But a healthy rebalance still needs everyone.
		if len(unreachable) > 0 {
			return nil, fmt.Errorf("cluster: members unreachable: %v", unreachable)
		}
		return base, nil
	}
	if len(unreachable) > 0 {
		return nil, fmt.Errorf("cluster: cannot recover open rebalance window (epoch %d) with members unreachable: %v", pend.Epoch, unreachable)
	}
	if pend.Epoch < base.Epoch {
		// Every open window is older than a committed ring: superseded, and
		// by construction never committed anywhere (a commit would have left
		// an active ring at its epoch, making it the live case below). Abort
		// the leftovers explicitly — leaving them for a future InstallRing
		// to abandon strands them forever when this Rebalance returns early
		// because the membership already matches, keeping those members'
		// moving databases write-frozen indefinitely.
		for m, st := range status {
			if st.Pending == nil {
				continue
			}
			if err := co.call(m, func(c *apiserver.Client) error { return c.AbortRing() }); err != nil {
				return nil, fmt.Errorf("cluster: aborting superseded window on %s: %w", m, err)
			}
		}
		return co.tip(status)
	}
	// pend.Epoch >= base.Epoch: a live window. Equality means some member
	// already committed it (its active ring sits at the window's epoch), so
	// the loop below finishes the commit on the stragglers instead of
	// leaving them frozen.

	committed := false
	for _, st := range status {
		if st.Ring.Epoch == pend.Epoch {
			committed = true
			break
		}
	}
	for m, st := range status {
		if st.Pending == nil {
			continue
		}
		var err error
		if committed && st.Pending.Epoch == pend.Epoch {
			err = co.call(m, func(c *apiserver.Client) error { return c.CommitRing() })
		} else {
			err = co.call(m, func(c *apiserver.Client) error { return c.AbortRing() })
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: recovering window on %s: %w", m, err)
		}
	}
	if committed {
		return pend, nil
	}
	// Aborts bumped epochs; refetch the tip.
	return co.tip(status)
}

// tip re-reads every member's active ring and returns the highest. Aborts
// bump epochs, so any base computed before them is stale.
func (co *coordinator) tip(status map[string]*RingStatus) (*Ring, error) {
	var base *Ring
	for m := range status {
		st, err := co.ringStatus(m)
		if err != nil {
			return nil, fmt.Errorf("cluster: re-reading %s after abort: %w", m, err)
		}
		if base == nil || st.Ring.Epoch > base.Epoch {
			base = st.Ring
		}
	}
	return base, nil
}

func (co *coordinator) ringStatus(addr string) (*RingStatus, error) {
	var st *RingStatus
	err := co.call(addr, func(c *apiserver.Client) error {
		body, err := c.RingJSON()
		if err != nil {
			return err
		}
		st, err = ParseRingStatus(body)
		return err
	})
	return st, err
}

// union merges and sorts member lists.
func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range append(append([]string(nil), a...), b...) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func sameMembers(a, b []string) bool {
	ua, ub := union(a, nil), union(b, nil)
	if len(ua) != len(ub) {
		return false
	}
	for i := range ua {
		if ua[i] != ub[i] {
			return false
		}
	}
	return true
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
