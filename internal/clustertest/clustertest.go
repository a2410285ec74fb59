// Package clustertest model-checks the sharded cluster under injected
// faults. Each Schedule builds a 3-member cluster (plus a joiner) connected
// only through an in-memory netsim.Mesh, churns inserts/updates/deletes and
// reads through the cluster-aware client while a rebalance runs concurrently
// — handoff mid-insert is the norm, not the edge case — and, per class,
// while members partition, die mid-snapshot or take disk errors. After
// healing it drives the cluster to the target membership and holds it to the
// shared acked-write history (package histcheck, DESIGN.md §14) through the
// router and on the node the final ring owns each database to, plus what
// only a cluster has:
//
//   - convergence after heal: the rebalance completes and every member
//     serves the same final ring,
//   - placement: no member holds any record of a database the final ring
//     places elsewhere,
//   - ring-epoch monotonicity, sampled continuously while the schedule runs,
//   - a replica chain hanging off a member equals it after handoff traffic.
//
// Outcome accounting is explicit: a typed server answer (wrong shard,
// moving, overloaded) means the operation definitely did not apply, while a
// transport failure — or, on a member whose disk is faulted, a server error
// — means it *may* have: the history then allows either outcome and the
// churn never touches the key again. The schedule and every fault roll
// derive from one seed.
package clustertest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/cluster"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/metrics"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// Classes are the fault classes a schedule can run under.
var Classes = []string{
	"join",      // 3 → 4 members, rebalance concurrent with churn
	"leave",     // 3 → 2 members, the leaver's databases drain out
	"double",    // join then leave, two windows in one schedule
	"partition", // rebalance and churn under partial (per-host) partitions
	"peerdeath", // the joining member dies mid-snapshot and comes back
	"replica",   // a member keeps its replica chain through a rebalance
	// composed: disk, network and membership faults at once. A join under
	// per-host partition windows, a replica chain on m0, m1 and the joiner
	// file-backed on faulted disks (diskFaults). Not in it: a member
	// crash-restart mid-rebalance, because a restarted member comes back
	// ring-less (ROADMAP 4(c)), which is its own issue.
	"composed",
}

// Schedule is one seed-pinned fault-injection run.
type Schedule struct {
	Seed  int64
	Class string
	Ops   int
}

// Result reports what a converged schedule observed.
type Result struct {
	Keys          int // records live in the history at convergence
	LimboKeys     int // keys whose outcome was ambiguous
	DiskFaults    int // injected disk errors that fired (composed class)
	FinalEpoch    uint64
	Rebalances    int // coordinator attempts (>=1; faults force retries)
	Redirects     int64
	MovingWaits   int64
	Transport     int64
	Retries       int64
	TransfersIn   int64
	TransfersOut  int64
	DroppedDBs    int64
	ReplResyncs   uint64
	ReplReconnect int64
}

// hosts and member addresses are fixed: placement must be deterministic per
// seed, and the golden-vector discipline extends here — the same six
// databases move on every join/leave.
var (
	hostNames = []string{"m0", "m1", "m2", "m3"}
	memAddrs  = []string{"m0:1", "m1:1", "m2:1", "m3:1"}
	churnDBs  = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
)

type member struct {
	host, addr string
	n          *node.Node
	shard      *cluster.Shard
	srv        *apiserver.Server
	cm         *metrics.ClusterMetrics
}

func (m *member) restart(mesh *netsim.Mesh) error {
	m.srv = nil
	srv, err := apiserver.ListenAndServeBackend(m.shard, m.addr, serverOpts(mesh, m.host))
	if err != nil {
		return err
	}
	m.srv = srv
	return nil
}

func serverOpts(mesh *netsim.Mesh, host string) apiserver.Options {
	return apiserver.Options{Network: mesh.Host(host), BodyTimeout: 2 * time.Second}
}

// owners is the cluster as the final ring places it: each key is read on,
// and each database enumerated from, the node that owns it.
type owners struct {
	ring   *cluster.Ring
	byAddr map[string]*member
}

func (o owners) Get(db, key string) ([]byte, error) {
	return o.byAddr[o.ring.Owner(db)].n.Read(db, key)
}

func (o owners) Keys() []histcheck.Key {
	var out []histcheck.Key
	for _, m := range o.byAddr {
		for _, k := range (histcheck.NodeView{Node: m.n}).Keys() {
			if o.ring.Owner(k.DB) == m.addr {
				out = append(out, k)
			}
		}
	}
	return out
}

// diskFaults draws one file-backed member's transient errors at seed-chosen
// positions: six failed writes and one failed fsync. On an established
// member they land on client writes and surface as server errors. On the
// joiner they fail inbound transfers, which aborts the window, and land
// inside the DropDB that abort runs, sometimes twice running. That is the
// regression for Shard's sticky drop: with the drop's error discarded, as it
// was when PR 16's draw found this at seed 6016, seeds 6002 (in the -short
// slice) and 6010 resurrect a deleted record under this draw on every run.
func diskFaults(rng *rand.Rand) []faultfs.Rule {
	rules := []faultfs.Rule{faultfs.FailSync(1 + uint64(rng.Intn(20)))}
	for i := 0; i < 6; i++ {
		rules = append(rules, faultfs.FailWrite(1+uint64(rng.Intn(30))))
	}
	return rules
}

// Run executes one schedule to convergence. A non-nil error is an invariant
// violation (or a setup failure).
func Run(sch Schedule) (Result, error) {
	var res Result
	mesh := netsim.NewMesh(sch.Seed, hostNames...)
	rng := rand.New(rand.NewSource(sch.Seed))
	faultRng := rand.New(rand.NewSource(sch.Seed + 7919))

	baseAddrs := memAddrs[:3]
	baseRing := cluster.NewRing(1, baseAddrs)

	// Members. The joiner (m3) starts outside the ring: it owns nothing and
	// serves nothing until a rebalance pulls it in.
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 256}
	nopts.Engine.GovernorWindow = 1 << 30
	composed := sch.Class == "composed"
	var injectors []*faultfs.Injector
	members := make([]*member, len(memAddrs))
	for i, addr := range memAddrs {
		mopts := nopts
		if composed && (i == 1 || i == 3) {
			// Small blocks and segments, so 90 small ops cross many seals.
			// One disk-fault stream per member, so neither member's
			// positions depend on what the other draws.
			diskRng := rand.New(rand.NewSource(sch.Seed + 7919*int64(i)))
			inj := faultfs.NewInjector(faultfs.NewMemFS(), sch.Seed+int64(i), diskFaults(diskRng)...)
			injectors = append(injectors, inj)
			mopts.Dir, mopts.FS, mopts.SyncWrites = hostNames[i], inj, true
			mopts.BlockSize, mopts.SegmentSize = 1<<10, 8<<10
		}
		n, err := node.Open(mopts)
		if err != nil {
			return res, err
		}
		defer n.Close()
		initial := baseRing
		if i == 3 {
			initial = cluster.NewRing(0, nil)
		}
		cm := &metrics.ClusterMetrics{}
		sh := cluster.NewShard(n, addr, initial, mesh.Host(hostNames[i]), cm)
		m := &member{host: hostNames[i], addr: addr, n: n, shard: sh, cm: cm}
		if err := m.restart(mesh); err != nil {
			return res, err
		}
		members[i] = m
		defer func() {
			if m.srv != nil {
				m.srv.Close()
			}
		}()
	}
	byAddr := map[string]*member{}
	for _, m := range members {
		byAddr[m.addr] = m
	}

	// Replica chain on m0: handoff traffic in and out of m0 must flow down
	// its oplog like client writes.
	var sec *node.Node
	var secRepl *repl.Secondary
	if sch.Class == "replica" || composed {
		var err error
		sec, err = node.Open(nopts)
		if err != nil {
			return res, err
		}
		defer sec.Close()
		p, err := repl.ListenAndServeWithOptions(members[0].n, "m0repl", repl.PrimaryOptions{
			Network:           mesh.Host("m0"),
			HeartbeatInterval: 10 * time.Millisecond,
			WriteTimeout:      250 * time.Millisecond,
		})
		if err != nil {
			return res, err
		}
		defer p.Close()
		secRepl, err = repl.ConnectWithOptions(sec, p.Addr(), 0, 0, repl.Options{
			ApplyWorkers:     2,
			ApplyQueue:       64,
			FetchTimeout:     250 * time.Millisecond,
			FetchRetries:     40,
			Network:          mesh.Host("m0"),
			MaxReconnects:    100000,
			ReconnectBackoff: 2 * time.Millisecond,
			MaxBackoff:       25 * time.Millisecond,
			DialTimeout:      250 * time.Millisecond,
			IdleTimeout:      150 * time.Millisecond,
		})
		if err != nil {
			return res, err
		}
		defer secRepl.Close()
	}

	cc, err := cluster.DialCluster(baseAddrs, cluster.ClientOptions{
		Network:      mesh.Host("client"),
		MaxRetries:   10,
		RetryBackoff: 2 * time.Millisecond,
		MaxBackoff:   40 * time.Millisecond,
		// Shorter than a partition window, so an op stalled behind a
		// partition times out (an *ambiguous* outcome) instead of quietly
		// waiting the fault out — that is the interesting case.
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer cc.Close()

	// Every member's active epoch must only move forward.
	stopMon := histcheck.Watch("ring epoch", memAddrs, func(i int) uint64 { return members[i].shard.Ring().Epoch })
	defer stopMon()

	// Rebalance driver: starts a third of the way into the churn so the
	// window opens mid-insert. Faults (class-dependent) run beside it.
	rebOpts := cluster.RebalanceOptions{
		Network:        mesh.Host("coord"),
		RPCTimeout:     time.Second,
		HandoffTimeout: 20 * time.Second,
		CommitRetries:  2,
	}
	targetFor := func() []string {
		switch sch.Class {
		case "leave", "replica":
			return []string{memAddrs[0], memAddrs[1]}
		default: // join, double (first phase), partition, peerdeath, composed
			return memAddrs
		}
	}
	attempt := func(target []string) error {
		res.Rebalances++
		_, err := cluster.Rebalance(baseAddrs, target, rebOpts)
		return err
	}

	var drvWG sync.WaitGroup
	startDriver := func() {
		drvWG.Add(1)
		go func() {
			defer drvWG.Done()
			switch sch.Class {
			case "peerdeath":
				// Kill the joiner mid-snapshot: the handoff stream dies,
				// the coordinator aborts, nothing is lost, and after
				// revival the join completes.
				var killWG sync.WaitGroup
				killWG.Add(1)
				go func() {
					defer killWG.Done()
					time.Sleep(time.Duration(2+faultRng.Intn(25)) * time.Millisecond)
					mesh.SetDown("m3", true)
					if members[3].srv != nil {
						members[3].srv.Close()
						members[3].srv = nil
					}
					time.Sleep(time.Duration(40+faultRng.Intn(80)) * time.Millisecond)
					mesh.SetDown("m3", false)
					members[3].restart(mesh)
				}()
				attempt(targetFor()) // expected to fail on many seeds
				killWG.Wait()
			case "partition", "composed":
				var partWG sync.WaitGroup
				partWG.Add(1)
				go func() {
					defer partWG.Done()
					for w := 0; w < 1+faultRng.Intn(2); w++ {
						time.Sleep(time.Duration(faultRng.Intn(15)) * time.Millisecond)
						h := hostNames[faultRng.Intn(len(hostNames))]
						mesh.Sim(h).SetPartition(netsim.PartitionBoth)
						time.Sleep(time.Duration(150+faultRng.Intn(150)) * time.Millisecond)
						mesh.Sim(h).Heal()
					}
				}()
				attempt(targetFor())
				partWG.Wait()
			case "double":
				if err := attempt(memAddrs); err == nil {
					attempt([]string{memAddrs[0], memAddrs[2], memAddrs[3]})
				}
			case "replica":
				// Leave then rejoin: m0 first gains the leaver's databases
				// (handoff in → its replica chain copies them) and then
				// sheds them back (drop deletes → the chain forgets them).
				if err := attempt(targetFor()); err == nil {
					attempt(baseAddrs)
				}
			default:
				attempt(targetFor())
			}
		}()
	}

	// Churn through the router while all of the above happens.
	classify := func(err error) histcheck.Outcome {
		var amb *cluster.AmbiguousError
		var ws *apiserver.WrongShardError
		var mv *apiserver.ShardMovingError
		var se *apiserver.ServerError
		switch {
		case errors.As(err, &amb):
			return histcheck.Uncertain
		case errors.As(err, &ws), errors.As(err, &mv), errors.Is(err, apiserver.ErrOverloaded):
			return histcheck.NotApplied
		case composed && errors.As(err, &se):
			// A write that hit an injected disk error was answered, but
			// how much of it the node kept is not the client's to know.
			return histcheck.Uncertain
		}
		return histcheck.Fatal
	}
	hist := histcheck.New(histcheck.FloorAtAck)
	churn := histcheck.NewChurn(hist, rng, churnDBs,
		histcheck.Mix{Insert: 0.50, Update: 0.72, Delete: 0.85, BaseSize: 512}, classify)

	driverStarted := false
	finalTarget := targetFor()
	switch sch.Class {
	case "double":
		finalTarget = []string{memAddrs[0], memAddrs[2], memAddrs[3]}
	case "replica":
		finalTarget = baseAddrs
	}
	for op := 0; op < sch.Ops; op++ {
		if !driverStarted && op == sch.Ops/3 {
			driverStarted = true
			startDriver()
		}
		if err := churn.Step(cc); err != nil {
			return res, err
		}
		// Fault classes pace the churn so client traffic is still flowing
		// while the injected windows are open; in-memory ops otherwise
		// finish before the first fault lands.
		switch sch.Class {
		case "partition", "peerdeath", "composed":
			time.Sleep(time.Duration(rng.Intn(1800)) * time.Microsecond)
		default:
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
	}
	if !driverStarted {
		startDriver()
	}
	drvWG.Wait()

	// Heal everything and drive the cluster to the target membership. A
	// schedule whose rebalance was torn up by faults converges here — that
	// convergence is itself the invariant.
	mesh.Heal()
	mesh.SetDown("m3", false)
	for _, m := range members {
		if m.srv == nil {
			if err := m.restart(mesh); err != nil {
				return res, fmt.Errorf("reviving %s: %w", m.addr, err)
			}
		}
	}
	var finalErr error
	for i := 0; i < 10; i++ {
		if finalErr = attempt(finalTarget); finalErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if finalErr != nil {
		return res, fmt.Errorf("convergence: rebalance to %v never succeeded: %w", finalTarget, finalErr)
	}

	// Every member must now serve the same committed ring.
	finalRing := byAddr[finalTarget[0]].shard.Ring()
	for _, m := range members {
		r := m.shard.Ring()
		if m.shard.Pending() != nil {
			return res, fmt.Errorf("member %s still has an open rebalance window after convergence", m.addr)
		}
		if finalRing.Has(m.addr) && !r.Equal(finalRing) {
			return res, fmt.Errorf("member %s serves %v, expected %v", m.addr, r, finalRing)
		}
	}
	res.FinalEpoch = finalRing.Epoch

	// First through the router (what a client sees), then on the owning
	// nodes directly (where the bytes must live, and the only place a
	// record nobody wrote can be seen), then placement: no stray copies.
	if err := histcheck.Err("via router", hist.Check(cc)); err != nil {
		return res, err
	}
	if err := histcheck.Err("on owners", hist.Check(owners{finalRing, byAddr})); err != nil {
		return res, err
	}
	res.Keys, res.LimboKeys = hist.Count()
	for _, m := range members {
		for _, db := range m.n.DBNames() {
			if n := len(m.n.DBKeys(db)); n > 0 && finalRing.Owner(db) != m.addr {
				return res, fmt.Errorf("stray copy: member %s holds %d records of %s owned by %s", m.addr, n, db, finalRing.Owner(db))
			}
		}
	}
	for _, m := range members {
		if rep := m.n.VerifyAll(); !rep.Ok() {
			return res, fmt.Errorf("member %s verify: %v", m.addr, rep.Errors)
		}
	}

	// Replica chain: m0's secondary must equal m0 — including records m0
	// gained by handoff (transfers emit oplog) and excluding databases m0
	// shed at cutover (drops emit oplog deletes).
	if sec != nil {
		members[0].n.Barrier()
		target := members[0].n.Oplog().LastSeq()
		if err := secRepl.WaitForSeq(target, 30*time.Second); err != nil {
			return res, fmt.Errorf("replica convergence: %w", err)
		}
		vs := histcheck.Equal(histcheck.NodeView{Node: members[0].n}, histcheck.NodeView{Node: sec})
		if err := histcheck.Err("replica of m0", vs); err != nil {
			return res, err
		}
		if rep := sec.VerifyAll(); !rep.Ok() {
			return res, fmt.Errorf("replica verify: %v", rep.Errors)
		}
		res.ReplResyncs, _ = secRepl.Resyncs()
		res.ReplReconnect = secRepl.Metrics().Reconnects.Total()
	}

	if err := stopMon(); err != nil {
		return res, err
	}
	for _, inj := range injectors {
		res.DiskFaults += len(inj.Events())
	}

	ctrs := cc.Counters()
	res.Redirects = ctrs.Redirects
	res.MovingWaits = ctrs.MovingWaits
	res.Transport = ctrs.Transport
	res.Retries = ctrs.Retries
	for _, m := range members {
		res.TransfersIn += m.cm.TransferRecordsIn.Total()
		res.TransfersOut += m.cm.TransferRecordsOut.Total()
		res.DroppedDBs += m.cm.DroppedDBs.Total()
	}
	return res, nil
}
