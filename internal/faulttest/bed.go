package faulttest

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
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

// slot is one process of the bed: how it is started, the disk that outlives
// it, and the running Member (nil while it is down).
type slot struct {
	*cluster.Member
	name  string
	cfg   cluster.MemberConfig
	inner faultfs.FS // nil: the node keeps a private in-memory disk and a kill loses it
	tear  int64      // seed of the injector's torn-write draws
	rules []faultfs.Rule
	inj   *faultfs.Injector
}

// bed is one schedule's deployment and everything the run learns about it.
type bed struct {
	row  *class
	sch  Schedule
	mesh *netsim.Mesh
	rng  *rand.Rand // the traffic's draws: churn, outage windows, pacing, scripts

	members  []*slot
	follower *slot           // m0's follower
	slots    []*slot         // members, then the follower
	cc       *cluster.Client // the router client of a cluster bed
	stale    *cluster.Client // a second router, dialed with cc and first used by the verdict
	hist     *histcheck.History
	churn    *histcheck.Churn
	stopMon  func() error

	mu       sync.Mutex // problems: hooks beside a rebalance report too
	problems []error

	outageLeft, outages int // outages(): ops left in the open window, windows so far

	moved                        bool // the membership driver has been started
	moving                       sync.WaitGroup
	rebalances, failedRebalances int

	// Scripted traffic: the process died at a crash point (every later call
	// is a no-op), and the oplog sequence of the last acknowledged mutation.
	dead    bool
	lastAck uint64

	kills, diskFaults int
	census            Result // m0's Crashed, Counts and Events when its process ended
}

// nodeOptions is the one node configuration. Nothing runs behind the traffic
// (each mutation waits for its encode job; no idle flusher or compactor), so
// what a member writes is a function of the traffic.
func nodeOptions(oplog int) node.Options {
	o := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: oplog}
	o.Engine.GovernorWindow = 1 << 30
	return o
}

// build starts the row's deployment. What fails to start is a problem of
// the run, except a fault armed on the first member's very first open:
// nothing was acknowledged then, and recovery of the directory is still
// checked.
func build(row *class, sch Schedule, pt Point) *bed {
	shape := shapes[row.topology]
	floor := histcheck.FloorAtAck
	if row.exit != lives {
		floor = histcheck.FloorAtBarrier
	}
	b := &bed{row: row, sch: sch,
		mesh: netsim.NewMesh(sch.Seed, hosts[:shape.members]...),
		rng:  rand.New(rand.NewSource(sch.Seed)),
		hist: histcheck.New(floor)}
	b.churn = histcheck.NewChurn(b.hist, b.rng, shape.dbs, shape.mix, b.classify)

	slot := func(i int, name string, cfg cluster.MemberConfig) *slot {
		s := &slot{name: name, cfg: cfg, tear: sch.Seed + int64(i)}
		s.cfg.Node = nodeOptions(shape.oplog)
		for _, d := range row.disks {
			if d != i {
				continue
			}
			// Small blocks and segments, so a short schedule crosses many
			// seals and rolls. One fault stream per disk, so no member's
			// positions depend on what another draws.
			s.inner, s.cfg.Node.Dir = faultfs.FS(faultfs.NewMemFS()), name
			s.cfg.Node.SyncWrites, s.cfg.Node.BlockSize, s.cfg.Node.SegmentSize = true, 1<<10, 8<<10
			if row.rules != nil {
				s.rules = row.rules(rand.New(rand.NewSource(sch.Seed + 7919*int64(i))))
			}
		}
		return s
	}
	for i := 0; i < shape.members; i++ {
		cfg := cluster.MemberConfig{Network: b.mesh.Host(hosts[i]), Listen: memAddrs[i]}
		if row.topology == clustered {
			// The joiner starts with no ring and no data; a rebalance
			// pulls it in.
			cfg.Self = memAddrs[i]
			if i != 3 {
				cfg.Ring = cluster.NewRing(1, base)
			}
		}
		if i == 0 && row.follows {
			cfg.ReplListen = oplogAddr
		}
		b.members = append(b.members, slot(i, hosts[i], cfg))
	}
	b.follower = slot(follower, "follower", cluster.MemberConfig{Network: b.mesh.Host(hosts[0]),
		Listen: followerAddr, Follow: oplogAddr})
	b.slots = append(b.members[:shape.members:shape.members], b.follower)

	if m0 := b.members[0]; pt.Dir != "" {
		m0.inner, m0.cfg.Node.Dir, m0.tear = faultfs.DefaultFS, pt.Dir, pt.TearSeed
	}
	if pt.Rule != nil {
		b.members[0].rules = []faultfs.Rule{*pt.Rule}
	}

	for _, s := range b.members {
		b.up(s)
	}
	if row.follows && row.topology != single && b.up(b.follower) {
		// Faults start only once the session is up: the run exercises
		// recovery, not initial-connection refusal.
		b.mesh.Sim(hosts[0]).SetProfile(row.profile)
	}
	if row.topology == clustered {
		dial := func() *cluster.Client {
			cc, err := cluster.DialCluster(base, cluster.ClientOptions{Network: b.mesh.Host("client")})
			b.note("router client", err)
			return cc
		}
		b.cc, b.stale = dial(), dial()
	}
	b.watch()
	return b
}

// note records a problem of the run: a set-up failure or a verdict.
func (b *bed) note(what string, err error) {
	if err == nil {
		return
	}
	if what != "" {
		err = fmt.Errorf("%s: %w", what, err)
	}
	b.mu.Lock()
	b.problems = append(b.problems, err)
	b.mu.Unlock()
}

func (b *bed) err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return errors.Join(b.problems...)
}

// up starts the slot's process: on its armed rules the first time, on a
// clean disk after that.
func (b *bed) up(s *slot) bool {
	if s.inner != nil {
		s.inj = faultfs.NewInjector(s.inner, s.tear, s.rules...)
		s.rules = nil
		s.cfg.Node.FS = s.inj
	}
	m, err := cluster.StartMember(s.cfg)
	if err != nil {
		if s.inj == nil || !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, faultfs.ErrCrashed) {
			b.note("starting "+s.name, err)
		}
		return false
	}
	s.Member = m
	return true
}

// down ends the slot's process, cleanly or by Kill, and keeps what its disk
// saw (of a process that never got through its first open, too).
func (b *bed) down(s *slot, kill bool) {
	if s.Member != nil {
		if kill {
			b.kills++
			s.Kill()
		} else {
			s.Close()
		}
		s.Member = nil
	}
	if s.inj != nil {
		b.diskFaults += len(s.inj.Events())
		if s == b.members[0] {
			b.census = Result{Crashed: s.inj.Crashed(), Counts: s.inj.Counts(), Events: s.inj.Events()}
		}
		s.inj = nil
	}
}

// listen brings back a member's client listener alone: its process, ring and
// memory stayed.
func (b *bed) listen(s *slot) error {
	srv, err := apiserver.ListenAndServeBackend(s.Shard, s.cfg.Listen, apiserver.Options{Network: s.cfg.Network})
	if err != nil {
		return fmt.Errorf("reviving %s: %w", s.name, err)
	}
	s.API = srv
	return nil
}

// watch holds what must only move forward to that while faults run: every
// member's active ring epoch, or the follower's applied sequence number
// (within one primary epoch and one follower process even a snapshot rebase
// only moves it forward; whoever kills either stops the watch first).
func (b *bed) watch() {
	switch {
	case b.row.topology == clustered:
		b.stopMon = histcheck.Watch("ring epoch", memAddrs, func(i int) uint64 { return b.members[i].Shard.Ring().Epoch })
	case b.follower.Member != nil:
		f := b.follower.Follower
		b.stopMon = histcheck.Watch("appliedSeq", []string{"the follower"}, func(int) uint64 { return f.AppliedSeq() })
	}
}

func (b *bed) stopWatch() (err error) {
	if b.stopMon != nil {
		err, b.stopMon = b.stopMon(), nil
	}
	return err
}

// classify is what a failed churn operation means. Against a node nothing
// can fail; through the router a typed answer did not apply and a transport
// failure may have.
func (b *bed) classify(err error) histcheck.Outcome {
	switch {
	case errors.As(err, new(*cluster.AmbiguousError)):
		return histcheck.Uncertain
	case errors.As(err, new(*apiserver.WrongShardError)), errors.As(err, new(*apiserver.ShardMovingError)),
		errors.Is(err, apiserver.ErrOverloaded):
		return histcheck.NotApplied
	case len(b.row.disks) > 0 && errors.As(err, new(*apiserver.ServerError)):
		// A write that hit an injected disk error was answered, but how
		// much of it the node kept is not the client's to know.
		return histcheck.Uncertain
	}
	return histcheck.Fatal
}

// traffic is the one loop: the row's script, or Ops churn operations with
// the row's step before each, the membership driver started a third of the
// way in, a durable barrier every tenth op where the writer will die, and
// a pause: now and then, or after every op where faults run beside a
// rebalance, so that client traffic is still flowing while their windows are
// open (in-memory ops otherwise finish before the first fault lands).
func (b *bed) traffic() {
	m0 := b.members[0]
	if m0.Member == nil || b.err() != nil {
		return
	}
	if b.row.script != nil {
		b.row.script(b)
		return
	}
	shape := shapes[b.row.topology]
	var target histcheck.Target = histcheck.NodeView{Node: m0.Node}
	if b.cc != nil {
		target = b.cc
	}
	for op := 0; op < b.sch.Ops; op++ {
		if b.row.step != nil {
			b.row.step(b, op)
		}
		if op == b.sch.Ops/3 {
			b.startMoves()
		}
		if err := b.churn.Step(target); err != nil {
			b.note("", err)
			break
		}
		if b.row.exit != lives && op%10 == 9 {
			b.Flush()
		}
		if b.row.beside != nil {
			time.Sleep(time.Duration(b.rng.Intn(1800)) * time.Microsecond)
		} else if b.rng.Intn(4) == 0 {
			time.Sleep(time.Duration(b.rng.Intn(int(shape.pause))))
		}
	}
	b.startMoves()
	b.moving.Wait()
}

// startMoves runs the row's rebalances, and what the row runs beside them,
// on the driver goroutine. The fault hooks draw from their own stream.
func (b *bed) startMoves() {
	if b.moved || len(b.row.moves) == 0 {
		return
	}
	b.moved = true
	rng := rand.New(rand.NewSource(b.sch.Seed + 7919))
	b.moving.Add(1)
	go func() {
		defer b.moving.Done()
		var beside sync.WaitGroup
		if b.row.beside != nil {
			beside.Add(1)
			go func() {
				defer beside.Done()
				b.row.beside(b, rng)
			}()
		}
		for _, target := range b.row.moves {
			if b.rebalance(target) != nil {
				break // expected on many seeds of the faulted rows; settle retries
			}
		}
		beside.Wait()
	}()
}

func (b *bed) rebalance(target []string) error {
	b.rebalances++
	_, err := cluster.Rebalance(base, target, b.mesh.Host("coord"))
	if err != nil {
		b.failedRebalances++
	}
	return err
}

// settle is heal and converge: the network is whole again, the writer's
// process ends the way the row says and its disk is opened by a new one
// (a follower it had outlives it, and meets a primary on a new epoch),
// dead listeners come back, the cluster is driven to its target membership,
// and the follower catches up. A schedule whose rebalance was torn up by
// faults converges here; that it does is itself an invariant. False means
// it did not, which is already noted.
func (b *bed) settle() bool {
	b.mesh.Heal()
	m0 := b.members[0]
	if b.row.exit != lives {
		b.note("", b.stopWatch())
		b.down(m0, b.row.exit == killed)
		if !b.up(m0) {
			return false
		}
		// A marker write proves the recovered member takes writes and
		// gives a follower a sequence to reach even when the store came
		// back empty.
		if err := m0.Node.Insert("faulttest", "restart-marker", []byte("marker")); err != nil {
			b.note("recovered member rejects writes", err)
			return false
		}
		b.hist.Acked("faulttest", "restart-marker", []byte("marker"))
	}
	for _, s := range b.members {
		if s.Member == nil {
			return false
		}
		if s.API == nil {
			if err := b.listen(s); err != nil {
				b.note("", err)
				return false
			}
		}
	}
	if n := len(b.row.moves); n > 0 {
		var err error
		for i := 0; i < 10; i++ {
			if err = b.rebalance(b.row.moves[n-1]); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			b.note(fmt.Sprintf("convergence: rebalance to %v never succeeded", b.row.moves[n-1]), err)
			return false
		}
	}
	if b.row.follows && b.follower.Member == nil {
		// No follower outlived the writer, so a new one, with no cursor,
		// meets the restarted primary, as a `dbdedupd -follow` started now
		// would. The recovered oplog does not reach back to what the store
		// holds, so the primary answers it with a snapshot.
		if !b.up(b.follower) {
			return false
		}
	}
	if b.follower.Member != nil {
		if err := b.caughtUp(); err != nil {
			b.note("convergence", err)
			return false
		}
	}
	return true
}

// caughtUp waits until the follower is on m0's oplog epoch and has applied
// exactly its last entry. Equality, not "at least": a follower that outlived
// its primary holds a higher number from the epoch that died.
func (b *bed) caughtUp() error {
	m0, f := b.members[0].Node, b.follower.Follower
	m0.Barrier()
	target, epoch := m0.Oplog().LastSeq(), m0.Oplog().Epoch()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if f.Epoch() == epoch && f.AppliedSeq() == target {
			return nil
		}
		if err := f.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d of %d after 30s", f.AppliedSeq(), target)
		}
	}
}

// owners is the cluster as the final ring places it: each key is read on,
// and each database enumerated from, the node that owns it.
type owners struct {
	ring   *cluster.Ring
	byAddr map[string]*node.Node
}

func (o owners) Get(db, key string) ([]byte, error) {
	return o.byAddr[o.ring.Owner(db)].Read(db, key)
}

func (o owners) Keys() []histcheck.Key {
	var out []histcheck.Key
	for addr, n := range o.byAddr {
		for _, k := range (histcheck.NodeView{Node: n}).Keys() {
			if o.ring.Owner(k.DB) == addr {
				out = append(out, k)
			}
		}
	}
	return out
}

// judge is the verdict, and the only place one is passed. On every bed:
// each node's scrub is clean, the history holds on every copy a client
// could have been served from, m0's follower equals it, and the watched
// counters never went back. On a cluster the copies are the router (what a
// client sees) and the owning nodes (where the bytes must live, and the only
// place a record nobody wrote can be seen), and besides: every member of the
// final ring serves that ring with no window left open, and no member holds
// a record of a database the ring places elsewhere.
func (b *bed) judge() error {
	var bad []error
	note := func(err error) {
		if err != nil {
			bad = append(bad, err)
		}
	}
	m0 := histcheck.NodeView{Node: b.members[0].Node}
	copies := map[string]histcheck.View{"on m0": m0}
	for _, s := range b.slots {
		if s.Member == nil {
			continue
		}
		if rep := s.Node.VerifyAll(); !rep.Ok() {
			note(fmt.Errorf("%s verify: %v", s.name, rep.Errors))
		}
	}
	if f := b.follower; f.Member != nil {
		note(histcheck.Err("follower against m0", histcheck.Equal(m0, histcheck.NodeView{Node: f.Node})))
		if b.cc == nil {
			copies["on the follower"] = histcheck.NodeView{Node: f.Node}
		}
	}
	if b.cc != nil {
		final := b.members[0].Shard.Ring() // m0 is in every target
		byAddr := map[string]*node.Node{}
		for i, s := range b.members {
			byAddr[memAddrs[i]] = s.Node
			if s.Shard.Pending() != nil {
				note(fmt.Errorf("member %s still has an open rebalance window after convergence", s.name))
			}
			if r := s.Shard.Ring(); final.Has(memAddrs[i]) && !r.Equal(final) {
				note(fmt.Errorf("member %s serves %v, expected %v", s.name, r, final))
			}
			for _, db := range s.Node.DBNames() {
				if n := len(s.Node.DBKeys(db)); n > 0 && final.Owner(db) != memAddrs[i] {
					note(fmt.Errorf("stray copy: member %s holds %d records of %s owned by %s", s.name, n, db, final.Owner(db)))
				}
			}
		}
		copies = map[string]histcheck.View{"via router": b.cc, "on owners": owners{final, byAddr}}
		// The churn router refreshes its ring whenever a window turns it
		// away, so whether it ends on a stale ring is a race. The second
		// router still holds the setup ring: every database the moves
		// relocated is reached through a redirect.
		if b.stale != nil {
			copies["via a router on the setup ring"] = b.stale
		}
	}
	for where, v := range copies {
		note(histcheck.Err(where, b.hist.Check(v)))
	}
	note(b.stopWatch())
	return errors.Join(bad...)
}

// result gathers the counters. It runs before close, on whatever is up.
func (b *bed) result() Result {
	res := b.census
	res.Keys, res.LimboKeys = b.hist.Count()
	res.TraceDigest = b.churn.TraceDigest()
	res.Rebalances, res.FailedRebalances, res.Kills = b.rebalances, b.failedRebalances, b.kills
	if f := b.follower; f.Member != nil {
		rm := f.Follower.Metrics()
		res.Resyncs, _ = f.Follower.Resyncs()
		res.BaseFetches = f.Follower.BaseFetches()
		res.Reconnects, res.CorruptFrames = rm.Reconnects.Total(), rm.CorruptFrames.Total()
		res.FrameSeqViolations, res.IdleOuts = rm.FrameSeqViolations.Total(), rm.IdleTimeouts.Total()
	}
	for _, cc := range []*cluster.Client{b.cc, b.stale} {
		if cc != nil {
			c := cc.Counters()
			res.Redirects, res.MovingWaits, res.Transport = res.Redirects+c.Redirects, res.MovingWaits+c.MovingWaits, res.Transport+c.Transport
		}
	}
	res.DiskFaults = b.diskFaults
	for _, s := range b.slots {
		if s.inj != nil {
			res.DiskFaults += len(s.inj.Events())
		}
		if s.Member != nil {
			res.Transfers += s.Shard.Metrics().TransferRecordsIn.Total()
		}
	}
	res.Net = b.mesh.Sim(hosts[0]).Counters()
	return res
}

func (b *bed) close() {
	b.moving.Wait()
	b.stopWatch()
	for _, cc := range []*cluster.Client{b.cc, b.stale} {
		if cc != nil {
			cc.Close()
		}
	}
	b.down(b.follower, false)
	for _, s := range b.members {
		b.down(s, false)
	}
}
