package cluster

import (
	"fmt"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// MemberConfig describes one dbDedup process: a node behind a Shard, its
// client listener, and optionally an oplog server out and an oplog follower
// in (the paper's Fig. 8). dbdedupd fills it from its flags;
// dedupstorm, the fault driver and the tests fill it by hand and get the
// same wiring.
type MemberConfig struct {
	// Node configures the store and the engine. Node.Dir and Node.FS are
	// the member's disk.
	Node node.Options
	// Network carries every listener and every dial of the member: client
	// API, handoff pushes, oplog server, follower. nil is TCP. Its Timing
	// is the oplog server's and the follower's clocks.
	Network netsim.Network
	// Listen is the client API address.
	Listen string
	// Ring is the ring the member's Shard starts under. nil is the
	// ring-less ring: the member owns every database it holds, which is a
	// standalone node, until a rebalance puts it in a ring. Self is the
	// member's name in rings (empty: the address Listen bound).
	Ring *Ring
	Self string
	// ReplListen, when set, is where the node's oplog is served.
	ReplListen string
	// Follow, when set, is the oplog server this member follows from
	// sequence zero.
	Follow string
}

// Member is a running process. Oplog and Follower are nil for what the
// configuration left out.
type Member struct {
	Node     *node.Node
	Shard    *Shard
	API      *apiserver.Server
	Oplog    *repl.Primary
	Follower *repl.Secondary

	disk faultfs.FS
}

// StartMember opens the node and starts, in this order, the shard, the
// client listener, the oplog server and the follower. A failure closes what
// was started and is returned, so the same Dir opens again.
func StartMember(cfg MemberConfig) (*Member, error) {
	n, err := node.Open(cfg.Node)
	if err != nil {
		return nil, fmt.Errorf("opening node: %w", err)
	}
	m := &Member{Node: n, disk: cfg.Node.FS}
	fail := func(what string, err error) (*Member, error) {
		m.Close()
		return nil, fmt.Errorf("%s: %w", what, err)
	}

	if cfg.Ring == nil {
		cfg.Ring = NewRing(0, nil)
	}
	m.Shard = NewShard(n, cfg.Self, cfg.Ring, cfg.Network)
	if m.API, err = apiserver.ListenAndServeBackend(m.Shard, cfg.Listen, apiserver.Options{Network: cfg.Network}); err != nil {
		return fail("client listener", err)
	}
	if cfg.Self == "" {
		// A listener on an OS-assigned port learns its address by binding.
		m.Shard.SetSelf(m.API.Addr())
	}
	if cfg.ReplListen != "" {
		if m.Oplog, err = repl.ListenAndServeNetwork(n, cfg.ReplListen, cfg.Network); err != nil {
			return fail("replication listener", err)
		}
	}
	if cfg.Follow != "" {
		if m.Follower, err = repl.ConnectNetwork(n, cfg.Follow, cfg.Network); err != nil {
			return fail("following "+cfg.Follow, err)
		}
	}
	return m, nil
}

// StartRing starts n members from one configuration, each on the address its
// listener picks (cfg.Listen is "127.0.0.1:0" or the like) and named after
// it, and installs the epoch-1 ring across them through the rebalance
// coordinator, not by hand.
func StartRing(n int, cfg MemberConfig) ([]*Member, error) {
	cfg.Ring, cfg.Self = nil, ""
	var members []*Member
	var addrs []string
	fail := func(err error) ([]*Member, error) {
		for _, m := range members {
			m.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		m, err := StartMember(cfg)
		if err != nil {
			return fail(err)
		}
		members, addrs = append(members, m), append(addrs, m.Addr())
	}
	if _, err := Rebalance(addrs, addrs, cfg.Network); err != nil {
		return fail(fmt.Errorf("cluster bootstrap: %w", err))
	}
	return members, nil
}

// Addr is the client API address.
func (m *Member) Addr() string { return m.API.Addr() }

// Close stops the member in reverse order of starting. The node goes last,
// so everything it buffered is flushed, and its error is the one returned.
func (m *Member) Close() error {
	if m.Follower != nil {
		m.Follower.Close()
	}
	if m.Oplog != nil {
		m.Oplog.Close()
	}
	if m.API != nil {
		m.API.Close()
	}
	return m.Node.Close()
}

// Kill is process death at this moment: the disk stops taking writes, then
// the member is torn down, so nothing it still buffered gets out. The
// member's Node.FS must be a *faultfs.Injector; a StartMember on that
// injector's inner filesystem is the restarted process.
func (m *Member) Kill() {
	m.disk.(*faultfs.Injector).Crash()
	m.Close()
}
