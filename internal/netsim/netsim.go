// Package netsim is the replication layer's transport seam — the network
// analogue of the storage layer's faultfs. The repl package performs every
// listen and dial through the Network interface; in production that is the
// thin TCP implementation below, and in simulation tests it is a Sim
// (sim.go): an in-memory network whose connections misbehave on a
// seed-pinned schedule — one-way and full partitions, latency and jitter,
// chunk reordering, duplicated delivery, byte corruption, and connections
// cut mid-chunk — so the replication protocol's hardening (per-frame
// checksums, heartbeats, reconnect with backoff, idempotent resume) can be
// driven through every network failure the paper's syncer must survive.
//
// The interface is the two operations the replication layer uses, Listen and
// DialTimeout, and the clocks its callers run by, Timing. Connections are
// plain net.Conn, so the protocol code is identical over TCP and over the
// simulator; the simulator honours SetDeadline and friends, which the
// hardened protocol relies on to detect silent partitions.
package netsim

import (
	"net"
	"time"
)

// Network abstracts connection establishment so the replication protocol
// can run over the real network or a simulated one.
type Network interface {
	// Listen starts accepting connections on addr (e.g. "127.0.0.1:0").
	Listen(addr string) (net.Listener, error)
	// DialTimeout connects to addr, giving up after timeout (0 = no
	// timeout).
	DialTimeout(addr string, timeout time.Duration) (net.Conn, error)
	// Timing is the clocks of the replication stream, the rebalance
	// coordinator and the router client that run over this network.
	Timing() Timing
}

// Timing holds every clock that differs between a real network and a
// simulated one, which delivers about a hundred times faster.
type Timing struct {
	// Heartbeat is how often a caught-up oplog stream sends a heartbeat, and
	// FrameWrite bounds each frame the primary writes: a wedged secondary
	// fails its connection instead of pinning a serve goroutine.
	Heartbeat, FrameWrite time.Duration
	// Fetch bounds a secondary's base-fetch round trip (dial, write, read).
	Fetch time.Duration
	// Backoff is a secondary's wait after a first transport fault, on the
	// stream or a fetch; it doubles per consecutive fault up to MaxBackoff.
	Backoff, MaxBackoff time.Duration
	// Dial bounds a secondary's dial and hello, and Idle how long its
	// stream may stay silent before the path is declared dead. A healthy
	// idle stream heartbeats well inside it.
	Dial, Idle time.Duration
	// RPC bounds a rebalance coordinator's control round trip, and Handoff
	// one member's whole handoff stream, which moves data.
	RPC, Handoff time.Duration
	// RetryBackoff is the router client's first wait before a retry that
	// needs one (a moving shard, a transport fault), doubling up to
	// MaxRetryBackoff; RoundTrip bounds each of its round trips unless the
	// caller sets its own.
	RetryBackoff, MaxRetryBackoff, RoundTrip time.Duration
}

// TCP is the direct net-backed network.
type TCP struct{}

// Default is what a nil Network resolves to.
var Default Network = TCP{}

// Listen implements Network over real TCP.
func (TCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// DialTimeout implements Network over real TCP.
func (TCP) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		return net.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// Timing implements Network: the clocks of a deployment.
func (TCP) Timing() Timing {
	return Timing{
		Heartbeat: time.Second, FrameWrite: 10 * time.Second, Fetch: 3 * time.Second,
		Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second,
		Dial: 3 * time.Second, Idle: 30 * time.Second,
		RPC: 10 * time.Second, Handoff: 5 * time.Minute,
		RetryBackoff: 5 * time.Millisecond, MaxRetryBackoff: 250 * time.Millisecond, RoundTrip: 10 * time.Second,
	}
}
