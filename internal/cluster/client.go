package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/netsim"
)

// maxRetries bounds a client's re-attempts after a redirect, a moving-shard
// answer, or a transport failure. The bound is the whole point: a confused
// client must surface an error, not spin forever.
const maxRetries = 8

// ClientOptions tunes the cluster-aware client. Zero values select defaults.
type ClientOptions struct {
	// Network is the transport (nil = netsim.Default, real TCP).
	Network netsim.Network
	// RetryBackoff is the initial sleep before a retry that needs one
	// (moving shard, transport failure); it doubles per retry up to
	// MaxBackoff. Redirects retry immediately. Defaults 5ms / 250ms.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Timeout bounds each round trip (default 10s).
	Timeout time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 250 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// AmbiguousError wraps an operation failure where at least one attempt died
// in transit after the request may have reached the server: the operation
// may or may not have applied. Typed server answers (wrong shard, moving,
// overloaded, not found, server error) are definite — the op did not apply
// (or, for reads, definitively failed) — and are returned bare.
type AmbiguousError struct{ Err error }

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("cluster: outcome ambiguous (an attempt may have applied): %v", e.Err)
}
func (e *AmbiguousError) Unwrap() error { return e.Err }

// Counters is a snapshot of the client's retry accounting.
type Counters struct {
	Redirects   int64 // wrong-shard answers followed
	MovingWaits int64 // moving-shard answers backed off
	Transport   int64 // transport failures redialled
	Retries     int64 // total re-attempts of any kind
	RingFetches int64 // ring refreshes performed
	Exhausted   int64 // operations that ran out of retries
}

// Client is a cluster-aware client: it caches the ring, routes each
// operation to the owning member, follows wrong-shard redirects, backs off
// moving shards, and redials around transport failures — all under a
// bounded, counted retry budget.
type Client struct {
	opts  ClientOptions
	seeds []string

	pool *apiserver.Pool // one connection per member

	mu   sync.Mutex
	ring *Ring

	redirects, movingWaits, transport atomic.Int64
	retries, ringFetches, exhausted   atomic.Int64
}

// SplitAddrs parses the comma-separated member list the command-line tools
// take (-addr, -cluster-peers) into DialCluster's argument, dropping blanks.
func SplitAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// DialCluster builds a client over the seed member addresses, fetching the
// ring from the first reachable seed. One address of a standalone member is
// the whole deployment: its ring is the ring of that one member.
func DialCluster(addrs []string, opts ClientOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no member addresses")
	}
	c := &Client{opts: opts.withDefaults(), seeds: append([]string(nil), addrs...)}
	c.pool = apiserver.NewPool(c.opts.Network, c.opts.Timeout)
	var lastErr error
	for _, a := range addrs {
		if lastErr = c.fetchRing(a); lastErr == nil {
			return c, nil
		}
	}
	c.Close()
	return nil, fmt.Errorf("cluster: no seed reachable: %w", lastErr)
}

// Close closes the connections to every member.
func (c *Client) Close() { c.pool.Close() }

// Counters snapshots the retry accounting.
func (c *Client) Counters() Counters {
	return Counters{
		Redirects:   c.redirects.Load(),
		MovingWaits: c.movingWaits.Load(),
		Transport:   c.transport.Load(),
		Retries:     c.retries.Load(),
		RingFetches: c.ringFetches.Load(),
		Exhausted:   c.exhausted.Load(),
	}
}

// Ring returns the client's cached ring.
func (c *Client) Ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// Members returns the cached ring's member addresses.
func (c *Client) Members() []string {
	return append([]string(nil), c.Ring().Members...)
}

// Member returns a pooled direct connection to one member, for per-member
// admin reads (stats, verify). The caller must not Close it.
func (c *Client) Member(addr string) (*apiserver.Client, error) { return c.pool.Get(addr) }

// fetchRing pulls addr's active ring and installs it if it is newer than the
// cached one. A ring-less member owns every database it holds, so the empty
// ring it answers with is, to a client, the ring of that member alone, under
// the address it was reached at.
func (c *Client) fetchRing(addr string) error {
	c.ringFetches.Add(1)
	conn, err := c.pool.Get(addr)
	if err != nil {
		return err
	}
	body, err := conn.RingJSON()
	if err != nil {
		return err
	}
	st, err := ParseRingStatus(body)
	if err != nil {
		return err
	}
	ring := st.Ring
	if len(ring.Members) == 0 {
		ring = NewRing(ring.Epoch, []string{addr})
	}
	c.mu.Lock()
	if c.ring == nil || ring.Epoch >= c.ring.Epoch {
		c.ring = ring
	}
	c.mu.Unlock()
	return nil
}

// ParseRingStatus decodes a member's ring-status answer, enforcing the
// placement-hash version on the active ring.
func ParseRingStatus(body []byte) (*RingStatus, error) {
	var st RingStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("cluster: bad ring status: %w", err)
	}
	if st.Ring == nil {
		return nil, errors.New("cluster: ring status missing active ring")
	}
	if st.Ring.Hash != "" && st.Ring.Hash != HashVersion {
		return nil, fmt.Errorf("cluster: ring hash %q incompatible with %q", st.Ring.Hash, HashVersion)
	}
	return &st, nil
}

// refreshRing refetches the ring, preferring the hinted member, then the
// cached membership, then the seeds.
func (c *Client) refreshRing(hint string) {
	tried := map[string]bool{}
	try := func(addr string) bool {
		if addr == "" || tried[addr] {
			return false
		}
		tried[addr] = true
		return c.fetchRing(addr) == nil
	}
	if try(hint) {
		return
	}
	for _, m := range c.Members() {
		if try(m) {
			return
		}
	}
	for _, s := range c.seeds {
		if try(s) {
			return
		}
	}
}

// do runs op against db's owner under the retry budget. definite server
// answers pass through; transport failures taint the outcome as ambiguous.
func (c *Client) do(db string, op func(*apiserver.Client) error) error {
	backoff := c.opts.RetryBackoff
	ambiguous := false
	var lastErr error
	fail := func() error {
		c.exhausted.Add(1)
		if ambiguous {
			return &AmbiguousError{Err: lastErr}
		}
		return lastErr
	}
	for attempt := 0; ; attempt++ {
		conn, err := c.pool.Get(c.Ring().Owner(db))
		if err == nil {
			err = op(conn)
		}
		if err == nil {
			return nil
		}

		var ws *apiserver.WrongShardError
		var mv *apiserver.ShardMovingError
		var se *apiserver.ServerError
		switch {
		case errors.As(err, &ws):
			// Stale ring: learn the new placement and go again. The
			// request was not performed — a redirect, not a drop.
			c.redirects.Add(1)
			lastErr = err
			if attempt >= maxRetries {
				return fail()
			}
			c.retries.Add(1)
			c.refreshRing(ws.Owner)
		case errors.As(err, &mv):
			// A rebalance holds the database; back off and re-route (the
			// refresh learns the commit when it lands).
			c.movingWaits.Add(1)
			lastErr = err
			if attempt >= maxRetries {
				return fail()
			}
			c.retries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
			c.refreshRing("")
		case errors.Is(err, apiserver.ErrNotFound),
			errors.Is(err, apiserver.ErrOverloaded),
			errors.As(err, &se):
			// Definite server answers: the operation's fate is known.
			// Overloaded is the caller's backoff policy, not ours.
			if ambiguous {
				return &AmbiguousError{Err: err}
			}
			return err
		default:
			// Transport failure: the request may or may not have been
			// processed. Retry (the pool redials) but remember the taint.
			c.transport.Add(1)
			ambiguous = true
			lastErr = err
			if attempt >= maxRetries {
				return fail()
			}
			c.retries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
			c.refreshRing("")
		}
	}
}

// Insert stores a new record on db's shard.
func (c *Client) Insert(db, key string, payload []byte) error {
	return c.do(db, func(conn *apiserver.Client) error { return conn.Insert(db, key, payload) })
}

// Update overwrites a record on db's shard.
func (c *Client) Update(db, key string, payload []byte) error {
	return c.do(db, func(conn *apiserver.Client) error { return conn.Update(db, key, payload) })
}

// Delete removes a record from db's shard.
func (c *Client) Delete(db, key string) error {
	return c.do(db, func(conn *apiserver.Client) error { return conn.Delete(db, key) })
}

// Get reads a record from db's shard.
func (c *Client) Get(db, key string) ([]byte, error) {
	var out []byte
	err := c.do(db, func(conn *apiserver.Client) error {
		b, err := conn.Get(db, key)
		if err == nil {
			out = b
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
