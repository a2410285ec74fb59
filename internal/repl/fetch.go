package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dbdedup/internal/metrics"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

// fetchClient asks the primary for full record contents over a lazily
// opened dedicated connection (the base-miss fallback of paper §4.1 fn. 4).
// It is safe to call from multiple apply workers: requests are serialised
// on one connection and every round-trip carries a deadline. A fetch error
// poisons the whole apply pool, so a transport failure is retried under the
// stream's backoff until the primary answers or the secondary closes. The
// connection's hello states the secondary's position, as the stream's does.
type fetchClient struct {
	addr    string
	timeout time.Duration
	network netsim.Network
	rm      *metrics.ReplMetrics
	bytesIn *metrics.Meter
	// backoff waits before retry number attempt; false means the secondary
	// closed meanwhile.
	backoff func(attempt int) bool
	// position is the secondary's, read for each hello.
	position func() (epoch, seq uint64)

	mu   sync.Mutex
	conn net.Conn
	fr   *frameReader
	fw   *frameWriter
}

// fetch returns the record as the primary read it, present or absent, with
// its stamp; ErrFetchUnavailable when the primary answered with an error,
// ErrFetchRefused when it is in another epoch than the secondary, and
// net.ErrClosed when the secondary closed while the fetch was retrying.
func (c *fetchClient) fetch(db, key string) (node.Stamped, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 1; ; attempt++ {
		r, err := c.fetchOnce(db, key)
		if err == nil || errors.Is(err, node.ErrFetchUnavailable) || errors.Is(err, node.ErrFetchRefused) {
			return r, err
		}
		// Transport trouble (timeout, broken or corrupted connection):
		// fetchOnce dropped the connection, so the retry redials.
		if !c.backoff(attempt) {
			return node.Stamped{}, fmt.Errorf("repl: fetch: %w", net.ErrClosed)
		}
	}
}

// fetchOnce performs one deadline-bounded request/response round-trip,
// dialling if needed. Caller holds c.mu. On transport errors the connection
// is torn down so the next attempt redials.
func (c *fetchClient) fetchOnce(db, key string) (node.Stamped, error) {
	// One deadline per round trip, a fresh connection's dial and hello
	// included, and never cleared: an idle connection has nothing for it to
	// cut, and the next round trip moves it.
	deadline := time.Now().Add(c.timeout)
	if c.conn == nil {
		epoch, seq := c.position()
		conn, fr, fw, err := dial(c.network, c.addr, deadline, c.rm, hello{helloFetch, seq, epoch})
		if err != nil {
			return node.Stamped{}, fmt.Errorf("repl: fetch dial: %w", err)
		}
		c.conn, c.fr, c.fw = conn, fr, fw
	} else {
		c.conn.SetDeadline(deadline)
	}
	req := appendLenBytes(nil, []byte(db))
	req = appendLenBytes(req, []byte(key))
	if _, err := c.fw.write(frameFetch, req); err != nil {
		c.reset()
		return node.Stamped{}, err
	}
	typ, payload, err := c.fr.read()
	if err != nil {
		countFrameError(c.rm, err)
		c.reset()
		return node.Stamped{}, err
	}
	c.bytesIn.Add(int64(len(payload) + frameHeaderSize))
	switch typ {
	case frameRecord:
		if r, rest, ok := readStamped(payload); ok && len(rest) == 0 {
			return r, nil
		}
		c.reset()
		return node.Stamped{}, errors.New("repl: corrupt fetch answer")
	case frameError:
		return node.Stamped{}, fmt.Errorf("%w: primary: %s", node.ErrFetchUnavailable, payload)
	case frameRefusal:
		// The next fetch, after the snapshot the stream's reconnect brings,
		// states the new position on a new connection.
		c.reset()
		return node.Stamped{}, node.ErrFetchRefused
	default:
		c.reset()
		return node.Stamped{}, fmt.Errorf("repl: unexpected fetch frame %q", typ)
	}
}

// reset tears down the connection so the next fetch redials. Caller holds
// c.mu.
func (c *fetchClient) reset() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.fr = nil
		c.fw = nil
	}
}

// close shuts the fetch connection down (terminal; unblocks any in-flight
// round-trip).
func (c *fetchClient) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset()
}
