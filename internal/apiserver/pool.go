package apiserver

import (
	"errors"
	"sync"
	"time"

	"dbdedup/internal/netsim"
)

// Pool keeps one Client per server address, for callers that talk to several
// cluster members: the cluster client, the rebalance coordinator, a shard
// handing its databases off. A connection is dialled when its address is first
// asked for (concurrent askers wait for the one dial), gets the pool's
// round-trip timeout, and is replaced once a round trip on it has failed in
// transit; an answer from the server, whatever it says, leaves the connection
// in place, and a failure touches no other address. Close closes every
// connection, which also fails a round trip blocked on one.
type Pool struct {
	nw      netsim.Network
	timeout time.Duration

	mu     sync.Mutex
	dialed *sync.Cond         // on mu; broadcast when a dial ends and on Close
	conns  map[string]*Client // a nil value marks an address being dialled
	closed bool
}

var errPoolClosed = errors.New("apiserver: connection pool closed")

// NewPool returns an empty pool that dials over nw (nil = real TCP) and bounds
// each round trip of its clients by timeout (0 = none).
func NewPool(nw netsim.Network, timeout time.Duration) *Pool {
	p := &Pool{nw: nw, timeout: timeout, conns: make(map[string]*Client)}
	p.dialed = sync.NewCond(&p.mu)
	return p
}

// Get returns the pool's client for addr, dialling if there is none or the
// last one broke. The client stays the pool's: callers do not Close it.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, errPoolClosed
		}
		c, ok := p.conns[addr]
		if c != nil && !c.broken.Load() {
			return c, nil
		}
		if !ok || c != nil {
			if c != nil {
				c.Close()
			}
			break
		}
		p.dialed.Wait() // someone else is dialling addr
	}
	p.conns[addr] = nil
	p.mu.Unlock()
	c, err := DialNetwork(p.nw, addr)
	if err == nil {
		c.SetTimeout(p.timeout)
	}
	p.mu.Lock()
	p.dialed.Broadcast()
	if err == nil && p.closed {
		c.Close()
		err = errPoolClosed
	}
	if err != nil {
		delete(p.conns, addr)
		return nil, err
	}
	p.conns[addr] = c
	return c, nil
}

// Close closes every pooled connection; Get fails from here on.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	p.dialed.Broadcast()
}
