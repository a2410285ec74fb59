package apiserver

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/netsim"
)

// gatedNet is real TCP that counts dials and holds each one after the first
// free ones until gate closes.
type gatedNet struct {
	netsim.TCP
	dials atomic.Int64
	free  int64
	gate  chan struct{}
}

func (g *gatedNet) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	if g.dials.Add(1) > g.free {
		<-g.gate
	}
	return g.TCP.DialTimeout(addr, timeout)
}

// TestPoolDialsAnAddressOnce: any number of concurrent Gets of one address
// share one dial and one client, whether they arrive while it is in progress
// or after it.
func TestPoolDialsAnAddressOnce(t *testing.T) {
	srv, _ := testServer(t)
	nw := &gatedNet{gate: make(chan struct{})}
	p := NewPool(nw, time.Second)
	defer p.Close()

	const askers = 16
	got := make([]*Client, askers)
	var started, done sync.WaitGroup
	started.Add(askers)
	done.Add(askers)
	for i := range got {
		go func(i int) {
			defer done.Done()
			started.Done()
			c, err := p.Get(srv.Addr())
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}(i)
	}
	started.Wait()
	for nw.dials.Load() == 0 { // the first asker is inside its dial, the rest behind it or on their way
		time.Sleep(time.Millisecond)
	}
	close(nw.gate)
	done.Wait()
	if n := nw.dials.Load(); n != 1 {
		t.Errorf("%d concurrent Gets of one address dialled %d times, want 1", askers, n)
	}
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("asker %d got client %p, asker 0 got %p", i, c, got[0])
		}
	}
	if err := got[0].Insert("db", "k", []byte("through the pooled client")); err != nil {
		t.Error(err)
	}
}

// TestPoolReplacesOnlyABrokenConnection: an answer from the server, even an
// error, leaves the pooled connection in place; a round trip that dies in
// transit gets that one address a new connection at its next Get and leaves
// every other address alone.
func TestPoolReplacesOnlyABrokenConnection(t *testing.T) {
	srvA, _ := testServer(t)
	srvB, _ := testServer(t)
	p := NewPool(nil, time.Second)
	defer p.Close()
	get := func(addr string) *Client {
		t.Helper()
		c, err := p.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := get(srvA.Addr()), get(srvB.Addr())

	if _, err := a.Get("db", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a missing key = %v", err)
	}
	if get(srvA.Addr()) != a {
		t.Fatal("a typed answer from the server cost the pool its connection")
	}

	a.conn.Close() // the connection dies under the pool
	if _, err := a.Get("db", "missing"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("round trip on a dead connection = %v, want a transport error", err)
	}
	a2 := get(srvA.Addr())
	if a2 == a {
		t.Fatal("the pool handed out a connection a round trip had failed on")
	}
	if err := a2.Insert("db", "k", []byte("on the new connection")); err != nil {
		t.Errorf("insert on the replacement connection: %v", err)
	}
	if get(srvB.Addr()) != b {
		t.Error("a failure on one address replaced another address's connection")
	}
	if err := b.Insert("db", "k", []byte("the bystander still works")); err != nil {
		t.Errorf("insert on the bystander's connection: %v", err)
	}

	// A server that is gone: the dial fails, nothing is pooled, the next Get dials again.
	srvB.Close()
	if _, err := b.Get("db", "k"); err == nil {
		t.Fatal("round trip to a closed server succeeded")
	}
	if _, err := p.Get(srvB.Addr()); err == nil {
		t.Fatal("Get of a closed server's address succeeded")
	}
	if get(srvA.Addr()) != a2 {
		t.Error("a dial failure on one address replaced another address's connection")
	}
}

// TestPoolCloseUnblocks: Close fails a round trip blocked on a pooled
// connection and a Get waiting behind a dial, and Get fails afterwards.
func TestPoolCloseUnblocks(t *testing.T) {
	// A listener that accepts and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	nw := &gatedNet{free: 1, gate: make(chan struct{})}
	p := NewPool(nw, 0) // no round-trip timeout: only Close can end the wait
	c, err := p.Get(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := c.Get("db", "k")
		blocked <- err
	}()

	// And a Get parked behind a dial that does not finish until after Close.
	srv, _ := testServer(t)
	dialing := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := p.Get(srv.Addr())
			dialing <- err
		}()
	}
	for nw.dials.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	p.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Error("the blocked round trip succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock a round trip waiting for its answer")
	}
	close(nw.gate)
	for i := 0; i < 2; i++ {
		select {
		case err := <-dialing:
			if !errors.Is(err, errPoolClosed) {
				t.Errorf("Get across Close = %v, want the pool-closed error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close left a Get waiting")
		}
	}
	if _, err := p.Get(srv.Addr()); !errors.Is(err, errPoolClosed) {
		t.Errorf("Get after Close = %v, want the pool-closed error", err)
	}
}
