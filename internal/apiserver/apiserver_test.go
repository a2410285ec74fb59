package apiserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

func testServer(t *testing.T) (*Server, *Client) {
	return testServerWith(t, nil, nil)
}

// testServerWith serves a fresh node over nw (nil: TCP) under the default
// limits as edit changes them (nil: as they are), and dials it.
func testServerWith(t *testing.T, nw netsim.Network, edit func(*limits)) (*Server, *Client) {
	t.Helper()
	lim := defaultLimits
	if edit != nil {
		edit(&lim)
	}
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	nopts.Engine.GovernorWindow = 1 << 30
	n, err := node.Open(nopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	srv, err := listenAndServe(n, "127.0.0.1:0", nw, lim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestClientCRUD(t *testing.T) {
	_, c := testServer(t)

	payload := []byte("network record payload, long enough to be chunked into features")
	if err := c.Insert("db", "k", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("db", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := c.Update("db", "k", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get("db", "k")
	if string(got) != "updated" {
		t.Fatalf("after update: %q", got)
	}
	if err := c.Delete("db", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("db", "k"); err != ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
	if err := c.Update("db", "nope", []byte("x")); err != ErrNotFound {
		t.Fatalf("update missing: %v", err)
	}
	if err := c.Delete("db", "nope"); err != ErrNotFound {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestDuplicateInsertError(t *testing.T) {
	_, c := testServer(t)
	if err := c.Insert("db", "k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	err := c.Insert("db", "k", []byte("two"))
	if err == nil || err == ErrNotFound {
		t.Fatalf("duplicate insert err = %v", err)
	}
}

func TestStatsOverWire(t *testing.T) {
	_, c := testServer(t)
	for i := 0; i < 5; i++ {
		c.Insert("db", fmt.Sprintf("k%d", i), bytes.Repeat([]byte("content "), 100))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 5 || st.RawInsertBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := c.Insert("db", key, []byte("payload "+key)); err != nil {
					t.Error(err)
					return
				}
				got, err := c.Get("db", key)
				if err != nil || string(got) != "payload "+key {
					t.Errorf("Get(%s) = %q, %v", key, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLargePayload(t *testing.T) {
	_, c := testServer(t)
	payload := bytes.Repeat([]byte("large "), 1<<18) // ~1.5 MB
	if err := c.Insert("db", "big", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("db", "big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large payload round trip failed: %v", err)
	}
}

// TestDefaultLimits pins the limits every server runs under.
func TestDefaultLimits(t *testing.T) {
	if want := (limits{8 << 20, 1024, 256 << 20, 30 * time.Second}); defaultLimits != want {
		t.Fatalf("default limits %+v, want %+v", defaultLimits, want)
	}
}

// TestOversizedRequestRejectedBeforeAllocation proves the per-request size
// cap: a frame header claiming more than maxRequestBytes is answered with an
// error and the connection closed, without the body being read — and the
// server keeps serving other clients.
func TestOversizedRequestRejectedBeforeAllocation(t *testing.T) {
	srv, healthy := testServerWith(t, nil, func(l *limits) { l.maxRequestBytes = 64 << 10 })

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30) // claims 1 GiB
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp := make([]byte, 5)
	if _, err := io.ReadFull(raw, resp); err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if resp[4] != statusError {
		t.Fatalf("oversized request status = %d, want %d", resp[4], statusError)
	}
	// The server must have closed the connection.
	one := make([]byte, 1)
	rest := make([]byte, binary.LittleEndian.Uint32(resp[:4])-1)
	if _, err := io.ReadFull(raw, rest); err != nil {
		t.Fatalf("reading rejection payload: %v", err)
	}
	if _, err := raw.Read(one); err == nil {
		t.Fatal("connection still open after oversized request")
	}

	// A legitimate client is unaffected.
	if err := healthy.Insert("db", "k", []byte("fine")); err != nil {
		t.Fatalf("healthy client after oversized peer: %v", err)
	}

	// An in-cap request still works on a fresh connection.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Insert("db", "k2", bytes.Repeat([]byte("x"), 32<<10)); err != nil {
		t.Fatalf("in-cap insert: %v", err)
	}
}

// TestStalledClientCannotWedgeServer proves the body deadline and the memory
// budget together: a client that sends a header claiming most of the memory
// budget and then stalls is disconnected after bodyTimeout, releasing its
// reservation, while a healthy client keeps being served throughout — the
// accept loop and other connections never block on the stalled one.
func TestStalledClientCannotWedgeServer(t *testing.T) {
	srv, healthy := testServerWith(t, nil, func(l *limits) {
		l.maxRequestBytes = 1 << 20
		l.memoryBudget = 2 << 20
		l.bodyTimeout = 300 * time.Millisecond
	})

	// Stalled client: claims 1 MiB (half the budget), sends nothing more.
	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<20)
	if _, err := stalled.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	// The healthy client's small requests fit the remaining budget even
	// while the big reservation is held, and once the deadline cuts the
	// staller its reservation returns. Keep operating across the window.
	deadline := time.Now().Add(2 * time.Second)
	i := 0
	for time.Now().Before(deadline) {
		key := fmt.Sprintf("k%d", i)
		if err := healthy.Insert("db", key, []byte("payload")); err != nil {
			t.Fatalf("healthy insert %d while peer stalled: %v", i, err)
		}
		i++
		time.Sleep(20 * time.Millisecond)
	}

	// The stalled connection must have been cut by the body deadline.
	stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
	one := make([]byte, 1)
	if _, err := stalled.Read(one); err == nil {
		t.Fatal("stalled connection still open after the body timeout")
	}

	// New connections are accepted and served.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Insert("db", "fresh", []byte("fine")); err != nil {
		t.Fatalf("fresh client after stall: %v", err)
	}
}

// TestConnectionLimit proves maxConns: connections over the cap are refused
// with the overload status, existing connections keep working, and closing a
// connection frees its slot.
func TestConnectionLimit(t *testing.T) {
	srv, first := testServerWith(t, nil, func(l *limits) { l.maxConns = 1 })

	// first holds the only slot. A second connection is refused.
	refused, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	refused.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp := make([]byte, 5)
	if _, err := io.ReadFull(refused, resp); err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if resp[4] != statusOverloaded {
		t.Fatalf("over-cap connection status = %d, want %d", resp[4], statusOverloaded)
	}

	// The in-cap client is unaffected.
	if err := first.Insert("db", "k", []byte("v")); err != nil {
		t.Fatalf("in-cap client: %v", err)
	}

	// Freeing the slot lets a new client in.
	first.Close()
	var c2 *Client
	for i := 0; i < 100; i++ { // the server unregisters asynchronously
		c2, err = Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err = c2.Insert("db", fmt.Sprintf("retry%d", i), []byte("v")); err == nil {
			break
		}
		c2.Close()
		c2 = nil
		time.Sleep(10 * time.Millisecond)
	}
	if c2 == nil {
		t.Fatal("no connection admitted after slot freed")
	}
	c2.Close()
}
