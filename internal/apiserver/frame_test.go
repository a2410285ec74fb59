package apiserver

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/netsim"
)

// countingNet is TCP whose connections count their Write calls: those dialled
// in client, those accepted in server.
type countingNet struct {
	netsim.TCP
	client, server atomic.Int64
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1) // before the bytes leave, so the peer's read sees it
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

func (n *countingNet) Listen(addr string) (net.Listener, error) {
	ln, err := netsim.Default.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{ln, &n.server}, nil
}

func (n *countingNet) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := netsim.Default.DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{c, &n.client}, nil
}

// TestOneWritePerFrame: every request is one Write on the client's
// connection and every response one Write on the server's, for a record well
// inside the old 4 KiB write buffer and for one three times its size.
func TestOneWritePerFrame(t *testing.T) {
	nw := &countingNet{}
	srv, _ := testServerWith(t, nw, nil)
	c, err := DialNetwork(nw, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, size := range []int{1 << 10, 12 << 10} {
		payload := bytes.Repeat([]byte{byte(size)}, size)
		key := string(rune('a' + size>>10))
		for _, op := range []struct {
			name string
			do   func() error
		}{
			{"insert", func() error { return c.Insert("db", key, payload) }},
			{"get", func() error {
				got, err := c.Get("db", key)
				if err == nil && !bytes.Equal(got, payload) {
					t.Fatalf("Get of the %d B record returned %d other bytes", size, len(got))
				}
				return err
			}},
		} {
			cw, sw := nw.client.Load(), nw.server.Load()
			if err := op.do(); err != nil {
				t.Fatalf("%s of %d B: %v", op.name, size, err)
			}
			if got := nw.client.Load() - cw; got != 1 {
				t.Errorf("%s of %d B: the request took %d writes, want 1", op.name, size, got)
			}
			if got := nw.server.Load() - sw; got != 1 {
				t.Errorf("%s of %d B: the response took %d writes, want 1", op.name, size, got)
			}
		}
	}
}

// TestStalledMidBodyCannotWedgeServer is TestStalledClientCannotWedgeServer
// with the header and half the body in one write: the server holds part of
// the body already, and must still cut the connection within bodyTimeout and
// give its reservation back.
func TestStalledMidBodyCannotWedgeServer(t *testing.T) {
	const timeout = 300 * time.Millisecond
	srv, healthy := testServerWith(t, nil, func(l *limits) { l.bodyTimeout = timeout })

	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	const claimed = 3000
	frame := binary.LittleEndian.AppendUint32(nil, claimed)
	frame = append(frame, bytes.Repeat([]byte{opInsert}, claimed/2)...)
	start := time.Now()
	if _, err := stalled.Write(frame); err != nil {
		t.Fatal(err)
	}

	if err := healthy.Insert("db", "k", []byte("payload")); err != nil {
		t.Fatalf("healthy insert while a peer stalls mid-body: %v", err)
	}

	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stalled.Read(make([]byte, 1)); err == nil {
		t.Fatal("a read on the stalled connection returned bytes; want it cut")
	}
	if cut := time.Since(start); cut > timeout+time.Second {
		t.Fatalf("stalled connection cut after %v, the body timeout is %v", cut, timeout)
	}
	reserved := func() int64 {
		srv.mem.mu.Lock()
		defer srv.mem.mu.Unlock()
		return srv.mem.total - srv.mem.avail
	}
	for i := 0; reserved() != 0; i++ {
		if i == 100 {
			t.Fatalf("%d bytes of the budget still reserved after the cut", reserved())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientTimeoutClears: a round trip leaves its deadline on the
// connection, and SetTimeout(0) must clear it, or the first op after an idle
// spell longer than the old timeout fails.
func TestClientTimeoutClears(t *testing.T) {
	_, c := testServer(t)
	c.SetTimeout(50 * time.Millisecond)
	if err := c.Insert("db", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(0)
	time.Sleep(150 * time.Millisecond)
	if _, err := c.Get("db", "k"); err != nil {
		t.Fatalf("op after SetTimeout(0) and an idle spell: %v", err)
	}
}

// TestReusedBuffersUnderSharedClient: goroutines sharing one Client, each
// with its own records of one size, so every request frame is built in the
// buffer the previous one used, and every response likewise on the server.
// Every Get returns its own record's bytes.
func TestReusedBuffersUnderSharedClient(t *testing.T) {
	_, c := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := string(rune('a'+g)) + string(rune('0'+i%10))
				payload := bytes.Repeat([]byte{byte(g), byte(i)}, 1<<10)
				if i < 10 {
					if err := c.Insert("db", key, payload); err != nil {
						t.Error(err)
						return
					}
				} else if err := c.Update("db", key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, err := c.Get("db", key); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("Get(%s) after op %d: %d bytes, %v", key, i, len(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
