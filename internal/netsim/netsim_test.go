package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// dialPair connects a client/server conn pair through the sim.
func dialPair(t *testing.T, s *Sim) (client, server net.Conn) {
	t.Helper()
	ln, err := s.Listen("any:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errs <- err
			return
		}
		accepted <- c
	}()
	client, err = s.DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	select {
	case server = <-accepted:
	case err := <-errs:
		t.Fatalf("accept: %v", err)
	case <-time.After(time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() { client.Close(); server.Close(); ln.Close() })
	return client, server
}

func readFull(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	s := NewSim(1)
	client, server := dialPair(t, s)
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	if got := readFull(t, server, 5); string(got) != "hello" {
		t.Fatalf("server read %q", got)
	}
	if _, err := server.Write([]byte("world")); err != nil {
		t.Fatalf("server write: %v", err)
	}
	if got := readFull(t, client, 5); string(got) != "world" {
		t.Fatalf("client read %q", got)
	}
}

func TestDialRefused(t *testing.T) {
	s := NewSim(1)
	if _, err := s.DialTimeout("sim:404", time.Second); err == nil {
		t.Fatal("dial to unregistered address succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	s := NewSim(1)
	client, _ := dialPair(t, s)
	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := client.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read after deadline: err = %v, want timeout", err)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	s := NewSim(1)
	client, server := dialPair(t, s)
	s.SetPartition(PartitionToServer)

	// A write into the partitioned direction with a deadline times out.
	client.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write into partition succeeded")
	}
	// The reverse direction still flows.
	if _, err := server.Write([]byte("y")); err != nil {
		t.Fatalf("reverse write: %v", err)
	}
	readFull(t, client, 1)

	// A deadline-free write blocks until heal, then delivers.
	client.SetWriteDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("z"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write returned before heal: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	s.Heal()
	if err := <-done; err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if got := readFull(t, server, 1); got[0] != 'z' {
		t.Fatalf("read %q after heal", got)
	}
}

func TestScriptedCorrupt(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		return Verdict{Corrupt: ci.ToServer && ci.Index == 0}
	})
	client, server := dialPair(t, s)
	orig := []byte("abcdef")
	if _, err := client.Write(orig); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := readFull(t, server, len(orig))
	if bytes.Equal(got, orig) {
		t.Fatal("chunk survived corruption verdict unchanged")
	}
	want := append([]byte(nil), orig...)
	want[len(want)/2] ^= 0xA5
	if !bytes.Equal(got, want) {
		t.Fatalf("corrupted chunk = %q, want %q", got, want)
	}
	if c := s.Counters(); c.Corrupted != 1 {
		t.Fatalf("Corrupted counter = %d, want 1", c.Corrupted)
	}
}

func TestScriptedDrop(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		return Verdict{Drop: ci.ToServer && ci.Index == 0}
	})
	client, server := dialPair(t, s)
	client.Write([]byte("AAAA"))
	client.Write([]byte("BBBB"))
	if got := readFull(t, server, 4); string(got) != "BBBB" {
		t.Fatalf("read %q, want dropped first chunk skipped", got)
	}
}

func TestScriptedDuplicate(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		return Verdict{Duplicate: ci.ToServer}
	})
	client, server := dialPair(t, s)
	client.Write([]byte("dup!"))
	if got := readFull(t, server, 8); string(got) != "dup!dup!" {
		t.Fatalf("read %q, want duplicated delivery", got)
	}
}

func TestScriptedReorder(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		// Second chunk overtakes the first.
		return Verdict{Reorder: ci.ToServer && ci.Index == 1}
	})
	client, server := dialPair(t, s)
	client.Write([]byte("1111"))
	client.Write([]byte("2222"))
	if got := readFull(t, server, 8); string(got) != "22221111" {
		t.Fatalf("read %q, want reordered 22221111", got)
	}
}

func TestReorderHoldFlushedByNextWrite(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		// First chunk held (empty queue, nothing to swap with) until the
		// next write overtakes it.
		return Verdict{Reorder: ci.ToServer && ci.Index == 0}
	})
	client, server := dialPair(t, s)
	client.Write([]byte("held"))
	client.Write([]byte("jump"))
	if got := readFull(t, server, 8); string(got) != "jumpheld" {
		t.Fatalf("read %q, want jumpheld", got)
	}
}

func TestScriptedCutMidChunk(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		return Verdict{Cut: ci.ToServer && ci.Index == 1}
	})
	client, server := dialPair(t, s)
	client.Write([]byte("full"))
	client.Write([]byte("chopped!")) // only "chop" delivered, then reset
	if got := readFull(t, server, 8); string(got) != "fullchop" {
		t.Fatalf("read %q, want fullchop", got)
	}
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err == nil {
		t.Fatal("read past cut succeeded")
	}
	if _, err := client.Write([]byte("more")); err == nil {
		t.Fatal("write after cut succeeded")
	}
	// Reverse direction is broken too.
	if _, err := server.Write([]byte("back")); err == nil {
		t.Fatal("reverse write after cut succeeded")
	}
}

func TestDelayDelivery(t *testing.T) {
	s := NewSim(1)
	s.SetFaults(func(ci ChunkInfo) Verdict {
		return Verdict{Delay: 50 * time.Millisecond}
	})
	client, server := dialPair(t, s)
	start := time.Now()
	client.Write([]byte("late"))
	readFull(t, server, 4)
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~50ms delay", d)
	}
}

func TestCloseGivesPeerEOF(t *testing.T) {
	s := NewSim(1)
	client, server := dialPair(t, s)
	client.Write([]byte("bye"))
	client.Close()
	// Peer drains delivered data first, then sees EOF.
	readFull(t, server, 3)
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("read after peer close: %v, want EOF", err)
	}
	// Local operations fail with ErrClosed.
	if _, err := client.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want ErrClosed", err)
	}
}

func TestProfileDeterministicAcrossSims(t *testing.T) {
	run := func(seed int64) Counters {
		s := NewSim(seed)
		s.SetProfile(&Profile{Drop: 0.2, Corrupt: 0.2, Duplicate: 0.2, Reorder: 0.2})
		client, server := dialPair(t, s)
		go func() {
			buf := make([]byte, 1024)
			for {
				if _, err := server.Read(buf); err != nil {
					return
				}
			}
		}()
		for i := 0; i < 200; i++ {
			client.Write([]byte("0123456789abcdef"))
		}
		client.Close()
		return s.Counters()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := run(43)
	if a == c {
		t.Fatal("different seeds produced identical fault schedules (suspicious)")
	}
	if a.Dropped == 0 || a.Corrupted == 0 || a.Duplicated == 0 || a.Reordered == 0 {
		t.Fatalf("profile exercised no faults: %+v", a)
	}
}

func TestTCPNetworkRoundTrip(t *testing.T) {
	ln, err := Default.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	c, err := Default.DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	if got := readFull(t, c, 4); string(got) != "ping" {
		t.Fatalf("echo %q", got)
	}
}

// TestTiming pins the clocks the networks state. TCP's are a deployment's.
// On every network a healthy stream heartbeats well inside its idle bound,
// each backoff starts at most at its cap, and a router round trip fits in a
// rebalance RPC, which is shorter than a handoff.
func TestTiming(t *testing.T) {
	want := Timing{
		Heartbeat: time.Second, FrameWrite: 10 * time.Second, Fetch: 3 * time.Second,
		Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second,
		Dial: 3 * time.Second, Idle: 30 * time.Second,
		RPC: 10 * time.Second, Handoff: 5 * time.Minute,
		RetryBackoff: 5 * time.Millisecond, MaxRetryBackoff: 250 * time.Millisecond, RoundTrip: 10 * time.Second,
	}
	if got := (TCP{}).Timing(); got != want {
		t.Errorf("TCP timing %+v, want %+v", got, want)
	}
	for name, nw := range map[string]Network{"TCP": TCP{}, "Sim": NewSim(1), "mesh host": NewMesh(1, "a").Host("a")} {
		tm := nw.Timing()
		for _, d := range []time.Duration{tm.Heartbeat, tm.FrameWrite, tm.Fetch, tm.Backoff, tm.Dial, tm.RetryBackoff, tm.RoundTrip} {
			if d <= 0 {
				t.Errorf("%s: a clock of %v in %+v", name, d, tm)
			}
		}
		if 4*tm.Heartbeat > tm.Idle {
			t.Errorf("%s: heartbeat %v, idle bound %v", name, tm.Heartbeat, tm.Idle)
		}
		if tm.Backoff > tm.MaxBackoff || tm.RetryBackoff > tm.MaxRetryBackoff {
			t.Errorf("%s: backoff %v up to %v, router retry %v up to %v", name, tm.Backoff, tm.MaxBackoff, tm.RetryBackoff, tm.MaxRetryBackoff)
		}
		if tm.RoundTrip > tm.RPC || tm.RPC >= tm.Handoff {
			t.Errorf("%s: round trip %v, rebalance RPC %v, handoff %v", name, tm.RoundTrip, tm.RPC, tm.Handoff)
		}
	}
}
