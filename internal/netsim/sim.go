package netsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Partition describes which direction of the simulated link is blocked.
// A partitioned direction behaves like a silent network failure: writes
// stall (as against a zero TCP window) until the partition heals or the
// writer's deadline expires, and nothing new arrives at the reader — no
// reset, no error, just silence. Detecting that silence is the protocol's
// job (heartbeats + idle timeouts).
type Partition int32

const (
	// PartitionNone delivers both directions.
	PartitionNone Partition = iota
	// PartitionBoth blocks both directions.
	PartitionBoth
	// PartitionToServer blocks dialer→listener traffic only.
	PartitionToServer
	// PartitionToClient blocks listener→dialer traffic only.
	PartitionToClient
)

// ChunkInfo identifies one write (one "chunk") crossing the simulated
// network, for fault scripting. The replication protocol writes exactly one
// frame per chunk, so chunk ordinals double as frame ordinals.
type ChunkInfo struct {
	// ToServer is the direction: true for dialer→listener.
	ToServer bool
	// Conn is the connection's ordinal within the Sim (dial order).
	Conn int
	// Index is the chunk's ordinal within its connection+direction.
	Index int
	// Size is the chunk's byte length.
	Size int
}

// Verdict is the fate of one chunk. Fault positions (which byte corrupts,
// where a cut lands) are derived deterministically from the chunk itself so
// a scripted FaultFunc stays exactly reproducible.
type Verdict struct {
	// Drop discards the chunk silently; the writer still sees success.
	Drop bool
	// Corrupt flips a byte in the middle of the chunk.
	Corrupt bool
	// Duplicate delivers the chunk twice.
	Duplicate bool
	// Reorder swaps the chunk with its queue neighbour (or holds it until
	// the next chunk overtakes it when the queue is empty).
	Reorder bool
	// Cut delivers the first half of the chunk, then breaks the
	// connection in both directions.
	Cut bool
	// Delay postpones delivery.
	Delay time.Duration
}

// FaultFunc decides each chunk's fate. It is called with the Sim's lock
// held and must not call back into the Sim.
type FaultFunc func(ChunkInfo) Verdict

// Profile is a randomized fault mix: each probability is rolled
// independently per chunk from the Sim's seed-pinned generator.
type Profile struct {
	Drop, Corrupt, Duplicate, Reorder, Cut float64
	// DelayMin/DelayMax bound the per-chunk latency (jitter is uniform in
	// between). Zero means no artificial latency.
	DelayMin, DelayMax time.Duration
}

// Counters reports what the Sim actually did to traffic so tests can assert
// a schedule exercised the fault classes it claims to.
type Counters struct {
	Chunks, Dropped, Corrupted, Duplicated, Reordered, Cuts int64
	Dials, Accepts                                          int64
}

// Sim is an in-memory network with seed-pinned fault injection. All
// connections dialled through one Sim share its link state (partition mode,
// fault profile) — it models the single network path between a primary and
// a secondary host.
//
// Sim is safe for concurrent use.
type Sim struct {
	mu        sync.Mutex
	rng       *rand.Rand
	name      string
	listeners map[string]*simListener
	pipes     []*pipe
	nextPort  int
	connSeq   int
	faults    FaultFunc
	profile   *Profile
	counters  Counters

	partition atomic.Int32
}

// NewSim returns a clean simulated network whose fault rolls derive from
// seed.
func NewSim(seed int64) *Sim {
	return NewNamedSim(seed, "sim")
}

// NewNamedSim is NewSim with a distinct address prefix: listeners get
// "<name>:<n>" addresses. A Mesh uses the prefix to route dials between the
// per-host Sims of a multi-node cluster.
func NewNamedSim(seed int64, name string) *Sim {
	return &Sim{
		rng:       rand.New(rand.NewSource(seed)),
		name:      name,
		listeners: make(map[string]*simListener),
		nextPort:  1,
	}
}

// SetProfile installs a randomized fault mix (nil = deliver everything
// cleanly). Replaces any scripted FaultFunc.
func (s *Sim) SetProfile(p *Profile) {
	s.mu.Lock()
	s.profile = p
	s.faults = nil
	pipes := append([]*pipe(nil), s.pipes...)
	s.mu.Unlock()
	if p == nil {
		flushAndWake(pipes)
	}
}

// SetFaults installs a scripted per-chunk fault function (nil = deliver
// everything cleanly). Replaces any Profile.
func (s *Sim) SetFaults(f FaultFunc) {
	s.mu.Lock()
	s.faults = f
	s.profile = nil
	pipes := append([]*pipe(nil), s.pipes...)
	s.mu.Unlock()
	if f == nil {
		flushAndWake(pipes)
	}
}

// SetPartition switches the link's partition mode and wakes writers blocked
// on a previously partitioned direction.
func (s *Sim) SetPartition(p Partition) {
	s.partition.Store(int32(p))
	s.mu.Lock()
	pipes := append([]*pipe(nil), s.pipes...)
	s.mu.Unlock()
	flushAndWake(pipes)
}

// Heal restores a clean, fully connected network: no faults, no partition,
// held chunks flushed.
func (s *Sim) Heal() {
	s.SetPartition(PartitionNone)
	s.SetFaults(nil)
}

// Counters returns a snapshot of the fault accounting.
func (s *Sim) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// flushAndWake releases reorder-held chunks and wakes blocked readers and
// writers after a fault-state change.
func flushAndWake(pipes []*pipe) {
	for _, p := range pipes {
		p.mu.Lock()
		p.flushHeldLocked()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// blocked reports whether the given direction is currently partitioned.
func (s *Sim) blocked(toServer bool) bool {
	switch Partition(s.partition.Load()) {
	case PartitionBoth:
		return true
	case PartitionToServer:
		return toServer
	case PartitionToClient:
		return !toServer
	default:
		return false
	}
}

// verdict rolls one chunk's fate under s.mu.
func (s *Sim) verdict(info ChunkInfo) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Chunks++
	var v Verdict
	switch {
	case s.faults != nil:
		v = s.faults(info)
	case s.profile != nil:
		p := s.profile
		v.Cut = p.Cut > 0 && s.rng.Float64() < p.Cut
		v.Drop = p.Drop > 0 && s.rng.Float64() < p.Drop
		v.Corrupt = p.Corrupt > 0 && s.rng.Float64() < p.Corrupt
		v.Duplicate = p.Duplicate > 0 && s.rng.Float64() < p.Duplicate
		v.Reorder = p.Reorder > 0 && s.rng.Float64() < p.Reorder
		if p.DelayMax > 0 {
			span := p.DelayMax - p.DelayMin
			v.Delay = p.DelayMin
			if span > 0 {
				v.Delay += time.Duration(s.rng.Int63n(int64(span)))
			}
		}
	}
	if v.Cut {
		s.counters.Cuts++
	}
	if v.Drop {
		s.counters.Dropped++
	}
	if v.Corrupt {
		s.counters.Corrupted++
	}
	if v.Duplicate {
		s.counters.Duplicated++
	}
	if v.Reorder {
		s.counters.Reordered++
	}
	return v
}

// ---------------------------------------------------------------- listener

type simAddr string

func (simAddr) Network() string  { return "sim" }
func (a simAddr) String() string { return string(a) }

type simListener struct {
	sim    *Sim
	addr   simAddr
	accept chan *endpoint
	done   chan struct{}
	once   sync.Once
}

// Listen registers a listener. A request for an unused "<name>:<port>"
// address on this Sim is honoured — cluster tests pin member addresses so a
// killed member can come back on the one the ring names — anything else gets
// a fresh sequential "<name>:<n>" address.
func (s *Sim) Listen(addr string) (net.Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var a simAddr
	if strings.HasPrefix(addr, s.name+":") {
		if _, taken := s.listeners[addr]; taken {
			return nil, fmt.Errorf("netsim: listen %s: address in use", addr)
		}
		a = simAddr(addr)
	} else {
		for {
			cand := fmt.Sprintf("%s:%d", s.name, s.nextPort)
			s.nextPort++
			if _, taken := s.listeners[cand]; !taken {
				a = simAddr(cand)
				break
			}
		}
	}
	ln := &simListener{
		sim:    s,
		addr:   a,
		accept: make(chan *endpoint, 32),
		done:   make(chan struct{}),
	}
	s.listeners[string(a)] = ln
	return ln, nil
}

func (l *simListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		l.sim.mu.Lock()
		l.sim.counters.Accepts++
		l.sim.mu.Unlock()
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *simListener) Close() error {
	l.once.Do(func() {
		l.sim.mu.Lock()
		delete(l.sim.listeners, string(l.addr))
		l.sim.mu.Unlock()
		close(l.done)
	})
	return nil
}

func (l *simListener) Addr() net.Addr { return l.addr }

// DialTimeout connects to a registered listener. The connection itself is
// established instantly (SYN handling is not simulated); a partition starves
// the handshake instead, which the dialler's deadlines must catch.
func (s *Sim) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	s.mu.Lock()
	ln := s.listeners[addr]
	ord := s.connSeq
	s.connSeq++
	s.counters.Dials++
	s.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("netsim: dial %s: connection refused", addr)
	}
	up := newPipe(s, true, ord)    // dialer → listener
	down := newPipe(s, false, ord) // listener → dialer
	peer := simAddr(s.name + ":client")
	client := &endpoint{r: down, w: up, local: peer, remote: ln.addr}
	server := &endpoint{r: up, w: down, local: ln.addr, remote: peer}
	s.mu.Lock()
	s.pipes = append(s.pipes, up, down)
	s.mu.Unlock()

	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case ln.accept <- server:
		return client, nil
	case <-ln.done:
		return nil, fmt.Errorf("netsim: dial %s: connection refused", addr)
	case <-deadline:
		return nil, &timeoutError{op: "dial"}
	}
}

// ---------------------------------------------------------------- conn

// errConnCut is what both sides of a Cut connection observe once delivered
// data is drained.
var errConnCut = errors.New("netsim: connection reset (cut)")

type timeoutError struct{ op string }

func (e *timeoutError) Error() string   { return "netsim: " + e.op + " i/o timeout" }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

type chunk struct {
	data []byte
	at   time.Time
}

// pipe is one direction of a simulated connection: chunks go in at Write
// (with faults applied), come out at Read. Exactly one goroutine writes and
// one reads in the replication protocol, but the implementation tolerates
// more.
type pipe struct {
	sim      *Sim
	toServer bool
	connOrd  int

	mu            sync.Mutex
	cond          *sync.Cond
	chunks        []chunk
	held          *chunk // reorder victim awaiting an overtaking chunk
	cur           []byte // partially consumed head
	index         int    // chunks written so far (FaultFunc ordinal)
	err           error  // terminal cause, delivered after draining
	readDeadline  time.Time
	writeDeadline time.Time
}

func newPipe(s *Sim, toServer bool, connOrd int) *pipe {
	p := &pipe{sim: s, toServer: toServer, connOrd: connOrd}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipe) flushHeldLocked() {
	if p.held != nil {
		p.chunks = append(p.chunks, *p.held)
		p.held = nil
	}
}

// fail marks the pipe broken; buffered chunks remain readable first.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	p.flushHeldLocked()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// endpoint is one side of a simulated connection.
type endpoint struct {
	r, w          *pipe
	local, remote simAddr
	closed        atomic.Bool
}

func (e *endpoint) Read(b []byte) (int, error) {
	p := e.r
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.cur) > 0 {
			n := copy(b, p.cur)
			p.cur = p.cur[n:]
			return n, nil
		}
		now := time.Now()
		if len(p.chunks) > 0 && !p.chunks[0].at.After(now) {
			p.cur = p.chunks[0].data
			p.chunks = p.chunks[1:]
			continue
		}
		if len(p.chunks) == 0 && p.err != nil {
			return 0, p.err
		}
		if e.closed.Load() {
			return 0, net.ErrClosed
		}
		if !p.readDeadline.IsZero() && !now.Before(p.readDeadline) {
			return 0, &timeoutError{op: "read"}
		}
		p.waitLocked(earliest(p.readDeadline, headAt(p.chunks)))
	}
}

func (e *endpoint) Write(b []byte) (int, error) {
	if e.closed.Load() {
		return 0, net.ErrClosed
	}
	p := e.w
	info := ChunkInfo{ToServer: p.toServer, Conn: p.connOrd, Size: len(b)}

	p.mu.Lock()
	info.Index = p.index
	p.index++
	p.mu.Unlock()

	// Fault roll happens outside the pipe lock (sim.mu → pipe.mu is the
	// only permitted order).
	v := e.r.sim.verdict(info)

	p.mu.Lock()
	defer p.mu.Unlock()
	// A partitioned direction stalls the writer, like a zero receive
	// window: no error, no progress, until heal or the write deadline.
	for p.sim.blocked(p.toServer) && p.err == nil && !e.closed.Load() {
		if !p.writeDeadline.IsZero() && !time.Now().Before(p.writeDeadline) {
			return 0, &timeoutError{op: "write"}
		}
		p.waitLocked(p.writeDeadline)
	}
	if e.closed.Load() {
		return 0, net.ErrClosed
	}
	if p.err != nil {
		return 0, p.err
	}

	data := append([]byte(nil), b...)
	at := time.Now().Add(v.Delay)
	switch {
	case v.Cut:
		keep := len(data) / 2
		if keep > 0 {
			p.chunks = append(p.chunks, chunk{data: data[:keep], at: at})
		}
		p.cond.Broadcast()
		// Break both directions; the deferred unlock releases p before
		// fail() re-locks it via the other pipe... fail(p) would
		// deadlock, so mark this pipe inline and the peer pipe after
		// unlock via a goroutine-free path below.
		if p.err == nil {
			p.err = errConnCut
		}
		other := e.r
		p.mu.Unlock()
		other.fail(errConnCut)
		p.mu.Lock() // re-lock for the deferred unlock
		return len(b), nil
	case v.Drop:
		return len(b), nil
	}
	if v.Corrupt && len(data) > 0 {
		data[len(data)/2] ^= 0xA5
	}
	deliver := []chunk{{data: data, at: at}}
	if v.Duplicate {
		dup := append([]byte(nil), data...)
		deliver = append(deliver, chunk{data: dup, at: at})
	}
	if v.Reorder {
		if n := len(p.chunks); n > 0 {
			// Swap with the last queued chunk: this write overtakes it.
			last := p.chunks[n-1]
			p.chunks = append(p.chunks[:n-1], deliver...)
			p.chunks = append(p.chunks, last)
			p.flushHeldLocked()
			p.cond.Broadcast()
			return len(b), nil
		}
		if p.held == nil {
			// Nothing to swap with yet: hold this chunk until the next
			// write overtakes it.
			p.held = &deliver[0]
			if len(deliver) > 1 {
				p.chunks = append(p.chunks, deliver[1:]...)
			}
			p.cond.Broadcast()
			return len(b), nil
		}
	}
	p.chunks = append(p.chunks, deliver...)
	p.flushHeldLocked() // a previously held chunk is now overtaken
	p.cond.Broadcast()
	return len(b), nil
}

// waitLocked blocks on the pipe's cond, arranging a wake-up at `at` (zero =
// none). Caller holds p.mu.
func (p *pipe) waitLocked(at time.Time) {
	var timer *time.Timer
	if !at.IsZero() {
		d := time.Until(at)
		if d < 0 {
			d = 0
		}
		timer = time.AfterFunc(d, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
	}
	p.cond.Wait()
	if timer != nil {
		timer.Stop()
	}
}

func earliest(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() || a.Before(b) {
		return a
	}
	return b
}

func headAt(chunks []chunk) time.Time {
	if len(chunks) == 0 {
		return time.Time{}
	}
	return chunks[0].at
}

// Close tears the connection down in both directions. The peer drains
// already delivered data and then sees io.EOF; local blocked operations
// return net.ErrClosed.
func (e *endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	// Peer's inbound direction ends cleanly (EOF after drain).
	e.w.fail(io.EOF)
	// Wake any local reader/writer blocked on our inbound pipe.
	e.r.mu.Lock()
	e.r.cond.Broadcast()
	e.r.mu.Unlock()
	return nil
}

func (e *endpoint) LocalAddr() net.Addr  { return e.local }
func (e *endpoint) RemoteAddr() net.Addr { return e.remote }

func (e *endpoint) SetDeadline(t time.Time) error {
	e.SetReadDeadline(t)
	e.SetWriteDeadline(t)
	return nil
}

func (e *endpoint) SetReadDeadline(t time.Time) error {
	e.r.mu.Lock()
	e.r.readDeadline = t
	e.r.cond.Broadcast()
	e.r.mu.Unlock()
	return nil
}

func (e *endpoint) SetWriteDeadline(t time.Time) error {
	e.w.mu.Lock()
	e.w.writeDeadline = t
	e.w.cond.Broadcast()
	e.w.mu.Unlock()
	return nil
}
