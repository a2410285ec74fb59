// Package apiserver exposes a node's client operations over TCP, giving the
// reproduction a complete client/primary/secondary deployment like the
// paper's MongoDB setup (one client node, one primary, one secondary).
//
// The protocol is deliberately simple: length-prefixed binary frames, one
// request/response pair per operation. Each side builds a whole frame in a
// buffer its connection owns and sends it with one Write, so a frame the
// socket takes whole is one syscall and wakes its reader once; a Get appends
// the record straight into its response frame.
//
//	request  := uint32(len) byte(op) uvarint(len(db)) db uvarint(len(key)) key
//	            [uvarint(len(payload)) payload]        (insert/update only)
//	response := uint32(len) byte(status) payload
//
// op: 'I' insert, 'G' get, 'U' update, 'D' delete, 'S' stats, 'P' per-db stats.
// Cluster ops (answered only by a clustered backend): 'C' fetch ring,
// 'N' install ring, 'H' begin handoff (blocking; answered with no body),
// 'M' commit ring, 'A' abort ring, 'T' transfer-upsert a batch of records
// into a handoff window (its body is the batch: repl.Batches' form).
// status: 0 ok, 1 not found, 2 error (payload = message), 3 overloaded
// (admission control rejected the request, or the server is at its
// connection limit), 4 wrong shard (payload = JSON{owner,epoch}; the client
// should retry at the owner), 5 shard moving (payload = JSON{epoch}; a
// rebalance holds the database — retry with backoff).
//
// The server bounds what one client — or all clients together — can make it
// hold in memory (limits): a per-request size cap checked before the body
// is allocated, a shared budget for in-flight request bodies, a body read
// deadline so a stalled client cannot pin its allocation, and a connection
// cap. None of these can wedge the accept loop: every enforcement path
// closes only the offending connection.
package apiserver

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/core"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

const (
	opInsert  = 'I'
	opGet     = 'G'
	opUpdate  = 'U'
	opDelete  = 'D'
	opStats   = 'S'
	opDBStats = 'P'
	opVerify  = 'Y'

	// Cluster ops, answered with statusError("not clustered") unless the
	// backend implements ClusterBackend.
	opRing         = 'C'
	opInstallRing  = 'N'
	opBeginHandoff = 'H'
	opCommitRing   = 'M'
	opAbortRing    = 'A'
	opTransfer     = 'T'

	statusOK         = 0
	statusNotFound   = 1
	statusError      = 2
	statusOverloaded = 3
	statusWrongShard = 4
	statusMoving     = 5

	maxFrame = 64 << 20

	// keepBuf is the largest frame buffer a connection keeps for its next
	// frame. A larger one is dropped once its frame is answered, so an idle
	// connection holds at most this much outside memoryBudget.
	keepBuf = 64 << 10

	// The limits every server runs under (see limits).
	maxRequestBytes = 8 << 20
	maxConns        = 1024
	memoryBudget    = 256 << 20
	bodyTimeout     = 30 * time.Second
)

// Backend is the operation surface the server exposes over the wire. A plain
// *node.Node serves a single-primary deployment; a cluster.Shard wraps a
// node with ring routing and satisfies it too.
//
// payload is the caller's again when a method returns: an implementation
// that keeps the bytes copies them. The server relies on this: it passes a
// slice of the request frame, and the connection's next request is read into
// the same buffer.
//
// A backend that also has AppendRead (node.Node, cluster.Shard) serves Get
// with it, appending the record straight into the response frame.
type Backend interface {
	Insert(db, key string, payload []byte) error
	Update(db, key string, payload []byte) error
	Delete(db, key string) error
	Read(db, key string) ([]byte, error)
	Stats() node.Stats
	DBStats() []core.DBStats
	VerifyAll() node.VerifyReport
}

// ClusterBackend is the extra surface a sharded backend exposes: ring
// distribution and the handoff protocol. Ring bodies are opaque bytes here —
// the cluster package owns their JSON shape — so this package stays free of
// a dependency cycle with it.
type ClusterBackend interface {
	Backend
	// RingJSON returns the active ring's wire form.
	RingJSON() []byte
	// InstallRing opens a rebalance window: body carries the new ring and
	// the ring it replaces. Idempotent for an identical re-install.
	InstallRing(body []byte) error
	// BeginHandoff pushes every database this member loses under the
	// pending ring to its new owner. Blocking.
	BeginHandoff() error
	// CommitRing finishes the window: gained databases start serving,
	// moved-away local copies are dropped. Idempotent.
	CommitRing() error
	// AbortRing reverts the window: transferred-in copies are dropped and
	// the previous membership is reinstalled under a fresh epoch. Idempotent.
	AbortRing() error
	// Transfer upserts a batch of records (repl.Batches) inside an open
	// handoff window, bypassing ring routing and admission control.
	Transfer(batch []byte) error
}

// WrongShardError says the database hashes to another member: the request
// was not performed; retry it at Owner (which also serves the full ring for
// cache refresh). This is the explicit error class for stale-ring clients —
// a redirect, never a drop.
type WrongShardError struct {
	Owner string `json:"owner"`
	Epoch uint64 `json:"epoch"`
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("apiserver: wrong shard (owner %s, ring epoch %d)", e.Owner, e.Epoch)
}

// ShardMovingError says a rebalance currently holds the database: the
// request was not performed; retry with backoff until the handoff commits or
// aborts.
type ShardMovingError struct {
	Epoch uint64 `json:"epoch"`
}

func (e *ShardMovingError) Error() string {
	return fmt.Sprintf("apiserver: shard moving (ring epoch %d); retry", e.Epoch)
}

// Options configures a server.
type Options struct {
	// Network is the transport to listen on (default netsim.Default, i.e.
	// real TCP). Cluster tests inject a simulated mesh here.
	Network netsim.Network
}

// limits bounds the server's per-client and aggregate resource use. Every
// server runs under defaultLimits; this package's tests shrink them to reach
// each enforcement path in milliseconds.
type limits struct {
	// maxRequestBytes caps one request frame. An oversized request is
	// answered with an error and the connection closed — before the body
	// is read or allocated.
	maxRequestBytes int
	// maxConns caps concurrent client connections. A connection over the
	// cap is answered with status 3 and closed.
	maxConns int
	// memoryBudget caps the total bytes of request bodies held in memory
	// across all connections. A request that cannot reserve its size waits
	// for in-flight requests to release theirs — backpressure, not failure.
	memoryBudget int64
	// bodyTimeout is how long the server waits for a request body after its
	// header arrived. A client that stalls mid-frame is disconnected,
	// releasing its memory reservation, instead of pinning it forever.
	bodyTimeout time.Duration
}

var defaultLimits = limits{maxRequestBytes, maxConns, memoryBudget, bodyTimeout}

// appendReader is the Get path: a read that appends the record to dst.
type appendReader interface {
	AppendRead(dst []byte, db, key string) ([]byte, error)
}

// readAppender gives a Backend without AppendRead one, through Read.
type readAppender struct{ Backend }

func (b readAppender) AppendRead(dst []byte, db, key string) ([]byte, error) {
	p, err := b.Read(db, key)
	return append(dst, p...), err
}

// Server serves client operations for a backend.
type Server struct {
	backend Backend
	reader  appendReader   // backend's AppendRead, or readAppender over it
	cb      ClusterBackend // nil unless backend is clustered
	ln      net.Listener
	lim     limits
	mem     *byteBudget

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenAndServe starts serving n's client API on addr with default limits.
func ListenAndServe(n *node.Node, addr string) (*Server, error) {
	return ListenAndServeBackend(n, addr, Options{})
}

// ListenAndServeBackend starts serving an arbitrary backend — a *node.Node
// or a cluster shard — on addr. If the backend also implements
// ClusterBackend, the cluster ops are answered too.
func ListenAndServeBackend(b Backend, addr string, opts Options) (*Server, error) {
	return listenAndServe(b, addr, opts.Network, defaultLimits)
}

// listenAndServe serves b on addr over nw (nil = netsim.Default) under lim.
func listenAndServe(b Backend, addr string, nw netsim.Network, lim limits) (*Server, error) {
	if nw == nil {
		nw = netsim.Default
	}
	ln, err := nw.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("apiserver: %w", err)
	}
	s := newServer(b, lim)
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newServer is a server for b under lim, not yet listening.
func newServer(b Backend, lim limits) *Server {
	s := &Server{backend: b, lim: lim,
		mem:   newByteBudget(lim.memoryBudget),
		conns: make(map[net.Conn]struct{})}
	if cb, ok := b.(ClusterBackend); ok {
		s.cb = cb
	}
	if r, ok := b.(appendReader); ok {
		s.reader = r
	} else {
		s.reader = readAppender{b}
	}
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.mem.close()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// byteBudget is a counting semaphore over bytes: the aggregate in-flight
// request-body bound. Waiters block until in-flight requests release their
// reservations (or the server closes). A single request larger than the
// whole budget reserves the whole budget rather than deadlocking.
type byteBudget struct {
	mu     sync.Mutex
	cond   *sync.Cond
	avail  int64
	total  int64
	closed bool
}

func newByteBudget(total int64) *byteBudget {
	b := &byteBudget{avail: total, total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *byteBudget) acquire(n int64) error {
	if n > b.total {
		n = b.total
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.avail < n && !b.closed {
		b.cond.Wait()
	}
	if b.closed {
		return errors.New("apiserver: server closed")
	}
	b.avail -= n
	return nil
}

func (b *byteBudget) release(n int64) {
	if n > b.total {
		n = b.total
	}
	b.mu.Lock()
	b.avail += n
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *byteBudget) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.lim.maxConns {
			s.mu.Unlock()
			// Over the connection cap: tell the client why, then drop it.
			// Only this connection pays; the accept loop keeps going.
			go refuseConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// refuseConn answers an over-cap connection with an overload frame and
// closes it. Run on its own goroutine with a write deadline so a client
// that never reads cannot stall anything.
func refuseConn(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	conn.Write(errorFrame(statusOverloaded, "connection limit reached"))
	conn.Close()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	var req, resp []byte // this connection's frame buffers, kept up to keepBuf
	for {
		frame, release, err := s.readRequest(conn, r, req)
		if err != nil {
			if errors.Is(err, errOversized) {
				// Answer before closing so the client sees why.
				conn.Write(errorFrame(statusError, "request exceeds size limit"))
			}
			return
		}
		resp = s.handle(resp[:0], frame)
		release()
		if _, err := conn.Write(resp); err != nil {
			return
		}
		req, resp = keep(frame), keep(resp)
	}
}

// keep returns buf for the connection's next frame, or nil when it is larger
// than a connection keeps.
func keep(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf
}

var errOversized = errors.New("apiserver: oversized request")

// readRequest reads one request frame into buf, grown if it is too small,
// under the server's limits: the size cap is checked before the body is
// allocated, the body is reserved against the shared memory budget, and a
// body not yet in r is read under a deadline so a stalled client is cut
// instead of pinning its reservation. The returned release must be called
// once the frame is no longer referenced. A non-nil error means the
// connection is done; errOversized is the one the caller should answer.
func (s *Server) readRequest(conn net.Conn, r *bufio.Reader, buf []byte) ([]byte, func(), error) {
	noop := func() {}
	var hdr [4]byte
	// The header read has no deadline: an idle connection is fine and
	// holds no reservation.
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, noop, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > uint32(s.lim.maxRequestBytes) {
		return nil, noop, errOversized // never allocate the claimed size
	}
	if err := s.mem.acquire(int64(n)); err != nil {
		return nil, noop, err
	}
	release := func() { s.mem.release(int64(n)) }
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	wait := r.Buffered() < int(n)
	if wait {
		conn.SetReadDeadline(time.Now().Add(s.lim.bodyTimeout))
	}
	if _, err := io.ReadFull(r, body); err != nil {
		release()
		return nil, noop, err
	}
	if wait {
		conn.SetReadDeadline(time.Time{})
	}
	return body, release, nil
}

// handle answers one request frame: it appends the whole response frame,
// length prefix included, to dst.
func (s *Server) handle(dst, frame []byte) []byte {
	start := len(dst)
	status, out := s.answer(append(dst, 0, 0, 0, 0, 0), frame)
	binary.LittleEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	out[start+4] = status
	return out
}

// answer performs the request in frame and appends its response payload to
// dst.
func (s *Server) answer(dst, frame []byte) (byte, []byte) {
	if len(frame) == 0 {
		return statusError, append(dst, "empty frame"...)
	}
	op := frame[0]
	p := frame[1:]
	// readBytes returns the next length-prefixed field as a sub-slice of
	// the frame: a payload goes to the backend without a copy here. The
	// frame is this connection's until the response is written, and a
	// Backend does not keep payload past its return.
	readBytes := func() ([]byte, bool) {
		l, k := binary.Uvarint(p)
		if k <= 0 || uint64(len(p)-k) < l {
			return nil, false
		}
		v := p[k : k+int(l)]
		p = p[k+int(l):]
		return v, true
	}
	readStr := func() (string, bool) {
		v, ok := readBytes()
		return string(v), ok
	}

	switch op {
	case opStats:
		return appendJSON(dst, s.backend.Stats())
	case opDBStats:
		return appendJSON(dst, s.backend.DBStats())
	case opVerify:
		return appendJSON(dst, s.backend.VerifyAll())
	case opRing, opInstallRing, opBeginHandoff, opCommitRing, opAbortRing, opTransfer:
		if s.cb == nil {
			return statusError, append(dst, "not clustered"...)
		}
		var err error
		switch op {
		case opRing:
			return statusOK, append(dst, s.cb.RingJSON()...)
		case opInstallRing:
			err = s.cb.InstallRing(p)
		case opBeginHandoff:
			err = s.cb.BeginHandoff()
		case opCommitRing:
			err = s.cb.CommitRing()
		case opTransfer:
			err = s.cb.Transfer(p)
		default: // opAbortRing
			err = s.cb.AbortRing()
		}
		if err != nil {
			return errStatus(dst, err)
		}
		return statusOK, dst
	}

	db, ok := readStr()
	if !ok {
		return statusError, append(dst, "bad db"...)
	}
	key, ok := readStr()
	if !ok {
		return statusError, append(dst, "bad key"...)
	}

	switch op {
	case opInsert, opUpdate:
		payload, ok := readBytes()
		if !ok {
			return statusError, append(dst, "bad payload"...)
		}
		var err error
		if op == opInsert {
			err = s.backend.Insert(db, key, payload)
		} else {
			err = s.backend.Update(db, key, payload)
		}
		if err != nil {
			return errStatus(dst, err)
		}
		return statusOK, dst
	case opGet:
		out, err := s.reader.AppendRead(dst, db, key)
		if err != nil {
			return errStatus(dst, err)
		}
		return statusOK, out
	case opDelete:
		if err := s.backend.Delete(db, key); err != nil {
			return errStatus(dst, err)
		}
		return statusOK, dst
	default:
		return statusError, fmt.Appendf(dst, "unknown op %q", op)
	}
}

// appendJSON appends v's JSON to dst.
func appendJSON(dst []byte, v any) (byte, []byte) {
	buf, err := json.Marshal(v)
	if err != nil {
		return statusError, append(dst, err.Error()...)
	}
	return statusOK, append(dst, buf...)
}

// errStatus maps a backend error onto the wire taxonomy and appends its
// payload to dst. The routing errors carry structured payloads so a
// stale-ring client can redirect (wrong shard) or back off (moving) instead
// of treating them as opaque failures.
func errStatus(dst []byte, err error) (byte, []byte) {
	var ws *WrongShardError
	if errors.As(err, &ws) {
		buf, _ := json.Marshal(ws)
		return statusWrongShard, append(dst, buf...)
	}
	var mv *ShardMovingError
	if errors.As(err, &mv) {
		buf, _ := json.Marshal(mv)
		return statusMoving, append(dst, buf...)
	}
	if errors.Is(err, node.ErrOverloaded) {
		return statusOverloaded, dst
	}
	if errors.Is(err, node.ErrNotFound) {
		return statusNotFound, dst
	}
	return statusError, append(dst, err.Error()...)
}

// ---- client ----

// ErrNotFound mirrors node.ErrNotFound across the wire.
var ErrNotFound = errors.New("apiserver: not found")

// ErrOverloaded mirrors node.ErrOverloaded across the wire: admission
// control rejected the request (or the server refused the connection at its
// limit). The operation did not happen; retry with backoff.
var ErrOverloaded = errors.New("apiserver: server overloaded")

// ServerError is a server-reported failure: the request was received,
// executed or refused, and answered — it did not vanish in transit. Callers
// that must reason about whether an operation might still have applied (the
// cluster client, the model checker) use this to separate definite failures
// from transport ambiguity.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "apiserver: server error: " + e.Msg }

// Client is a synchronous API client. Safe for concurrent use (requests are
// serialised on one connection).
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	buf     []byte // the request frame being built; kept up to keepBuf
	timeout time.Duration
	// broken is set once a round trip failed in transit (an I/O error or a
	// timeout, not an answer from the server): the framing may be out of
	// step, so a Pool replaces the connection instead of handing it out again.
	broken atomic.Bool
}

// SetTimeout bounds each subsequent round trip (0 = none). After a timeout
// the connection is desynchronised; the caller should Close and redial.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
	if d == 0 {
		// A round trip leaves its deadline set; none may outlive the bound.
		c.conn.SetDeadline(time.Time{})
	}
}

// Dial connects to a server over real TCP.
func Dial(addr string) (*Client, error) {
	return DialNetwork(netsim.Default, addr)
}

// DialNetwork connects to a server over an arbitrary transport (e.g. a
// simulated cluster mesh).
func DialNetwork(nw netsim.Network, addr string) (*Client, error) {
	if nw == nil {
		nw = netsim.Default
	}
	conn, err := nw.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("apiserver: %w", err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends a request of op followed by body and reads the response.
func (c *Client) roundTrip(op byte, body []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exchange(append(c.request(op), body...))
}

func (c *Client) keyedRequest(op byte, db, key string, payload []byte, withPayload bool) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := appendStr(appendStr(c.request(op), db), key)
	if withPayload {
		req = binary.AppendUvarint(req, uint64(len(payload)))
		req = append(req, payload...)
	}
	return c.exchange(req)
}

// request starts a request frame in the client's buffer: room for the length
// prefix, then op. c.mu must be held until exchange has sent it.
func (c *Client) request(op byte) []byte {
	return append(c.buf[:0], 0, 0, 0, 0, op)
}

// exchange sends req, a frame begun by request, with one Write and reads the
// response. The round trip's deadline stays set afterwards: the next one
// replaces it, and SetTimeout(0) clears it. A failure in transit marks the
// client broken. c.mu must be held.
func (c *Client) exchange(req []byte) (byte, []byte, error) {
	binary.LittleEndian.PutUint32(req, uint32(len(req)-4))
	c.buf = keep(req)
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.conn.Write(req)
	var resp []byte
	if err == nil {
		resp, err = readFrame(c.r)
	}
	if err == nil && len(resp) == 0 {
		err = errors.New("apiserver: empty response")
	}
	if err != nil {
		c.broken.Store(true)
		return 0, nil, err
	}
	return resp[0], resp[1:], nil
}

func statusErr(status byte, payload []byte) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return ErrNotFound
	case statusOverloaded:
		return ErrOverloaded
	case statusWrongShard:
		ws := &WrongShardError{}
		if err := json.Unmarshal(payload, ws); err != nil {
			return fmt.Errorf("apiserver: bad wrong-shard payload: %w", err)
		}
		return ws
	case statusMoving:
		mv := &ShardMovingError{}
		if err := json.Unmarshal(payload, mv); err != nil {
			return fmt.Errorf("apiserver: bad moving payload: %w", err)
		}
		return mv
	default:
		return &ServerError{Msg: string(payload)}
	}
}

// Insert stores a new record.
func (c *Client) Insert(db, key string, payload []byte) error {
	status, body, err := c.keyedRequest(opInsert, db, key, payload, true)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// Get reads a record.
func (c *Client) Get(db, key string) ([]byte, error) {
	status, body, err := c.keyedRequest(opGet, db, key, nil, false)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Update replaces a record's content.
func (c *Client) Update(db, key string, payload []byte) error {
	status, body, err := c.keyedRequest(opUpdate, db, key, payload, true)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// Delete removes a record.
func (c *Client) Delete(db, key string) error {
	status, body, err := c.keyedRequest(opDelete, db, key, nil, false)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// DBStats fetches the node's per-database dedup state.
func (c *Client) DBStats() ([]core.DBStats, error) {
	status, body, err := c.roundTrip(opDBStats, nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body); err != nil {
		return nil, err
	}
	var out []core.DBStats
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("apiserver: %w", err)
	}
	return out, nil
}

// Verify runs a full integrity scan on the server.
func (c *Client) Verify() (node.VerifyReport, error) {
	status, body, err := c.roundTrip(opVerify, nil)
	if err != nil {
		return node.VerifyReport{}, err
	}
	if err := statusErr(status, body); err != nil {
		return node.VerifyReport{}, err
	}
	var rep node.VerifyReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return node.VerifyReport{}, fmt.Errorf("apiserver: %w", err)
	}
	return rep, nil
}

// ---- cluster client ops ----

// RingJSON fetches the server's active ring wire form (cluster servers only).
func (c *Client) RingJSON() ([]byte, error) {
	status, body, err := c.roundTrip(opRing, nil)
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, body); err != nil {
		return nil, err
	}
	return body, nil
}

// InstallRingJSON installs a ring body on the server, opening (or staging) a
// rebalance window.
func (c *Client) InstallRingJSON(body []byte) error {
	status, resp, err := c.roundTrip(opInstallRing, body)
	if err != nil {
		return err
	}
	return statusErr(status, resp)
}

// BeginHandoff asks the server to push its outgoing databases to their new
// owners under the pending ring. Blocks until the transfer finishes.
func (c *Client) BeginHandoff() error {
	status, body, err := c.roundTrip(opBeginHandoff, nil)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// CommitRing finishes the server's open rebalance window.
func (c *Client) CommitRing() error {
	status, body, err := c.roundTrip(opCommitRing, nil)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// AbortRing reverts the server's open rebalance window.
func (c *Client) AbortRing() error {
	status, body, err := c.roundTrip(opAbortRing, nil)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// Transfer upserts a batch of records (repl.Batches) into the server's open
// handoff window, bypassing ring routing and admission control. Used by the
// rebalance path only.
func (c *Client) Transfer(batch []byte) error {
	status, body, err := c.roundTrip(opTransfer, batch)
	if err != nil {
		return err
	}
	return statusErr(status, body)
}

// Stats fetches the node's stats snapshot as JSON.
func (c *Client) Stats() (node.Stats, error) {
	status, body, err := c.roundTrip(opStats, nil)
	if err != nil {
		return node.Stats{}, err
	}
	if err := statusErr(status, body); err != nil {
		return node.Stats{}, err
	}
	var st node.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return node.Stats{}, fmt.Errorf("apiserver: %w", err)
	}
	return st, nil
}

// ---- framing ----

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// errorFrame is a whole response frame of status and msg, for the answers the
// server sends before it drops a connection.
func errorFrame(status byte, msg string) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(1+len(msg)))
	return append(append(f, status), msg...)
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, errors.New("apiserver: oversized frame")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
