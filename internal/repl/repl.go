// Package repl implements asynchronous primary→secondary replication: the
// paper's oplog syncer (Fig. 8). A secondary connects to the primary,
// states its position, and the primary streams oplog entry batches from
// there — entries whose insert payloads the dedup engine has already
// rewritten into forward-encoded (base reference + delta) form, which is
// where the network savings of Fig. 11 come from.
//
// All traffic crosses the netsim.Network seam, so the same protocol code
// runs over real TCP in production and over the in-memory fault-injecting
// simulator in tests. The wire format (frame.go) carries a per-frame CRC
// and sequence number; see that file for the framing grammar. Frame types:
//
//	hello      := 'H', payload mode uvarint(seq) uvarint(epoch)  secondary → primary
//	epoch      := 'P', payload uvarint(epoch)                    primary → secondary
//	batch      := 'B', payload uvarint(n) n×entry                primary → secondary
//	error      := 'E', payload utf-8 message                     primary → secondary
//	snap-begin := 'G', empty payload                             primary → secondary
//	snap-batch := 'N', payload uvarint(n) n×(db,key,record)      primary → secondary, ≤ 1 MiB or one record
//	snap-end   := 'F', payload uvarint(seq) uvarint(epoch)       primary → secondary
//	heartbeat  := 'T', empty payload                             primary → secondary
//	fetch      := 'Q', payload db key                            secondary → primary
//	answer     := 'V', payload record                            primary → secondary
//	refusal    := 'X', empty payload                             primary → secondary
//
//	record := uvarint(stamp) byte(present) [content]             content only if present
//
// db, key and content are uvarint-length-prefixed bytes. Entries inside a
// batch use oplog.Entry's own marshalling.
//
// A secondary's position is one (epoch, seq) pair: its applied low-water mark
// and the primary log that mark counts in. Every connection opens with a
// hello stating it ('S' stream, 'F' fetch). The primary streams from seq,
// after the epoch frame, if oplog.Log.Holds the position and the window still
// reaches it; otherwise it sends a snapshot (begin/batches/end), whose end
// frame carries the position it leaves the secondary at. The position moves
// only in those two frames and with the mark. A fetch is answered only in the
// asker's epoch, and refused otherwise. A record, in a snapshot or a fetch
// answer, is a key's whole state read at its stamp (node.Stamped): the
// secondary skips every entry of that key numbered up to it (node.Applier).
//
// The protocol is hardened against a misbehaving network: corrupt or
// out-of-sequence frames and silent partitions (detected by heartbeat/idle
// timeouts) tear the connection down, and a Secondary redials under bounded
// exponential backoff with jitter until it is closed, resuming from its
// position. Resume is idempotent: the stream reader dispatches entries in
// sequence order and drains the apply shards (Barrier) before reconnecting,
// so the low-water mark is exactly the last dispatched entry and nothing is
// applied twice. The secondary counts received frame bytes, giving the
// experiments exact replication traffic numbers.
package repl

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/metrics"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

const (
	frameHello = 'H'
	frameBatch = 'B'
	frameError = 'E'
	// Snapshot resync frames: a secondary that requests entries the
	// primary no longer retains gets a full snapshot (begin / record
	// batches / end) and then resumes normal batch streaming.
	frameSnapBegin = 'G'
	frameSnapBatch = 'N'
	frameSnapEnd   = 'F'
	// Record-fetch frames (on a dedicated connection): a secondary that
	// cannot resolve a forward-encoded insert's base asks the primary
	// for the record's full content (paper §4.1 fn. 4), and the primary
	// answers it or, to an asker in another epoch, refuses.
	frameFetch   = 'Q'
	frameRecord  = 'V'
	frameRefusal = 'X'

	// frameEpoch names the primary's oplog epoch once it has decided to
	// stream from the hello's seq.
	frameEpoch = 'P'
	// frameHeartbeat keeps a caught-up stream visibly alive so the
	// secondary's idle timeout only fires on a genuinely dead path.
	frameHeartbeat = 'T'

	// hello modes
	helloStream = 'S'
	helloFetch  = 'F'

	// maxFrame bounds a frame so a corrupt length cannot allocate wildly.
	maxFrame = 64 << 20
	// batchEntries is how many oplog entries one batch carries at most.
	batchEntries = 256
	// batchBytes bounds a record batch (Batches), a snap-batch frame or a
	// transfer request: below maxFrame and the API server's 8 MiB cap.
	batchBytes = 1 << 20
	// pollInterval is the primary's idle wait when the secondary is
	// caught up.
	pollInterval = 2 * time.Millisecond
	// helloTimeout bounds how long the primary waits for a connection's
	// opening hello before giving up on it.
	helloTimeout = 30 * time.Second
	// fetchIdleTimeout reaps primary-side fetch connections whose
	// secondary has silently gone away.
	fetchIdleTimeout = 5 * time.Minute
)

// Primary serves the local node's oplog to connecting secondaries.
type Primary struct {
	node *node.Node
	ln   net.Listener
	tm   netsim.Timing // the network's: heartbeat and frame-write bound
	rm   *metrics.ReplMetrics

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	sentOut metrics.Meter
}

// ListenAndServe starts a replication listener for n on addr (e.g.
// "127.0.0.1:0") over TCP.
func ListenAndServe(n *node.Node, addr string) (*Primary, error) {
	return ListenAndServeNetwork(n, addr, nil)
}

// ListenAndServeNetwork starts a replication listener on nw (nil is TCP),
// which also states the stream's clocks.
func ListenAndServeNetwork(n *node.Node, addr string, nw netsim.Network) (*Primary, error) {
	nw = cmp.Or(nw, netsim.Default)
	ln, err := nw.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	p := &Primary{node: n, ln: ln, tm: nw.Timing(), rm: n.ReplMetrics(), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listen address.
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// BytesSent returns total frame bytes sent to all secondaries.
func (p *Primary) BytesSent() int64 { return p.sentOut.Total() }

// Metrics returns the primary's transport counter bundle (the node's).
func (p *Primary) Metrics() *metrics.ReplMetrics { return p.rm }

// Close stops serving and closes all replica connections.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serveConn(conn)
	}
}

// send writes one frame under the primary's per-frame write deadline and
// accounts the bytes.
func (p *Primary) send(conn net.Conn, fw *frameWriter, typ byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(p.tm.FrameWrite))
	n, err := fw.write(typ, payload)
	if err != nil {
		return err
	}
	p.sentOut.Add(int64(n))
	return nil
}

func (p *Primary) serveConn(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		conn.Close()
	}()

	fr := &frameReader{r: conn}
	fw := &frameWriter{w: conn}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	typ, payload, err := fr.read()
	if err != nil || typ != frameHello {
		return
	}
	h, ok := readHello(payload)
	if !ok {
		return
	}
	conn.SetReadDeadline(time.Time{})
	log := p.node.Oplog()
	epoch := log.Epoch()
	if h.mode == helloFetch {
		p.serveFetches(conn, fr, fw, h.epoch == epoch)
		return
	}

	// Stream from the secondary's position if the log holds it, until the
	// window passes the cursor; a snapshot replaces a position it does not.
	cursor, snapshot, announced := h.seq, !log.Holds(h.epoch, h.seq), false
	lastSend := time.Now()
	var buf []byte // batch payload, reused: send copies it into the frame
	for {
		ents, err := log.EntriesSince(cursor, batchEntries)
		if snapshot || errors.Is(err, oplog.ErrTruncated) {
			if cursor, err = p.sendSnapshot(conn, fw, epoch); err != nil {
				return
			}
			snapshot, announced, lastSend = false, true, time.Now()
			continue
		}
		if err != nil {
			p.send(conn, fw, frameError, []byte(err.Error()))
			return
		}
		if !announced {
			// The position stands: name the log it is a point of.
			if err := p.send(conn, fw, frameEpoch, binary.AppendUvarint(nil, epoch)); err != nil {
				return
			}
			announced = true
		}
		if len(ents) == 0 {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			if time.Since(lastSend) >= p.tm.Heartbeat {
				if err := p.send(conn, fw, frameHeartbeat, nil); err != nil {
					return
				}
				p.rm.HeartbeatsSent.Add(1)
				lastSend = time.Now()
			}
			time.Sleep(pollInterval)
			continue
		}
		buf = binary.AppendUvarint(buf[:0], uint64(len(ents)))
		for _, e := range ents {
			buf = e.AppendMarshal(buf)
		}
		if err := p.send(conn, fw, frameBatch, buf); err != nil {
			return
		}
		lastSend = time.Now()
		cursor = ents[len(ents)-1].Seq
	}
}

// serveFetches answers record-fetch requests on a dedicated connection;
// inEpoch says whether the asker's position is in this primary's log, and
// every request of an asker in another is refused: this primary's records say
// nothing about that log's numbers.
func (p *Primary) serveFetches(conn net.Conn, fr *frameReader, fw *frameWriter, inEpoch bool) {
	for {
		conn.SetReadDeadline(time.Now().Add(fetchIdleTimeout))
		typ, payload, err := fr.read()
		if err != nil || typ != frameFetch {
			return
		}
		db, rest, ok := readLenBytes(payload)
		if !ok {
			return
		}
		key, _, ok := readLenBytes(rest)
		if !ok {
			return
		}
		if !inEpoch {
			if err := p.send(conn, fw, frameRefusal, nil); err != nil {
				return
			}
			continue
		}
		r, err := p.node.ReadStamped(string(db), string(key))
		if err != nil {
			if werr := p.send(conn, fw, frameError, []byte(err.Error())); werr != nil {
				return
			}
			continue
		}
		if err := p.send(conn, fw, frameRecord, appendStamped(nil, r)); err != nil {
			return
		}
	}
}

// sendSnapshot streams the node's full state, each key stamped, and returns
// the oplog cursor normal streaming resumes from: the scan's, up to which
// every mutation is in the records. The end frame states it with epoch, the
// log's: the position the snapshot leaves the secondary at.
func (p *Primary) sendSnapshot(conn net.Conn, fw *frameWriter, epoch uint64) (uint64, error) {
	if err := p.send(conn, fw, frameSnapBegin, nil); err != nil {
		return 0, err
	}
	var sendErr error
	cursor, err := Batches(p.node, "", true, func(batch []byte, _ int) error {
		sendErr = p.send(conn, fw, frameSnapBatch, batch)
		return sendErr
	})
	if err != nil {
		if sendErr == nil {
			p.send(conn, fw, frameError, []byte(err.Error()))
		}
		return 0, err
	}
	if err := p.send(conn, fw, frameSnapEnd, binary.AppendUvarint(binary.AppendUvarint(nil, cursor), epoch)); err != nil {
		return 0, err
	}
	return cursor, nil
}

// hello is a connection's opening frame: what the connection is for, and the
// position of the secondary that opened it.
type hello struct {
	mode       byte // helloStream or helloFetch
	seq, epoch uint64
}

func (h hello) append(dst []byte) []byte {
	dst = binary.AppendUvarint(append(dst, h.mode), h.seq)
	return binary.AppendUvarint(dst, h.epoch)
}

// readHello decodes a hello payload, the stream's and the fetch's alike.
func readHello(p []byte) (h hello, ok bool) {
	if len(p) == 0 || (p[0] != helloStream && p[0] != helloFetch) {
		return h, false
	}
	seq, k := binary.Uvarint(p[1:])
	if k <= 0 {
		return h, false
	}
	epoch, k2 := binary.Uvarint(p[1+k:])
	if k2 <= 0 || 1+k+k2 != len(p) {
		return h, false
	}
	return hello{mode: p[0], seq: seq, epoch: epoch}, true
}

// dial opens a connection to the primary at addr and sends h on it, counting
// the attempt in rm. The deadline bounds the dial and the hello, and stays
// set on the connection.
func dial(network netsim.Network, addr string, deadline time.Time, rm *metrics.ReplMetrics, h hello) (net.Conn, *frameReader, *frameWriter, error) {
	rm.Dials.Add(1)
	conn, err := network.DialTimeout(addr, time.Until(deadline))
	if err == nil {
		conn.SetDeadline(deadline)
		fw := &frameWriter{w: conn}
		if _, err = fw.write(frameHello, h.append(nil)); err == nil {
			return conn, &frameReader{r: conn}, fw, nil
		}
		conn.Close()
	}
	rm.DialFailures.Add(1)
	return nil, nil, nil, err
}

// Batches scans db with node.Scan, every database when all is set, and hands
// fn its records, for a snapshot or a handoff, as batches of uvarint(n)
// n×(db, key, record) with their n, cut before 128 records or batchBytes (a
// larger record travels alone). fn's batch is reused once it returns; its
// first error ends the scan.
func Batches(n *node.Node, db string, all bool, fn func(batch []byte, records int) error) (cursor uint64, err error) {
	var recs, batch []byte
	var count int
	var fnErr error
	flush := func() bool {
		batch = append(binary.AppendUvarint(batch[:0], uint64(count)), recs...)
		recs, count, fnErr = recs[:0], 0, fn(batch, count)
		return fnErr == nil
	}
	cursor, err = n.Scan(db, func(d, key string, r node.Stamped) bool {
		// A record's form is its bytes, four uvarints and the present byte.
		full := count == 128 || count > 0 && len(recs)+len(d)+len(key)+len(r.Content)+48 > batchBytes
		// A database named "" scans as "all"; it sorts first.
		if d != db && !all || full && !flush() {
			return false
		}
		recs, count = AppendRecord(recs, d, key, r), count+1
		return true
	})
	if err == nil && fnErr == nil && count > 0 {
		flush()
	}
	return cursor, cmp.Or(err, fnErr)
}

// AppendRecord appends one record of a batch: db, key and the stamped record.
func AppendRecord(dst []byte, db, key string, r node.Stamped) []byte {
	return appendStamped(appendLenBytes(appendLenBytes(dst, []byte(db)), []byte(key)), r)
}

// ReadBatch walks a batch, handing fn each record in order (r.Content aliases
// batch), and returns fn's first error or the first fault of a corrupt batch.
func ReadBatch(batch []byte, fn func(db, key string, r node.Stamped) error) error {
	count, k := binary.Uvarint(batch)
	p, ok := batch[max(k, 0):], k > 0
	for ; ok && count > 0; count-- {
		// A failed read leaves a nil rest, and every read of nil fails.
		db, rest, _ := readLenBytes(p)
		key, rest, _ := readLenBytes(rest)
		var r node.Stamped
		if r, p, ok = readStamped(rest); ok {
			if err := fn(string(db), string(key), r); err != nil {
				return err
			}
		}
	}
	if !ok || len(p) > 0 {
		return errors.New("repl: corrupt batch")
	}
	return nil
}

// appendStamped appends the wire form of a stamped record.
func appendStamped(dst []byte, r node.Stamped) []byte {
	dst = binary.AppendUvarint(dst, r.Stamp)
	if !r.Present {
		return append(dst, 0)
	}
	return appendLenBytes(append(dst, 1), r.Content)
}

// readStamped decodes one stamped record off the front of p, for a snapshot
// batch and a fetch answer alike; the content aliases p.
func readStamped(p []byte) (r node.Stamped, rest []byte, ok bool) {
	stamp, k := binary.Uvarint(p)
	if k <= 0 || len(p) == k || p[k] > 1 {
		return r, nil, false
	}
	r.Stamp, r.Present, rest = stamp, p[k] == 1, p[k+1:]
	if r.Present {
		r.Content, rest, ok = readLenBytes(rest)
		return r, rest, ok
	}
	return r, rest, true
}

func appendLenBytes(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func readLenBytes(p []byte) ([]byte, []byte, bool) {
	l, k := binary.Uvarint(p)
	if k <= 0 || uint64(len(p)-k) < l {
		return nil, nil, false
	}
	return p[k : k+int(l)], p[k+int(l):], true
}

// transientErr tags an error as transport-level: worth a reconnect rather
// than terminal.
type transientErr struct{ error }

func (t transientErr) Unwrap() error { return t.error }

func transient(err error) error { return transientErr{err} }

func isTransient(err error) bool {
	var t transientErr
	return errors.As(err, &t)
}

// Secondary pulls the primary's oplog and applies it into the local node
// through a database-sharded apply pool (node.Applier): the stream reader
// decodes frames and dispatches entries to per-database FIFO workers, so
// mutations to one database apply in sequence order while independent
// databases apply in parallel — the secondary-side mirror of the primary's
// encoder pool. AppliedSeq is a low-water mark across the shards; snapshot
// frames act as barriers (drain all shards, then rebase the mark).
//
// The secondary has one fault policy: a transport failure, on the stream or
// on a base fetch, is retried under the same jittered backoff until it
// succeeds or Close is called. After a stream fault it drains the apply
// shards, backs off, redials, and states its position again (see the package
// comment).
type Secondary struct {
	node    *node.Node
	applier *node.Applier
	fetch   *fetchClient
	nw      netsim.Network
	tm      netsim.Timing // nw's: backoff, dial and idle bounds
	addr    string
	rm      *metrics.ReplMetrics

	closed               atomic.Bool
	closedCh             chan struct{}
	resyncs, snapRecords atomic.Uint64

	mu      sync.Mutex
	conn    net.Conn
	fr      *frameReader
	epoch   uint64 // of the log the applier's low-water mark counts in
	err     error
	done    chan struct{}
	bytesIn metrics.Meter
}

// Connect dials the primary over TCP and starts applying its oplog from
// afterSeq (normally 0 for a fresh secondary).
func Connect(n *node.Node, addr string, afterSeq uint64) (*Secondary, error) {
	return connect(n, addr, afterSeq, 0, nil)
}

// ConnectNetwork is Connect from sequence zero over nw (nil is TCP), which
// also states the secondary's clocks.
func ConnectNetwork(n *node.Node, addr string, nw netsim.Network) (*Secondary, error) {
	return connect(n, addr, 0, 0, nw)
}

// connect starts a secondary at position (epoch, afterSeq) (epoch 0: none).
// If the primary's log does not hold it (the primary restarted since, or the
// window passed it), the stream falls back to a full snapshot resync.
func connect(n *node.Node, addr string, afterSeq, epoch uint64, nw netsim.Network) (*Secondary, error) {
	nw = cmp.Or(nw, netsim.Default)
	s := &Secondary{
		node:     n,
		nw:       nw,
		tm:       nw.Timing(),
		addr:     addr,
		rm:       n.ReplMetrics(),
		epoch:    epoch,
		closedCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.fetch = &fetchClient{
		addr:     addr,
		timeout:  s.tm.Fetch,
		network:  nw,
		rm:       s.rm,
		bytesIn:  &s.bytesIn,
		backoff:  s.sleepBackoff,
		position: s.position,
	}
	// The apply pool is sized like the encoder pool: GOMAXPROCS shards.
	s.applier = node.NewApplier(n, afterSeq, node.ApplierOptions{Fetch: s.fetch.fetch})
	if err := s.dialAndHello(); err != nil {
		s.applier.Close()
		return nil, fmt.Errorf("repl: %w", err)
	}
	go s.run()
	return s, nil
}

// position is where the secondary stands, as its hellos state it: the epoch
// of the log its low-water mark counts in, and the mark (exact on the stream,
// because the caller drains the shards before reconnecting). A node that
// holds records at (0, 0) is at no point of any log: it restarted, or its
// first snapshot was cut off.
func (s *Secondary) position() (epoch, seq uint64) {
	epoch, seq = s.Epoch(), s.AppliedSeq()
	if epoch == 0 && seq == 0 && len(s.node.DBNames()) > 0 {
		epoch = oplog.UnknownEpoch
	}
	return epoch, seq
}

// dialAndHello establishes the stream connection, stating the secondary's
// position, and installs it on success.
func (s *Secondary) dialAndHello() error {
	epoch, seq := s.position()
	conn, fr, _, err := dial(s.nw, s.addr, time.Now().Add(s.tm.Dial), s.rm, hello{helloStream, seq, epoch})
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		conn.Close()
		return net.ErrClosed
	}
	s.conn, s.fr = conn, fr
	s.mu.Unlock()
	if epoch == oplog.UnknownEpoch {
		s.rm.ForcedResyncs.Add(1)
	}
	return nil
}

// run owns the secondary's lifecycle: stream until the connection fails,
// then drain, back off, redial and resume, for as long as it takes; a
// terminal error or Close ends it.
func (s *Secondary) run() {
	defer close(s.done)
	failures := 0
	for {
		progressed, err := s.stream()
		if progressed {
			failures = 0
		}
		if s.closed.Load() {
			return
		}
		if !isTransient(err) {
			s.fail(err)
			return
		}
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.mu.Unlock()
		// Drain the apply shards: afterwards the low-water mark equals the
		// highest dispatched sequence, so resuming from it re-fetches
		// exactly the undelivered suffix — nothing is applied twice.
		s.applier.Barrier()
		if aerr := s.applier.Err(); aerr != nil {
			s.fail(fmt.Errorf("repl: %w", aerr))
			return
		}
		for {
			failures++
			if !s.sleepBackoff(failures) {
				return
			}
			if s.dialAndHello() == nil {
				break
			}
		}
		s.rm.Reconnects.Add(1)
	}
}

// sleepBackoff waits the jittered exponential backoff for the given
// consecutive-failure count, of the stream or of a fetch: the network's
// Backoff, doubled per failure up to its MaxBackoff. False means the
// secondary closed meanwhile.
func (s *Secondary) sleepBackoff(attempt int) bool {
	d := s.tm.Backoff
	for i := 1; i < attempt && d < s.tm.MaxBackoff; i++ {
		d *= 2
	}
	d = min(d, s.tm.MaxBackoff)
	// Full ±50% jitter decorrelates a fleet of secondaries hammering a
	// recovering primary.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	s.rm.BackoffNanos.Add(int64(d))
	select {
	case <-time.After(d):
		return true
	case <-s.closedCh:
		return false
	}
}

// stream consumes frames off the current connection until it fails.
// progressed reports whether at least one frame was fully processed (used
// to reset the consecutive-failure budget).
func (s *Secondary) stream() (progressed bool, err error) {
	s.mu.Lock()
	conn, fr := s.conn, s.fr
	s.mu.Unlock()
	for {
		conn.SetReadDeadline(time.Now().Add(s.tm.Idle))
		typ, payload, rerr := fr.read()
		if rerr != nil {
			var ne net.Error
			if errors.As(rerr, &ne) && ne.Timeout() {
				// Nothing on the wire for a full idle window — not even a
				// heartbeat. Silent partition.
				s.rm.IdleTimeouts.Add(1)
				rerr = fmt.Errorf("repl: idle timeout: %w", rerr)
			}
			countFrameError(s.rm, rerr)
			return progressed, transient(rerr)
		}
		// An apply worker hitting a terminal error poisons the applier;
		// stop consuming the stream instead of dispatching into it.
		if aerr := s.applier.Err(); aerr != nil {
			return progressed, fmt.Errorf("repl: %w", aerr)
		}
		s.bytesIn.Add(int64(len(payload) + frameHeaderSize))
		if herr := s.handleFrame(typ, payload); herr != nil {
			return progressed, herr
		}
		progressed = true
	}
}

// handleFrame applies one validated frame. A returned error is terminal
// unless wrapped transient.
func (s *Secondary) handleFrame(typ byte, payload []byte) error {
	switch typ {
	case frameHeartbeat:
		// Liveness only; resetting the read deadline happened by arriving.
	case frameBatch:
		count, k := binary.Uvarint(payload)
		if k <= 0 {
			return errors.New("repl: corrupt batch")
		}
		p := payload[k:]
		for i := uint64(0); i < count; i++ {
			e, n, err := oplog.Unmarshal(p)
			if err != nil {
				return fmt.Errorf("repl: batch entry: %w", err)
			}
			p = p[n:]
			// Dispatch to the entry's database shard; blocks only
			// when that shard is at capacity (backpressure onto the
			// TCP stream). ErrBaseMissing falls back to a full-record
			// fetch inside the worker (paper §4.1 fn. 4).
			s.applier.EnqueueEntry(e, false)
		}
	case frameEpoch:
		ep, k := binary.Uvarint(payload)
		if k <= 0 {
			return errors.New("repl: corrupt epoch frame")
		}
		s.mu.Lock()
		s.epoch = ep
		s.mu.Unlock()
	case frameSnapBegin:
		// Barrier: the snapshot's records replace state across
		// arbitrary databases and must not interleave with entries
		// still in flight on any shard.
		s.applier.Barrier()
		if err := s.applier.Err(); err != nil {
			return fmt.Errorf("repl: %w", err)
		}
		s.applier.BeginSnapshot()
		s.resyncs.Add(1)
	case frameSnapBatch:
		// Snapshot records ride the per-database shards, untracked by the
		// low-water mark; no batch frame interleaves with a snapshot.
		return ReadBatch(payload, func(db, key string, r node.Stamped) error {
			s.applier.EnqueueSnapshotRecord(db, key, r)
			s.snapRecords.Add(1)
			return nil
		})
	case frameSnapEnd:
		cursor, k := binary.Uvarint(payload)
		epoch, k2 := binary.Uvarint(payload[max(k, 0):])
		if k <= 0 || k2 <= 0 {
			return errors.New("repl: corrupt snapshot end")
		}
		// Barrier: every snapshot record must be installed before the
		// reconcile deletes what the snapshot did not list and the
		// position moves to the cursor, in that order: once the mark
		// moves, WaitForSeq callers take those deletes as applied. A
		// delete that fails leaves the snapshot unapplied: the position
		// stays the pre-snapshot one, which the primary cannot serve, so
		// the reconnect brings a fresh snapshot. The mark moves before the
		// epoch, so an Epoch read names the log of the AppliedSeq read
		// after it.
		s.applier.Barrier()
		if err := s.applier.Err(); err != nil {
			return fmt.Errorf("repl: %w", err)
		}
		if err := s.applier.EndSnapshot(cursor); err != nil {
			return transient(fmt.Errorf("repl: %w", err))
		}
		s.mu.Lock()
		s.epoch = epoch
		s.mu.Unlock()
	case frameError:
		return fmt.Errorf("repl: primary: %s", payload)
	default:
		return fmt.Errorf("repl: unexpected frame %q", typ)
	}
	return nil
}

func (s *Secondary) fail(err error) {
	s.mu.Lock()
	if s.err == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.err = err
	}
	s.mu.Unlock()
}

// AppliedSeq returns the applied-sequence low-water mark: every entry at or
// below it has been applied on every shard.
func (s *Secondary) AppliedSeq() uint64 {
	return s.applier.LowWater()
}

// Err returns the first terminal replication error, if any — a stream
// failure or an apply-worker failure. Transport faults are retried until
// Close and never terminal, and neither is a fetch that Close cut short.
func (s *Secondary) Err() error {
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if aerr := s.applier.Err(); aerr != nil && !errors.Is(aerr, net.ErrClosed) {
		return fmt.Errorf("repl: %w", aerr)
	}
	return nil
}

// BytesReceived returns the replication traffic received so far.
func (s *Secondary) BytesReceived() int64 { return s.bytesIn.Total() }

// Metrics returns the secondary's transport counter bundle.
func (s *Secondary) Metrics() *metrics.ReplMetrics { return s.rm }

// Resyncs reports how many full snapshot transfers this secondary performed
// and how many records arrived via snapshots.
func (s *Secondary) Resyncs() (count, records uint64) {
	return s.resyncs.Load(), s.snapRecords.Load()
}

// WaitForSeq blocks until the secondary has applied seq (the low-water mark
// reaches it, i.e. every shard is caught up), the stream fails terminally,
// or the timeout expires.
func (s *Secondary) WaitForSeq(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.AppliedSeq() >= seq {
			return nil
		}
		if err := s.Err(); err != nil {
			return err
		}
		select {
		case <-s.done:
			// The stream reader has exited but dispatched entries may
			// still be in flight on the shards: drain them before the
			// final verdict.
			s.applier.Barrier()
			if s.AppliedSeq() >= seq {
				return nil
			}
			if err := s.Err(); err != nil {
				return err
			}
			return errors.New("repl: stream closed before reaching sequence")
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: timeout waiting for seq %d (at %d)", seq, s.AppliedSeq())
		}
	}
}

// Epoch returns the epoch of the primary log that AppliedSeq counts in: 0
// until the secondary has a position in one. It moves with the mark, when
// the primary starts streaming from the secondary's position or a snapshot
// ends, never while a snapshot is in flight.
func (s *Secondary) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// BaseFetches reports how many forward-encoded inserts needed a full-record
// fetch from the primary because their base was locally unavailable.
func (s *Secondary) BaseFetches() uint64 {
	return uint64(s.node.ApplyMetrics().BaseFetches.Total())
}

// ApplyMetrics exposes the apply-pipeline instrumentation (queue depth,
// per-entry latency, base fetches).
func (s *Secondary) ApplyMetrics() *metrics.ApplyMetrics {
	return s.node.ApplyMetrics()
}

// Close tears down the connection, stops the reconnect loop, drains the
// apply shards, and stops the workers.
func (s *Secondary) Close() error {
	if s.closed.Swap(true) {
		<-s.done
		return nil
	}
	close(s.closedCh)
	s.mu.Lock()
	var err error
	if s.conn != nil {
		err = s.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
	// The stream reader has exited; drain and stop the apply pool, then
	// the fetch connection it may have been using.
	s.applier.Close()
	s.fetch.close()
	return err
}
