package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/apiserver"
)

// runCfg is one invocation: one workload, one seed, one pass.
type runCfg struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sz        sizes
	root      string // directory the data directories are created under
	verifyAll bool   // also run node.VerifyAll (too slow for the driver's time cap)
	spansPath string // where the traced run dumps its spans ("" = nowhere)
}

func (c runCfg) unique() bool     { return c.workload == wIngestUnique }
func (c runCfg) replicated() bool { return c.workload == wMixedReplicated }

// connOut is what one connection's loop measured.
type connOut struct {
	ins, reads             []sample
	attempted, failed      int64
	genNS                  int64 // time spent producing ops
	tracedOps, untracedOps int64
}

// tracer is the traced end-to-end pass's switch: a controller flips on every
// traceSlice, loops record client spans while it is on, and a 20 Hz sampler
// reads queue depth and replica lag.
type tracer struct {
	on            atomic.Bool
	log           *spanLog
	onNS, offNS   int64
	depth, lagOps []float64
}

// loop is one connection's closed op loop: the next op is sent when the
// previous one has been answered. With ops > 0 it sends exactly that many
// (set-up phases); otherwise it runs until deadline.
type loop struct {
	client   *apiserver.Client
	st       *connStream
	ops      int
	begin    time.Time
	deadline time.Time
	pickRead func(*connStream) bool
	chooser  func(*connStream) ackedKey
	tr       *tracer
	conn     int
}

func (l *loop) run(out *connOut) {
	for i := 0; l.ops == 0 || i < l.ops; i++ {
		g0 := time.Now()
		if l.ops == 0 && !g0.Before(l.deadline) {
			return
		}
		read := l.pickRead != nil && len(l.st.acked) > 0 && l.pickRead(l.st)
		var want ackedKey
		var dbi int
		var key string
		var payload []byte
		if read {
			want = l.chooser(l.st)
		} else {
			dbi, key, payload = l.st.nextInsert()
		}
		t0 := time.Now()
		out.genNS += int64(t0.Sub(g0))
		var err error
		if read {
			err = checkedGet(l.client.Get, l.st, want)
		} else {
			err = l.client.Insert(l.st.dbs[dbi].db, key, payload)
		}
		t1 := time.Now()
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		s := sample{end: t1.Sub(l.begin), lat: t1.Sub(t0)}
		if read {
			out.reads = append(out.reads, s)
		} else {
			l.st.ack(dbi, key, payload)
			out.ins = append(out.ins, s)
		}
		if l.tr != nil && l.tr.on.Load() {
			name := "client.insert"
			if read {
				name = "client.get"
			}
			l.tr.log.add(name, "", int64(l.conn)<<32|int64(i), t0, t1)
			out.tracedOps++
		} else {
			out.untracedOps++
		}
	}
}

// errOtherBytes is a read that succeeded with a payload whose checksum is not
// the acked one.
var errOtherBytes = errors.New("read returned other bytes than were acked")

// checkedGet reads acked key k through get and compares checksums.
func checkedGet(get func(db, key string) ([]byte, error), st *connStream, k ackedKey) error {
	got, err := get(st.dbs[k.db].db, k.key)
	if err == nil && payloadSum(got) != k.sum {
		err = errOtherBytes
	}
	return err
}

// runLoops runs one loop per connection and waits for all of them.
func runLoops(loops []*loop) []connOut {
	outs := make([]connOut, len(loops))
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func(l *loop, out *connOut) {
			defer wg.Done()
			l.run(out)
		}(l, &outs[i])
	}
	wg.Wait()
	return outs
}

// setupOut is a finished set-up: the running system, each connection's
// stream, and the insert round trips set-up measured (warm-up or preload).
type setupOut struct {
	s       *sut
	streams []*connStream
	ins     []sample
	took    time.Duration
	failed  int64
}

// setup opens a fresh system and brings it to where the measured phase starts:
// open + listen + dial, then warm-up inserts; read_zipf instead preloads its
// corpus, drains the encoder, applies every write-back and compacts, so
// chains sit in hop form, then warms the block cache with reads.
func setup(cfg runCfg) (*setupOut, error) {
	begin := time.Now()
	conns := numConns()
	s, err := openSUT(cfg.root, conns, cfg.replicated())
	if err != nil {
		return nil, err
	}
	o := &setupOut{s: s}
	perConn := cfg.sz.warmupOps
	if cfg.workload == wReadZipf {
		perConn = cfg.sz.preloadOps / conns
	}
	loops := make([]*loop, conns)
	for c := range loops {
		o.streams = append(o.streams, newConnStream(cfg.seed, c, conns, cfg.unique()))
		loops[c] = &loop{client: s.clients[c], st: o.streams[c], ops: perConn, begin: begin, conn: c}
	}
	for _, out := range runLoops(loops) {
		o.ins = append(o.ins, out.ins...)
		o.failed += out.failed
	}
	s.primary.Barrier()
	if cfg.workload == wReadZipf {
		s.primary.FlushWritebacks(-1)
		if _, err := s.primary.Compact(); err != nil {
			s.close()
			return nil, fmt.Errorf("compacting the preload: %w", err)
		}
		for c, l := range loops {
			o.streams[c].freezeDocs()
			l.ops, l.pickRead, l.chooser = cfg.sz.warmReads, alwaysRead, (*connStream).readZipf
		}
		for _, out := range runLoops(loops) {
			o.failed += out.failed
		}
	}
	if s.follower != nil {
		if err := s.follower.WaitForSeq(s.primary.Oplog().LastSeq(), 10*time.Second); err != nil {
			s.close()
			return nil, fmt.Errorf("secondary did not catch up with the warm-up: %w", err)
		}
	}
	o.took = time.Since(begin)
	return o, nil
}

func alwaysRead(*connStream) bool  { return true }
func coinRead(st *connStream) bool { return st.rng.Intn(2) == 0 }

// measured is the outcome of the measured phase.
type measured struct {
	outs []connOut
	wall time.Duration // first send to the end of Barrier
	// drain is how long Barrier waited for the encoder pool after the last
	// ack.
	drain time.Duration
	// converged is false when the secondary had not applied the primary's
	// whole oplog 10 s after the last ack.
	converged  bool
	tr         *tracer
	mem0, mem1 runtime.MemStats
}

// measure runs the workload's measured phase against a set-up system.
func measure(cfg runCfg, o *setupOut) *measured {
	m := &measured{converged: true}
	conns := len(o.streams)
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	loops := make([]*loop, conns)
	for c := range loops {
		l := &loop{client: o.s.clients[c], st: o.streams[c], begin: begin, deadline: deadline, conn: c}
		switch cfg.workload {
		case wReadZipf:
			l.pickRead, l.chooser = alwaysRead, (*connStream).readZipf
		case wMixedReplicated:
			l.pickRead, l.chooser = coinRead, (*connStream).readRecent
		}
		loops[c] = l
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if cfg.trace {
		m.tr = &tracer{log: newSpanLog()}
		for _, l := range loops {
			l.tr = m.tr
		}
		bg.Add(1)
		go func() {
			defer bg.Done()
			m.tr.control(o.s, time.Duration(cfg.sz.traceSliceMS)*time.Millisecond, stop)
		}()
	}
	runtime.ReadMemStats(&m.mem0)
	m.outs = runLoops(loops)
	lastAck := time.Now()
	o.s.primary.Barrier()
	m.drain = time.Since(lastAck)
	m.wall = time.Since(begin)
	runtime.ReadMemStats(&m.mem1)
	close(stop)
	bg.Wait()
	if o.s.follower != nil {
		m.converged = o.s.follower.WaitForSeq(o.s.primary.Oplog().LastSeq(), 10*time.Second) == nil
	}
	return m
}

// control alternates tracing on and off every slice and, while it is on,
// samples the encoder queue depth and the replica's lag at 20 Hz.
func (t *tracer) control(s *sut, slice time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	flipped := time.Now()
	for {
		select {
		case <-stop:
			t.account(time.Since(flipped))
			t.on.Store(false)
			return
		case now := <-tick.C:
			if t.on.Load() {
				t.depth = append(t.depth, float64(s.primary.EncodeMetrics().QueueDepth.Value()))
				if s.follower != nil {
					lag := int64(s.primary.Oplog().LastSeq()) - int64(s.follower.AppliedSeq())
					t.lagOps = append(t.lagOps, math.Max(0, float64(lag)))
				}
			}
			if now.Sub(flipped) >= slice {
				t.account(now.Sub(flipped))
				t.on.Store(!t.on.Load())
				flipped = now
			}
		}
	}
}

func (t *tracer) account(d time.Duration) {
	if t.on.Load() {
		t.onNS += int64(d)
	} else {
		t.offNS += int64(d)
	}
}

// verifyBatch is how many keys each connection re-reads between two forced
// collections: ~45 KiB of garbage per read keeps a batch under 200 MiB, less
// than the heap an ingest leaves live.
const verifyBatch = 4096

// verifyOut is the correctness gate's outcome.
type verifyOut struct {
	reads         []sample // timed client re-reads
	attempted     int64
	lost, corrupt int64
	verifyAll     []string // VerifyAll summaries, when it ran
	verifyAllOK   bool
}

// verify re-reads, through each connection's client, every document's latest
// revision and a seeded 30 % of all acked keys, and compares checksums; on a
// replicated system the same keys are also read from the secondary. With
// verifyAll it also scrubs every stored record on each node.
func verify(cfg runCfg, o *setupOut) verifyOut {
	begin := time.Now()
	samples := make([][]int32, len(o.streams))
	batches := 0
	for c, st := range o.streams {
		samples[c] = st.verifySample()
		if n := (len(samples[c]) + verifyBatch - 1) / verifyBatch; n > batches {
			batches = n
		}
	}
	parts := make([]verifyOut, len(o.streams)) // one per connection, merged below
	check := func(part *verifyOut, err error) bool {
		part.attempted++
		switch {
		case errors.Is(err, errOtherBytes):
			part.corrupt++
		case err != nil:
			part.lost++
		}
		return err == nil
	}
	for b := 0; b < batches; b++ {
		// Every batch starts from a collected heap and is too small to start
		// a collection of its own, so no timed read shares the processor with
		// the garbage collector: what the read-back's tail shows is the
		// decode path, not where in a collection cycle a read happened to fall.
		runtime.GC()
		var wg sync.WaitGroup
		for c, st := range o.streams {
			lo, hi := b*verifyBatch, (b+1)*verifyBatch
			if lo >= len(samples[c]) {
				continue
			}
			if hi > len(samples[c]) {
				hi = len(samples[c])
			}
			wg.Add(1)
			go func(c int, st *connStream, keys []int32) {
				defer wg.Done()
				part := &parts[c]
				for _, i := range keys {
					t0 := time.Now()
					err := checkedGet(o.s.clients[c].Get, st, st.acked[i])
					t1 := time.Now()
					if check(part, err) {
						part.reads = append(part.reads, sample{end: t1.Sub(begin), lat: t1.Sub(t0)})
					}
					if o.s.secondary != nil {
						check(part, checkedGet(o.s.secondary.Read, st, st.acked[i]))
					}
				}
			}(c, st, samples[c][lo:hi])
		}
		wg.Wait()
	}
	v := verifyOut{verifyAllOK: true}
	for _, part := range parts {
		v.reads = append(v.reads, part.reads...)
		v.attempted += part.attempted
		v.lost += part.lost
		v.corrupt += part.corrupt
	}
	if cfg.verifyAll {
		rep := o.s.primary.VerifyAll()
		v.verifyAll = append(v.verifyAll, "primary "+rep.String())
		v.verifyAllOK = rep.Ok()
		if o.s.secondary != nil {
			rep := o.s.secondary.VerifyAll()
			v.verifyAll = append(v.verifyAll, "secondary "+rep.String())
			v.verifyAllOK = v.verifyAllOK && rep.Ok()
		}
	}
	return v
}

// report is everything one invocation produced beyond the driver's result
// line; -detail writes it as JSON.
type report struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Result   result    `json:"result"`
	Host     hostFacts `json:"host"`
	// Config is the node configuration every workload runs.
	Config string `json:"node_config"`
	// Sizes are the frozen op counts.
	Sizes map[string]float64 `json:"sizes"`
	// Samples is the sample count behind each latency metric.
	Samples map[string]int `json:"samples"`
	// Ungated are further readings of the same samples, for judging how a
	// gated percentile was chosen; no bound applies to them.
	Ungated map[string]float64 `json:"ungated"`
	// OpStreamHash is each connection's hash over every op it issued.
	OpStreamHash []string  `json:"op_stream_hash"`
	SetupS       []float64 `json:"setup_s_each"`
	Lost         int64     `json:"verify_lost"`
	Corrupt      int64     `json:"verify_corrupt"`
	VerifyAll    []string  `json:"verify_all,omitempty"`
	Converged    bool      `json:"secondary_converged"`
	CostTable    []costRow `json:"cost_table,omitempty"`
	Notes        []string  `json:"notes,omitempty"`
}

// phaseLog returns a function that reports on standard error how long each
// phase of a run took, starting now.
func phaseLog() func(name string) {
	last := time.Now()
	report := func(name string) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "benchmark: %-34s %6.2f s\n", name, now.Sub(last).Seconds())
		last = now
	}
	return report
}

// runWorkload runs one workload once and returns what it measured. With
// cfg.trace the per-layer metrics are reported, otherwise the end-to-end ones.
func runWorkload(cfg runCfg) (*report, error) {
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host:    readHostFacts(),
		Config:  fmt.Sprintf("%+v", nodeOptions("<dir>", false)),
		Samples: map[string]int{},
		Ungated: map[string]float64{},
		Sizes: map[string]float64{"warmup_ops_per_conn": float64(cfg.sz.warmupOps),
			"preload_ops": float64(cfg.sz.preloadOps), "warm_reads_per_conn": float64(cfg.sz.warmReads),
			"ladder_warm": float64(cfg.sz.ladderWarm), "ladder_ops": float64(cfg.sz.ladderOps)},
	}
	// Set-up runs several times so that setup_s is a median; the traced run
	// does not report it and sets up once.
	reps := cfg.sz.setupReps
	if cfg.workload == wReadZipf {
		reps = cfg.sz.preloadSetupReps
	}
	if cfg.trace {
		reps = 1
	}
	phase := phaseLog()
	var o *setupOut
	var setupP50, setupP95 []float64 // set-up's insert round trips, per repetition
	for i := 0; i < reps; i++ {
		if o != nil {
			o.s.close()
		}
		var err error
		if o, err = setup(cfg); err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, o.took.Seconds())
		setupP50 = append(setupP50, slicedPercentile(o.ins, 0.50))
		setupP95 = append(setupP95, slicedPercentile(o.ins, 0.95))
	}
	// Closing twice is harmless; the traced run closes early, before the ladder.
	defer o.s.close()
	phase(fmt.Sprintf("set-up, %d times", reps))

	m := measure(cfg, o)
	rep.Converged = m.converged
	phase("measured phase and drain")

	if !cfg.trace {
		// The stored size is taken once no write-back is left to apply.
		o.s.primary.FlushWritebacks(-1)
		if err := o.s.primary.Store().Flush(); err != nil {
			return nil, fmt.Errorf("flushing the store: %w", err)
		}
		phase("write-back flush")
	}
	st := o.s.primary.Stats()
	idx := o.s.primary.FeatIdxSnapshot()
	v := verify(cfg, o)
	phase("verification")
	rep.Lost, rep.Corrupt, rep.VerifyAll = v.lost, v.corrupt, v.verifyAll

	var ins, reads []sample
	res := result{Metrics: map[string]metric{}}
	res.Failed = o.failed + v.lost + v.corrupt
	res.Attempted = v.attempted
	for _, out := range m.outs {
		ins = append(ins, out.ins...)
		reads = append(reads, out.reads...)
		res.Attempted += out.attempted
		res.Failed += out.failed
	}
	acked := int64(len(ins) + len(reads))
	if !m.converged {
		res.Failed += acked
		rep.Notes = append(rep.Notes, "secondary had not converged 10 s after the last ack")
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && v.verifyAllOK
	for _, s := range o.streams {
		rep.OpStreamHash = append(rep.OpStreamHash, fmt.Sprintf("%016x", s.hash))
	}

	if cfg.trace {
		// The ladder runs in a process that holds nothing of the end-to-end
		// pass any more: with that node's heap still live, every collection
		// during the ladder would mark it too and inflate each rung.
		o.s.close()
		runtime.GC()
		lad, err := runLadder(cfg, m.tr.log)
		if err != nil {
			return nil, err
		}
		phase("ladder")
		layerMetrics(&res, m, st, idx, lad)
		rep.CostTable = lad.table
		problems, warnings := lad.problems()
		if len(problems) > 0 {
			res.Correct = false
		}
		rep.Notes = append(append(rep.Notes, problems...), warnings...)
		if cfg.spansPath != "" {
			if err := m.tr.log.dump(cfg.spansPath); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		rep.Result = res
		return rep, nil
	}

	put := res.put
	// Inserts of read_zipf are its preload's, once per set-up, so their
	// percentiles are medians over the set-ups like setup_s; reads of the
	// ingest workloads are the gate's read-back of what was just ingested.
	if cfg.workload == wReadZipf {
		ins = o.ins
		put("insert_p50_us", median(setupP50), "us")
		put("insert_p95_us", median(setupP95), "us")
	} else {
		put("insert_p50_us", slicedPercentile(ins, 0.50), "us")
		put("insert_p95_us", slicedPercentile(ins, 0.95), "us")
	}
	if len(reads) == 0 {
		reads = v.reads
	}
	rep.Samples["insert"], rep.Samples["read"] = len(ins), len(reads)
	for _, q := range []float64{0.90, 0.95, 0.99} {
		rep.Ungated[fmt.Sprintf("insert_p%.0f_pooled_us", 100*q)] = pooledPercentile(ins, q)
		rep.Ungated[fmt.Sprintf("read_p%.0f_pooled_us", 100*q)] = pooledPercentile(reads, q)
		rep.Ungated[fmt.Sprintf("insert_p%.0f_sliced_us", 100*q)] = slicedPercentile(ins, q)
		rep.Ungated[fmt.Sprintf("read_p%.0f_sliced_us", 100*q)] = slicedPercentile(reads, q)
	}
	put("throughput_ops_s", float64(acked)/m.wall.Seconds(), "ops/s")
	put("read_p50_us", slicedPercentile(reads, 0.50), "us")
	put("read_p95_us", slicedPercentile(reads, 0.95), "us")
	// Live stored bytes: what the records occupy as stored (deltas where
	// write-backs applied), scaled by the block-compression factor of the
	// blocks written. Disk usage itself also holds superseded frames until a
	// sealed segment is compacted, which makes it jump by a third whenever a
	// run's corpus happens to end just past a 64 MiB segment boundary.
	stored := float64(st.Store.LogicalBytes) * ratio(float64(st.Store.BlockBytesOut), float64(st.Store.BlockBytesIn))
	put("stored_bytes_per_user_byte", ratio(stored, float64(st.RawInsertBytes)), "ratio")
	put("oplog_bytes_per_user_byte", ratio(float64(st.OplogBytes), float64(st.RawInsertBytes)), "ratio")
	put("rss_peak_mb", peakRSSMiB(), "MiB")
	put("acked_share", 1-ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	put("setup_s", median(rep.SetupS), "s")
	rep.Result = res
	return rep, nil
}
