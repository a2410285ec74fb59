package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/blockcomp"
	"dbdedup/internal/chunker"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
	"dbdedup/internal/featidx"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
	"dbdedup/internal/repl"
	"dbdedup/internal/sketch"
)

// The ladder attributes a synchronous insert's and a read's time to layers
// from the outside in. This change may not instrument the program, so instead
// of spans inside one call, the same fixed sample of the workload's op stream
// is replayed at every public boundary, outermost first: client → stub
// backend, client → real node, node.Insert in process, core.Engine.Encode with
// a map-backed fetcher, and then each leaf package on the (source, target)
// pairs the engine picked. A rung's self time is its mean minus the means of
// the rungs it contains.

// rungStat sums one rung's calls.
type rungStat struct {
	parent     string
	calls      int64
	ns         int64
	bytes      int64 // payload bytes the calls processed
	allocs     uint64
	allocBytes uint64
}

func (r *rungStat) nsPerCall() float64 { return ratio(float64(r.ns), float64(r.calls)) }
func (r *rungStat) nsPerKiB() float64  { return ratio(float64(r.ns), float64(r.bytes)/1024) }

// costRow is one line of the per-insert cost table.
type costRow struct {
	Rung          string  `json:"rung"`
	Parent        string  `json:"parent,omitempty"`
	Calls         int64   `json:"calls"`
	NsPerCall     float64 `json:"ns_per_call"`
	NsPerInsert   float64 `json:"ns_per_insert"`
	SelfNs        float64 `json:"self_ns_per_insert"`
	BytesPerCall  float64 `json:"payload_bytes_per_call"`
	AllocsPerCall float64 `json:"allocs_per_call"`
	AllocBPerCall float64 `json:"alloc_bytes_per_call"`
}

type ladder struct {
	log   *spanLog
	n     int // timed inserts per rung
	rungs map[string]*rungStat
	order []string
	// vals are counts and ratios the ladder measured besides times.
	vals  map[string]float64
	table []costRow
}

// rung returns the named rung's sums, creating them on first use.
func (l *ladder) rung(name, parent string) *rungStat {
	r := l.rungs[name]
	if r == nil {
		r = &rungStat{parent: parent}
		l.rungs[name] = r
		l.order = append(l.order, name)
	}
	return r
}

// touch reads p, pulling it into the processor's cache.
func touch(p []byte) (sum byte) {
	for _, b := range p {
		sum += b
	}
	return sum
}

var touched byte // keeps touch from being optimised away

// timed calls fn(i) for i in [from, to), recording a span around each call and
// the allocations of the whole loop. payload(i) is what the call handles. It is
// read once before the clock starts: inside the program a payload has just
// come off the socket, or been copied by the layer above, when a stage gets
// it, while a replay would otherwise fetch every 3.5 KiB payload of a 20 MiB
// sample from memory at each rung and charge each leaf for it again.
func (l *ladder) timed(name, parent string, from, to int, payload func(i int) []byte, fn func(i int)) *rungStat {
	r := l.rung(name, parent)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := from; i < to; i++ {
		if payload != nil {
			p := payload(i)
			touched += touch(p)
			r.bytes += int64(len(p))
		}
		t0 := time.Now()
		fn(i)
		t1 := time.Now()
		l.log.add(name, parent, int64(i), t0, t1)
		r.ns += int64(t1.Sub(t0))
		r.calls++
	}
	runtime.ReadMemStats(&m1)
	r.allocs += m1.Mallocs - m0.Mallocs
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return r
}

// perInsert is a rung's total time spread over the timed inserts.
func (l *ladder) perInsert(name string) float64 {
	if r := l.rungs[name]; r != nil {
		return float64(r.ns) / float64(l.n)
	}
	return 0
}

type ladderRec struct {
	db, key string
	payload []byte
}

// stubBackend answers the client API without a node behind it: what remains
// is framing and the loopback round trip.
type stubBackend struct{ recs map[string][]byte }

func (b *stubBackend) Insert(db, key string, payload []byte) error { return nil }
func (b *stubBackend) Update(db, key string, payload []byte) error { return nil }
func (b *stubBackend) Delete(db, key string) error                 { return nil }
func (b *stubBackend) Read(db, key string) ([]byte, error) {
	if p, ok := b.recs[db+"\x00"+key]; ok {
		return p, nil
	}
	return nil, node.ErrNotFound
}
func (b *stubBackend) Stats() node.Stats            { return node.Stats{} }
func (b *stubBackend) DBStats() []core.DBStats      { return nil }
func (b *stubBackend) VerifyAll() node.VerifyReport { return node.VerifyReport{} }

type mapFetcher map[uint64][]byte

func (f mapFetcher) FetchDecoded(id uint64) ([]byte, error) {
	if p, ok := f[id]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("ladder: no record %d", id)
}

// runLadder replays connection 0's first ladderWarm+ladderOps inserts, and as
// many reads of them, at every rung.
func runLadder(cfg runCfg, log *spanLog) (*ladder, error) {
	warm, n := cfg.sz.ladderWarm, cfg.sz.ladderOps
	l := &ladder{log: log, n: n, rungs: map[string]*rungStat{}, vals: map[string]float64{}}
	st := newConnStream(cfg.seed, 0, numConns(), cfg.unique())
	recs := make([]ladderRec, warm+n)
	for i := range recs {
		dbi, key, payload := st.nextInsert()
		st.ack(dbi, key, payload)
		recs[i] = ladderRec{st.dbs[dbi].db, key, payload}
	}
	payload := func(i int) []byte { return recs[i].payload }
	st.freezeDocs()
	reads := make([]ladderRec, n)
	for i := range reads {
		var k ackedKey
		switch cfg.workload {
		case wReadZipf:
			k = st.readZipf()
		case wMixedReplicated:
			k = st.readRecent()
		default:
			k = st.read(int32(st.rng.Intn(len(st.acked))))
		}
		reads[i] = ladderRec{db: st.dbs[k.db].db, key: k.key}
	}
	dir, err := workDir(cfg.root, "ladder")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := l.stubRung(recs, reads, warm, payload); err != nil {
		return nil, err
	}
	if err := l.apiRung(filepath.Join(dir, "api"), recs, reads, warm, payload); err != nil {
		return nil, err
	}
	ents, err := l.nodeRung(dir, recs, reads, warm, payload)
	if err != nil {
		return nil, err
	}
	if err := l.engineRungs(recs, warm); err != nil {
		return nil, err
	}
	if err := l.storeRungs(filepath.Join(dir, "store"), recs, warm, payload); err != nil {
		return nil, err
	}
	if err := l.replicaRungs(dir, ents); err != nil {
		return nil, err
	}
	l.attribute()
	return l, nil
}

// clientRung times inserts and gets through one apiserver client.
func (l *ladder) clientRung(prefix string, addr string, recs, reads []ladderRec, warm int, payload func(int) []byte) error {
	cl, err := apiserver.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	var opErr error
	insert := func(i int) {
		if err := cl.Insert(recs[i].db, recs[i].key, recs[i].payload); err != nil {
			opErr = err
		}
	}
	for i := 0; i < warm; i++ {
		insert(i)
	}
	l.timed(prefix+".insert", "", warm, len(recs), payload, insert)
	l.timed(prefix+".get", "", 0, len(reads), nil, func(i int) {
		if _, err := cl.Get(reads[i].db, reads[i].key); err != nil {
			opErr = err
		}
	})
	return opErr
}

func (l *ladder) stubRung(recs, reads []ladderRec, warm int, payload func(int) []byte) error {
	stub := &stubBackend{recs: make(map[string][]byte, len(recs))}
	for _, r := range recs {
		stub.recs[r.db+"\x00"+r.key] = r.payload
	}
	srv, err := apiserver.ListenAndServeBackend(stub, "127.0.0.1:0", apiserver.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	return l.clientRung("apiserver.stub", srv.Addr(), recs, reads, warm, payload)
}

func (l *ladder) apiRung(dir string, recs, reads []ladderRec, warm int, payload func(int) []byte) error {
	n, err := node.Open(nodeOptions(dir, true))
	if err != nil {
		return err
	}
	defer n.Close()
	srv, err := apiserver.ListenAndServe(n, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	return l.clientRung("apiserver", srv.Addr(), recs, reads, warm, payload)
}

// nodeRung times node.Insert with the encoder inline, reads before and after
// the write-backs are applied, the flush, one compaction, a loopback
// secondary's catch-up and a reopen. It returns the oplog it produced.
func (l *ladder) nodeRung(dir string, recs, reads []ladderRec, warm int, payload func(int) []byte) ([]oplog.Entry, error) {
	ndir := filepath.Join(dir, "node")
	n, err := node.Open(nodeOptions(ndir, true))
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			n.Close()
		}
	}()
	var opErr error
	insert := func(i int) {
		if err := n.Insert(recs[i].db, recs[i].key, recs[i].payload); err != nil {
			opErr = err
		}
	}
	for i := 0; i < warm; i++ {
		insert(i)
	}
	l.timed("node.insert", "apiserver.insert", warm, len(recs), payload, insert)
	read := func(i int) {
		if _, err := n.Read(reads[i].db, reads[i].key); err != nil {
			opErr = err
		}
	}
	l.timed("node.read_raw", "apiserver.get", 0, len(reads), nil, read)

	s0 := n.Stats()
	t := time.Now()
	n.FlushWritebacks(-1)
	l.vals["node.flush_writebacks_s"] = time.Since(t).Seconds()
	s1 := n.Stats()
	applied, skipped := s1.WritebacksApplied-s0.WritebacksApplied, s1.WritebacksSkipped-s0.WritebacksSkipped
	l.vals["node.writebacks_applied_share"] = ratio(float64(applied), float64(applied+skipped))
	l.timed("node.read_encoded", "", 0, len(reads), nil, read)
	s2 := n.Stats()
	l.vals["node.decode_steps_per_read"] = ratio(float64(s2.DecodeSteps-s1.DecodeSteps), float64(len(reads)))

	t = time.Now()
	if _, err := n.Compact(); err != nil {
		return nil, err
	}
	l.vals["node.compact_s"] = time.Since(t).Seconds()

	ents, err := n.Oplog().EntriesSince(0, 0)
	if err != nil {
		return nil, err
	}
	if err := l.loopbackSecondary(filepath.Join(dir, "follower"), n, float64(s2.RawInsertBytes), len(recs)); err != nil {
		return nil, err
	}
	closed = true
	if err := n.Close(); err != nil {
		return nil, err
	}
	t = time.Now()
	n2, err := node.Open(nodeOptions(ndir, true))
	if err != nil {
		return nil, fmt.Errorf("reopening: %w", err)
	}
	l.vals["node.reopen_s"] = time.Since(t).Seconds()
	n2.Close()
	return ents, opErr
}

// loopbackSecondary joins a fresh secondary to n over real loopback TCP and
// waits until it has applied n's whole oplog.
func (l *ladder) loopbackSecondary(dir string, n *node.Node, rawBytes float64, inserts int) error {
	srv, err := repl.ListenAndServe(n, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	sec, err := node.Open(nodeOptions(dir, false))
	if err != nil {
		return err
	}
	defer sec.Close()
	t := time.Now()
	f, err := repl.Connect(sec, srv.Addr(), 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.WaitForSeq(n.Oplog().LastSeq(), 60*time.Second); err != nil {
		return fmt.Errorf("ladder secondary: %w", err)
	}
	l.vals["repl.catchup_ms"] = float64(time.Since(t)) / float64(time.Millisecond)
	l.vals["repl.bytes_sent_per_user_byte"] = ratio(float64(srv.BytesSent()), rawBytes)
	l.vals["repl.base_fetches_per_insert"] = ratio(float64(f.BaseFetches()), float64(inserts))
	return nil
}

// engineRungs times core.Engine.Encode behind a map fetcher, then replays the
// leaves on exactly the records and (source, target) pairs the engine chose.
func (l *ladder) engineRungs(recs []ladderRec, warm int) error {
	ecfg := nodeOptions("", true).Engine
	content := make(mapFetcher, len(recs))
	eng := core.NewEngine(ecfg, content)
	defer eng.Close()
	results := make([]core.Result, len(recs))
	var opErr error
	encode := func(i int) {
		id := uint64(i + 1)
		content[id] = recs[i].payload
		res, err := eng.Encode(recs[i].db, id, recs[i].payload)
		if err != nil {
			opErr = err
		}
		results[i] = res
	}
	for i := 0; i < warm; i++ {
		encode(i)
	}
	l.timed("core.encode", "node.insert", warm, len(recs), func(i int) []byte { return recs[i].payload }, encode)
	if opErr != nil {
		return opErr
	}

	// Which timed records reached the sketch stage, and which pairs the delta
	// stage ran on. A "not worth encoding" record also ran Compress, but the
	// engine does not say against which source, so its compress time stays in
	// core's self time.
	type pair struct{ src, tgt []byte }
	var sketched []int
	var pairs, hops []pair
	var writebacks, fwdBytes, dedupedBytes int64
	for i := warm; i < len(recs); i++ {
		res := results[i]
		if res.FilteredBySize || res.GovernorDisabled {
			continue
		}
		sketched = append(sketched, i)
		if !res.Deduped {
			continue
		}
		pairs = append(pairs, pair{content[res.SourceID], recs[i].payload})
		writebacks += int64(len(res.Writebacks))
		fwdBytes += int64(res.Forward.EncodedSize())
		dedupedBytes += int64(len(recs[i].payload))
		// Every write-back after the first re-encodes a hop base against the
		// new record.
		for _, wb := range res.Writebacks[1:] {
			hops = append(hops, pair{recs[i].payload, content[wb.ID]})
		}
	}
	l.vals["chain.writebacks_per_insert"] = ratio(float64(writebacks), float64(l.n))
	l.vals["core.forward_bytes_per_deduped_byte"] = ratio(float64(fwdBytes), float64(dedupedBytes))

	sketchedPayload := func(i int) []byte { return recs[sketched[i]].payload }
	ch := chunker.New(chunker.Config{Algorithm: ecfg.Chunker, AvgSize: ecfg.ChunkAvgSize})
	var chunks int64
	r := l.timed("chunker.split", "sketch.extract", 0, len(sketched), sketchedPayload, func(i int) {
		chunks += int64(len(chunker.Split(ch, recs[sketched[i]].payload)))
	})
	l.vals["chunker.avg_chunk_bytes"] = ratio(float64(r.bytes), float64(chunks))

	ex := sketch.NewExtractor(sketch.Config{K: 8, Chunker: ecfg.Chunker, ChunkAvgSize: ecfg.ChunkAvgSize})
	sketches := make([]sketch.Sketch, len(sketched))
	buf := make(sketch.Sketch, 0, 8)
	l.timed("sketch.extract", "core.encode", 0, len(sketched), sketchedPayload, func(i int) {
		buf = ex.ExtractInto(buf[:0], recs[sketched[i]].payload)
		sketches[i] = append(sketches[i], buf...)
	})

	// One index partition per database, as the engine keeps them.
	parts := map[string]*featidx.Index{}
	var lookups int64
	l.timed("featidx.lookup_insert", "core.encode", 0, len(sketched), nil, func(i int) {
		db := recs[sketched[i]].db
		ix := parts[db]
		if ix == nil {
			ix = featidx.New(featidx.Config{CapacityEntries: 1 << 22})
			parts[db] = ix
		}
		for _, f := range sketches[i] {
			ix.LookupInsert(f, featidx.Ref(i))
			lookups++
		}
	})
	l.vals["featidx.lookups"] = float64(lookups)

	cache := dedupcache.NewSourceCache(dedupcache.DefaultSourceCacheBytes)
	for i, p := range pairs {
		cache.Put(uint64(i), p.src)
	}
	target := func(i int) []byte { return pairs[i].tgt }
	l.timed("dedupcache.source_get", "core.encode", 0, len(pairs), target, func(i int) { cache.Get(uint64(i)) })

	opts := delta.Options{AnchorInterval: delta.DefaultAnchorInterval}
	fwds := make([]delta.Delta, len(pairs))
	bwds := make([]delta.Delta, len(pairs))
	var encoded int64
	l.timed("delta.compress", "core.encode", 0, len(pairs), target, func(i int) {
		fwds[i] = delta.Compress(pairs[i].src, pairs[i].tgt, opts)
	})
	for _, d := range fwds {
		encoded += int64(d.EncodedSize())
	}
	l.vals["delta.encoded_bytes_per_target_byte"] = ratio(float64(encoded), float64(l.rungs["delta.compress"].bytes))
	hopDeltas := make([]delta.Delta, len(hops))
	l.timed("delta.compress_hop", "core.encode", 0, len(hops), func(i int) []byte { return hops[i].tgt }, func(i int) {
		hopDeltas[i] = delta.Compress(hops[i].src, hops[i].tgt, opts)
	})
	l.timed("delta.reencode", "core.encode", 0, len(pairs), target, func(i int) {
		bwds[i] = delta.Reencode(pairs[i].src, pairs[i].tgt, fwds[i])
	})
	// The node marshals the forward delta into the oplog entry and every
	// write-back into the write-back cache.
	l.timed("delta.marshal", "node.insert", 0, len(pairs), target, func(i int) {
		fwds[i].Marshal()
		bwds[i].Marshal()
	})
	l.timed("delta.marshal", "node.insert", 0, len(hops), nil, func(i int) { hopDeltas[i].Marshal() })
	l.timed("delta.apply", "", 0, len(pairs), target, func(i int) {
		if _, err := delta.Apply(pairs[i].src, fwds[i]); err != nil {
			opErr = err
		}
	})
	return opErr
}

// storeRungs times the block codec, the record store and the oplog alone.
func (l *ladder) storeRungs(dir string, recs []ladderRec, warm int, payload func(int) []byte) error {
	// Blocks as the store seals them: records back to back, 32 KiB each.
	var blocks [][]byte
	var cur []byte
	for _, r := range recs[warm:] {
		cur = append(cur, r.payload...)
		for len(cur) >= 32<<10 {
			blocks = append(blocks, cur[:32<<10:32<<10])
			cur = cur[32<<10:]
		}
	}
	block := func(i int) []byte { return blocks[i] }
	packed := make([][]byte, len(blocks))
	var out int64
	l.timed("blockcomp.encode", "docstore.append", 0, len(blocks), block, func(i int) {
		packed[i] = blockcomp.Encode(blocks[i])
	})
	for _, p := range packed {
		out += int64(len(p))
	}
	l.vals["blockcomp.out_bytes_per_in_byte"] = ratio(float64(out), float64(len(blocks))*(32<<10))
	var opErr error
	l.timed("blockcomp.decode", "", 0, len(blocks), block, func(i int) {
		if _, err := blockcomp.Decode(packed[i]); err != nil {
			opErr = err
		}
	})

	store, err := docstore.Open(docstore.Options{Dir: dir, Compress: true})
	if err != nil {
		return err
	}
	defer store.Close()
	appendRec := func(i int) {
		// The node hands the store its own copy of the payload.
		cp := append([]byte(nil), recs[i].payload...)
		if err := store.Append(docstore.Record{ID: uint64(i + 1), DB: recs[i].db, Key: recs[i].key, Payload: cp}); err != nil {
			opErr = err
		}
	}
	for i := 0; i < warm; i++ {
		appendRec(i)
	}
	l.timed("docstore.append", "node.insert", warm, len(recs), payload, appendRec)
	if err := store.Flush(); err != nil {
		return err
	}
	// A first Get of a random record mostly misses the 2 MiB block cache; a
	// second Get of the same record hits it.
	order := rand.New(rand.NewSource(1)).Perm(len(recs))[:l.n]
	for _, i := range order {
		id := uint64(i + 1)
		before := store.Stats().CacheMisses
		t0 := time.Now()
		_, _, err := store.Get(id)
		t1 := time.Now()
		if err != nil {
			opErr = err
		}
		name := "docstore.get_hit"
		if store.Stats().CacheMisses > before {
			name = "docstore.get_miss"
		}
		l.observe(name, "", int64(i), t0, t1)
		t0 = time.Now()
		store.Get(id)
		l.observe("docstore.get_hit", "", int64(i), t0, time.Now())
	}

	lg := oplog.New(0)
	ents := make([]oplog.Entry, len(recs))
	for i, r := range recs {
		ents[i] = oplog.Entry{Op: oplog.OpInsert, DB: r.db, Key: r.key, Payload: r.payload}
	}
	l.timed("oplog.append", "node.insert", warm, len(recs), payload, func(i int) { lg.Append(ents[i]) })
	l.timed("oplog.marshal", "", warm, len(recs), payload, func(i int) { ents[i].Marshal() })
	return opErr
}

// observe adds one already-timed call to a rung.
func (l *ladder) observe(name, parent string, op int64, t0, t1 time.Time) {
	r := l.rung(name, parent)
	l.log.add(name, parent, op, t0, t1)
	r.ns += int64(t1.Sub(t0))
	r.calls++
}

// replicaRungs applies the node rung's oplog to fresh secondaries: entry by
// entry through node.ApplyReplicated, then through the sharded Applier as
// BenchmarkReplicaApply does.
func (l *ladder) replicaRungs(dir string, ents []oplog.Entry) error {
	sec, err := node.Open(nodeOptions(filepath.Join(dir, "apply"), false))
	if err != nil {
		return err
	}
	var opErr error
	l.timed("node.apply_replicated", "", 0, len(ents), func(i int) []byte { return ents[i].Payload }, func(i int) {
		if err := sec.ApplyReplicated(ents[i]); err != nil {
			opErr = err
		}
	})
	sec.Close()
	if opErr != nil {
		return fmt.Errorf("ladder apply: %w", opErr)
	}

	sec, err = node.Open(nodeOptions(filepath.Join(dir, "applier"), false))
	if err != nil {
		return err
	}
	defer sec.Close()
	t := time.Now()
	ap := node.NewApplier(sec, 0, node.ApplierOptions{})
	for _, e := range ents {
		ap.EnqueueEntry(e, false)
	}
	ap.Barrier()
	ap.Close()
	l.vals["repl.apply_ops_s"] = ratio(float64(len(ents)), time.Since(t).Seconds())
	return ap.Err()
}

// attribute fills the cost table: each rung's time per timed insert and its
// self time, the part its child rungs do not cover.
func (l *ladder) attribute() {
	children := map[string]float64{}
	for _, name := range l.order {
		r := l.rungs[name]
		if _, ok := l.rungs[r.parent]; ok {
			children[r.parent] += l.perInsert(name)
		}
	}
	for _, name := range l.order {
		r := l.rungs[name]
		calls := float64(r.calls)
		l.table = append(l.table, costRow{
			Rung: name, Parent: r.parent, Calls: r.calls,
			NsPerCall:     r.nsPerCall(),
			NsPerInsert:   l.perInsert(name),
			SelfNs:        l.perInsert(name) - children[name],
			BytesPerCall:  ratio(float64(r.bytes), calls),
			AllocsPerCall: ratio(float64(r.allocs), calls),
			AllocBPerCall: ratio(float64(r.allocBytes), calls),
		})
	}
}

func (l *ladder) self(name string) float64 {
	for _, row := range l.table {
		if row.Rung == name {
			return row.SelfNs
		}
	}
	return 0
}

// unattributedShare is the part of a synchronous node.Insert that no leaf
// rung explains: node's and core's own self time.
func (l *ladder) unattributedShare() float64 {
	return ratio(l.self("node.insert")+l.self("core.encode"), l.perInsert("node.insert"))
}

// unattributedTarget is the share of node.insert the issue wanted the ladder
// to leave unplaced at most; above it a traced run warns. unattributedLimit
// fails the run: beyond it the ladder no longer describes the program.
// README.md, "Where an insert's time goes", explains why this commit sits
// between the two (garbage collection assists that tight leaf loops do not
// pay).
const (
	unattributedTarget = 0.25
	unattributedLimit  = 0.50
)

// problems lists what makes the ladder untrustworthy: a rung whose children
// take half as much again as the rung itself, or more than unattributedLimit
// of an insert left unplaced. warnings lists what is worth a line on standard
// error but no failure: leaf times vary by a third between runs on a shared
// host, so a rung's children may well exceed it by a sixth.
func (l *ladder) problems() (problems, warnings []string) {
	for _, row := range l.table {
		msg := fmt.Sprintf("ladder: rung %s has self time %.0f ns of %.0f ns", row.Rung, row.SelfNs, row.NsPerInsert)
		switch {
		case row.SelfNs < -0.5*row.NsPerInsert-1000:
			problems = append(problems, msg)
		case row.SelfNs < -0.15*row.NsPerInsert-1000:
			warnings = append(warnings, msg)
		}
	}
	switch u := l.unattributedShare(); {
	case u > unattributedLimit:
		problems = append(problems, fmt.Sprintf("ladder: %.0f%% of node.insert is unattributed (limit %.0f%%)", 100*u, 100*unattributedLimit))
	case u > unattributedTarget:
		warnings = append(warnings, fmt.Sprintf("ladder: %.0f%% of node.insert is unattributed (target %.0f%%)", 100*u, 100*unattributedTarget))
	}
	return problems, warnings
}
