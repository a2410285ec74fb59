package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"

	"dbdedup/internal/workload"
)

// numDBs is the tenant-database count of every workload: two databases of
// each of the four dataset families, so each connection drives a blend.
const numDBs = 8

// dbKind and dbName describe tenant database i. Per-database op order
// depends only on (seed, i), never on the connection count.
func dbKind(i int) workload.Kind { return workload.Kinds[i%len(workload.Kinds)] }

func dbName(i int) string {
	return [...]string{"wiki", "mail", "qa", "forum"}[i%4] + fmt.Sprint(i/4)
}

// connOf assigns database i to one of conns connections. The i/4 shift gives
// every connection a mix of dataset families at 2 and at 4 connections.
func connOf(i, conns int) int { return (i + i/4) % conns }

// dbSeed derives database i's generator seed from the run seed.
func dbSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 17 }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadSum is the checksum acked payloads are verified against.
func payloadSum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// insertGen yields the endless insert stream of one tenant database.
type insertGen struct {
	db    string
	trace *workload.Trace
	// fresh, when non-nil, replaces every payload with new prose of the
	// same length: same keys, same sizes, nothing similar to deduplicate.
	fresh *rand.Rand
}

func newInsertGen(seed int64, i int, unique bool) *insertGen {
	g := &insertGen{
		db: dbName(i),
		// InsertBytes is the trace's end; the benchmark never reaches it.
		trace: workload.New(workload.Config{Kind: dbKind(i), Seed: dbSeed(seed, i), InsertBytes: 1 << 50}),
	}
	if unique {
		g.fresh = rand.New(rand.NewSource(dbSeed(seed, i) ^ 0x2545f491))
	}
	return g
}

// maxRecordBytes leaves the generators' largest records out of the stream.
// Their sizes are lognormal up to 256 KiB; uncapped, whether a seed happens to
// draw a few much-revised 100 KiB articles moves a run's byte ratios by ±8 %
// and its mean record size by ±10 %. Capped, the mean record is ~3.4 KiB.
const maxRecordBytes = 16 << 10

func (g *insertGen) next() (key string, payload []byte) {
	for {
		op, ok := g.trace.Next()
		if !ok || op.Kind != workload.OpInsert {
			panic("benchmark: insert trace ended")
		}
		if len(op.Payload) > maxRecordBytes {
			continue
		}
		if g.fresh != nil {
			return op.Key, freshProse(g.fresh, len(op.Payload))
		}
		return op.Key, op.Payload
	}
}

// words is the vocabulary of freshProse: pseudo-words built once from a fixed
// seed, so unique payloads compress like text under blockcomp but no two
// share a 64-byte chunk.
var words = func() []string {
	rng := rand.New(rand.NewSource(42))
	syl := strings.Fields("ka lo mi ren tu vas po li ne dor shi qua be fi gon hu")
	out := make([]string, 160)
	for i := range out {
		var b strings.Builder
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b.WriteString(syl[rng.Intn(len(syl))])
		}
		out[i] = b.String()
	}
	return out
}()

// freshProse returns exactly n bytes of new sentence-shaped text.
func freshProse(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	buf.Grow(n + 32)
	for buf.Len() < n {
		for w := 5 + rng.Intn(12); w > 0; w-- {
			buf.WriteString(words[rng.Intn(len(words))])
			buf.WriteByte(' ')
		}
		buf.WriteString(". ")
	}
	return buf.Bytes()[:n]
}

// ackedKey is one insert the server acknowledged to this connection.
type ackedKey struct {
	db  uint8 // index into connStream.dbs
	key string
	sum uint32
}

// connStream is one connection's op source and its record of acked keys.
// A read is only ever issued for a key in acked, so it can never miss.
type connStream struct {
	dbs  []*insertGen
	turn int // round-robin cursor over dbs
	rng  *rand.Rand
	zipf *rand.Zipf // document popularity for read_zipf; set by freezeDocs

	acked  []ackedKey
	docOf  map[string]int32 // db + document prefix -> index into latest
	latest []int32          // per document: index into acked of its newest revision

	// hash folds every issued op (kind, db, key, payload checksum) in order.
	hash uint64
}

func newConnStream(seed int64, conn, conns int, unique bool) *connStream {
	s := &connStream{
		rng:   rand.New(rand.NewSource(seed*31 + int64(conn)*1009 + 5)),
		docOf: make(map[string]int32),
		hash:  14695981039346656037,
	}
	for i := 0; i < numDBs; i++ {
		if connOf(i, conns) == conn {
			s.dbs = append(s.dbs, newInsertGen(seed, i, unique))
		}
	}
	return s
}

// fold mixes one op into the stream hash (FNV-1a over kind, checksum, db, key).
func (s *connStream) fold(kind byte, db, key string, sum uint32) {
	h := s.hash
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	mix(kind)
	for shift := 0; shift < 32; shift += 8 {
		mix(byte(sum >> shift))
	}
	for i := 0; i < len(db); i++ {
		mix(db[i])
	}
	mix(0)
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	s.hash = h
}

// nextInsert draws the next insert, round-robin over the connection's
// databases.
func (s *connStream) nextInsert() (dbi int, key string, payload []byte) {
	dbi = s.turn
	s.turn = (s.turn + 1) % len(s.dbs)
	key, payload = s.dbs[dbi].next()
	s.fold('I', s.dbs[dbi].db, key, payloadSum(payload))
	return dbi, key, payload
}

// ack records an acknowledged insert.
func (s *connStream) ack(dbi int, key string, payload []byte) {
	idx := int32(len(s.acked))
	s.acked = append(s.acked, ackedKey{db: uint8(dbi), key: key, sum: payloadSum(payload)})
	doc := s.dbs[dbi].db + "/" + docPrefix(key)
	if d, ok := s.docOf[doc]; ok {
		s.latest[d] = idx
		return
	}
	s.docOf[doc] = int32(len(s.latest))
	s.latest = append(s.latest, idx)
}

// docPrefix is the document a revision key belongs to: wiki "a000012/r00003",
// mail "t000001/m0003", qa "p0000012/r0" or "p0000012_rev3", forum
// "t000001/p0003" all share their document's prefix.
func docPrefix(key string) string {
	if i := strings.IndexAny(key, "/_"); i >= 0 {
		return key[:i]
	}
	return key
}

func (s *connStream) read(i int32) ackedKey {
	k := s.acked[i]
	s.fold('G', s.dbs[k.db].db, k.key, k.sum)
	return k
}

// readRecent picks an acked key with a strong bias to the newest (the Enron
// read-after-write shape).
func (s *connStream) readRecent() ackedKey {
	n := len(s.acked)
	u := s.rng.Float64()
	return s.read(int32(n - 1 - int(float64(n)*u*u*u)))
}

// freezeDocs fixes the document popularity ranking once the preload is done.
func (s *connStream) freezeDocs() {
	s.zipf = rand.NewZipf(s.rng, 1.2, 4, uint64(len(s.latest)-1))
}

// readZipf is read_zipf's chooser: 70 % the latest revision of a Zipf-chosen
// document (a hot set the block cache holds), 30 % uniform over every
// revision (cold, decoded through the hop chain).
func (s *connStream) readZipf() ackedKey {
	if s.rng.Float64() < 0.7 {
		return s.read(s.latest[s.zipf.Uint64()])
	}
	return s.read(int32(s.rng.Intn(len(s.acked))))
}

// verifySample lists what the correctness gate re-reads: every document's
// latest revision plus a seeded 30 % of all acked keys. (A tenth would do for
// correctness; the ingest workloads also time this read-back, and it has to
// span several garbage collections for its tail to repeat.)
func (s *connStream) verifySample() []int32 {
	picked := make([]bool, len(s.acked))
	out := make([]int32, 0, len(s.latest)+len(s.acked)/3)
	add := func(i int32) {
		if !picked[i] {
			picked[i] = true
			out = append(out, i)
		}
	}
	for _, i := range s.latest {
		add(i)
	}
	for i := range s.acked {
		if s.rng.Intn(10) < 3 {
			add(int32(i))
		}
	}
	// Shuffle so the timed read-back is not ordered by document age.
	s.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
