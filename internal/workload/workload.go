// Package workload generates the four synthetic dataset/trace families the
// experiments run on, standing in for the paper's real corpora (see
// DESIGN.md §1 for the substitution rationale):
//
//   - Wikipedia: articles with long incremental revision chains — the
//     highest-redundancy workload (app-level versioning).
//   - Enron: email threads where replies and forwards quote prior bodies
//     (inclusion relationships).
//   - StackExchange: users revising their own posts plus answers copied
//     across threads.
//   - MessageBoards: forum posts quoting earlier posts in a thread — the
//     weakest-redundancy workload.
//
// Generators are deterministic given a seed and stream operations one at a
// time, so arbitrarily large traces cost bounded memory. Read mixes follow
// the paper (§5.1): Wikipedia and StackExchange 99.9 % reads with reads
// going to latest versions; Enron 1:1 read-after-write; MessageBoards
// "thread reads" replaying all previous posts of a thread.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind selects a dataset family.
type Kind int

const (
	// Wikipedia models collaborative article editing.
	Wikipedia Kind = iota
	// Enron models email threads with quoted replies and forwards.
	Enron
	// StackExchange models Q&A posts with self-revisions and copied
	// answers.
	StackExchange
	// MessageBoards models forum threads with quoted posts.
	MessageBoards
)

// String returns the dataset name as used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case Wikipedia:
		return "Wikipedia"
	case Enron:
		return "Enron"
	case StackExchange:
		return "Stack Exchange"
	case MessageBoards:
		return "Message Boards"
	default:
		return "unknown"
	}
}

// Kinds lists all dataset families in figure order.
var Kinds = []Kind{Wikipedia, Enron, StackExchange, MessageBoards}

// ParseKind resolves a dataset name as the command-line tools spell it:
// the family name or its short alias, ignoring case and spaces.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.ReplaceAll(s, " ", "")) {
	case "wikipedia", "wiki":
		return Wikipedia, nil
	case "enron", "mail", "email":
		return Enron, nil
	case "stackexchange", "qa":
		return StackExchange, nil
	case "messageboards", "forum":
		return MessageBoards, nil
	default:
		return 0, fmt.Errorf("unknown dataset %q", s)
	}
}

// OpKind distinguishes trace operations.
type OpKind int

const (
	// OpInsert writes a new record.
	OpInsert OpKind = iota
	// OpRead reads a record.
	OpRead
)

// Op is one trace operation.
type Op struct {
	Kind OpKind
	// DB is the logical database the record belongs to.
	DB string
	// Key identifies the record.
	Key string
	// Payload is the record content for OpInsert.
	Payload []byte
}

// Config parameterises a trace.
type Config struct {
	Kind Kind
	// Seed makes the trace deterministic.
	Seed int64
	// InsertBytes is the approximate total volume of inserted payloads;
	// the trace ends shortly after reaching it. Defaults to 8 MiB.
	InsertBytes int64
	// Reads enables read operations interleaved per the dataset's mix.
	// When false the trace is inserts only (the compression-ratio
	// experiments load data as fast as possible, like the paper's §5.2).
	Reads bool
	// ReadSampling scales down the number of reads by taking every n-th
	// read the mix would generate (1 = full mix). Useful to keep
	// high-read-ratio traces affordable. Zero means 1.
	ReadSampling int
}

// Trace streams operations. Not safe for concurrent use.
type Trace struct {
	cfg Config
	rng *rand.Rand
	gen generator

	insertedBytes int64
	queue         []Op // operations generated but not yet returned
	done          bool

	readDebt     float64 // fractional reads owed by the read/write mix
	readSampling int
	readSkip     int
}

type generator interface {
	// nextInsert produces the next record to insert and, if Reads is on,
	// appends this insert's associated reads to queue *after* the insert
	// is consumed (the Trace handles ordering).
	nextInsert(t *Trace) (Op, []Op)
}

// New returns a Trace for cfg.
func New(cfg Config) *Trace {
	if cfg.InsertBytes <= 0 {
		cfg.InsertBytes = 8 << 20
	}
	if cfg.ReadSampling <= 0 {
		cfg.ReadSampling = 1
	}
	t := &Trace{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995)),
		readSampling: cfg.ReadSampling,
	}
	switch cfg.Kind {
	case Wikipedia:
		t.gen = newWikiGen(t.rng)
	case Enron:
		t.gen = newMailGen(t.rng)
	case StackExchange:
		t.gen = newQAGen(t.rng)
	case MessageBoards:
		t.gen = newForumGen(t.rng)
	default:
		panic(fmt.Sprintf("workload: unknown kind %d", cfg.Kind))
	}
	return t
}

// DB returns the database name the trace writes to.
func (t *Trace) DB() string { return t.cfg.Kind.dbName() }

func (k Kind) dbName() string {
	switch k {
	case Wikipedia:
		return "wiki"
	case Enron:
		return "mail"
	case StackExchange:
		return "qa"
	default:
		return "forum"
	}
}

// Next returns the next operation; ok is false when the trace is exhausted.
func (t *Trace) Next() (Op, bool) {
	for {
		if len(t.queue) > 0 {
			op := t.queue[0]
			t.queue = t.queue[1:]
			return op, true
		}
		if t.done {
			return Op{}, false
		}
		if t.insertedBytes >= t.cfg.InsertBytes {
			t.done = true
			continue
		}
		ins, reads := t.gen.nextInsert(t)
		t.insertedBytes += int64(len(ins.Payload))
		if t.cfg.Reads {
			for _, r := range reads {
				t.readSkip++
				if t.readSkip >= t.readSampling {
					t.readSkip = 0
					t.queue = append(t.queue, r)
				}
			}
		}
		return ins, true
	}
}

// Records drains the trace and returns only the inserted records, in order.
func (t *Trace) Records() []Op {
	var recs []Op
	for {
		op, ok := t.Next()
		if !ok {
			return recs
		}
		if op.Kind == OpInsert {
			recs = append(recs, op)
		}
	}
}

// zipfChoice picks an index in [0, n) with a Zipf-ish skew favouring low
// indices; used for popularity-driven choices (hot articles, busy threads).
func zipfChoice(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Rejection-free approximation: x = n * u^3 concentrates mass near 0.
	u := rng.Float64()
	return int(float64(n) * u * u * u)
}
