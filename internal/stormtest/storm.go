// Package stormtest is the open-loop, heavy-tailed, multi-tenant load
// harness ("dedupstorm") and the SLO assertions built on it.
//
// Open loop matters: a closed-loop generator (like benchmark/) waits for each
// reply before sending the next request, so when the server slows down the
// generator slows down with it and the tail latencies of an overloaded
// server are never observed. Here arrivals follow a schedule that does not
// care how the server is doing — a compound Poisson process (exponential
// gaps between bursts, Pareto-distributed burst sizes, Zipf tenant choice) —
// and every operation's latency is measured from its *scheduled arrival
// time*, so queueing collapse shows up as the multi-second p99 it really is.
//
// The harness drives the real apiserver TCP surface through the routing
// client (package cluster) with thousands of tenant databases running mixed
// workload blends, classifies every outcome into an error taxonomy, records
// each acknowledged insert in the shared acked-write history (package
// histcheck: key + payload hash) so lost acked writes are provable, and
// renders reports as text and CSV rows for results_csv/storm_*.csv.
package stormtest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/cluster"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/metrics"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// Config parameterises one storm.
type Config struct {
	// Addrs are the members to drive: one standalone member, or seeds of a
	// ring. Every worker holds its own routing client (one connection per
	// member, wrong-shard redirects followed, moving shards and broken
	// connections retried).
	Addrs []string
	// Rate is the offered load in operations/second.
	Rate float64
	// Duration is how long arrivals are generated. The storm then drains:
	// every scheduled operation is completed (or fails) before Run returns,
	// so an overloaded server shows up as wall time and tail latency, not
	// as silently abandoned work.
	Duration time.Duration
	// Tenants is the number of tenant databases (default 100). Tenant
	// popularity is Zipf-skewed: low tenant ids are hot.
	Tenants int
	// Conns is the number of workers, each with its own connections
	// (default 8).
	Conns int
	// Seed pins the arrival schedule and every tenant trace.
	Seed int64
	// Blend lists the workload families tenants cycle through (default all
	// four: wiki, mail, qa, forum).
	Blend []workload.Kind
	// Reads interleaves each family's read mix (sampled by ReadSampling,
	// default every 20th read) into the storm.
	Reads        bool
	ReadSampling int
	// MeanBurst is the mean operations per arrival burst (default 4).
	// Burst sizes are Pareto-distributed with tail index paretoAlpha and
	// capped at 64×MeanBurst so one draw cannot be the whole storm.
	MeanBurst float64
}

// paretoAlpha is the burst-size tail index: infinite variance, the heavy
// tail that makes p999 interesting.
const paretoAlpha = 1.5

// requestTimeout is the per-request client deadline.
const requestTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 100
	}
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if len(c.Blend) == 0 {
		c.Blend = workload.Kinds
	}
	if c.MeanBurst < 1 {
		c.MeanBurst = 4
	}
	if c.ReadSampling <= 0 {
		c.ReadSampling = 20
	}
	return c
}

// Error-taxonomy classes.
const (
	ErrClassOverloaded = "overloaded" // rejected by admission control
	ErrClassNotFound   = "notfound"   // read of a key that is not there
	ErrClassTimeout    = "timeout"    // request deadline exceeded
	ErrClassConn       = "conn"       // dial/transport failure that outlasted the client's retries
	ErrClassOther      = "other"      // anything else the server said
)

// Report is the outcome of one storm.
type Report struct {
	Label  string
	Config Config

	// Offered counts scheduled arrivals; Dropped the subset that found the
	// dispatch queue full (0: the queue holds the whole schedule). Wall is start to
	// full drain — under overload it exceeds Config.Duration.
	Offered int64
	Dropped int64
	Wall    time.Duration

	// AckedInserts/AckedReads count operations the server acknowledged;
	// InsertBytes sums acked insert payloads.
	AckedInserts int64
	AckedReads   int64
	InsertBytes  int64

	// Errors is the taxonomy: class → count.
	Errors map[string]int64

	// Insert/Read are open-loop latency summaries (measured from scheduled
	// arrival, not from send).
	Insert metrics.LatencySummary
	Read   metrics.LatencySummary

	// GoodputOps/GoodputMB are acked operations and acked insert megabytes
	// per wall-clock second.
	GoodputOps float64
	GoodputMB  float64

	// Shards breaks the acked load down per member, in ring order (one row
	// for a standalone member).
	Shards []ShardLoad

	acked *histcheck.History
}

// ShardLoad is one cluster member's slice of a storm: which member, how many
// acknowledged operations the router placed on it, and the open-loop insert
// latency seen for that slice. A cluster that scales shows every member
// carrying goodput; a skewed or broken ring shows up as one hot shard.
type ShardLoad struct {
	Member     string
	AckedOps   int64   // acked inserts + reads owned by this member
	AckedMB    float64 // acked insert payload megabytes
	GoodputOps float64 // AckedOps per wall-clock second
	Insert     metrics.LatencySummary
}

// ErrorTotal sums the taxonomy.
func (r *Report) ErrorTotal() int64 {
	var n int64
	for _, c := range r.Errors {
		n += c
	}
	return n
}

// String renders the report the way cmd/dedupstorm prints it.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "storm %q: offered %d ops at %.0f ops/s over %v (wall %v)\n",
		r.Label, r.Offered, r.Config.Rate, r.Config.Duration.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  acked: %d inserts (%s), %d reads — goodput %.0f ops/s, %.1f MB/s\n",
		r.AckedInserts, metrics.FormatBytes(r.InsertBytes), r.AckedReads, r.GoodputOps, r.GoodputMB)
	for _, s := range r.Shards {
		fmt.Fprintf(&b, "  shard %s: %d acked ops (%.0f ops/s, %.1f MB), insert p50/p99 %dµs/%dµs\n",
			s.Member, s.AckedOps, s.GoodputOps, s.AckedMB, s.Insert.P50US, s.Insert.P99US)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  dropped at dispatch: %d\n", r.Dropped)
	}
	if len(r.Errors) > 0 {
		classes := make([]string, 0, len(r.Errors))
		for c := range r.Errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "  errors:")
		for _, c := range classes {
			fmt.Fprintf(&b, " %s=%d", c, r.Errors[c])
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "  insert latency (open loop): %s\n", r.Insert)
	if r.Read.Count > 0 {
		fmt.Fprintf(&b, "  read latency (open loop):   %s\n", r.Read)
	}
	return b.String()
}

// job is one scheduled operation in flight between scheduler and workers.
type job struct {
	op        workload.Op
	scheduled time.Time
}

// shardTable accumulates per-member acked counters, keyed by ring member.
type shardTable struct {
	mu sync.Mutex
	m  map[string]*shardAgg
}

type shardAgg struct {
	ops   atomic.Int64
	bytes atomic.Int64
	lat   *metrics.Histogram
}

func newShardTable(members []string) *shardTable {
	t := &shardTable{m: make(map[string]*shardAgg, len(members))}
	for _, m := range members {
		t.m[m] = &shardAgg{lat: metrics.NewHistogram()}
	}
	return t
}

// agg returns member's accumulator, creating one for members that joined the
// ring after the storm started.
func (t *shardTable) agg(member string) *shardAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.m[member]
	if a == nil {
		a = &shardAgg{lat: metrics.NewHistogram()}
		t.m[member] = a
	}
	return a
}

// loads renders the table as the report's sorted per-shard breakdown.
func (t *shardTable) loads(wallSecs float64) []ShardLoad {
	t.mu.Lock()
	defer t.mu.Unlock()
	members := make([]string, 0, len(t.m))
	for m := range t.m {
		members = append(members, m)
	}
	sort.Strings(members)
	out := make([]ShardLoad, 0, len(members))
	for _, m := range members {
		a := t.m[m]
		sl := ShardLoad{
			Member:   m,
			AckedOps: a.ops.Load(),
			AckedMB:  float64(a.bytes.Load()) / (1 << 20),
			Insert:   a.lat.Summary(),
		}
		if wallSecs > 0 {
			sl.GoodputOps = float64(sl.AckedOps) / wallSecs
		}
		out = append(out, sl)
	}
	return out
}

// tenant owns one deterministic trace; only the scheduler touches it.
type tenant struct {
	prefix string
	trace  *workload.Trace
	cfg    workload.Config
}

func (t *tenant) next() workload.Op {
	op, ok := t.trace.Next()
	if !ok {
		// Traces are sized effectively infinite, but if one does run dry,
		// restart it on a shifted seed so the storm never starves.
		t.cfg.Seed++
		t.trace = workload.New(t.cfg)
		op, _ = t.trace.Next()
	}
	op.DB = t.prefix + op.DB
	return op
}

// Run executes one storm against the members behind cfg.Addrs and returns
// its report. Members that cannot be reached before it starts are an error.
func Run(label string, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("stormtest: Rate and Duration must be positive")
	}

	rep := &Report{
		Label:  label,
		Config: cfg,
		Errors: make(map[string]int64),
		acked:  histcheck.New(histcheck.FloorAtAck),
	}

	tenants := make([]*tenant, cfg.Tenants)
	for i := range tenants {
		wcfg := workload.Config{
			Kind:         cfg.Blend[i%len(cfg.Blend)],
			Seed:         cfg.Seed + int64(i)*7919,
			InsertBytes:  1 << 40, // effectively unbounded
			Reads:        cfg.Reads,
			ReadSampling: cfg.ReadSampling,
		}
		tenants[i] = &tenant{
			prefix: fmt.Sprintf("t%04d_", i),
			trace:  workload.New(wcfg),
			cfg:    wcfg,
		}
	}

	// The dispatch queue between the arrival scheduler and the connection
	// workers holds the storm's full expected arrival count, so nothing is
	// dropped and compared runs see identical offered load. Arrivals that
	// still find it full are counted as dropped.
	dispatch := make(chan job, int(cfg.Rate*cfg.Duration.Seconds())+1024)
	latIns := metrics.NewHistogram()
	latRead := metrics.NewHistogram()
	var (
		offered, dropped    atomic.Int64
		ackedIns, ackedRead atomic.Int64
		insBytes            atomic.Int64
		errMu               sync.Mutex
		errCounts           = make(map[string]int64)
	)
	countErr := func(class string) {
		errMu.Lock()
		errCounts[class]++
		errMu.Unlock()
	}

	// Dial before the clock starts: an unreachable deployment is the
	// caller's error, not a storm of conn errors.
	clients := make([]*cluster.Client, cfg.Conns)
	for w := range clients {
		cc, err := cluster.DialCluster(cfg.Addrs, cluster.ClientOptions{Timeout: requestTimeout})
		if err != nil {
			for _, c := range clients[:w] {
				c.Close()
			}
			return nil, fmt.Errorf("stormtest: %w", err)
		}
		clients[w] = cc
	}
	shards := newShardTable(clients[0].Members())

	var wg sync.WaitGroup
	for _, client := range clients {
		wg.Add(1)
		go func(client *cluster.Client) {
			defer wg.Done()
			defer client.Close()
			for j := range dispatch {
				switch j.op.Kind {
				case workload.OpInsert:
					err := client.Insert(j.op.DB, j.op.Key, j.op.Payload)
					if err != nil {
						countErr(classify(err))
						continue
					}
					d := time.Since(j.scheduled)
					latIns.Observe(d)
					ackedIns.Add(1)
					insBytes.Add(int64(len(j.op.Payload)))
					rep.acked.Acked(j.op.DB, j.op.Key, j.op.Payload)
					sa := shards.agg(client.Ring().Owner(j.op.DB))
					sa.ops.Add(1)
					sa.bytes.Add(int64(len(j.op.Payload)))
					sa.lat.Observe(d)
				case workload.OpRead:
					_, err := client.Get(j.op.DB, j.op.Key)
					if err != nil {
						countErr(classify(err))
						continue
					}
					latRead.Observe(time.Since(j.scheduled))
					ackedRead.Add(1)
					shards.agg(client.Ring().Owner(j.op.DB)).ops.Add(1)
				}
			}
		}(client)
	}

	// Arrival scheduler: compound Poisson. Bursts arrive with exponential
	// gaps at Rate/MeanBurst bursts per second; each burst's size is Pareto
	// with mean MeanBurst; all operations of a burst hit one Zipf-chosen
	// tenant (tenant traffic is bursty, which is what stresses fair share).
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9))
	burstRate := cfg.Rate / cfg.MeanBurst
	paretoXm := cfg.MeanBurst * (paretoAlpha - 1) / paretoAlpha
	maxBurst := int(64 * cfg.MeanBurst)

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for {
		gap := time.Duration(rng.ExpFloat64() / burstRate * float64(time.Second))
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		// Pareto burst size via inverse transform; u in (0,1].
		u := 1 - rng.Float64()
		size := int(math.Round(paretoXm / math.Pow(u, 1/paretoAlpha)))
		if size < 1 {
			size = 1
		}
		if size > maxBurst {
			size = maxBurst
		}
		tn := tenants[zipfTenant(rng, cfg.Tenants)]
		for i := 0; i < size; i++ {
			op := tn.next()
			offered.Add(1)
			select {
			case dispatch <- job{op: op, scheduled: next}:
			default:
				dropped.Add(1)
			}
		}
	}
	close(dispatch)
	wg.Wait()
	rep.Wall = time.Since(start)

	rep.Offered = offered.Load()
	rep.Dropped = dropped.Load()
	rep.AckedInserts = ackedIns.Load()
	rep.AckedReads = ackedRead.Load()
	rep.InsertBytes = insBytes.Load()
	rep.Errors = errCounts
	rep.Insert = latIns.Summary()
	rep.Read = latRead.Summary()
	secs := rep.Wall.Seconds()
	if secs > 0 {
		rep.GoodputOps = float64(rep.AckedInserts+rep.AckedReads) / secs
		rep.GoodputMB = float64(rep.InsertBytes) / (1 << 20) / secs
	}
	rep.Shards = shards.loads(secs)
	return rep, nil
}

// zipfTenant skews tenant choice toward low ids (same shape the workload
// generators use for hot articles/threads).
func zipfTenant(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	u := rng.Float64()
	return int(float64(n) * u * u * u)
}

func classify(err error) string {
	var ne net.Error
	var amb *cluster.AmbiguousError
	switch {
	case errors.Is(err, apiserver.ErrOverloaded):
		return ErrClassOverloaded
	case errors.Is(err, apiserver.ErrNotFound):
		return ErrClassNotFound
	case errors.As(err, &ne) && ne.Timeout():
		return ErrClassTimeout
	case errors.As(err, &amb):
		return ErrClassConn
	default:
		return ErrClassOther
	}
}

// VerifyAckedWrites re-reads every acknowledged insert through a fresh
// routing client and returns how many are lost (unreadable) or corrupt
// (payload hash mismatch). Zero/zero is the harness's primary SLO: an
// acknowledged write is never lost, shed or not — whatever member acked it,
// and wherever rebalancing later placed its database.
func (r *Report) VerifyAckedWrites() (lost, corrupt int, err error) {
	cc, err := cluster.DialCluster(r.Config.Addrs, cluster.ClientOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer cc.Close()
	for _, bad := range r.acked.Check(cc) {
		if bad.Kind == histcheck.Lost {
			lost++
		} else {
			corrupt++
		}
	}
	return lost, corrupt, nil
}

// AckedWriteCount returns the number of distinct acknowledged inserts the
// report tracks.
func (r *Report) AckedWriteCount() int {
	live, _ := r.acked.Count()
	return live
}

// serverLines renders one server's side of the run: client payload in, what
// was stored and what replication would ship (each with its ratio to the raw
// bytes), then how the inserts were handled and, when admission control is
// on, what it decided.
func serverLines(addr string, st node.Stats) string {
	a := st.Admission
	s := fmt.Sprintf("server %s: raw %s -> stored %s (%.1fx), oplog %s (%.1fx), dedup hits %d\n"+
		"  inserts %d (shed raw %d, rejected %d), engine encodes %d",
		addr, metrics.FormatBytes(st.RawInsertBytes),
		metrics.FormatBytes(st.Store.LogicalBytes), metrics.Ratio(st.RawInsertBytes, st.Store.LogicalBytes),
		metrics.FormatBytes(st.OplogBytes), metrics.Ratio(st.RawInsertBytes, st.OplogBytes),
		st.Engine.Deduped, st.Inserts, st.InsertsShedRaw, st.InsertsRejected, st.Engine.Inserts)
	if a.Enabled || a.ShedRawEnabled {
		s += fmt.Sprintf("\n  admission: admitted %d, shed %d, rejected %d (tenant throttles %d), overload enters/exits %d/%d",
			a.Admitted, a.Shed, a.Rejected, a.TenantThrottles, a.OverloadEnters, a.OverloadExits)
	}
	return s
}

// ServerLines asks every server the storm drove for its Stats over the
// client API and returns each one's own account of what the storm left
// behind, in ring order.
func ServerLines(cfg Config) ([]string, error) {
	cc, err := cluster.DialCluster(cfg.Addrs, cluster.ClientOptions{})
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	var lines []string
	for _, m := range cc.Members() {
		conn, err := cc.Member(m)
		if err != nil {
			return nil, err
		}
		st, err := conn.Stats()
		if err != nil {
			return nil, fmt.Errorf("stats from %s: %w", m, err)
		}
		lines = append(lines, serverLines(m, st))
	}
	return lines, nil
}
