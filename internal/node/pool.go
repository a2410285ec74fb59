package node

import (
	"hash/fnv"
	"sync"

	"dbdedup/internal/metrics"
)

// fifoPool is the ordering invariant both sides of replication rest on
// (DESIGN.md §6): shard by database, one FIFO per shard, one worker per
// shard. Jobs of one database run in push order while independent databases
// run in parallel. The primary's encoder pool and the secondary's apply pool
// are both this type; they differ in the job and in who pushes.
//
// A producer reserves a capacity token on its database's shard before its
// mutation takes effect, holding no lock, so backpressure reorders nothing;
// push fixes the order, and the producer may push under its own lock. The
// lock hierarchy is caller's lock → shard.mu: a worker pops holding only
// shard.mu and takes no caller lock while it does.
type fifoPool[J any] struct {
	shards []*fifoShard[J]
	run    func(J)
	// The owner's instruments: live workers, jobs queued or in flight, stalls.
	workers, depth *metrics.Gauge
	overflows      *metrics.Meter
	wg             sync.WaitGroup
	once           sync.Once
}

type fifoShard[J any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []fifoItem[J]
	closed bool
	// sem holds one token per reserved or queued job. Sentinels take none:
	// they represent no work and must never deadlock against a full shard.
	sem chan struct{}
}

// fifoItem is a job or, with barrier set, a sentinel marking a queue position.
type fifoItem[J any] struct {
	job     J
	barrier *sync.WaitGroup
}

// newFIFOPool starts n workers, each owning a shard of queue slots; run is
// called for every job, on its shard's worker.
func newFIFOPool[J any](n, queue int, run func(J), workers, depth *metrics.Gauge, overflows *metrics.Meter) *fifoPool[J] {
	p := &fifoPool[J]{shards: make([]*fifoShard[J], n), run: run, workers: workers, depth: depth, overflows: overflows}
	for i := range p.shards {
		sh := &fifoShard[J]{sem: make(chan struct{}, queue)}
		sh.cond = sync.NewCond(&sh.mu)
		p.shards[i] = sh
		p.wg.Add(1)
		go p.work(sh)
	}
	workers.Add(int64(n))
	return p
}

// shardFor maps a database name to its shard (FNV-1a). Every job of one
// database lands on the same shard, which is what makes its order FIFO.
func (p *fifoPool[J]) shardFor(db string) *fifoShard[J] {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(db))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// reserve blocks until db's shard has capacity and returns it holding one
// token, to be spent by push or returned by release.
func (p *fifoPool[J]) reserve(db string) *fifoShard[J] {
	sh := p.shardFor(db)
	select {
	case sh.sem <- struct{}{}:
	default:
		// Shard at capacity: count the stall once, then wait for the worker.
		p.overflows.Add(1)
		sh.sem <- struct{}{}
	}
	return sh
}

// release returns an unused reservation (the mutation failed before push); a
// nil shard, a mutation that reserved nothing, returns nothing.
func (sh *fifoShard[J]) release() {
	if sh != nil {
		<-sh.sem
	}
}

// push queues job on sh, spending the caller's reservation. A closed pool
// drops the job and returns the token: it accepts nothing no worker will run.
func (p *fifoPool[J]) push(sh *fifoShard[J], job J) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		sh.release()
		return
	}
	p.depth.Add(1)
	sh.q = append(sh.q, fifoItem[J]{job: job})
	sh.cond.Signal()
	sh.mu.Unlock()
}

// plant queues one sentinel per shard and returns the group that is done once
// every job pushed before it has run; a caller that pushes under a lock plants
// under it and waits outside. A closed, empty shard resolves at once (its
// worker may have exited), so waiting is safe during and after close.
func (p *fifoPool[J]) plant() *sync.WaitGroup {
	reached := new(sync.WaitGroup)
	reached.Add(len(p.shards))
	for _, sh := range p.shards {
		sh.mu.Lock()
		if sh.closed && len(sh.q) == 0 {
			reached.Done()
		} else {
			sh.q = append(sh.q, fifoItem[J]{barrier: reached})
			sh.cond.Signal()
		}
		sh.mu.Unlock()
	}
	return reached
}

// close stops the pool: each worker runs what its shard had accepted, then
// exits, and close returns once all have. Idempotent.
func (p *fifoPool[J]) close() {
	p.once.Do(func() {
		for _, sh := range p.shards {
			sh.mu.Lock()
			sh.closed = true
			sh.cond.Broadcast()
			sh.mu.Unlock()
		}
		p.wg.Wait()
		p.workers.Add(-int64(len(p.shards)))
	})
}

// work drains one shard in FIFO order until it is closed and empty.
func (p *fifoPool[J]) work(sh *fifoShard[J]) {
	defer p.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.q) == 0 && !sh.closed {
			sh.cond.Wait()
		}
		if len(sh.q) == 0 {
			sh.mu.Unlock()
			return
		}
		it := sh.q[0]
		sh.q = sh.q[1:]
		sh.mu.Unlock()
		if it.barrier != nil {
			it.barrier.Done()
			continue
		}
		p.run(it.job)
		p.depth.Add(-1)
		<-sh.sem
	}
}
