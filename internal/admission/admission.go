// Package admission implements the server's overload-protection layer: the
// admission controller that sits in front of the node's encoder pool and
// decides, per insert, whether to run the full dedup workflow, degrade to a
// raw insert, or refuse the request outright.
//
// When inline dedup cannot keep up, shed the *dedup work*, not the *write*.
// A raw insert costs one store append — microseconds — so acknowledged writes
// stay fast under overload. The dedup ratio of a shed record is given up, not
// recovered: the record stays raw, since nothing dedups out of line (DESIGN.md
// §9). Rejection is the second line of defence: during overload a tenant
// pushing past its fair share is bounced with an overload error instead of
// being allowed to grow the queue for everyone else.
//
// Signal. The controller watches one thing, encode-queue occupancy: depth /
// capacity across the encoder shards. The pool already applies backpressure
// when a shard fills; occupancy is the leading indicator that backpressure
// (and with it, latency collapse) is imminent.
//
// Overload state uses hysteresis: entered when occupancy reaches
// shedThreshold, exited only when it falls to resumeThreshold, so the mode
// does not flap at the boundary. Level hysteresis alone is not enough under
// *sustained* overload, though: shed inserts drain the queue in a few
// job-times, the latch exits, the next admit burst refills it, and the
// controller flaps at kilohertz — each admit burst stalling same-shard acks
// behind full-cost encode jobs. OverloadDwell adds hysteresis
// in time: once entered, overload persists at least the dwell, turning the
// flapping into long shed stretches punctuated by brief work-conserving
// probes of the encoder.
//
// Fairness. Each tenant (database) owns a token bucket refilled at
// TenantRate with capacity 2×TenantRate (at least 8). Buckets are
// work-conserving: tokens are consumed whenever available, but an empty
// bucket only matters during overload — a tenant is never throttled while
// the server has headroom.
//
// All methods are safe for concurrent use; Decide is on the insert hot path
// and avoids locks except for a striped per-tenant map.
package admission

import (
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/metrics"
)

// Decision is the controller's verdict for one insert.
type Decision int

const (
	// Admit runs the full dedup encode workflow.
	Admit Decision = iota
	// ShedRaw stores and replicates the record raw, bypassing sketch and
	// delta encoding. The write is acknowledged normally.
	ShedRaw
	// Reject refuses the request; the caller returns an overload error
	// without performing the insert.
	Reject
)

// String names the decision for logs and test output.
func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case ShedRaw:
		return "shed-raw"
	case Reject:
		return "reject"
	default:
		return "unknown"
	}
}

// Options configures a Controller. The zero value disables everything (a nil
// Controller is also valid and admits everything).
type Options struct {
	// ShedRaw turns on load shedding: during overload, admitted inserts
	// bypass dedup encoding and are stored raw.
	ShedRaw bool

	// OverloadDwell, when positive, is the minimum time the controller
	// stays in overload once entered, regardless of how quickly the queue
	// drains. 0 (the default) exits on the level signals alone.
	OverloadDwell time.Duration

	// TenantRate, when positive, turns on admission control: each tenant
	// gets a token bucket refilled at this fair-share insert rate
	// (inserts/second), and an insert that finds its bucket empty during
	// overload is rejected. 0 disables per-tenant accounting: overload
	// rejections then never happen and protection is shedding only.
	TenantRate float64
}

const (
	// shedThreshold is the encode-queue occupancy (depth/capacity) at
	// which the controller enters overload.
	shedThreshold = 0.5
	// resumeThreshold is the occupancy at which overload is exited.
	resumeThreshold = shedThreshold / 2
	// maxTenants bounds the tracked-tenant map. When full, a new tenant
	// resets its stripe, trading historical fairness for bounded memory.
	maxTenants = 16384
)

// Controller is the admission-control state machine.
type Controller struct {
	opts Options
	// burst is each tenant bucket's capacity: 2×TenantRate, at least 8.
	burst float64
	now   func() time.Time // test seam

	// overloaded is the hysteresis latch; transitions are counted so the
	// admin page can show mode flapping. enteredAtNano is the clock reading
	// at the latest enter, gating exit behind OverloadDwell.
	overloaded     atomic.Bool
	enteredAtNano  atomic.Int64
	overloadEnters metrics.Meter
	overloadExits  metrics.Meter

	// Decision counters. Admitted counts full-workflow admissions, Shed
	// raw-degraded admissions, Rejected refusals, every one of them a
	// tenant whose bucket was exhausted under overload.
	admitted metrics.Meter
	shed     metrics.Meter
	rejected metrics.Meter

	stripes [tenantStripes]tenantStripe
}

const tenantStripes = 16

type tenantStripe struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// New returns a Controller for opts, or nil when opts enables nothing —
// callers treat a nil Controller as "admit everything, track nothing".
func New(opts Options) *Controller {
	if opts.TenantRate <= 0 && !opts.ShedRaw {
		return nil
	}
	return &Controller{opts: opts, burst: max(2*opts.TenantRate, 8), now: time.Now}
}

// SetNowFunc replaces the controller's clock (tests).
func (c *Controller) SetNowFunc(now func() time.Time) { c.now = now }

// updateOverload recomputes the hysteresis latch from the queue occupancy
// and returns its state.
func (c *Controller) updateOverload(queueDepth, queueCap int64) bool {
	occ := 0.0
	if queueCap > 0 {
		occ = float64(queueDepth) / float64(queueCap)
	}
	cur := c.overloaded.Load()
	if !cur {
		if occ >= shedThreshold {
			if c.overloaded.CompareAndSwap(false, true) {
				c.enteredAtNano.Store(c.now().UnixNano())
				c.overloadEnters.Add(1)
			}
			return true
		}
		return false
	}
	if c.opts.OverloadDwell > 0 &&
		c.now().UnixNano()-c.enteredAtNano.Load() < int64(c.opts.OverloadDwell) {
		return true
	}
	if occ <= resumeThreshold {
		if c.overloaded.CompareAndSwap(true, false) {
			c.overloadExits.Add(1)
		}
		return false
	}
	return true
}

// Decide renders the verdict for one insert by tenant (database name), given
// the encoder pool's current queue depth and total capacity. Safe for
// concurrent use; a nil Controller admits.
func (c *Controller) Decide(tenant string, queueDepth, queueCap int64) Decision {
	if c == nil {
		return Admit
	}
	overloaded := c.updateOverload(queueDepth, queueCap)
	hasTokens := c.takeToken(tenant)
	if !overloaded {
		// Headroom: work-conserving, nobody is throttled.
		c.admitted.Add(1)
		return Admit
	}
	if !hasTokens {
		// Overload + tenant past its fair share: bounce it so it cannot
		// grow the queue for everyone else.
		c.rejected.Add(1)
		return Reject
	}
	if c.opts.ShedRaw {
		c.shed.Add(1)
		return ShedRaw
	}
	c.admitted.Add(1)
	return Admit
}

// takeToken refills and debits tenant's bucket, reporting whether a token
// was available. Always returns true when per-tenant accounting is off.
func (c *Controller) takeToken(tenant string) bool {
	if c.opts.TenantRate <= 0 {
		return true
	}
	st := &c.stripes[stripeOf(tenant)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.buckets == nil {
		st.buckets = make(map[string]*bucket)
	}
	b := st.buckets[tenant]
	now := c.now()
	if b == nil {
		if len(st.buckets)*tenantStripes >= maxTenants {
			// Bounded memory beats perfect history: start this stripe over.
			st.buckets = make(map[string]*bucket)
		}
		b = &bucket{tokens: c.burst, last: now}
		st.buckets[tenant] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * c.opts.TenantRate
		b.tokens = min(b.tokens, c.burst)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

func stripeOf(tenant string) int {
	// FNV-1a, inlined to keep the hot path allocation-free.
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= 16777619
	}
	return int(h % tenantStripes)
}

// Snapshot is a point-in-time view of the controller for /metrics and the
// admin page. The zero value (Enabled and ShedRawEnabled false) is what a
// node without a controller reports.
type Snapshot struct {
	// Enabled (a positive TenantRate) and ShedRawEnabled mirror the
	// configuration.
	Enabled        bool
	ShedRawEnabled bool
	// Overloaded is the current hysteresis-latch state; the transition
	// counters expose flapping.
	Overloaded     bool
	OverloadEnters int64
	OverloadExits  int64
	// Decision counters.
	Admitted int64
	Shed     int64
	Rejected int64
	// TrackedTenants is the current token-bucket population.
	TrackedTenants int
}

// Snapshot summarises the controller. Safe on a nil Controller.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Enabled:        c.opts.TenantRate > 0,
		ShedRawEnabled: c.opts.ShedRaw,
		Overloaded:     c.overloaded.Load(),
		OverloadEnters: c.overloadEnters.Total(),
		OverloadExits:  c.overloadExits.Total(),
		Admitted:       c.admitted.Total(),
		Shed:           c.shed.Total(),
		Rejected:       c.rejected.Total(),
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s.TrackedTenants += len(st.buckets)
		st.mu.Unlock()
	}
	return s
}
