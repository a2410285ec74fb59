package admission

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newTestController(t *testing.T, opts Options) (*Controller, *fakeClock) {
	t.Helper()
	c := New(opts)
	if c == nil {
		t.Fatalf("New(%+v) = nil, want controller", opts)
	}
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	c.SetNowFunc(clk.now)
	return c, clk
}

func TestNilAndDisabledControllerAdmits(t *testing.T) {
	var c *Controller
	if got := c.Decide("db", 100, 100); got != Admit {
		t.Fatalf("nil controller Decide = %v, want Admit", got)
	}
	if s := c.Snapshot(); s.Enabled || s.ShedRawEnabled {
		t.Fatalf("nil controller Snapshot = %+v, want zero", s)
	}
	if got := New(Options{}); got != nil {
		t.Fatalf("New(zero Options) = %v, want nil", got)
	}
}

func TestShedHysteresis(t *testing.T) {
	c, _ := newTestController(t, Options{ShedRaw: true})

	if got := c.Decide("a", 10, 100); got != Admit {
		t.Fatalf("below threshold: Decide = %v, want Admit", got)
	}
	if got := c.Decide("a", 60, 100); got != ShedRaw {
		t.Fatalf("above threshold: Decide = %v, want ShedRaw", got)
	}
	// Between resume and shed thresholds: still overloaded (hysteresis).
	if got := c.Decide("a", 40, 100); got != ShedRaw {
		t.Fatalf("hysteresis band while overloaded: Decide = %v, want ShedRaw", got)
	}
	// Below resume: overload exits.
	if got := c.Decide("a", 10, 100); got != Admit {
		t.Fatalf("below resume: Decide = %v, want Admit", got)
	}
	// Back in the band from below: not overloaded.
	if got := c.Decide("a", 40, 100); got != Admit {
		t.Fatalf("hysteresis band while healthy: Decide = %v, want Admit", got)
	}
	s := c.Snapshot()
	if s.OverloadEnters != 1 || s.OverloadExits != 1 {
		t.Fatalf("transitions = %d enters / %d exits, want 1/1", s.OverloadEnters, s.OverloadExits)
	}
	if s.Shed != 2 || s.Admitted != 3 {
		t.Fatalf("counters = %d shed / %d admitted, want 2/3", s.Shed, s.Admitted)
	}
}

// TestOverloadDwell pins the time-hysteresis: once overload is entered, an
// instantly drained queue does not exit it until the dwell has elapsed.
func TestOverloadDwell(t *testing.T) {
	c, clk := newTestController(t, Options{
		ShedRaw: true, OverloadDwell: 100 * time.Millisecond,
	})

	if got := c.Decide("a", 60, 100); got != ShedRaw {
		t.Fatalf("above threshold: Decide = %v, want ShedRaw", got)
	}
	// The queue drains immediately, but the dwell holds the latch.
	if got := c.Decide("a", 0, 100); got != ShedRaw {
		t.Fatalf("inside dwell with empty queue: Decide = %v, want ShedRaw", got)
	}
	clk.advance(99 * time.Millisecond)
	if got := c.Decide("a", 0, 100); got != ShedRaw {
		t.Fatalf("1ms before dwell expiry: Decide = %v, want ShedRaw", got)
	}
	clk.advance(2 * time.Millisecond)
	if got := c.Decide("a", 0, 100); got != Admit {
		t.Fatalf("after dwell with empty queue: Decide = %v, want Admit", got)
	}
	// Past the dwell, the level signals still govern: a refilled queue
	// re-enters immediately.
	if got := c.Decide("a", 60, 100); got != ShedRaw {
		t.Fatalf("re-enter after dwell: Decide = %v, want ShedRaw", got)
	}
	if s := c.Snapshot(); s.OverloadEnters != 2 || s.OverloadExits != 1 {
		t.Fatalf("transitions = %d/%d, want 2 enters / 1 exit", s.OverloadEnters, s.OverloadExits)
	}
}

func TestTenantFairShareRejectsOnlyUnderOverload(t *testing.T) {
	c, clk := newTestController(t, Options{
		ShedRaw: true, TenantRate: 10,
	})

	// Healthy server: the greedy tenant drains its bucket (2×TenantRate
	// tokens) but is admitted.
	for i := 0; i < 20; i++ {
		if got := c.Decide("greedy", 0, 100); got != Admit {
			t.Fatalf("healthy op %d: Decide = %v, want Admit", i, got)
		}
	}

	// Overload: the drained tenant is rejected, a fresh tenant is shed
	// (admitted in degraded form), never rejected.
	if got := c.Decide("greedy", 90, 100); got != Reject {
		t.Fatalf("overloaded greedy tenant: Decide = %v, want Reject", got)
	}
	for i := 0; i < 5; i++ {
		if got := c.Decide("fresh", 90, 100); got != ShedRaw {
			t.Fatalf("overloaded fresh tenant op %d: Decide = %v, want ShedRaw", i, got)
		}
	}

	// Refill: after a second at rate 10, the greedy tenant has tokens again.
	clk.advance(time.Second)
	if got := c.Decide("greedy", 90, 100); got != ShedRaw {
		t.Fatalf("refilled greedy tenant: Decide = %v, want ShedRaw", got)
	}

	s := c.Snapshot()
	if s.Rejected != 1 {
		t.Fatalf("rejections = %d, want 1", s.Rejected)
	}
	if s.TrackedTenants != 2 {
		t.Fatalf("tracked tenants = %d, want 2", s.TrackedTenants)
	}
}

func TestAdmissionWithoutShedQueuesInsteadOfDegrading(t *testing.T) {
	c, _ := newTestController(t, Options{TenantRate: 1})
	for i := 0; i < 8; i++ { // the bucket's floor capacity
		if got := c.Decide("a", 90, 100); got != Admit {
			t.Fatalf("op %d has a token: Decide = %v, want Admit", i, got)
		}
	}
	if got := c.Decide("a", 90, 100); got != Reject {
		t.Fatalf("drained tenant under overload: Decide = %v, want Reject", got)
	}
}

func TestMaxTenantsBoundsMemory(t *testing.T) {
	c, _ := newTestController(t, Options{TenantRate: 1})
	for i := 0; i < 3*maxTenants; i++ {
		c.Decide(fmt.Sprintf("tenant-%d", i), 0, 100)
	}
	if s := c.Snapshot(); s.TrackedTenants > maxTenants+tenantStripes {
		t.Fatalf("tracked tenants = %d, want <= %d", s.TrackedTenants, maxTenants+tenantStripes)
	}
}

func TestConcurrentDecide(t *testing.T) {
	c, _ := newTestController(t, Options{
		ShedRaw: true, TenantRate: 1000,
	})
	var wg sync.WaitGroup
	var admitted, shed, rejected [8]int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				depth := int64(i % 200) // sweeps through both regimes
				switch c.Decide(fmt.Sprintf("t%d", i%17), depth, 100) {
				case Admit:
					admitted[g]++
				case ShedRaw:
					shed[g]++
				case Reject:
					rejected[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for g := 0; g < 8; g++ {
		total += admitted[g] + shed[g] + rejected[g]
	}
	if total != 8*2000 {
		t.Fatalf("decisions = %d, want %d", total, 8*2000)
	}
	s := c.Snapshot()
	if s.Admitted+s.Shed+s.Rejected != total {
		t.Fatalf("snapshot decisions = %d, want %d",
			s.Admitted+s.Shed+s.Rejected, total)
	}
}
