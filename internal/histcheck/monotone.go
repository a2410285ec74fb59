package histcheck

import (
	"fmt"
	"sync"
	"time"
)

// Watch polls read(i) for each named counter every millisecond until the
// returned stop is called, and holds each to only ever move forward: a
// secondary's applied sequence number, a member's active ring epoch. stop
// returns the first regression seen, or nil, and may be called more than
// once (deferred for early returns, then for the verdict). The counters are
// read in-process: the invariant is on the component's own state, not on
// what a faulty network shows a client.
func Watch(what string, names []string, read func(i int) uint64) (stop func() error) {
	quit, done := make(chan struct{}), make(chan struct{})
	var bad error // written by the poller before done closes
	go func() {
		defer close(done)
		prev := make([]uint64, len(names))
		for {
			for i, name := range names {
				cur := read(i)
				if cur < prev[i] {
					bad = Violation{Kind: Regressed, Detail: fmt.Sprintf("%s of %s went %d -> %d", what, name, prev[i], cur)}
					return
				}
				prev[i] = cur
			}
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	var once sync.Once
	return func() error {
		once.Do(func() { close(quit) })
		<-done
		return bad
	}
}
