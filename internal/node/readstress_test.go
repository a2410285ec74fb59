package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLockFreeReadStress hammers the read path (Read/Has resolve keys through
// the store's key directory, never taking n.mu) while writers churn the same
// key space with inserts, updates, and deletes. Run under -race this checks
// the publish discipline; the assertions check its correctness invariant: a
// resolved key always yields the record's content — never an error — because
// the store publishes a key only once its record is in the record table.
func TestLockFreeReadStress(t *testing.T) {
	const (
		keys    = 32
		rounds  = 60
		readers = 4
	)
	n := asyncNode(t, Options{EncodeWorkers: 2})

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("k%d", (r+i)%keys)
				content, err := n.Read("stress", key)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // deleted or not yet published: fine
					}
					t.Errorf("Read(%s): %v", key, err)
					return
				}
				if len(content) == 0 {
					t.Errorf("Read(%s): empty content for a published key", key)
					return
				}
				reads.Add(1)
			}
		}(r)
	}

	// One writer per key-space half: churn insert → update → delete so
	// readers race every transition, including re-insert after delete.
	var werr error
	for round := 0; round < rounds && werr == nil; round++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%d", k)
			payload := []byte(fmt.Sprintf("round %d content of %s padded out to look like a record", round, key))
			if err := n.Insert("stress", key, payload); err != nil {
				werr = err
				break
			}
		}
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%d", k)
			if err := n.Update("stress", key, []byte(fmt.Sprintf("round %d updated %s", round, key))); err != nil {
				werr = err
				break
			}
		}
		for k := 0; k < keys; k++ {
			if err := n.Delete("stress", fmt.Sprintf("k%d", k)); err != nil {
				werr = err
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if reads.Load() == 0 {
		t.Fatal("readers never observed a published key")
	}
	n.Barrier()
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Fatalf("verify after stress: %+v", rep.Errors)
	}
}
