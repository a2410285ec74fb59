package clustertest

import (
	"os"
	"strconv"
	"testing"
)

// shortCounts picks how many seeds per class the -short slice runs: 18
// schedules total, the budget of CI's race-detector pass, still covering
// every fault class. The composed pair includes 6002, one of the two seeds
// (with 6010) that fail when a shard forgets a failed drop; see diskFaults.
var shortCounts = []int{3, 3, 3, 3, 2, 2, 2}

// seedsFor returns the seed-pinned schedule seeds for one class. Every seed
// is a function of the class index alone, so a failure report like
// "class=peerdeath seed=4003" reproduces exactly with:
//
//	CLUSTERTEST_SEED=4003 go test ./internal/clustertest -run 'TestCluster/peerdeath'
func seedsFor(classIdx int) []int64 {
	if s := os.Getenv("CLUSTERTEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic("bad CLUSTERTEST_SEED: " + s)
		}
		return []int64{v}
	}
	base := int64(classIdx*1000 + 1)
	n := 18
	if testing.Short() {
		n = shortCounts[classIdx]
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

func opsPerSchedule() int {
	if testing.Short() {
		return 60
	}
	return 90
}

// TestCluster drives every fault class through its seed matrix. Each
// schedule is an independent cluster; classes run in parallel.
func TestCluster(t *testing.T) {
	for ci, class := range Classes {
		ci, class := ci, class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			type agg struct {
				keys, limbo, diskFaults           int
				redirects, movingWaits, transport int64
				transfersIn                       int64
				rebalances                        int
				replResyncs                       uint64
			}
			var a agg
			for _, seed := range seedsFor(ci) {
				res, err := Run(Schedule{Seed: seed, Class: class, Ops: opsPerSchedule()})
				if err != nil {
					t.Fatalf("seed %d: %v\nreproduce: CLUSTERTEST_SEED=%d go test ./internal/clustertest -run 'TestCluster/%s'",
						seed, err, seed, class)
				}
				a.keys += res.Keys
				a.limbo += res.LimboKeys
				a.diskFaults += res.DiskFaults
				a.redirects += res.Redirects
				a.movingWaits += res.MovingWaits
				a.transport += res.Transport
				a.transfersIn += res.TransfersIn
				a.rebalances += res.Rebalances
				a.replResyncs += res.ReplResyncs
			}
			t.Logf("%s: %d keys converged (%d ambiguous quarantined); %d redirects, %d moving-waits, %d transport retries, %d disk faults, %d records handed off, %d rebalance attempts",
				class, a.keys, a.limbo, a.redirects, a.movingWaits, a.transport, a.diskFaults, a.transfersIn, a.rebalances)

			// Every class moves real data: the pinned placement of the six
			// churn databases guarantees join and leave each relocate at
			// least two of them, so a zero here means the handoff machinery
			// silently did nothing.
			if a.keys == 0 {
				t.Errorf("%s schedules converged zero keys: churn never landed", class)
			}
			if a.transfersIn == 0 {
				t.Errorf("%s schedules never handed off a record", class)
			}
			// Fault-path assertions (aggregated; individual seeds may roll
			// few faults).
			if !testing.Short() {
				switch class {
				case "join", "double":
					if a.redirects == 0 {
						t.Error("ownership changed under live clients but no redirect was ever followed")
					}
				case "partition":
					if a.transport == 0 {
						t.Error("partition schedules never forced a transport retry")
					}
				case "peerdeath":
					if a.rebalances <= len(seedsFor(ci)) {
						t.Error("peer death never forced a rebalance retry")
					}
				case "composed":
					if a.diskFaults == 0 {
						t.Error("composed schedules never fired an injected disk error")
					}
					if a.transport == 0 {
						t.Error("composed schedules never forced a transport retry")
					}
				}
			}
		})
	}
}

// TestClusterScheduleCount pins the size of the model-checked schedule
// matrix: at least 100 seed-pinned fault schedules in a full run (the
// acceptance floor; 108 plus the 18 composed), exactly 18 in the -short CI
// slice.
func TestClusterScheduleCount(t *testing.T) {
	if os.Getenv("CLUSTERTEST_SEED") != "" {
		t.Skip("seed pinned via CLUSTERTEST_SEED")
	}
	total := 0
	for ci := range Classes {
		total += len(seedsFor(ci))
	}
	if testing.Short() {
		if total != 18 {
			t.Fatalf("short slice runs %d schedules, the CI race pass budgets exactly 18", total)
		}
		return
	}
	if total < 100 {
		t.Fatalf("full matrix runs %d schedules, acceptance floor is 100", total)
	}
}
