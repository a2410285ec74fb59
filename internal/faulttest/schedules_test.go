package faulttest

import (
	"os"
	"strconv"
	"testing"
)

// pinnedSeed is FAULTTEST_SEED, the knob for reproducing a failure from a
// printed seed: it pins every class to that one seed.
func pinnedSeed(t *testing.T) (int64, bool) {
	env := os.Getenv("FAULTTEST_SEED")
	if env == "" {
		return 0, false
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("FAULTTEST_SEED=%q: %v", env, err)
	}
	return seed, true
}

// seedsFor returns the seeds of one row's matrix. Every seed is a function
// of the row alone (seedBase, seedBase+1, …), so a report like
// "class=peerdeath seed=4003" reproduces exactly with
//
//	FAULTTEST_SEED=4003 go test ./internal/faulttest -run 'TestSchedules/peerdeath'
//
// The full network matrix is 8 classes × 26 seeds and the full cluster
// matrix 7 × 18; -short trims them to 2 per network class and to the row's
// short column per cluster class: 18 schedules, the budget of CI's
// race-detector pass, still covering every class. The composed pair includes
// 6002, one of the two seeds (with 6010) that fail when a shard forgets a
// failed drop; see transientDiskFaults.
func seedsFor(t *testing.T, row *class) []int64 {
	if seed, ok := pinnedSeed(t); ok {
		return []int64{seed}
	}
	n := shapes[row.topology].seeds[0]
	if testing.Short() {
		if n = row.short; n == 0 {
			n = shapes[row.topology].seeds[1]
		}
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = row.seedBase + int64(i)
	}
	return seeds
}

func opsFor(row *class) int {
	if testing.Short() {
		return shapes[row.topology].ops[1]
	}
	return shapes[row.topology].ops[0]
}

// add sums what the fired columns and the log line read.
func (r *Result) add(o Result) {
	r.Keys += o.Keys
	r.LimboKeys += o.LimboKeys
	r.Resyncs += o.Resyncs
	r.BaseFetches += o.BaseFetches
	r.Reconnects += o.Reconnects
	r.CorruptFrames += o.CorruptFrames
	r.FrameSeqViolations += o.FrameSeqViolations
	r.IdleOuts += o.IdleOuts
	r.Net.Chunks += o.Net.Chunks
	r.Net.Dials += o.Net.Dials
	r.Net.Accepts += o.Net.Accepts
	r.Net.Dropped += o.Net.Dropped
	r.Net.Corrupted += o.Net.Corrupted
	r.Net.Duplicated += o.Net.Duplicated
	r.Net.Reordered += o.Net.Reordered
	r.Net.Cuts += o.Net.Cuts
	r.Rebalances += o.Rebalances
	r.FailedRebalances += o.FailedRebalances
	r.Redirects += o.Redirects
	r.MovingWaits += o.MovingWaits
	r.Transport += o.Transport
	r.Transfers += o.Transfers
	r.DiskFaults += o.DiskFaults
	r.Kills += o.Kills
}

// TestSchedules is the model-checking matrix: every seeded class, many
// seeds, each schedule an independent bed churning while its faults run and
// judged after heal. Classes run in parallel. On failure the seed is in the
// message with the command that re-runs it alone.
func TestSchedules(t *testing.T) {
	_, pinned := pinnedSeed(t)
	for i := range classes {
		row := &classes[i]
		if row.script != nil {
			continue // the crash matrix: TestCrashMatrix
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			var agg Result
			for _, seed := range seedsFor(t, row) {
				res, err := Run(Schedule{Seed: seed, Class: row.name, Ops: opsFor(row)})
				if err != nil {
					t.Fatalf("seed=%d: %v\nreproduce: FAULTTEST_SEED=%d go test ./internal/faulttest -run 'TestSchedules/%s'",
						seed, err, seed, row.name)
				}
				agg.add(res)
			}
			t.Logf("%s: %d keys converged (%d ambiguous quarantined); follower: %d reconnects, %d resyncs, %d corrupt frames, %d seq violations, %d idle timeouts, %d base fetches; router: %d redirects, %d moving-waits, %d transport retries; %d records handed off in %d rebalance attempts (%d failed); %d disk faults, %d kills; network %+v",
				row.name, agg.Keys, agg.LimboKeys, agg.Reconnects, agg.Resyncs, agg.CorruptFrames, agg.FrameSeqViolations,
				agg.IdleOuts, agg.BaseFetches, agg.Redirects, agg.MovingWaits, agg.Transport, agg.Transfers,
				agg.Rebalances, agg.FailedRebalances, agg.DiskFaults, agg.Kills, agg.Net)

			if agg.Keys == 0 {
				t.Errorf("%s schedules converged zero keys: churn never landed", row.name)
			}
			// Every cluster class moves real data: the pinned placement of
			// the six churn databases guarantees join and leave each
			// relocate at least two of them, so a zero here means the
			// handoff machinery silently did nothing.
			if row.topology == clustered && agg.Transfers == 0 {
				t.Errorf("%s schedules never handed off a record", row.name)
			}
			// The class must have exercised its fault path, over its seeds
			// together (one schedule may roll few faults; the 18-schedule
			// cluster slice is too small to promise it).
			if pinned || testing.Short() && row.topology == clustered {
				return
			}
			for _, c := range row.fired {
				if c.of(&agg) == 0 {
					t.Errorf("%s schedules never %s", row.name, c.never)
				}
			}
		})
	}
}

// TestScheduleCount pins the size of the matrices: 208 network schedules in
// a full run (8 classes × 26 seeds) and 16 in the -short slice, 126 cluster
// schedules (7 × 18) and exactly 18.
func TestScheduleCount(t *testing.T) {
	if _, pinned := pinnedSeed(t); pinned {
		t.Skip("seed pinned via FAULTTEST_SEED")
	}
	network, ring := 0, 0
	for i := range classes {
		switch row := &classes[i]; {
		case row.topology == pair && row.exit == lives:
			network += len(seedsFor(t, row))
		case row.topology == clustered:
			ring += len(seedsFor(t, row))
		}
	}
	want := [2]int{208, 126}
	if testing.Short() {
		want = [2]int{16, 18}
	}
	if network != want[0] || ring != want[1] {
		t.Fatalf("matrix runs %d network and %d cluster schedules, pinned at %d and %d", network, ring, want[0], want[1])
	}
}

// TestSeedsNameSameSchedules pins the op trace (kind, db, key, content
// length, content hash) of four schedules: a reported seed must keep
// reproducing the schedule it named. The two network rows were recorded
// before the churn loop moved into histcheck; no primary-side op can fail,
// so their trace is a pure function of the seed whatever the network does.
// The two cluster rows were recorded at the last commit of
// internal/clustertest, twenty runs each with and without the race
// detector. A cluster trace depends on which operations a fault or an open
// window turned away, so only rows that gave one digest in all forty runs
// there and in forty here are pinned. Not pinned: composed/6002 (one digest,
// 0x40f9605cd6b6da20, in every plain run and another, 0x3856621cb640ecc9, in
// every race run), peerdeath/4003 (0xa903bcf4a0d933be in all forty runs
// there, in 37 of 40 here) and double/2001 (0x53b397cd362f1515, 39 of 40).
func TestSeedsNameSameSchedules(t *testing.T) {
	for _, tc := range []struct {
		class string
		seed  int64
		ops   int
		want  uint64
	}{
		{"partition", 1, 110, 0xc1495848290b3cea},
		{"mixed", 7001, 110, 0x670cac55a2b75a3},
		{"join", 1, 90, 0xa3ba54073b2e6555},
		{"leave", 1001, 90, 0xfcf66aa073fa70ee},
	} {
		res, err := Run(Schedule{Seed: tc.seed, Class: tc.class, Ops: tc.ops})
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.class, tc.seed, err)
		}
		if res.TraceDigest != tc.want {
			t.Errorf("%s seed %d: op trace digest %#x, want %#x: the seed no longer names the same schedule",
				tc.class, tc.seed, res.TraceDigest, tc.want)
		}
	}
}
