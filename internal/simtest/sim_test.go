package simtest

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// seedsFor returns the seed list for one class. The full run covers 26 seeds
// per class (8 classes × 26 = 208 schedules); -short trims to 2 per class for
// CI. SIMTEST_SEED=<n> pins every class to that single seed — the knob for
// reproducing a failure from a printed seed.
func seedsFor(t *testing.T, class string) []int64 {
	if env := os.Getenv("SIMTEST_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("SIMTEST_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	per := 26
	if testing.Short() {
		per = 2
	}
	// Decorrelate classes: each gets its own seed range.
	base := int64(1)
	for i, c := range Classes {
		if c == class {
			base = int64(i)*1000 + 1
		}
	}
	seeds := make([]int64, per)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// TestSimSchedules is the model-checking matrix: every fault class, many
// seeds, each schedule churning the primary while the network misbehaves and
// asserting full convergence after heal. On failure the seed is in the
// subtest name and the error; re-run it alone with
//
//	SIMTEST_SEED=<seed> go test ./internal/simtest -run TestSimSchedules/<class>
func TestSimSchedules(t *testing.T) {
	ops := 110
	if testing.Short() {
		ops = 70
	}
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			t.Parallel()
			var agg Result
			for _, seed := range seedsFor(t, class) {
				res, err := Run(Schedule{Seed: seed, Class: class, Ops: ops})
				if err != nil {
					t.Fatalf("seed=%d: %v\nreproduce: SIMTEST_SEED=%d go test ./internal/simtest -run TestSimSchedules/%s",
						seed, err, seed, class)
				}
				agg.Resyncs += res.Resyncs
				agg.Reconnects += res.Reconnects
				agg.CorruptFrames += res.CorruptFrames
				agg.FrameSeqViolations += res.FrameSeqViolations
				agg.IdleTimeouts += res.IdleTimeouts
				agg.BaseFetches += res.BaseFetches
				agg.Keys += res.Keys
				agg.Counters.Chunks += res.Counters.Chunks
				agg.Counters.Dials += res.Counters.Dials
				agg.Counters.Accepts += res.Counters.Accepts
				agg.Counters.Dropped += res.Counters.Dropped
				agg.Counters.Corrupted += res.Counters.Corrupted
				agg.Counters.Duplicated += res.Counters.Duplicated
				agg.Counters.Reordered += res.Counters.Reordered
				agg.Counters.Cuts += res.Counters.Cuts
			}
			t.Logf("%s: %d keys converged; %d reconnects, %d resyncs, %d corrupt frames, %d seq violations, %d idle timeouts, %d base fetches; sim did %+v",
				class, agg.Keys, agg.Reconnects, agg.Resyncs, agg.CorruptFrames,
				agg.FrameSeqViolations, agg.IdleTimeouts, agg.BaseFetches, agg.Counters)

			// The class must actually have exercised its fault path
			// (aggregated across seeds; individual schedules may roll few
			// faults).
			switch class {
			case "partition", "oneway":
				if agg.Reconnects == 0 {
					t.Error("partition schedules never forced a reconnect")
				}
			case "reorder":
				if agg.Counters.Reordered == 0 {
					t.Error("reorder schedules never reordered a frame")
				}
			case "duplicate":
				if agg.Counters.Duplicated == 0 {
					t.Error("duplicate schedules never duplicated a frame")
				}
			case "corrupt":
				if agg.Counters.Corrupted == 0 {
					t.Error("corrupt schedules never corrupted a frame")
				}
			case "drop":
				if agg.Counters.Dropped == 0 {
					t.Error("drop schedules never dropped a frame")
				}
			case "cut":
				if agg.Counters.Cuts == 0 {
					t.Error("cut schedules never cut a connection")
				}
			}
		})
	}
}

// TestSimScheduleCount documents the acceptance floor: a full (non-short) run
// executes at least 200 seed-pinned schedules across the fault classes.
func TestSimScheduleCount(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix only")
	}
	total := 0
	for _, class := range Classes {
		total += len(seedsFor(t, class))
	}
	if total < 200 {
		t.Fatalf("full matrix runs %d schedules, need >= 200", total)
	}
	fmt.Println("simtest full matrix:", total, "schedules")
}

// TestSeedsNameSameSchedules pins the primary-side op trace (kind, db, key,
// content length, content hash) of two schedules to the digests recorded
// before the churn loop moved into histcheck: a reported seed must keep
// reproducing the schedule it named. No primary op can fail, so the trace is
// a pure function of the seed whatever the network does.
func TestSeedsNameSameSchedules(t *testing.T) {
	for _, tc := range []struct {
		class string
		seed  int64
		want  uint64
	}{
		{"partition", 1, 0xc1495848290b3cea},
		{"mixed", 7001, 0x670cac55a2b75a3},
	} {
		res, err := Run(Schedule{Seed: tc.seed, Class: tc.class, Ops: 110})
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.class, tc.seed, err)
		}
		if res.TraceDigest != tc.want {
			t.Errorf("%s seed %d: op trace digest %#x, want %#x — the seed no longer names the same schedule",
				tc.class, tc.seed, res.TraceDigest, tc.want)
		}
	}
}
