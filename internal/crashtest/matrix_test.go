package crashtest

import (
	"testing"

	"dbdedup/internal/faultfs"
)

// mutatingOps are the op classes whose schedules are a pure function of the
// workload (read counts vary with replication timing and cache state, so
// they are excluded from determinism checks and never carry matrix rules).
var mutatingOps = []faultfs.Op{faultfs.OpOpen, faultfs.OpWrite, faultfs.OpSync,
	faultfs.OpTruncate, faultfs.OpRemove, faultfs.OpMmap}

// TestCrashMatrix is the headline fault matrix: every standard workload is
// killed (or transiently faulted) at a schedule of fault points derived
// from a census pass, and each point's recovery must satisfy all the
// invariants RunPoint checks — reopen without error, VerifyAll clean, no
// acknowledged-write loss past a synced flush, no dangling keys, and (for
// the replicated workload) full resync convergence.
func TestCrashMatrix(t *testing.T) {
	cfg := Config{Seed: 1, SyncWrites: true}
	for _, w := range StandardWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			base := RunPoint(cfg, w, nil, cfg.Seed, t.TempDir())
			if len(base.Problems) > 0 {
				t.Fatalf("baseline run violates invariants: %v", base.Problems)
			}
			base2 := RunPoint(cfg, w, nil, cfg.Seed, t.TempDir())
			for _, op := range mutatingOps {
				if base.Counts[op] != base2.Counts[op] {
					t.Fatalf("workload %s schedule not deterministic: %s count %d vs %d",
						w.Name, op, base.Counts[op], base2.Counts[op])
				}
			}

			// Every workload writes past SegmentSize, so sealed segments
			// roll and the store asks to map them; the census counts the
			// request whether or not the platform grants it.
			if base.Counts[faultfs.OpMmap] == 0 {
				t.Fatalf("workload %s never tried to map a sealed segment", w.Name)
			}

			perClass := 12
			if testing.Short() {
				perClass = 5
			}
			rules := Points(base.Counts, perClass)
			if len(rules) < 20 {
				t.Fatalf("only %d fault points from census %v; need ≥20", len(rules), base.Counts)
			}

			crashes, failed := 0, 0
			for i, r := range rules {
				r := r
				res := RunPoint(cfg, w, &r, cfg.Seed+int64(i)*7919, t.TempDir())
				if res.Crashed {
					crashes++
				}
				if len(res.Problems) > 0 {
					failed++
					t.Errorf("point %d {%s #%d %s}: %v\n  injector events: %v",
						i, r.Op, r.Nth, r.Kind, res.Problems, res.Events)
					if failed >= 5 {
						t.Fatalf("stopping after %d failing points", failed)
					}
				}
			}
			if crashes == 0 {
				t.Fatal("no crash point fired — matrix is not exercising crashes")
			}
			t.Logf("%s: %d fault points (%d crashes fired), census writes=%d syncs=%d opens=%d removes=%d",
				w.Name, len(rules), crashes, base.Counts[faultfs.OpWrite],
				base.Counts[faultfs.OpSync], base.Counts[faultfs.OpOpen], base.Counts[faultfs.OpRemove])
		})
	}
}
