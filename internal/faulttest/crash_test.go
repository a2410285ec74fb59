package faulttest

import (
	"fmt"
	"strings"
	"testing"

	"dbdedup/internal/faultfs"
)

// mutatingOps are the op classes whose schedules are a pure function of the
// workload (read counts vary with replication timing and cache state, so
// they are excluded from determinism checks and never carry matrix rules).
var mutatingOps = []faultfs.Op{faultfs.OpOpen, faultfs.OpWrite, faultfs.OpSync,
	faultfs.OpTruncate, faultfs.OpRemove}

// TestCrashMatrix is the headline fault matrix: every scripted class is
// killed (or transiently faulted) at a schedule of fault points derived
// from a census pass, and each point must come through settle and judge:
// reopen without error, VerifyAll clean, no acknowledged-write loss past a
// synced flush, no dangling keys, and (for the replicated class) a follower
// that resyncs the recovered member in full.
func TestCrashMatrix(t *testing.T) {
	const seed = 1
	for i := range classes {
		row := &classes[i]
		if row.script == nil {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			sch := Schedule{Seed: seed, Class: row.name}
			base, err := RunPoint(sch, Point{TearSeed: seed, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("baseline run violates invariants: %v", err)
			}
			base2, _ := RunPoint(sch, Point{TearSeed: seed, Dir: t.TempDir()})
			for _, op := range mutatingOps {
				if base.Counts[op] != base2.Counts[op] {
					t.Fatalf("workload %s schedule not deterministic: %s count %d vs %d",
						row.name, op, base.Counts[op], base2.Counts[op])
				}
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
				res, err := RunPoint(sch, Point{Rule: &r, TearSeed: seed + int64(i)*7919, Dir: t.TempDir()})
				if res.Crashed {
					crashes++
				}
				if err != nil {
					failed++
					t.Errorf("point %d {%s #%d %s}: %v\n  injector events: %v",
						i, r.Op, r.Nth, r.Kind, err, res.Events)
					if failed >= 5 {
						t.Fatalf("stopping after %d failing points", failed)
					}
				}
			}
			if crashes == 0 {
				t.Fatal("no crash point fired — matrix is not exercising crashes")
			}
			t.Logf("%s: %d fault points (%d crashes fired), census writes=%d syncs=%d opens=%d removes=%d",
				row.name, len(rules), crashes, base.Counts[faultfs.OpWrite], base.Counts[faultfs.OpSync],
				base.Counts[faultfs.OpOpen], base.Counts[faultfs.OpRemove])
		})
	}
}

// The two ad-hoc crash tests that predate the matrix, re-homed onto it so
// there is one fault-injection idiom in the tree. Their originals lived in
// internal/node/crash_test.go and tore segment files by hand.

// TestCrashTornTail kills the chains workload at its final writes with
// several seed-pinned tear prefixes: the classic torn-tail-of-the-last-
// segment crash. Recovery must reopen, decode everything, and surface no
// state older than the last synced flush. (TestCrashMatrix subsumes this;
// it stays as a cheap, focused regression with many tear shapes at the
// same structural position.)
func TestCrashTornTail(t *testing.T) {
	sch := Schedule{Seed: 3, Class: "chains"}
	base, err := RunPoint(sch, Point{TearSeed: 11, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	writes := base.Counts[faultfs.OpWrite]
	if writes < 4 {
		t.Fatalf("workload issued only %d writes", writes)
	}
	for _, nth := range []uint64{writes, writes - 1, writes - 3} {
		for seed := int64(0); seed < 4; seed++ {
			r := faultfs.CrashAtWrite(nth)
			res, err := RunPoint(sch, Point{Rule: &r, TearSeed: 100 + seed, Dir: t.TempDir()})
			if !res.Crashed {
				t.Fatalf("crash at write %d never fired (events %v)", nth, res.Events)
			}
			if err != nil {
				t.Errorf("write %d, tear seed %d: %v\n  events: %v", nth, seed, err, res.Events)
			}
		}
	}
}

// TestCrashMidWritebacks crashes with a large write-back backlog that was
// never applied: phase 1 inserts a delta-heavy batch and seals WITHOUT
// flushing write-backs (Seal), so the backlog is pending when a crash in
// phase 2 drops it. The lossy write-back contract: every phase-1 record —
// durably acknowledged at the Seal — must recover exactly; nothing may be
// lost or corrupted, records simply remain in their larger form.
func TestCrashMidWritebacks(t *testing.T) {
	row := &class{name: "writeback-backlog", topology: single, disks: []int{0}, exit: closes, script: func(c *bed) {
		doc := c.Doc(2048)
		for i := 0; i < 30; i++ {
			c.Insert("db", fmt.Sprintf("k%04d", i), doc)
			doc = c.Edit(doc)
		}
		c.Seal() // durable barrier; write-back backlog still in memory
		for i := 30; i < 40; i++ {
			c.Insert("db", fmt.Sprintf("k%04d", i), doc)
			doc = c.Edit(doc)
		}
		c.Seal()
	}}
	sch := Schedule{Seed: 2}
	base, err := run(row, sch, Point{TearSeed: 5, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	writes, syncs := base.Counts[faultfs.OpWrite], base.Counts[faultfs.OpSync]
	points := []faultfs.Rule{
		faultfs.CrashAtWrite(writes),
		faultfs.CrashAtWrite(writes - 1),
		faultfs.CrashAtSync(syncs),
	}
	for i, r := range points {
		r := r
		res, err := run(row, sch, Point{Rule: &r, TearSeed: 50 + int64(i), Dir: t.TempDir()})
		if !res.Crashed {
			t.Fatalf("point %d never fired (events %v)", i, res.Events)
		}
		if err != nil {
			t.Errorf("point {%s #%d}: %v\n  events: %v", r.Op, r.Nth, err, res.Events)
		}
	}
}

// TestSetupFailureFailsThePoint: a bed whose follower cannot dial has
// replicated nothing, and says so. (crashtest's StartReplica returned
// silently when listen, open or connect failed, so such a point passed.)
func TestSetupFailureFailsThePoint(t *testing.T) {
	row := &class{name: "unreachable", topology: single, disks: []int{0}, exit: closes, follows: true, script: func(c *bed) {
		c.Insert("db", "k", c.Doc(512))
		c.Flush()
		c.mesh.SetDown(hosts[0], true)
		c.StartReplica()
	}}
	_, err := run(row, Schedule{Seed: 1}, Point{TearSeed: 1, Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "class unreachable seed 1") || !strings.Contains(err.Error(), "starting follower") {
		t.Fatalf("a follower that could not dial went unreported: %v", err)
	}
}
