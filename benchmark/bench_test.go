package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func quickCfg(t *testing.T, workload string, trace bool) runCfg {
	return runCfg{workload: workload, seed: 1, seconds: 0.4, trace: trace, sz: quickSizes,
		root: t.TempDir(), verifyAll: true}
}

// Every workload reports exactly the metrics BENCHMARK.json lists, in both
// modes, passes its own correctness gate (VerifyAll included), and the two
// ingest workloads really separate the encode layers.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is outside the contract", m.Name)
		}
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 4", len(spec.Workloads))
	}
	hitShare := map[string]float64{}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(quickCfg(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if err := checkNames(spec, trace, rep.Result.Metrics); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.Name, trace,
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Notes)
			}
			for name, m := range rep.Result.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is %v", w.Name, name, m.Value)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			if trace {
				hitShare[w.Name] = rep.Result.Metrics["core.dedup_hit_share"].Value
			}
		}
	}
	if got := hitShare[wIngestUnique]; got >= 0.02 {
		t.Errorf("ingest_unique deduplicated %.3f of its inserts, want < 0.02", got)
	}
	if got := hitShare[wIngestVersioned]; got <= 0.3 {
		t.Errorf("ingest_versioned deduplicated %.3f of its inserts, want > 0.3", got)
	}
}

// driveStream issues n ops from a connection's stream the way the loops do,
// acking every insert, and checks each read against the acked set.
func driveStream(t *testing.T, st *connStream, n int, chooser func(*connStream) ackedKey) {
	t.Helper()
	acked := map[string]bool{}
	for _, k := range st.acked {
		acked[st.dbs[k.db].db+"/"+k.key] = true
	}
	for i := 0; i < n; i++ {
		if len(st.acked) > 20 && coinRead(st) {
			if chooser == nil {
				st.freezeDocs()
				chooser = (*connStream).readZipf
			}
			k := chooser(st)
			if !acked[st.dbs[k.db].db+"/"+k.key] {
				t.Fatalf("op %d reads %s/%s, which was never acked", i, st.dbs[k.db].db, k.key)
			}
			continue
		}
		dbi, key, payload := st.nextInsert()
		st.ack(dbi, key, payload)
		acked[st.dbs[dbi].db+"/"+key] = true
	}
}

// The same seed gives every connection the same op stream, another seed gives
// another, and a read never targets a key that has not been acked.
func TestOpStreamsAreDeterministic(t *testing.T) {
	for _, unique := range []bool{false, true} {
		for conn := 0; conn < 2; conn++ {
			a, b, c := newConnStream(7, conn, 2, unique), newConnStream(7, conn, 2, unique), newConnStream(8, conn, 2, unique)
			driveStream(t, a, 600, (*connStream).readRecent)
			driveStream(t, b, 600, (*connStream).readRecent)
			driveStream(t, c, 600, (*connStream).readRecent)
			if a.hash != b.hash {
				t.Errorf("unique=%v conn %d: same seed, different op streams", unique, conn)
			}
			if a.hash == c.hash {
				t.Errorf("unique=%v conn %d: different seeds, same op stream", unique, conn)
			}
			driveStream(t, a, 600, nil) // read_zipf's chooser
			if got := len(a.verifySample()); got < len(a.latest) {
				t.Errorf("verification sample has %d keys, fewer than the %d documents", got, len(a.latest))
			}
		}
	}
	// Every database belongs to exactly one connection, whatever the count.
	for _, conns := range []int{1, 2, 3, 4} {
		owned := 0
		for c := 0; c < conns; c++ {
			owned += len(newConnStream(1, c, conns, false).dbs)
		}
		if owned != numDBs {
			t.Errorf("%d connections own %d databases, want %d", conns, owned, numDBs)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestSlicedPercentileDampsOneStall(t *testing.T) {
	var s []sample
	for i := 0; i < 10000; i++ {
		lat := 100 * time.Microsecond
		if i >= 1000 && i < 1200 { // a stall confined to the second slice
			lat = 50 * time.Millisecond
		}
		s = append(s, sample{end: time.Duration(i), lat: lat})
	}
	if got := slicedPercentile(s, 0.95); got != 100 {
		t.Errorf("p95 = %v us, want the unstalled slices' 100", got)
	}
}
