package histcheck_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/cluster"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/node"
)

// mapView is a recovered store reduced to its visible state.
type mapView map[histcheck.Key][]byte

func (m mapView) Get(db, key string) ([]byte, error) {
	v, ok := m[histcheck.Key{DB: db, Key: key}]
	if !ok {
		return nil, node.ErrNotFound
	}
	return v, nil
}

func (m mapView) Keys() []histcheck.Key {
	var out []histcheck.Key
	for k := range m {
		out = append(out, k)
	}
	return out
}

func holding(db, key, val string) mapView {
	return mapView{{DB: db, Key: key}: []byte(val)}
}

// TestMatrixDetectsAckedWriteLoss is the checker's own regression test: a
// deliberately broken invariant must be caught. It simulates an
// acknowledged-write loss by asserting that the history rejects a recovered
// state older than the durable barrier.
func TestMatrixDetectsAckedWriteLoss(t *testing.T) {
	m := histcheck.New(histcheck.FloorAtBarrier)
	m.Acked("db", "k", []byte("v1"))
	m.DurableBarrier()
	m.Acked("db", "k", []byte("v2"))

	// v1 or v2 are fine; absent or a never-written value are losses.
	if probs := m.Check(holding("db", "k", "v1")); len(probs) != 0 {
		t.Fatalf("v1 should be allowed: %v", probs)
	}
	if probs := m.Check(holding("db", "k", "v2")); len(probs) != 0 {
		t.Fatalf("v2 should be allowed: %v", probs)
	}
	if probs := m.Check(mapView{}); len(probs) == 0 {
		t.Fatal("losing a durably acknowledged key went undetected")
	}
	if probs := m.Check(holding("db", "k", "bogus")); len(probs) == 0 {
		t.Fatal("a never-acknowledged value went undetected")
	}
	if probs := m.Check(holding("db", "x", "v")); len(probs) == 0 {
		t.Fatal("a never-written key went undetected")
	}
}

// TestModelAmbiguityAndTaint pins the history's failure semantics: a failed
// op admits both the old and the attempted state, and a durable barrier
// never advances a tainted key past the failure.
func TestModelAmbiguityAndTaint(t *testing.T) {
	m := histcheck.New(histcheck.FloorAtBarrier)
	m.Acked("db", "k", []byte("v1"))
	m.Ambiguous("db", "k", []byte("v2"), false) // transient failure, process lives
	m.Acked("db", "k", []byte("v3"))
	m.DurableBarrier() // must freeze before v1: the key is tainted

	for _, allowed := range []string{"v1", "v2", "v3"} {
		if probs := m.Check(holding("db", "k", allowed)); len(probs) != 0 {
			t.Fatalf("%q should be allowed for a tainted key: %v", allowed, probs)
		}
	}

	m2 := histcheck.New(histcheck.FloorAtBarrier)
	m2.Acked("db", "k", []byte("v1"))
	m2.Ambiguous("db", "k", []byte("v2"), true) // crash: no further divergence
	if probs := m2.Check(holding("db", "k", "v1")); len(probs) != 0 {
		t.Fatalf("pre-crash state must stay allowed: %v", probs)
	}
	if probs := m2.Check(mapView{}); len(probs) != 0 {
		t.Fatalf("unflushed insert may be lost in a crash: %v", probs)
	}
}

// TestFloorAtAck pins the live harnesses' mode, including the three limbo
// shapes the cluster checker relies on: an ambiguous op after an ack admits
// exactly the acked state and the attempted one.
func TestFloorAtAck(t *testing.T) {
	h := histcheck.New(histcheck.FloorAtAck)
	h.Acked("db", "k", []byte("v1"))
	h.Acked("db", "k", []byte("v2"))
	h.DurableBarrier() // no-op here: the ack already was the floor
	if len(h.Check(holding("db", "k", "v1"))) == 0 {
		t.Fatal("a state older than the last ack went undetected")
	}

	h.Ambiguous("db", "k", []byte("v3"), false)  // update: {v2, v3}
	h.Ambiguous("db", "new", []byte("n"), false) // insert: {absent, n}
	h.Acked("db", "old", []byte("o"))
	h.Ambiguous("db", "old", nil, false) // delete: {o, absent}
	ok := []mapView{
		{{DB: "db", Key: "k"}: []byte("v2"), {DB: "db", Key: "old"}: []byte("o")},
		{{DB: "db", Key: "k"}: []byte("v3"), {DB: "db", Key: "new"}: []byte("n")},
	}
	for i, v := range ok {
		if probs := h.Check(v); len(probs) != 0 {
			t.Fatalf("allowed outcome %d rejected: %v", i, probs)
		}
	}
	if probs := h.Check(mapView{{DB: "db", Key: "old"}: []byte("o")}); len(probs) != 1 || probs[0].Kind != histcheck.Lost {
		t.Fatalf("absent k after an ambiguous update must be a lost acked write: %v", probs)
	}
	if live, uncertain := h.Count(); live != 0 || uncertain != 3 {
		t.Fatalf("Count() = %d live, %d uncertain; want 0, 3", live, uncertain)
	}
}

const plantDB = "alpha"

// member starts one process on loopback ports, wired as dbdedupd wires it:
// serving its client API and its oplog, following primary if there is one.
func member(t *testing.T, nopts node.Options, primary *cluster.Member) *cluster.Member {
	t.Helper()
	cfg := cluster.MemberConfig{Node: nopts, Listen: "127.0.0.1:0", ReplListen: "127.0.0.1:0"}
	if primary != nil {
		cfg.Follow = primary.Oplog.Addr()
	}
	m, err := cluster.StartMember(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func requireNamed(t *testing.T, err error, kind histcheck.Kind, name string) {
	t.Helper()
	var v histcheck.Violation
	if !errors.As(err, &v) {
		t.Fatalf("no typed violation in %v", err)
	}
	if v.Kind != kind {
		t.Errorf("kind = %q, want %q (%v)", v.Kind, kind, err)
	}
	if !strings.Contains(err.Error(), string(kind)) || !strings.Contains(err.Error(), name) {
		t.Errorf("message %q does not name %q and %q", err, kind, name)
	}
}

// TestEqualNamesTheRecord makes two converged nodes differ by one record,
// each way they can.
func TestEqualNamesTheRecord(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(n *node.Node) error
		key   string
		want  histcheck.Kind
	}{
		{"missing", func(n *node.Node) error { return n.Delete(plantDB, "k2") }, "k2", histcheck.Lost},
		{"different", func(n *node.Node) error { return n.Update(plantDB, "k2", []byte("not the same")) }, "k2", histcheck.Diverged},
		{"extra", func(n *node.Node) error { return n.Insert(plantDB, "k9", []byte("only here")) }, "k9", histcheck.Resurrection},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := member(t, node.Options{SyncEncode: true}, nil)
			victim := member(t, node.Options{SyncEncode: true}, p)
			prim, sec := histcheck.NodeView{Node: p.Node}, histcheck.NodeView{Node: victim.Node}
			for _, key := range []string{"k1", "k2", "k3"} {
				if err := prim.Insert(plantDB, key, []byte("content of "+key)); err != nil {
					t.Fatal(err)
				}
			}
			if err := victim.Follower.WaitForSeq(p.Node.Oplog().LastSeq(), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if vs := histcheck.Equal(prim, sec); len(vs) != 0 {
				t.Fatalf("converged pair differs: %v", vs)
			}
			if err := tc.plant(victim.Node); err != nil {
				t.Fatal(err)
			}
			vs := histcheck.Equal(prim, sec)
			if len(vs) != 1 {
				t.Fatalf("want exactly one difference, got %v", vs)
			}
			requireNamed(t, histcheck.Err("replica", vs), tc.want, plantDB+"/"+tc.key)
		})
	}
}

// TestMonotoneReportsRegression feeds the monitor a sample that steps back.
func TestMonotoneReportsRegression(t *testing.T) {
	// scripted serves vals in order, then its last value forever, and
	// signals once the whole script has been read.
	scripted := func(vals ...uint64) (read func() uint64, served chan struct{}) {
		var calls atomic.Int64
		served = make(chan struct{})
		return func() uint64 {
			i := int(calls.Add(1)) - 1
			if i == len(vals)-1 {
				close(served)
			}
			if i >= len(vals) {
				i = len(vals) - 1
			}
			return vals[i]
		}, served
	}

	steady, _ := scripted(1, 2, 2, 3)
	falling, served := scripted(5, 9, 4)
	reads := []func() uint64{steady, falling}
	stop := histcheck.Watch("ring epoch", []string{"m0:1", "m1:1"}, func(i int) uint64 { return reads[i]() })
	<-served
	err := stop()
	var v histcheck.Violation
	if !errors.As(err, &v) || v.Kind != histcheck.Regressed {
		t.Fatalf("regression not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "ring epoch of m1:1") || !strings.Contains(err.Error(), "9 -> 4") {
		t.Fatalf("message %q does not name the counter and the step", err)
	}
	if again := stop(); again != err {
		t.Fatalf("second stop returned %v", again)
	}

	rising, served := scripted(1, 1, 7, 8)
	quiet := histcheck.Watch("appliedSeq", []string{"the secondary"}, func(int) uint64 { return rising() })
	<-served
	if err := quiet(); err != nil {
		t.Fatalf("monotone counter reported: %v", err)
	}
}

// flaky is a map-backed churn target whose writes fail on a script: every
// fifth write errors after applying or not (alternately), every seventh is
// refused outright.
type flaky struct {
	mapView
	t        *testing.T
	writes   int
	churning bool
	tainted  map[histcheck.Key]bool
}

var errMaybe, errRefused = errors.New("maybe applied"), errors.New("refused")

func (f *flaky) write(db, key string, val []byte) error {
	k := histcheck.Key{DB: db, Key: key}
	if f.tainted[k] {
		f.t.Errorf("churn touched %s again after an uncertain outcome", k)
	}
	f.writes++
	apply := func() {
		if val == nil {
			delete(f.mapView, k)
		} else {
			f.mapView[k] = val
		}
	}
	switch {
	case f.writes%7 == 0:
		return errRefused
	case f.writes%5 == 0:
		f.tainted[k] = true
		if f.writes%10 == 0 {
			apply()
		}
		return errMaybe
	}
	apply()
	return nil
}

func (f *flaky) Insert(db, key string, val []byte) error { return f.write(db, key, val) }
func (f *flaky) Update(db, key string, val []byte) error { return f.write(db, key, val) }
func (f *flaky) Delete(db, key string) error             { return f.write(db, key, nil) }
func (f *flaky) Get(db, key string) ([]byte, error) {
	if f.churning && f.tainted[histcheck.Key{DB: db, Key: key}] {
		f.t.Errorf("churn read %s/%s after an uncertain outcome", db, key)
	}
	return f.mapView.Get(db, key)
}

// TestChurnRecordsEveryOutcome runs the shared churn step against a target
// that fails on a script: refused writes record nothing, uncertain ones
// leave exactly two allowed states and quarantine the key, and the history
// it wrote then judges the target clean.
func TestChurnRecordsEveryOutcome(t *testing.T) {
	target := &flaky{mapView: mapView{}, t: t, churning: true, tainted: map[histcheck.Key]bool{}}
	h := histcheck.New(histcheck.FloorAtAck)
	churn := histcheck.NewChurn(h, rand.New(rand.NewSource(7)), []string{"alpha", "beta"},
		histcheck.Mix{Insert: 0.50, Update: 0.72, Delete: 0.85, BaseSize: 512},
		func(err error) histcheck.Outcome {
			switch err {
			case errRefused:
				return histcheck.NotApplied
			case errMaybe:
				return histcheck.Uncertain
			}
			return histcheck.Fatal
		})
	for i := 0; i < 400; i++ {
		if err := churn.Step(target); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	target.churning = false
	if vs := h.Check(target); len(vs) != 0 {
		t.Fatalf("history disagrees with the target it recorded: %v", vs)
	}
	live, uncertain := h.Count()
	if uncertain != len(target.tainted) || uncertain == 0 || live == 0 {
		t.Fatalf("Count() = %d live, %d uncertain; target saw %d uncertain outcomes", live, uncertain, len(target.tainted))
	}

	// An error nothing explains ends the schedule and names the operation.
	target.writes = 6 // the next write is refused, and nobody classifies it
	strict := histcheck.NewChurn(h, rand.New(rand.NewSource(8)), []string{"gamma"},
		histcheck.Mix{Insert: 1, Update: 1, Delete: 1}, func(error) histcheck.Outcome { return histcheck.Fatal })
	if err := strict.Step(target); !errors.Is(err, errRefused) || !strings.Contains(err.Error(), "insert gamma/k000000") {
		t.Fatalf("unexplained error not surfaced: %v", err)
	}
}
