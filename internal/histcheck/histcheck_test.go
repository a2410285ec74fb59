package histcheck_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/cluster"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
	"dbdedup/internal/stormtest"
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

// deployment is one harness's shape: a way to write acknowledged data, the
// node a fault is then planted on behind everyone's back, and the view the
// harness hands the checker.
type deployment struct {
	write  histcheck.Target
	victim *node.Node
	view   histcheck.View
}

const plantDB = "alpha"

// simtestShape: churn hits a primary, the checker reads its secondary node.
func simtestShape(t *testing.T) deployment {
	prim, sec := openNode(t), openNode(t)
	_, s := follow(t, prim, sec)
	return deployment{write: synced{histcheck.NodeView{Node: prim}, s}, victim: sec, view: histcheck.NodeView{Node: sec}}
}

// synced waits for the secondary after every primary write, so the planted
// fault lands on a converged copy.
type synced struct {
	histcheck.NodeView
	sec *repl.Secondary
}

func (s synced) wait(err error) error {
	if err != nil {
		return err
	}
	return s.sec.WaitForSeq(s.LastAssignedSeq(), 10*time.Second)
}
func (s synced) Insert(db, key string, val []byte) error {
	return s.wait(s.NodeView.Insert(db, key, val))
}
func (s synced) Update(db, key string, val []byte) error {
	return s.wait(s.NodeView.Update(db, key, val))
}
func (s synced) Delete(db, key string) error { return s.wait(s.NodeView.Delete(db, key)) }

// stormtestShape: workers and the verifier both speak to one apiserver.
func stormtestShape(t *testing.T) deployment {
	local, err := stormtest.StartLocal(node.Options{SyncEncode: true}, apiserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	c, err := apiserver.Dial(local.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return deployment{write: c, victim: local.Node, view: c}
}

// clustertestShape: churn and the checker go through the ring router.
func clustertestShape(t *testing.T) deployment {
	lc, err := stormtest.StartLocalCluster(2, node.Options{SyncEncode: true}, apiserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	cc, err := cluster.DialCluster(lc.Addrs, cluster.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	owner := lc.Members[0]
	if cc.Ring().Owner(plantDB) == lc.Addrs[1] {
		owner = lc.Members[1]
	}
	return deployment{write: cc, victim: owner.Node, view: cc}
}

// follow serves prim's oplog on a loopback listener and connects sec to it
// from sequence zero.
func follow(t *testing.T, prim, sec *node.Node) (*repl.Primary, *repl.Secondary) {
	t.Helper()
	p, err := repl.ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := repl.Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return p, s
}

func openNode(t *testing.T) *node.Node { return openNodeWith(t, node.Options{SyncEncode: true}) }

func openNodeWith(t *testing.T, opts node.Options) *node.Node {
	t.Helper()
	n, err := node.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestPlantedViolations plants each violation on real nodes, in the shape
// each harness checks them, and requires the typed kind and the offending
// db/key in the message. Without it, a harness whose final check stopped
// checking would keep passing.
func TestPlantedViolations(t *testing.T) {
	shapes := []struct {
		name string
		open func(*testing.T) deployment
	}{
		{"simtest", simtestShape},
		{"stormtest", stormtestShape},
		{"clustertest", clustertestShape},
	}
	plants := []struct {
		name  string
		plant func(n *node.Node) error
		key   string
		want  histcheck.Kind
		// lister: only a view that can enumerate sees this violation.
		lister bool
	}{
		{"acked key deleted", func(n *node.Node) error { return n.Delete(plantDB, "kept") }, "kept", histcheck.Lost, false},
		{"acked key overwritten", func(n *node.Node) error { return n.Update(plantDB, "kept", []byte("other bytes")) }, "kept", histcheck.Diverged, false},
		{"deleted key re-inserted", func(n *node.Node) error { return n.Insert(plantDB, "gone", []byte("back again")) }, "gone", histcheck.Resurrection, false},
		{"never-written key inserted", func(n *node.Node) error { return n.Insert(plantDB, "stranger", []byte("who wrote this")) }, "stranger", histcheck.Resurrection, true},
	}
	for _, sh := range shapes {
		for _, pl := range plants {
			sh, pl := sh, pl
			t.Run(sh.name+"/"+pl.name, func(t *testing.T) {
				d := sh.open(t)
				h := histcheck.New(histcheck.FloorAtAck)
				write := func(err error, key string, val []byte) {
					if err != nil {
						t.Fatal(err)
					}
					h.Acked(plantDB, key, val)
				}
				write(d.write.Insert(plantDB, "kept", []byte("version one")), "kept", []byte("version one"))
				write(d.write.Update(plantDB, "kept", []byte("version two")), "kept", []byte("version two"))
				write(d.write.Insert(plantDB, "gone", []byte("short lived")), "gone", []byte("short lived"))
				write(d.write.Delete(plantDB, "gone"), "gone", nil)
				if vs := h.Check(d.view); len(vs) != 0 {
					t.Fatalf("clean deployment has violations: %v", vs)
				}
				if err := pl.plant(d.victim); err != nil {
					t.Fatal(err)
				}
				vs := h.Check(d.view)
				if _, canList := d.view.(histcheck.Lister); pl.lister && !canList {
					if len(vs) != 0 {
						t.Fatalf("a view that cannot enumerate reported %v", vs)
					}
					return
				}
				if len(vs) != 1 {
					t.Fatalf("want exactly one violation, got %v", vs)
				}
				requireNamed(t, histcheck.Err(sh.name, vs), pl.want, plantDB+"/"+pl.key)
			})
		}
	}
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
			d := simtestShape(t)
			for _, key := range []string{"k1", "k2", "k3"} {
				if err := d.write.Insert(plantDB, key, []byte("content of "+key)); err != nil {
					t.Fatal(err)
				}
			}
			prim, sec := d.write.(synced).NodeView, histcheck.NodeView{Node: d.victim}
			if vs := histcheck.Equal(prim, sec); len(vs) != 0 {
				t.Fatalf("converged pair differs: %v", vs)
			}
			if err := tc.plant(d.victim); err != nil {
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
