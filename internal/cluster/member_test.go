package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// TestStartMemberFailureClosesWhatItOpened: a member that cannot finish
// starting (a busy client address, a busy replication address, a primary that
// refuses the dial) returns the error naming the step, and leaves nothing
// behind: no goroutine, no listener on the addresses it did bind, and a
// directory the next start opens. dbdedupd used to leave through log.Fatalf
// past its deferred Close at each of these.
func TestStartMemberFailureClosesWhatItOpened(t *testing.T) {
	sim := netsim.NewNamedSim(1, "a")
	busy, err := sim.Listen("a:9")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	cfg := func(mut func(*MemberConfig)) MemberConfig {
		c := MemberConfig{Node: node.Options{Dir: "a", FS: faultfs.NewMemFS()}, Network: sim,
			Listen: "a:1", Self: "a:1", Ring: NewRing(1, []string{"a:1"}), ReplListen: "a:2"}
		mut(&c)
		return c
	}
	disk := faultfs.NewMemFS()
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		step string
		mut  func(*MemberConfig)
	}{
		{"client listener", func(c *MemberConfig) { c.Listen = "a:9" }},
		{"replication listener", func(c *MemberConfig) { c.ReplListen = "a:9" }},
		{"following a:7", func(c *MemberConfig) { c.Follow = "a:7" }},
	} {
		c := cfg(tc.mut)
		c.Node.FS = disk
		if _, err := StartMember(c); err == nil || !strings.Contains(err.Error(), tc.step) {
			t.Fatalf("%s: StartMember returned %v", tc.step, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed starts, %d after", before, runtime.NumGoroutine())
		}
	}

	// The same disk and the same addresses start cleanly now.
	c := cfg(func(*MemberConfig) {})
	c.Node.FS = disk
	m, err := StartMember(c)
	if err != nil {
		t.Fatalf("start after the failed starts: %v", err)
	}
	if err := m.Node.Insert("db", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillLosesWhatWasNotFlushed: Kill is process death, not Close. What the
// member had not written stays unwritten, and a member started on the
// injector's inner filesystem is the restarted process.
func TestKillLosesWhatWasNotFlushed(t *testing.T) {
	disk := faultfs.NewMemFS()
	cfg := MemberConfig{Node: testNodeOptions(), Network: netsim.NewNamedSim(1, "a"), Listen: "a:1"}
	cfg.Node.Dir, cfg.Node.SyncWrites = "a", true
	cfg.Node.FS = faultfs.NewInjector(disk, 1)
	m, err := StartMember(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Node.Insert("db", "flushed", []byte("on disk")); err != nil {
		t.Fatal(err)
	}
	if err := m.Node.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Node.Insert("db", "buffered", []byte("in the pending block")); err != nil {
		t.Fatal(err)
	}
	m.Kill()

	cfg.Node.FS = disk
	m, err = StartMember(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, err := m.Node.Read("db", "flushed"); err != nil || string(got) != "on disk" {
		t.Fatalf("flushed record after the kill: %q, %v", got, err)
	}
	if _, err := m.Node.Read("db", "buffered"); err == nil {
		t.Fatal("a record that was only buffered survived the kill: Kill flushed")
	}
}

// TestStandaloneMemberIsARingOfOne: a member started with no ring
// configuration at all is a whole deployment to the routing client, which
// takes the empty ring the member answers with for the ring of that member;
// and a rebalance puts it in a ring with a second such member while both keep
// running, every acked write readable through the router and held by the
// member its database now belongs to. (The client used to fail every
// operation on such a member with "cluster: no ring" and list no members.)
func TestStandaloneMemberIsARingOfOne(t *testing.T) {
	mesh := netsim.NewMesh(7, "a", "b")
	start := func(host, addr string) *Member {
		m, err := StartMember(MemberConfig{Node: testNodeOptions(), Network: mesh.Host(host), Listen: addr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	ma := start("a", "a:1")

	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if got := cc.Members(); len(got) != 1 || got[0] != "a:1" {
		t.Fatalf("Members() of a standalone member = %v", got)
	}
	conn, err := cc.Member("a:1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := conn.RingJSON()
	if err != nil {
		t.Fatal(err)
	}
	if st, err := ParseRingStatus(body); err != nil || st.Self != "a:1" || st.Ring.Epoch != 0 || len(st.Ring.Members) != 0 {
		t.Fatalf("ring status of a standalone member = %s (%v)", body, err)
	}

	// The four data operations round-trip.
	if err := cc.Insert("db", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := cc.Update("db", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := cc.Get("db", "k"); err != nil || string(got) != "v2" {
		t.Fatalf("Get after update = %q, %v", got, err)
	}
	if err := cc.Delete("db", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get("db", "k"); !errors.Is(err, apiserver.ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}

	hist := histcheck.New(histcheck.FloorAtAck)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		db, key, val := fmt.Sprintf("db%d", i%8), fmt.Sprintf("k%d", i), workload.RevisionText(rng, 600)
		if err := cc.Insert(db, key, val); err != nil {
			t.Fatal(err)
		}
		hist.Acked(db, key, val)
	}

	// Join a second standalone member; neither restarts.
	mb := start("b", "b:1")
	ring, err := Rebalance([]string{"a:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	if ring.Epoch != 1 || len(ring.Members) != 2 {
		t.Fatalf("committed ring = %+v", ring)
	}
	if err := histcheck.Err("router", hist.Check(cc)); err != nil {
		t.Fatal(err)
	}
	if c := cc.Counters(); c.Redirects == 0 {
		t.Fatalf("the client never learned the new ring: %+v", c)
	}
	// Each member holds exactly the databases the ring gives it.
	for _, m := range []*Member{ma, mb} {
		for _, db := range m.Node.DBNames() {
			if owner := ring.Owner(db); owner != m.Addr() {
				t.Errorf("%s still holds %s, which belongs to %s", m.Addr(), db, owner)
			}
		}
	}
	if len(mb.Node.DBNames()) == 0 {
		t.Fatal("the rebalance moved no database to the joiner")
	}
	if err := histcheck.Err("owners", hist.Check(ownerView{ring, map[string]*Member{"a:1": ma, "b:1": mb}})); err != nil {
		t.Fatal(err)
	}
}

// ownerView reads each key from the node of the member its database belongs
// to, below the router.
type ownerView struct {
	ring    *Ring
	members map[string]*Member
}

func (v ownerView) Get(db, key string) ([]byte, error) {
	return v.members[v.ring.Owner(db)].Node.Read(db, key)
}
