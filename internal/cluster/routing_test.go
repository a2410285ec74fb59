package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

// testNodeOptions is the deterministic node every test member runs.
func testNodeOptions() node.Options {
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true}
	nopts.Engine.GovernorWindow = 1 << 30
	return nopts
}

// startMember starts one in-memory cluster member on the mesh, named after
// its address; a nil ring is a ring-less member.
func startMember(t *testing.T, mesh *netsim.Mesh, host, addr string, ring *Ring) *Member {
	t.Helper()
	m, err := StartMember(MemberConfig{Node: testNodeOptions(), Network: mesh.Host(host),
		Listen: addr, Self: addr, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func testClientOptions(mesh *netsim.Mesh) ClientOptions {
	return ClientOptions{
		Network:      mesh.Host("client"),
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		Timeout:      2 * time.Second,
	}
}

// dbOwnedBy finds a database name the ring places on the wanted member.
func dbOwnedBy(t testing.TB, r *Ring, want string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		db := fmt.Sprintf("routedb%d", i)
		if r.Owner(db) == want {
			return db
		}
	}
	t.Fatalf("no database hashes to %s", want)
	return ""
}

// TestStaleRingRedirectedNotDropped pins the headline routing-taxonomy rule:
// a client operating on a stale ring gets its request *redirected* to the new
// owner and acked — never dropped, never silently applied on the old owner.
func TestStaleRingRedirectedNotDropped(t *testing.T) {
	mesh := netsim.NewMesh(1, "a", "b")
	r1 := NewRing(1, []string{"a:1"})
	ma := startMember(t, mesh, "a", "a:1", r1)
	mb := startMember(t, mesh, "b", "b:1", NewRing(1, []string{"a:1"}))

	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// A database that lands on b once b joins.
	r2 := NewRing(2, []string{"a:1", "b:1"})
	db := dbOwnedBy(t, r2, "b:1")
	if err := cc.Insert(db, "old", []byte("written before the join")); err != nil {
		t.Fatal(err)
	}

	if _, err := Rebalance([]string{"a:1"}, []string{"a:1", "b:1"}, RebalanceOptions{
		Network: mesh.Host("coord"), RPCTimeout: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	// The client's cached ring is now stale: this op goes to a, which must
	// answer with a wrong-shard redirect the client follows to b.
	if err := cc.Insert(db, "new", []byte("written through a stale ring")); err != nil {
		t.Fatalf("insert through stale ring: %v", err)
	}
	if got := cc.Counters().Redirects; got == 0 {
		t.Error("client followed no redirect; the stale request was served somewhere it should not have been")
	}
	if got := ma.Shard.Metrics().RedirectsIssued.Total(); got == 0 {
		t.Error("old owner issued no redirect")
	}
	for _, key := range []string{"old", "new"} {
		if _, err := mb.Node.Read(db, key); err != nil {
			t.Errorf("record %q not on the new owner: %v", key, err)
		}
		if _, err := ma.Node.Read(db, key); !errors.Is(err, node.ErrNotFound) {
			t.Errorf("record %q still (or wrongly) on the old owner: err=%v", key, err)
		}
	}
}

// TestRedirectLoopBounded wires two members with mutually disagreeing rings —
// each names the other as owner — so redirects ping-pong forever. The client
// must burn its counted retry budget and surface the typed redirect error,
// not spin.
func TestRedirectLoopBounded(t *testing.T) {
	mesh := netsim.NewMesh(2, "a", "b")
	startMember(t, mesh, "a", "a:1", NewRing(1, []string{"b:1"}))
	startMember(t, mesh, "b", "b:1", NewRing(1, []string{"a:1"}))

	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	err = cc.Insert("pingpong", "k", []byte("never lands"))
	var ws *apiserver.WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("want a wrong-shard error after exhausting redirects, got %v", err)
	}
	c := cc.Counters()
	if c.Retries != maxRetries {
		t.Errorf("retries = %d, want exactly the budget %d", c.Retries, maxRetries)
	}
	if c.Exhausted != 1 {
		t.Errorf("exhausted = %d, want 1", c.Exhausted)
	}
	if c.Redirects != maxRetries+1 {
		t.Errorf("redirects = %d, want %d (every attempt redirected)", c.Redirects, maxRetries+1)
	}
}

// TestMovingShardRetryThenTyped opens a rebalance window by hand and checks
// the moving-shard half of the taxonomy: writes to a moving database are
// refused with the typed retry-later error under a counted backoff budget,
// while reads keep being served by the still-authoritative source.
func TestMovingShardRetryThenTyped(t *testing.T) {
	mesh := netsim.NewMesh(3, "a")
	r1 := NewRing(1, []string{"a:1"})
	ma := startMember(t, mesh, "a", "a:1", r1)

	// Find a database that a ghost member would take over, then freeze it by
	// installing the window (no handoff runs — the ghost never answers).
	r2 := NewRing(2, []string{"a:1", "ghost:1"})
	db := dbOwnedBy(t, r2, "ghost:1")

	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Insert(db, "k", []byte("pre-freeze")); err != nil {
		t.Fatal(err)
	}
	if err := ma.Shard.InstallRing(r2.Marshal()); err != nil {
		t.Fatal(err)
	}

	err = cc.Update(db, "k", []byte("write into the window"))
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("want a shard-moving error for a frozen write, got %v", err)
	}
	if mv.Epoch != 2 {
		t.Errorf("moving error names epoch %d, want the window's epoch 2", mv.Epoch)
	}
	if c := cc.Counters(); c.MovingWaits != maxRetries+1 { // initial attempt + the retries
		t.Errorf("moving-waits = %d, want %d counted attempts", c.MovingWaits, maxRetries+1)
	}
	// Reads stay up: the source's copy is complete and write-frozen.
	got, err := cc.Get(db, "k")
	if err != nil || !bytes.Equal(got, []byte("pre-freeze")) {
		t.Errorf("read during the window: got %q, %v", got, err)
	}
	if ma.Shard.Metrics().MovingAnswered.Total() == 0 {
		t.Error("member never counted a moving-shard answer")
	}
}
