package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dbdedup/internal/faultfs"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
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
