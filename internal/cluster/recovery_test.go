package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

func dialDirect(t *testing.T, mesh *netsim.Mesh, addr string) *apiserver.Client {
	t.Helper()
	c, err := apiserver.DialNetwork(mesh.Host("client"), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// oneRecord is a handoff batch of one record.
func oneRecord(db, key string, payload []byte) []byte {
	return repl.AppendRecord(binary.AppendUvarint(nil, 1), db, key, node.Stamped{Present: true, Content: payload})
}

func testRebalanceOptions(mesh *netsim.Mesh) RebalanceOptions {
	return RebalanceOptions{Network: mesh.Host("coord"), RPCTimeout: 2 * time.Second}
}

// TestRinglessJoinMovesData pins the bootstrap-join flow: a ring-less member
// (the documented -cluster-self-without-peers deployment) holding acked data
// is rebalanced into a cluster, and every database the new ring places on
// another member is streamed there before the source's copy is dropped.
// Before the ownerOrSelf fix, BeginHandoff skipped every database (the empty
// ring owned nothing) and CommitRing then deleted the un-transferred data.
func TestRinglessJoinMovesData(t *testing.T) {
	mesh := netsim.NewMesh(11, "a", "b")
	ma := startMember(t, mesh, "a", "a:1", nil)
	mb := startMember(t, mesh, "b", "b:1", nil)

	target := NewRing(1, []string{"a:1", "b:1"})
	dbStay := dbOwnedBy(t, target, "a:1")
	dbMove := dbOwnedBy(t, target, "b:1")

	da := dialDirect(t, mesh, "a:1")
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := da.Insert(dbStay, key, []byte("stay-"+key)); err != nil {
			t.Fatal(err)
		}
		if err := da.Insert(dbMove, key, []byte("move-"+key)); err != nil {
			t.Fatal(err)
		}
	}

	ring, err := Rebalance([]string{"a:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatalf("join rebalance: %v", err)
	}
	if !sameMembers(ring.Members, []string{"a:1", "b:1"}) {
		t.Fatalf("committed ring members = %v", ring.Members)
	}

	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		got, err := mb.Node.Read(dbMove, key)
		if err != nil || !bytes.Equal(got, []byte("move-"+key)) {
			t.Errorf("moved record %s/%s not on the new owner: %q, %v", dbMove, key, got, err)
		}
		if _, err := ma.Node.Read(dbMove, key); !errors.Is(err, node.ErrNotFound) {
			t.Errorf("moved record %s/%s still on the source: err=%v", dbMove, key, err)
		}
		if _, err := ma.Node.Read(dbStay, key); err != nil {
			t.Errorf("staying record %s/%s lost from the source: %v", dbStay, key, err)
		}
	}

	// The whole corpus stays reachable through the routing tier.
	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for _, db := range []string{dbStay, dbMove} {
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, err := cc.Get(db, key); err != nil {
				t.Errorf("routed read %s/%s after join: %v", db, key, err)
			}
		}
	}
}

// TestRinglessWindowFreezesAndAbortKeepsData pins the other half of the
// bootstrap-join safety story: once a window opens on a ring-less member,
// writes to its moving databases freeze (they would otherwise miss the
// outbound snapshot), reads keep serving the frozen local copy, and an abort
// keeps everything the member held before the window.
func TestRinglessWindowFreezesAndAbortKeepsData(t *testing.T) {
	mesh := netsim.NewMesh(12, "a")
	ma := startMember(t, mesh, "a", "a:1", nil)

	pend := NewRing(1, []string{"a:1", "ghost:1"})
	db := dbOwnedBy(t, pend, "ghost:1")
	da := dialDirect(t, mesh, "a:1")
	if err := da.Insert(db, "k", []byte("pre-window")); err != nil {
		t.Fatal(err)
	}
	if err := ma.Shard.InstallRing(pend.Marshal()); err != nil {
		t.Fatal(err)
	}

	err := da.Update(db, "k", []byte("into the window"))
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("ring-less write into an open window: want shard-moving, got %v", err)
	}
	if got, err := da.Get(db, "k"); err != nil || !bytes.Equal(got, []byte("pre-window")) {
		t.Fatalf("ring-less read during the window: %q, %v", got, err)
	}

	if err := ma.Shard.AbortRing(); err != nil {
		t.Fatal(err)
	}
	if got, err := ma.Node.Read(db, "k"); err != nil || !bytes.Equal(got, []byte("pre-window")) {
		t.Fatalf("pre-window data lost across abort: %q, %v", got, err)
	}
	if err := da.Update(db, "k", []byte("after abort")); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
}

// TestRinglessDestinationFreezesGainedCopy pins that a ring-less member
// receiving a handoff does not serve the half-transferred inbound copy (the
// source is still authoritative), and that an abort drops exactly that copy
// while leaving pre-window databases alone.
func TestRinglessDestinationFreezesGainedCopy(t *testing.T) {
	mesh := netsim.NewMesh(13, "b")
	mb := startMember(t, mesh, "b", "b:1", nil)

	pend := NewRing(1, []string{"b:1", "ghost:1"})
	gained := dbOwnedBy(t, pend, "b:1")
	held := dbOwnedBy(t, pend, "ghost:1")
	db := dialDirect(t, mesh, "b:1")
	if err := db.Insert(held, "k", []byte("held before the window")); err != nil {
		t.Fatal(err)
	}
	if err := mb.Shard.InstallRing(pend.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := mb.Shard.Transfer(oneRecord(gained, "k", []byte("half-transferred"))); err != nil {
		t.Fatal(err)
	}

	_, err := db.Get(gained, "k")
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("read of a half-transferred inbound copy: want shard-moving, got %v", err)
	}

	if err := mb.Shard.AbortRing(); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Node.Read(gained, "k"); !errors.Is(err, node.ErrNotFound) {
		t.Errorf("half-transferred copy survived the abort: err=%v", err)
	}
	if _, err := mb.Node.Read(held, "k"); err != nil {
		t.Errorf("pre-window database dropped by the abort: %v", err)
	}
}

// TestInstallRingRefusesStaleVsPending pins epoch monotonicity against the
// open window, not just the active ring: a lagging coordinator's proposal
// with an epoch at or below the pending window's must not replace the newer
// window (and silently discard its half-transferred copies).
func TestInstallRingRefusesStaleVsPending(t *testing.T) {
	mesh := netsim.NewMesh(14, "a")
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}))

	newer := NewRing(3, []string{"a:1", "x:1"})
	if err := ma.Shard.InstallRing(newer.Marshal()); err != nil {
		t.Fatal(err)
	}
	err := ma.Shard.InstallRing(NewRing(2, []string{"a:1", "y:1"}).Marshal())
	if err == nil || !strings.Contains(err.Error(), "pending window 3") {
		t.Fatalf("stale install under an open window: want a pending-epoch refusal, got %v", err)
	}
	if p := ma.Shard.Pending(); p == nil || !p.Equal(newer) {
		t.Fatalf("pending window clobbered by the stale install: %v", p)
	}
	// Idempotent re-install of the open window still converges silently.
	if err := ma.Shard.InstallRing(newer.Marshal()); err != nil {
		t.Fatalf("idempotent re-install: %v", err)
	}
}

// TestRecoverAbortsSupersededWindow pins that recovery actively aborts a
// stale pending window (epoch below the committed tip) instead of waiting
// for a future install to abandon it: when the subsequent rebalance is a
// no-op (membership already matches), no install ever comes, and before the
// fix the window's databases stayed write-frozen forever.
func TestRecoverAbortsSupersededWindow(t *testing.T) {
	mesh := netsim.NewMesh(15, "a", "b", "c")
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}))
	startMember(t, mesh, "b", "b:1", NewRing(4, []string{"a:1", "b:1"}))
	mc := startMember(t, mesh, "c", "c:1", nil)

	// A dead coordinator left a join window at epoch 2 open on a and c; the
	// cluster has since committed epoch 4 without them hearing an install.
	stale := NewRing(2, []string{"a:1", "c:1"})
	if err := ma.Shard.InstallRing(stale.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := mc.Shard.InstallRing(stale.Marshal()); err != nil {
		t.Fatal(err)
	}
	db := dbOwnedBy(t, stale, "c:1")
	da := dialDirect(t, mesh, "a:1")
	err := da.Insert(db, "k", []byte("frozen"))
	var mv *apiserver.ShardMovingError
	if !errors.As(err, &mv) {
		t.Fatalf("write under the stale window: want shard-moving, got %v", err)
	}

	// Target membership already matches the tip: this rebalance would
	// otherwise return without installing anything anywhere.
	ring, err := Rebalance([]string{"a:1", "b:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatalf("no-op rebalance over a stale window: %v", err)
	}
	if ring.Epoch != 4 {
		t.Errorf("recovered ring epoch = %d, want the committed tip 4", ring.Epoch)
	}
	if p := ma.Shard.Pending(); p != nil {
		t.Errorf("stale window still open on a: %v", p)
	}
	if p := mc.Shard.Pending(); p != nil {
		t.Errorf("stale window still open on c: %v", p)
	}
	if err := da.Insert(db, "k", []byte("thawed")); err != nil {
		t.Errorf("write after recovery still refused: %v", err)
	}
}

// TestRecoverFinishesCommittedWindowOnStraggler pins the commit half of
// recovery at the epoch boundary: when a window's epoch equals the committed
// tip's (someone committed it, a straggler crashed before its own commit),
// recovery must finish the commit on the straggler — before the fix that
// state was misread as "superseded" and the straggler stayed frozen forever.
func TestRecoverFinishesCommittedWindowOnStraggler(t *testing.T) {
	mesh := netsim.NewMesh(16, "a", "b")
	committed := NewRing(2, []string{"a:1", "b:1"})
	ma := startMember(t, mesh, "a", "a:1", NewRing(1, []string{"a:1"}))
	mb := startMember(t, mesh, "b", "b:1", committed)

	db := dbOwnedBy(t, committed, "b:1")
	da := dialDirect(t, mesh, "a:1")
	if err := da.Insert(db, "k", []byte("handed off")); err != nil {
		t.Fatal(err)
	}
	// The crashed rebalance got through handoff (b holds the copy) and b's
	// commit, but died before committing a.
	if err := mb.Node.Upsert(db, "k", []byte("handed off"), true); err != nil {
		t.Fatal(err)
	}
	if err := ma.Shard.InstallRing(committed.Marshal()); err != nil {
		t.Fatal(err)
	}

	ring, err := Rebalance([]string{"a:1", "b:1"}, []string{"a:1", "b:1"}, testRebalanceOptions(mesh))
	if err != nil {
		t.Fatalf("recovery rebalance: %v", err)
	}
	if ring.Epoch != 2 {
		t.Errorf("recovered ring epoch = %d, want the committed window's 2", ring.Epoch)
	}
	if p := ma.Shard.Pending(); p != nil {
		t.Errorf("straggler's window never committed: %v", p)
	}
	if got := ma.Shard.Ring().Epoch; got != 2 {
		t.Errorf("straggler active epoch = %d, want 2", got)
	}
	if _, err := ma.Node.Read(db, "k"); !errors.Is(err, node.ErrNotFound) {
		t.Errorf("moved database still on the straggler after commit: err=%v", err)
	}
	cc, err := DialCluster([]string{"a:1"}, testClientOptions(mesh))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if got, err := cc.Get(db, "k"); err != nil || !bytes.Equal(got, []byte("handed off")) {
		t.Errorf("routed read after straggler commit: %q, %v", got, err)
	}
}

// failingDisk is an in-memory disk whose segment writes fail for as long as
// down is set. The store writes a block behind the acknowledgements of the
// appends that filled it and retries a failed block whenever it is next
// called, so how many writes a stretch of operations issues depends on timing;
// a disk that is simply down for that stretch does not.
type failingDisk struct {
	faultfs.FS
	down   atomic.Bool
	failed atomic.Int64 // writes refused
}

func (d *failingDisk) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failingFile{f, d}, nil
}

type failingFile struct {
	faultfs.File
	d *failingDisk
}

func (f failingFile) WriteAt(p []byte, off int64) (int, error) {
	if f.d.down.Load() {
		f.d.failed.Add(1)
		return 0, faultfs.ErrInjected
	}
	return f.File.WriteAt(p, off)
}

// recovered brings the disk back and has the store notice: a Flush takes the
// last failed attempt's error with it (the store hands each one to whichever
// call comes next) and writes what the outage held up.
func (d *failingDisk) recovered(t *testing.T, n *node.Node) {
	t.Helper()
	d.down.Store(false)
	n.Store().Flush() // may return the outage's last error; the retry it stands for succeeded
	if err := n.Store().Flush(); err != nil {
		t.Fatalf("flush on the recovered disk: %v", err)
	}
}

// halfJoined opens a join window on a ring-less destination and streams keys
// records of one gained database into it. It returns the member's disk,
// healthy so far, with everything written. keys is large enough that the
// tombstones of a drop (six or seven bytes each) overflow two 128-byte blocks
// several times over: with the disk down the first block stays in flight, the
// second fills behind it, and the delete after that gets the error if none
// before it did, so a drop on a failing disk always fails partway and leaves
// survivors, however many times it is retried.
func halfJoined(t *testing.T) (disk *failingDisk, n *node.Node, sh *Shard, gained string) {
	t.Helper()
	pend := NewRing(1, []string{"b:1", "ghost:1"})
	gained = dbOwnedBy(t, pend, "b:1")
	disk = &failingDisk{FS: faultfs.NewMemFS()}
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true, Dir: "b", FS: disk, BlockSize: 128}
	m, err := StartMember(MemberConfig{Node: nopts, Network: netsim.NewMesh(1, "b").Host("b"),
		Listen: "b:1", Self: "b:1", Ring: NewRing(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	n, sh = m.Node, m.Shard
	if err := sh.InstallRing(pend.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < halfJoinedKeys; i++ {
		if err := sh.Transfer(oneRecord(gained, halfJoinedKey(i), halfJoinedPayload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	return disk, n, sh, gained
}

const halfJoinedKeys = 96

var halfJoinedPayload = bytes.Repeat([]byte("half-transferred "), 8)

func halfJoinedKey(i int) string { return fmt.Sprintf("k%02d", i) }

// reopenWindow installs the same membership again under the next epoch.
func reopenWindow(t *testing.T, sh *Shard) {
	t.Helper()
	if err := sh.InstallRing(NewRing(sh.Ring().Epoch+1, []string{"b:1", "ghost:1"}).Marshal()); err != nil {
		t.Fatal(err)
	}
}

// TestFailedDropFinishedBeforeRetransfer pins the sticky drop: when an
// aborted window's DropDB hits a disk error partway, the half-transferred
// copies that survive must be gone before the next window's first record for
// that database lands, or they pass for pre-window data, the transfer upserts
// over them, and records the source deleted between the two attempts are
// resurrected at commit (the fault driver's composed class found this with write
// faults on the joiner). Finishing the drop must not cost an acked write.
func TestFailedDropFinishedBeforeRetransfer(t *testing.T) {
	disk, n, sh, gained := halfJoined(t)
	disk.down.Store(true)
	if err := sh.AbortRing(); err != nil {
		t.Fatal(err)
	}
	if disk.failed.Load() == 0 {
		t.Fatal("the drop met no fault: it must seal a block of tombstones")
	}
	if len(n.DBKeys(gained)) == 0 {
		t.Fatal("the drop finished on a failing disk: the scenario needs survivors")
	}
	disk.recovered(t, n)
	// Ring-less between the attempts, the member serves the database: the
	// write finishes the drop first, so nothing later has cause to wipe it.
	if err := sh.Insert(gained, "client", halfJoinedPayload); err != nil {
		t.Fatalf("insert between the attempts: %v", err)
	}
	// Meanwhile the source deleted the second half, so the second attempt
	// streams only the first.
	reopenWindow(t, sh)
	for i := 0; i < halfJoinedKeys/2; i++ {
		if err := sh.Transfer(oneRecord(gained, halfJoinedKey(i), halfJoinedPayload)); err != nil {
			t.Fatalf("second attempt: %v", err)
		}
	}
	if err := sh.CommitRing(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < halfJoinedKeys; i++ {
		_, err := n.Read(gained, halfJoinedKey(i))
		if i < halfJoinedKeys/2 && err != nil {
			t.Errorf("%s: transferred record missing after commit: %v", halfJoinedKey(i), err)
		}
		if i >= halfJoinedKeys/2 && !errors.Is(err, node.ErrNotFound) {
			t.Errorf("%s: deleted at the source before the second attempt, readable after commit (err=%v)", halfJoinedKey(i), err)
		}
	}
	if _, err := sh.Read(gained, "client"); err != nil {
		t.Errorf("write acked between the attempts, after commit: %v", err)
	}
}

// TestDirtyDatabaseNotServedUntilDropped pins the other half of the sticky
// drop: finishing it later must never delete an acked write. While a failed
// drop's survivors are still on disk the database answers shard-moving, on a
// ring-less member between two join attempts and on the owner after a commit
// whose own attempt failed too; the first operation after the disk recovers
// finishes the drop and is served, and what it wrote outlives every later
// window.
func TestDirtyDatabaseNotServedUntilDropped(t *testing.T) {
	disk, n, sh, gained := halfJoined(t)
	disk.down.Store(true)

	if err := sh.AbortRing(); err != nil { // attempt 1: the abort's drop
		t.Fatal(err)
	}
	// Ring-less again, so the member serves everything it holds, but not
	// this: an ack here would be wiped by the next attempt's first transfer.
	// The refused insert retries the drop (attempt 2).
	var mv *apiserver.ShardMovingError
	if err := sh.Insert(gained, "client", halfJoinedPayload); !errors.As(err, &mv) {
		t.Fatalf("insert between join attempts, on a database owed a drop: %v, want shard-moving", err)
	}

	// Second window streams nothing for the database and commits; the
	// install and the commit each retry the drop and fail (attempts 3 and 4).
	reopenWindow(t, sh)
	if err := sh.CommitRing(); err != nil {
		t.Fatal(err)
	}
	// Each attempt ended on an error the store handed it, and the store
	// hands over one per failed write of the block: four attempts, at least
	// four writes refused.
	if got := disk.failed.Load(); got < 4 {
		t.Fatalf("%d writes refused, want at least one per drop attempt (4)", got)
	}
	if len(n.DBKeys(gained)) == 0 {
		t.Fatal("no stale copies left: the scenario needs survivors on the owner")
	}

	disk.recovered(t, n)
	// Disk recovered: the next operation finishes the drop, then is served.
	if err := sh.Insert(gained, "client", halfJoinedPayload); err != nil {
		t.Fatalf("insert after the disk recovered: %v", err)
	}
	for i := 0; i < halfJoinedKeys; i++ {
		if _, err := sh.Read(gained, halfJoinedKey(i)); !errors.Is(err, node.ErrNotFound) {
			t.Errorf("%s: half-transferred copy readable on the owner (err=%v)", halfJoinedKey(i), err)
		}
	}
	// A later window over the same membership must leave the write alone.
	reopenWindow(t, sh)
	if err := sh.CommitRing(); err != nil {
		t.Fatal(err)
	}
	if got, err := sh.Read(gained, "client"); err != nil || !bytes.Equal(got, halfJoinedPayload) {
		t.Errorf("acked write after the next commit: %d bytes, %v", len(got), err)
	}
}
