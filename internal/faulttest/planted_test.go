package faulttest

import (
	"strings"
	"testing"

	"dbdedup/internal/cluster"
	"dbdedup/internal/docstore"
	"dbdedup/internal/histcheck"
	"dbdedup/internal/node"
)

// The base ring places plantDB on m1 and followedDB on m0, the member with
// the follower: on a cluster a plant on plantDB's owner is out of Equal's
// sight, and one on the follower is out of hist.Check's.
const plantDB, followedDB = "gamma", "alpha"

// TestPlantedViolations builds a real bed of each topology, writes
// acknowledged data through it as the traffic loop would, settles it, and
// requires the driver's own judge to pass it. Then it breaks one invariant
// behind the driver's back, on the copy judge is supposed to look at, and
// requires judge to say so, with the typed kind and the offending db/key
// where the checker is histcheck's. Each plant is seen by one of judge's
// checks and no other on at least one bed, so a judge that stopped calling
// hist.Check, histcheck.Equal, VerifyAll, or the cluster's ring and placement
// checks fails here instead of passing every schedule.
func TestPlantedViolations(t *testing.T) {
	type planted struct {
		b        *bed
		checked  *node.Node // a copy hist.Check reads: m0, the follower of a pair, the owner of plantDB
		follower *node.Node // m0's follower (nil: the bed has none)
		stray    *node.Node // a cluster member the final ring does not place plantDB on
	}
	beds := []struct {
		name string
		row  *class
	}{
		{"single", classNamed("replicated")},
		{"pair", classNamed("partition")},
		{"cluster", classNamed("replica")},
	}
	plants := []struct {
		name  string
		plant func(p planted) error
		want  histcheck.Kind // "": not a histcheck verdict
		names string
	}{
		{"acked key deleted", func(p planted) error { return p.checked.Delete(plantDB, "kept") }, histcheck.Lost, plantDB + "/kept"},
		{"acked key overwritten", func(p planted) error { return p.checked.Update(plantDB, "kept", []byte("other bytes")) }, histcheck.Diverged, plantDB + "/kept"},
		{"deleted key re-inserted", func(p planted) error { return p.checked.Insert(plantDB, "gone", []byte("back again")) }, histcheck.Resurrection, plantDB + "/gone"},
		{"never-written key inserted", func(p planted) error { return p.checked.Insert(plantDB, "stranger", []byte("who wrote this")) }, histcheck.Resurrection, plantDB + "/stranger"},
		// Only Equal reads the follower of a single member or of a cluster's m0.
		{"follower lost a record", func(p planted) error { return p.follower.Delete(followedDB, "kept") }, histcheck.Lost, followedDB + "/kept"},
		// Only VerifyAll decodes a record no key leads to.
		{"undecodable record", func(p planted) error {
			return p.checked.Store().Append(docstore.Record{ID: 1 << 40, DB: plantDB, Key: "orphan",
				Form: docstore.FormDelta, BaseID: 1<<40 + 1, Hidden: true, Payload: []byte("a delta of nothing")})
		}, "", "verify"},
		// Only placement looks at what a member holds of a database it does not own.
		{"stray copy", func(p planted) error { return p.stray.Insert(plantDB, "kept", []byte("version two")) }, "", "stray copy"},
		// Only ring agreement looks at windows.
		{"window left open", func(p planted) error {
			sh := p.b.members[1].Shard
			return sh.InstallRing(cluster.NewRing(sh.Ring().Epoch+1, all).Marshal())
		}, "", "open rebalance window"},
	}
	for _, bd := range beds {
		for _, pl := range plants {
			bd, pl := bd, pl
			t.Run(bd.name+"/"+pl.name, func(t *testing.T) {
				b := build(bd.row, Schedule{Seed: 1, Class: bd.row.name}, Point{Dir: t.TempDir()})
				defer b.close()
				var target histcheck.Target = histcheck.NodeView{Node: b.members[0].Node}
				if b.cc != nil {
					target = b.cc
				}
				for _, db := range []string{plantDB, followedDB} {
					write := func(err error, key string, val []byte) {
						if err != nil {
							t.Fatal(err)
						}
						b.hist.Acked(db, key, val)
					}
					write(target.Insert(db, "kept", []byte("version one")), "kept", []byte("version one"))
					write(target.Update(db, "kept", []byte("version two")), "kept", []byte("version two"))
					write(target.Insert(db, "gone", []byte("short lived")), "gone", []byte("short lived"))
					write(target.Delete(db, "gone"), "gone", nil)
				}
				b.Flush() // where the writer's process will end, the history's floor is this barrier
				if !b.settle() {
					t.Fatalf("bed did not settle: %v", b.err())
				}
				if err := b.judge(); err != nil {
					t.Fatalf("clean bed judged: %v", err)
				}

				p := planted{b: b, checked: b.members[0].Node}
				if f := b.follower; f.Member != nil {
					p.follower = f.Node
					if bd.row.topology == pair {
						p.checked = f.Node
					}
				}
				if b.cc != nil {
					for i, addr := range memAddrs[:3] {
						if b.cc.Ring().Owner(plantDB) == addr {
							p.checked = b.members[i].Node
						} else {
							p.stray = b.members[i].Node
						}
					}
				}
				if pl.names == "stray copy" && p.stray == nil || pl.names == "open rebalance window" && b.cc == nil ||
					pl.name == "follower lost a record" && p.follower == nil {
					t.Skip("this bed has no such copy")
				}
				if err := pl.plant(p); err != nil {
					t.Fatal(err)
				}
				err := b.judge()
				if err == nil {
					t.Fatal("judge passed the planted violation")
				}
				if !strings.Contains(err.Error(), pl.names) {
					t.Errorf("verdict %q does not name %q", err, pl.names)
				}
				if pl.want == "" {
					return
				}
				if !hasViolation(err, pl.want, pl.names) {
					t.Errorf("no %q violation naming %s in the verdict: %v", pl.want, pl.names, err)
				}
			})
		}
	}
}

// hasViolation reports whether the verdict, a tree of joined and wrapped
// errors, holds a typed violation of this kind on this record. A plant on m0
// is also seen from the other side by Equal against its follower, so the
// verdict may hold more than the one asked for.
func hasViolation(err error, kind histcheck.Kind, names string) bool {
	if v, ok := err.(histcheck.Violation); ok {
		return v.Kind == kind && v.Key.String() == names
	}
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			if hasViolation(e, kind, names) {
				return true
			}
		}
	case interface{ Unwrap() error }:
		return hasViolation(u.Unwrap(), kind, names)
	}
	return false
}
