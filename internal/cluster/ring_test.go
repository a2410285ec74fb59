package cluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden vectors")

// goldenDBs is the fixed corpus of database names whose placement is pinned.
// A mix of realistic tenant-style names and systematic ones, so the vectors
// cover both hash neighbourhoods people type and ones that only differ in a
// suffix byte.
func goldenDBs() []string {
	dbs := []string{
		"users", "orders", "inventory", "billing", "sessions",
		"analytics", "audit-log", "email-queue", "tenant-acme",
		"tenant-globex", "tenant-initech", "wiki", "backups", "metrics",
	}
	for i := 0; i < 18; i++ {
		dbs = append(dbs, fmt.Sprintf("db%02d", i))
	}
	return dbs
}

// goldenMembers returns the pinned 3/4/5-member clusters.
func goldenMembers() map[string][]string {
	return map[string][]string{
		"ring3": {"node1:7001", "node2:7001", "node3:7001"},
		"ring4": {"node1:7001", "node2:7001", "node3:7001", "node4:7001"},
		"ring5": {"node1:7001", "node2:7001", "node3:7001", "node4:7001", "node5:7001"},
	}
}

// TestRingGoldenVectors bit-pins (database → member) placement for 3/4/5-node
// rings against committed testdata. Placement is part of the system's
// durable contract: an accidental change to the hash function, seed, vnode
// count, or tie-break order would silently remap every database on the next
// rebalance — shuffling each shard's dedup corpus and cratering the dedup
// ratio — so any diff here must be a deliberate HashVersion bump with a
// migration story, never a refactor side effect.
func TestRingGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "ring_golden.json")
	got := map[string]map[string]string{}
	for name, members := range goldenMembers() {
		r := NewRing(1, members)
		assign := map[string]string{}
		for _, db := range goldenDBs() {
			assign[db] = r.Owner(db)
		}
		got[name] = assign
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden vectors: %v (regenerate with -update-golden only for a deliberate HashVersion bump)", err)
	}
	want := map[string]map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, assign := range want {
		for db, owner := range assign {
			if got[name][db] != owner {
				t.Errorf("%s: db %q placed on %q, golden vector pins %q — placement hash changed; this reshuffles every corpus on the next rebalance",
					name, db, got[name][db], owner)
			}
		}
		if len(got[name]) != len(assign) {
			t.Errorf("%s: golden vector covers %d dbs, test computed %d", name, len(assign), len(got[name]))
		}
	}
}

// TestRingHashVersionPinned fails if the version string changes without the
// golden vectors (the constant is referenced in the wire form and testdata).
func TestRingHashVersionPinned(t *testing.T) {
	if HashVersion != "murmur64-r1" {
		t.Fatalf("HashVersion changed to %q: bump requires regenerated golden vectors and a data migration story", HashVersion)
	}
}

func TestRingOrderInsensitive(t *testing.T) {
	a := NewRing(1, []string{"c:1", "a:1", "b:1"})
	b := NewRing(1, []string{"b:1", "c:1", "a:1", "a:1"})
	if !a.Equal(b) {
		t.Fatalf("rings differ by input order: %v vs %v", a, b)
	}
	for _, db := range goldenDBs() {
		if a.Owner(db) != b.Owner(db) {
			t.Fatalf("placement differs by member input order for %q", db)
		}
	}
}

func TestRingStability(t *testing.T) {
	// Adding a member must only move databases *to* the new member, never
	// shuffle databases between surviving members — the property that makes
	// consistent hashing worth its complexity for dedup corpora.
	old := NewRing(1, goldenMembers()["ring3"])
	grown := NewRing(2, goldenMembers()["ring4"])
	for _, db := range goldenDBs() {
		was, now := old.Owner(db), grown.Owner(db)
		if now != was && now != "node4:7001" {
			t.Errorf("db %q moved %s → %s on join; consistent hashing must only move keys to the joiner", db, was, now)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(1, goldenMembers()["ring5"])
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[r.Owner(fmt.Sprintf("bal-db-%d", i))]++
	}
	for m, c := range counts {
		if c < 400 || c > 2000 {
			t.Errorf("member %s owns %d/5000 dbs: placement badly skewed", m, c)
		}
	}
	if len(counts) != 5 {
		t.Errorf("only %d of 5 members own any database", len(counts))
	}
}

func TestRingWireRejectsForeignHash(t *testing.T) {
	body := []byte(`{"epoch":7,"members":["a:1"],"hash":"fnv32-bogus"}`)
	if _, err := UnmarshalRing(body); err == nil {
		t.Fatal("ring with a foreign placement hash must be refused")
	}
	st := []byte(`{"self":"a:1","ring":{"epoch":7,"members":["a:1"],"hash":"fnv32-bogus"}}`)
	if _, err := ParseRingStatus(st); err == nil {
		t.Fatal("ring status with a foreign placement hash must be refused")
	}
}

func TestRingEmpty(t *testing.T) {
	var r *Ring
	if got := r.Owner("x"); got != "" {
		t.Fatalf("nil ring owner = %q", got)
	}
	if NewRing(0, nil).Owner("x") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

// TestUnmarshalRingNormalises holds the wire decoder to what NewRing builds:
// ring JSON comes from outside the process, and a member list with an empty
// or repeated name used to decode into a ring that disagreed with NewRing on
// placement (335 of 1 000 databases went to the member "").
func TestUnmarshalRingNormalises(t *testing.T) {
	want := NewRing(1, []string{"a:1", "b:1"})
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"canonical", string(want.Marshal()), true},
		{"unsorted", `{"epoch":1,"members":["b:1","a:1"]}`, true},
		{"empty ring", `{"epoch":0,"members":[]}`, true},
		{"empty member", `{"epoch":1,"members":["b:1","","a:1"]}`, false},
		{"duplicate member", `{"epoch":1,"members":["b:1","b:1","a:1"]}`, false},
		{"empty and duplicate", `{"epoch":1,"members":["b:1","","b:1","a:1"]}`, false},
		{"null", `null`, false},
		{"foreign hash", `{"epoch":1,"members":["a:1","b:1"],"hash":"fnv32-bogus"}`, false},
	} {
		r, err := UnmarshalRing([]byte(tc.body))
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted as %v", tc.name, r)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !r.Equal(NewRing(r.Epoch, r.Members)) || r.Hash != HashVersion {
			t.Errorf("%s: decoded %v is not what NewRing builds", tc.name, r)
		}
		if len(r.Members) == 2 && !r.Equal(want) {
			t.Errorf("%s: decoded %v, want %v", tc.name, r, want)
		}
	}
	// The same decoder guards a ring embedded in a status answer.
	if _, err := ParseRingStatus([]byte(`{"self":"a:1","ring":{"epoch":1,"members":["a:1","","a:1"]}}`)); err == nil {
		t.Error("ring status with an empty and a repeated member was accepted")
	}
}

// FuzzUnmarshalRing: whatever bytes arrive, the decoder never panics, and a
// ring it accepts is exactly the ring NewRing builds from the same epoch and
// members — so Owner never names the member "".
func FuzzUnmarshalRing(f *testing.F) {
	for _, members := range goldenMembers() {
		f.Add(NewRing(3, members).Marshal())
	}
	f.Add(NewRing(0, nil).Marshal())
	f.Add([]byte(`{"epoch":1,"members":["b:1","","b:1","a:1"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"epoch":7,"members":["a:1"],"hash":"fnv32-bogus"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRing(data)
		if err != nil {
			return
		}
		if !r.Equal(NewRing(r.Epoch, r.Members)) {
			t.Fatalf("accepted %q as %v, NewRing builds %v", data, r, NewRing(r.Epoch, r.Members))
		}
		if len(r.Members) > 0 {
			for _, db := range goldenDBs() {
				if r.Owner(db) == "" {
					t.Fatalf("ring %v from %q gives %q to the member \"\"", r, data, db)
				}
			}
		}
	})
}
