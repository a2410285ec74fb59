package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestInsertAllocBudget keeps the allocation diet from regressing silently:
// an insert allocates its one defensive payload copy plus what the encoder
// needs, not a copy per layer. On payloads that share nothing the budget is
// 2x the payload + 1 KiB. On a revision chain the encoder's own per-insert
// tables come on top (delta offset table ~2.3 KB, index probe maps ~1.7 KB,
// the deltas themselves), none of them a payload copy, so the budget there
// is 3x + 1 KiB: one reintroduced 4 KiB copy still trips it.
func TestInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const payloadLen = 4096
	rng := rand.New(rand.NewSource(19))
	unique := func() []byte {
		p := make([]byte, payloadLen)
		rng.Read(p)
		return p
	}
	rev := prose(rng, payloadLen)
	revision := func() []byte {
		rev = editText(rng, rev, 2)[:payloadLen]
		return rev
	}
	cases := []struct {
		name   string
		next   func() []byte
		budget uint64
	}{
		{"unique", unique, 2*payloadLen + 1024},
		{"revisions", revision, 3*payloadLen + 1024},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true})
			const warm, runs = 400, 400
			payloads := make([][]byte, warm+runs)
			keys := make([]string, len(payloads))
			for i := range payloads {
				payloads[i] = c.next()
				keys[i] = fmt.Sprintf("key-%05d", i)
			}
			insert := func(i int) {
				if err := n.Insert("db", keys[i], payloads[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warm; i++ {
				insert(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+runs; i++ {
				insert(i)
			}
			runtime.ReadMemStats(&after)
			perInsert := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d B in %d objects per %d B insert", perInsert, (after.Mallocs-before.Mallocs)/runs, payloadLen)
			if perInsert > c.budget {
				t.Fatalf("an insert of %d B allocates %d B, budget %d B", payloadLen, perInsert, c.budget)
			}
		})
	}
}

// goldenNodeDir holds a data directory the parent of the allocation-diet
// change (commit 45008b0, PR 18) wrote by running goldenNodeOps.
const goldenNodeDir = "testdata/golden_pr18"

func goldenNodeOptions(dir string) Options {
	return Options{Dir: dir, BlockCompression: true, BlockSize: 4 << 10, SegmentSize: 32 << 10}
}

// goldenNodeOps ingests two revision chains, mutates them, applies the
// write-backs and compacts, and returns what every key must read as.
func goldenNodeOps(t testing.TB, n *Node) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	want := make(map[string][]byte)
	for _, db := range []string{"wiki", "mail"} {
		content := prose(rng, 3000)
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("v%02d", i)
			if err := n.Insert(db, key, content); err != nil {
				t.Fatal(err)
			}
			want[db+"/"+key] = content
			content = editText(rng, content, 2)
		}
	}
	n.FlushWritebacks(-1)
	for _, key := range []string{"v03", "v17", "v39"} {
		upd := prose(rng, 500)
		if err := n.Update("wiki", key, upd); err != nil {
			t.Fatal(err)
		}
		want["wiki/"+key] = upd
	}
	for _, key := range []string{"v05", "v20"} {
		if err := n.Delete("mail", key); err != nil {
			t.Fatal(err)
		}
		delete(want, "mail/"+key)
	}
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Compact(); err != nil {
		t.Fatal(err)
	}
	return want
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(from, "seg-*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no segment files under %s (%v)", from, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentWrittenDirOpensAndVerifies: a data directory written before the
// change recovers, passes VerifyAll, reads back exactly and takes new writes;
// and the change, given the same operations, writes the same bytes, which is
// what makes the reverse direction (the parent opening our files) hold.
func TestParentWrittenDirOpensAndVerifies(t *testing.T) {
	fresh := t.TempDir()
	n := testNode(t, goldenNodeOptions(fresh))
	want := goldenNodeOps(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	golden, _ := filepath.Glob(filepath.Join(goldenNodeDir, "seg-*.log"))
	ours, _ := filepath.Glob(filepath.Join(fresh, "seg-*.log"))
	if len(golden) == 0 || len(ours) != len(golden) {
		t.Fatalf("wrote %d segment files, the parent wrote %d", len(ours), len(golden))
	}
	for _, g := range golden {
		gb, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := os.ReadFile(filepath.Join(fresh, filepath.Base(g)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ob, gb) {
			t.Fatalf("%s differs from what the parent wrote (%d vs %d bytes)", filepath.Base(g), len(ob), len(gb))
		}
	}

	dir := t.TempDir()
	copyDir(t, goldenNodeDir, dir)
	n = testNode(t, goldenNodeOptions(dir))
	if rep := n.VerifyAll(); !rep.Ok() || rep.DeltaEncoded == 0 {
		t.Fatalf("VerifyAll on the parent-written directory: %s %v", rep, rep.Errors)
	}
	for k, content := range want {
		db, key, _ := bytes.Cut([]byte(k), []byte("/"))
		got, err := n.Read(string(db), string(key))
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("Read(%s) from the parent-written directory: err %v", k, err)
		}
	}
	for _, gone := range []string{"v05", "v20"} {
		if _, err := n.Read("mail", gone); err != ErrNotFound {
			t.Fatalf("deleted mail/%s reads as %v", gone, err)
		}
	}
	if err := n.Insert("wiki", "new", []byte("a write on top of parent-written files")); err != nil {
		t.Fatal(err)
	}
	if rep := n.VerifyAll(); !rep.Ok() {
		t.Fatalf("VerifyAll after writing: %v", rep.Errors)
	}
}
