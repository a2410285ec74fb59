package apiserver_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/cluster"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// TestPayloadIsCallersOnReturn pins the Backend contract the server's reused
// request buffer leans on: a payload is the caller's again once the method
// returns. Over one connection k1=A is written and then k2=B of the same
// length, so B lands in the buffer A was read into while the backend may still
// be encoding A (the node's encoder pool runs asynchronously here). Each Get
// must return its own record's bytes; run under -race, a backend that kept a
// slice of the frame also shows as a race with the next read into it.
func TestPayloadIsCallersOnReturn(t *testing.T) {
	const size = 8 << 10
	records := func(tag string) (a, b []byte) {
		for i := 0; len(a) < size; i++ {
			a = fmt.Appendf(a, "%s revision A line %d of a record large enough to be encoded\n", tag, i)
			b = fmt.Appendf(b, "%s revision B line %d, other bytes of the very same length.\n", tag, i)
		}
		return a[:size], b[:size]
	}
	check := func(t *testing.T, c *apiserver.Client, db string, want map[string][]byte) {
		t.Helper()
		for key, w := range want {
			if got, err := c.Get(db, key); err != nil || !bytes.Equal(got, w) {
				t.Fatalf("Get(%s): %.40q…, %v; want %.40q…", key, got, err, w)
			}
		}
	}

	t.Run("node insert and update", func(t *testing.T) {
		n, err := node.Open(node.Options{DisableAutoFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		srv, err := apiserver.ListenAndServeBackend(n, "127.0.0.1:0", apiserver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := apiserver.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		a, b := records("insert")
		for i, p := range [][]byte{a, b} { // k1, then k2 into the same buffer
			if err := c.Insert("db", fmt.Sprintf("k%d", i+1), p); err != nil {
				t.Fatal(err)
			}
		}
		n.Barrier()
		check(t, c, "db", map[string][]byte{"k1": a, "k2": b})

		ua, ub := records("update")
		for i, p := range [][]byte{ua, ub} { // k1, then k2 into the same buffer
			if err := c.Update("db", fmt.Sprintf("k%d", i+1), p); err != nil {
				t.Fatal(err)
			}
		}
		n.Barrier()
		check(t, c, "db", map[string][]byte{"k1": ua, "k2": ub})
	})

	t.Run("member transfer", func(t *testing.T) {
		m, err := cluster.StartMember(cluster.MemberConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		c, err := apiserver.Dial(m.API.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		self := m.API.Addr()
		pend := cluster.NewRing(1, []string{self, "ghost:1"})
		db := ""
		for i := 0; db == ""; i++ {
			if name := fmt.Sprintf("db%d", i); pend.Owner(name) == self {
				db = name
			}
		}
		if err := c.InstallRingJSON(pend.Marshal()); err != nil {
			t.Fatal(err)
		}
		a, b := records("transfer")
		for i, p := range [][]byte{a, b} { // k1, then k2 into the same buffer
			batch := repl.AppendRecord(binary.AppendUvarint(nil, 1), db, fmt.Sprintf("k%d", i+1), node.Stamped{Present: true, Content: p})
			if err := c.Transfer(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CommitRing(); err != nil {
			t.Fatal(err)
		}
		m.Node.Barrier()
		check(t, c, db, map[string][]byte{"k1": a, "k2": b})
	})
}
