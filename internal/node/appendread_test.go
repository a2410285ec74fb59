package node

import (
	"bytes"
	"testing"
)

// TestAppendReadKeepsPrefix: AppendRead on a non-empty dst returns dst's bytes
// followed by what Read returns, on each of the three places a read copies
// from (a source-cache peek, a record stored raw, a hop-chain decode), whether
// dst has room for the record or must grow. The appended bytes are the
// caller's: overwriting them leaves a later Read unchanged, so nothing aliases
// the source cache or the store.
func TestAppendReadKeepsPrefix(t *testing.T) {
	chained, content := revisionChain(t, 17, 4096)
	cached := testNode(t, Options{Dir: t.TempDir(), BlockCompression: true})
	if err := cached.Insert("db", "head", content[0]); err != nil {
		t.Fatal(err)
	}

	prefix := []byte("dst already holds this: ")
	for _, tc := range []struct {
		name string
		n    *Node
		key  string
		want []byte
		// which counter the read must move: ReadsFromSourceCache or
		// DecodeSteps; neither for a raw store read.
		fromCache, decodes bool
	}{
		{"source-cache hit", cached, "head", content[0], true, false},
		{"raw store read", chained, "rev-016", content[16], false, false},
		{"hop-chain decode", chained, "rev-012", content[12], false, true},
	} {
		for _, room := range []int{0, 8192} {
			dst := append(make([]byte, 0, len(prefix)+room), prefix...)
			before := tc.n.Stats()
			got, err := tc.n.AppendRead(dst, "db", tc.key)
			after := tc.n.Stats()
			if err != nil {
				t.Fatalf("%s (room %d): %v", tc.name, room, err)
			}
			if fromCache := after.ReadsFromSourceCache > before.ReadsFromSourceCache; fromCache != tc.fromCache {
				t.Fatalf("%s: read from the source cache = %v, want %v", tc.name, fromCache, tc.fromCache)
			}
			if decodes := after.DecodeSteps > before.DecodeSteps; decodes != tc.decodes {
				t.Fatalf("%s: read decoded a chain = %v, want %v", tc.name, decodes, tc.decodes)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], tc.want) {
				t.Fatalf("%s (room %d): AppendRead did not return the prefix followed by the record", tc.name, room)
			}
			for i := len(prefix); i < len(got); i++ {
				got[i] = 0xff
			}
			if again, err := tc.n.Read("db", tc.key); err != nil || !bytes.Equal(again, tc.want) {
				t.Fatalf("%s (room %d): writing AppendRead's result changed a later Read (err %v)", tc.name, room, err)
			}
		}
	}

	if got, err := cached.AppendRead(prefix, "db", "missing"); err != ErrNotFound || !bytes.Equal(got, prefix) {
		t.Fatalf("AppendRead of a missing key = %q, %v; want the prefix alone and ErrNotFound", got, err)
	}
}
