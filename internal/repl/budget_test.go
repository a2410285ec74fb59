package repl

import (
	"fmt"
	"testing"
	"time"

	"dbdedup/internal/histcheck"
	"dbdedup/internal/node"
	"dbdedup/internal/oplog"
)

// TestReconnectPastByteBudgetResyncs disconnects a caught-up secondary, lets
// the primary write more than the oplog's default byte budget, and
// reconnects with the old cursor. The cursor is now behind the retained
// window, so the reconnect must take the ErrTruncated → snapshot path and
// converge to every acked write.
func TestReconnectPastByteBudgetResyncs(t *testing.T) {
	open := func() *node.Node {
		// File-backed and dedup off: the test is about the log's window,
		// and it writes ~70 MiB.
		n, err := node.Open(node.Options{Dir: t.TempDir(), SyncEncode: true,
			DisableAutoFlush: true, DisableDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	prim, sec := open(), open()
	p, err := ListenAndServe(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hist := histcheck.New(histcheck.FloorAtAck)
	const recLen = 64 << 10
	body := make([]byte, recLen)
	for i := range body {
		body[i] = byte(i * 31)
	}
	value := func(tag string) []byte {
		v := append([]byte(nil), body...)
		copy(v, tag)
		return v
	}
	insert := func(key string) {
		t.Helper()
		v := value(key)
		if err := prim.Insert("db", key, v); err != nil {
			t.Fatal(err)
		}
		hist.Acked("db", key, v)
	}

	for i := 0; i < 8; i++ {
		insert(fmt.Sprintf("early%02d", i))
	}
	s, err := Connect(sec, p.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cursor, epoch := s.AppliedSeq(), s.Epoch()
	s.Close()

	// Disconnected: one update and one delete the snapshot must carry, then
	// more bytes than the log retains.
	upd := value("early03 rewritten")
	if err := prim.Update("db", "early03", upd); err != nil {
		t.Fatal(err)
	}
	hist.Acked("db", "early03", upd)
	if err := prim.Delete("db", "early05"); err != nil {
		t.Fatal(err)
	}
	hist.Acked("db", "early05", nil)
	writes := oplog.MaxRetainedBytes/recLen + 64
	for i := 0; i < writes; i++ {
		insert(fmt.Sprintf("late%05d", i))
	}
	st := prim.Stats().Oplog
	if st.Evicted == 0 || st.Bytes > st.BudgetBytes || st.BudgetBytes != oplog.MaxRetainedBytes {
		t.Fatalf("oplog after %d writes of %d B: %+v; want evictions within the default budget", writes, recLen, st)
	}
	if first := prim.Oplog().LastSeq() - uint64(st.Entries) + 1; cursor+1 >= first {
		t.Fatalf("cursor %d is still inside the retained window (first seq %d)", cursor, first)
	}

	s, err = connect(sec, p.Addr(), cursor, epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if resyncs, _ := s.Resyncs(); resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1: a cursor behind the byte window must resync from a snapshot", resyncs)
	}
	if err := histcheck.Err("secondary after resync", hist.Check(histcheck.NodeView{Node: sec})); err != nil {
		t.Fatal(err)
	}

	// Streaming resumes from the snapshot's cursor.
	insert("after-resync")
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := histcheck.Err("secondary after resume", hist.Check(histcheck.NodeView{Node: sec})); err != nil {
		t.Fatal(err)
	}
}
