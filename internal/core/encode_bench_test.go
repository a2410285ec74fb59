package core

import (
	"testing"

	"dbdedup/internal/chain"
	"dbdedup/internal/workload"
)

// BenchmarkEncodeWorkload runs Engine.Encode over the records of all four
// workload kinds at seed 1, round-robin over one database per kind, records
// over 16 KiB left out as the repository benchmark leaves them out. The
// engine is the node's: hop encoding at H=16, 64 B chunks, size filter and
// source cache at their defaults. One op is one insert; when the records run
// out a fresh engine starts over, outside the timer.
func BenchmarkEncodeWorkload(b *testing.B) {
	type rec struct {
		db      string
		payload []byte
	}
	var traces [][]workload.Op
	for _, kind := range workload.Kinds {
		traces = append(traces, workload.New(workload.Config{Kind: kind, Seed: 1, InsertBytes: 4 << 20}).Records())
	}
	var recs []rec
	var total int64
	for i := 0; ; i++ {
		more := false
		for _, tr := range traces {
			if i >= len(tr) {
				continue
			}
			more = true
			if op := tr[i]; len(op.Payload) <= 16<<10 {
				recs = append(recs, rec{db: op.DB, payload: op.Payload})
				total += int64(len(op.Payload))
			}
		}
		if !more {
			break
		}
	}
	cfg := Config{Scheme: chain.Hop, HopDistance: 16, ChunkAvgSize: 64, IndexEntries: 1 << 16}
	var e *Engine
	b.SetBytes(total / int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(recs)
		if k == 0 {
			b.StopTimer()
			if e != nil {
				e.Close()
			}
			var f *mapFetcher
			e, f = newTestEngine(cfg)
			for id, r := range recs {
				f.contents[uint64(id+1)] = r.payload
			}
			b.StartTimer()
		}
		if _, err := e.Encode(recs[k].db, uint64(k+1), recs[k].payload); err != nil {
			b.Fatal(err)
		}
	}
}
