package chain

import (
	"testing"
)

func TestBackwardBases(t *testing.T) {
	l := New(Backward, 0)
	n := 10
	for i := 0; i < n-1; i++ {
		base, ok := l.Base(i, n)
		if !ok || base != i+1 {
			t.Fatalf("Base(%d) = %d,%v; want %d,true", i, base, ok, i+1)
		}
	}
	if _, ok := l.Base(n-1, n); ok {
		t.Fatal("newest record must be raw")
	}
}

func TestBackwardTable2(t *testing.T) {
	// Table 2: backward encoding has N-1 encoded records (1 raw), worst
	// case N-1 retrievals for the oldest record, and N-1 writebacks.
	l := New(Backward, 0)
	for _, n := range []int{1, 2, 17, 200} {
		if got := len(l.RawPositions(n)); got != 1 {
			t.Errorf("n=%d: %d raw records, want 1", n, got)
		}
		if got := l.WorstCaseRetrievals(n); got != n-1 {
			t.Errorf("n=%d: worst-case retrievals %d, want %d", n, got, n-1)
		}
		if got := l.TotalWritebacks(n); got != n-1 {
			t.Errorf("n=%d: writebacks %d, want %d", n, got, n-1)
		}
	}
}

func TestVersionJumpTable2(t *testing.T) {
	// Table 2: version jumping stores N/H reference versions raw, bounds
	// retrievals by H, and performs N - N/H writebacks.
	h := 4
	l := New(VersionJump, h)
	for _, n := range []int{1, 4, 17, 200} {
		wantRaw := (n + h - 1) / h // positions 0, H, 2H, ...
		if n > 1 && (n-1)%h != 0 {
			wantRaw++ // the newest record is raw until its cluster fills
		}
		if got := len(l.RawPositions(n)); got != wantRaw {
			t.Errorf("n=%d: %d raw records, want %d", n, got, wantRaw)
		}
		if got := l.WorstCaseRetrievals(n); got > h {
			t.Errorf("n=%d: worst-case retrievals %d, want <= %d", n, got, h)
		}
		wantWB := n - 1 - (n-1+h-1)/h // appends minus reference predecessors
		if got := l.TotalWritebacks(n); got != wantWB {
			t.Errorf("n=%d: writebacks %d, want %d", n, got, wantWB)
		}
	}
}

func TestHopFigure6(t *testing.T) {
	// Fig. 6: chain R0..R16, H=4. Expected bases:
	// R16 raw; Δ16,0 Δ2,1 Δ3,2 Δ4,3 Δ8,4 Δ6,5 Δ7,6 Δ8,7 Δ12,8 ...
	l := New(Hop, 4)
	n := 17
	want := map[int]int{
		0: 16, 1: 2, 2: 3, 3: 4, 4: 8, 5: 6, 6: 7, 7: 8,
		8: 12, 9: 10, 10: 11, 11: 12, 12: 16, 13: 14, 14: 15, 15: 16,
	}
	for i, wantBase := range want {
		base, ok := l.Base(i, n)
		if !ok || base != wantBase {
			t.Errorf("Base(%d, %d) = %d,%v; want %d", i, n, base, ok, wantBase)
		}
	}
	if _, ok := l.Base(16, n); ok {
		t.Error("R16 must be raw")
	}
}

func TestHopSingleRawRecord(t *testing.T) {
	// Unlike version jumping, hop encoding keeps exactly one raw record —
	// the source of its compression advantage (Fig. 14 top panel).
	l := New(Hop, 4)
	for _, n := range []int{1, 5, 17, 200} {
		if raw := l.RawPositions(n); len(raw) != 1 || raw[0] != n-1 {
			t.Errorf("n=%d: raw positions %v, want [%d]", n, raw, n-1)
		}
	}
}

func TestHopLogarithmicRetrievals(t *testing.T) {
	// Hop decode cost is O((H-1)·log_H N) — each level contributes at
	// most H-1 steps — far below backward's O(N).
	h := 16
	l := New(Hop, h)
	n := 200
	worst := l.WorstCaseRetrievals(n)
	levels := 0
	for p := 1; p < n; p *= h {
		levels++
	}
	if worst > (h-1)*(levels+1) {
		t.Errorf("worst-case retrievals %d with H=%d N=%d; want <= %d",
			worst, h, n, (h-1)*(levels+1))
	}
	if bw := New(Backward, 0).WorstCaseRetrievals(n); worst >= bw/2 {
		t.Errorf("hop retrievals %d not clearly below backward %d", worst, bw)
	}
}

func TestHopRetrievalsCloseToVersionJumping(t *testing.T) {
	// Fig. 14 middle panel: hop retrievals stay within a small factor of
	// version jumping across hop distances.
	n := 200
	for _, h := range []int{4, 8, 16, 32} {
		hop := New(Hop, h).WorstCaseRetrievals(n)
		vj := New(VersionJump, h).WorstCaseRetrievals(n)
		levels := 0
		for p := 1; p < n; p *= h {
			levels++
		}
		// Hop pays at most one version-jump-sized walk per level.
		if hop > (vj+1)*(levels+1) {
			t.Errorf("H=%d: hop %d retrievals vs version-jump %d (levels %d)",
				h, hop, vj, levels)
		}
	}
}

func TestWritebacksConsistentWithBases(t *testing.T) {
	// Replaying AppendWritebacks must leave every record based exactly
	// where Base() says it should be, for all three schemes.
	for _, tc := range []struct {
		l    Layout
		name string
	}{
		{New(Backward, 0), "backward"},
		{New(Hop, 4), "hop4"},
		{New(Hop, 16), "hop16"},
		{New(VersionJump, 4), "vj4"},
	} {
		n := 100
		base := make(map[int]int) // pos -> current base; absent = raw
		for p := 1; p < n; p++ {
			for _, wb := range tc.l.AppendWritebacks(nil, p) {
				if wb.NewBase != p {
					t.Fatalf("%s: writeback at append %d targets base %d", tc.name, p, wb.NewBase)
				}
				if wb.Pos < 0 || wb.Pos >= p {
					t.Fatalf("%s: writeback of future/negative position %d at append %d", tc.name, wb.Pos, p)
				}
				base[wb.Pos] = wb.NewBase
			}
		}
		for i := 0; i < n; i++ {
			want, ok := tc.l.Base(i, n)
			got, has := base[i]
			if ok != has || (ok && got != want) {
				t.Errorf("%s: record %d: replayed base %d,%v; Base() says %d,%v",
					tc.name, i, got, has, want, ok)
			}
		}
	}
}

func TestDecodePathTerminatesAndDescendsToRaw(t *testing.T) {
	for _, l := range []Layout{New(Backward, 0), New(Hop, 4), New(Hop, 16), New(VersionJump, 8)} {
		for _, n := range []int{1, 2, 7, 64, 129} {
			for i := 0; i < n; i++ {
				path := l.DecodePath(i, n)
				if len(path) == 0 {
					if _, ok := l.Base(i, n); ok {
						t.Fatalf("%v: encoded record %d has empty path", l.Scheme(), i)
					}
					continue
				}
				last := path[len(path)-1]
				if _, ok := l.Base(last, n); ok {
					t.Fatalf("%v n=%d: path of %d ends at encoded record %d", l.Scheme(), n, i, last)
				}
				prev := i
				for _, p := range path {
					if p <= prev {
						t.Fatalf("%v: path of %d goes backwards: %v", l.Scheme(), i, path)
					}
					prev = p
				}
			}
		}
	}
}

func TestHopWritebackOverheadShrinksWithH(t *testing.T) {
	// Fig. 14 bottom panel: hop writebacks exceed version jumping's, but
	// the difference becomes negligible as hop distance grows.
	n := 200
	prevExtra := 1 << 30
	for _, h := range []int{4, 8, 16, 32} {
		hop := New(Hop, h).TotalWritebacks(n)
		vj := New(VersionJump, h).TotalWritebacks(n)
		extra := hop - vj
		if extra < 0 {
			t.Errorf("H=%d: hop writebacks %d below version jumping %d", h, hop, vj)
		}
		if extra > prevExtra {
			t.Errorf("H=%d: extra writebacks %d grew from %d", h, extra, prevExtra)
		}
		prevExtra = extra
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with hop distance 1 did not panic")
		}
	}()
	New(Hop, 1)
}

func TestBaseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Base out of range did not panic")
		}
	}()
	New(Backward, 0).Base(5, 5)
}

func BenchmarkHopAppendWritebacks(b *testing.B) {
	l := New(Hop, 16)
	for i := 0; i < b.N; i++ {
		l.AppendWritebacks(nil, i+1)
	}
}
