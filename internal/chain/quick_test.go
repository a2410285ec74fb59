package chain

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// arbitraryLayout draws a random scheme/hop-distance pair.
func arbitraryLayout(rng *rand.Rand) Layout {
	schemes := []Scheme{Backward, Hop, VersionJump}
	h := 2 + rng.Intn(31)
	return New(schemes[rng.Intn(len(schemes))], h)
}

// TestQuickDecodePathInvariants checks, for random layouts and chain
// lengths, that every record's decode path strictly ascends to a raw record
// within the chain.
func TestQuickDecodePathInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		l := arbitraryLayout(rng)
		n := 1 + int(nRaw%500)
		for i := 0; i < n; i++ {
			path := l.DecodePath(i, n)
			prev := i
			for _, p := range path {
				if p <= prev || p >= n {
					return false
				}
				prev = p
			}
			if len(path) == 0 {
				if _, ok := l.Base(i, n); ok {
					return false
				}
			} else {
				last := path[len(path)-1]
				if _, ok := l.Base(last, n); ok {
					return false // path must end at a raw record
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickWritebackReplayMatchesBase replays AppendWritebacks for random
// layouts and verifies the reconstructed base map equals Base().
func TestQuickWritebackReplayMatchesBase(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		l := arbitraryLayout(rng)
		n := 1 + int(nRaw%300)
		base := make(map[int]int)
		for p := 1; p < n; p++ {
			for _, wb := range l.AppendWritebacks(nil, p) {
				if wb.Pos < 0 || wb.Pos >= p || wb.NewBase != p {
					return false
				}
				base[wb.Pos] = wb.NewBase
			}
		}
		for i := 0; i < n; i++ {
			want, ok := l.Base(i, n)
			got, has := base[i]
			if ok != has || (ok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickRawRecordCount checks the storage column of Table 2 for random
// parameters: backward and hop keep exactly one raw record; version jumping
// keeps one per cluster (plus the unfinished head).
func TestQuickRawRecordCount(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		l := arbitraryLayout(rng)
		n := 1 + int(nRaw%400)
		raw := len(l.RawPositions(n))
		switch l.Scheme() {
		case Backward, Hop:
			return raw == 1
		case VersionJump:
			want := (n + l.HopDistance() - 1) / l.HopDistance()
			if n > 1 && (n-1)%l.HopDistance() != 0 {
				want++
			}
			return raw == want
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickHopRetrievalBound verifies hop decode cost stays within
// H·(levels+1) for random parameters: each level contributes at most H-1
// ascending steps, plus one fallback step per level descending near the
// still-growing head of the chain.
func TestQuickHopRetrievalBound(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 2 + rng.Intn(31)
		l := New(Hop, h)
		n := 2 + int(nRaw%400)
		levels := 0
		for p := 1; p < n; p *= h {
			levels++
		}
		return l.WorstCaseRetrievals(n) <= h*(levels+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
