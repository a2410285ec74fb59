// Package chain models delta-encoding chains: the bookkeeping that decides,
// for each record in a chain of similar versions, which other record it is
// delta-encoded against, which records must be rewritten when a new version
// arrives, and how many base fetches a read needs.
//
// Three schemes are implemented (paper §3.2.2, Table 2, Fig. 6):
//
//   - Backward: every record is encoded against its immediate successor;
//     only the newest record is raw. Maximum compression, O(N) worst-case
//     decode.
//   - VersionJump: the chain is divided into fixed clusters of size H; the
//     record starting each cluster stays raw ("reference version"), others
//     chain to their successor. O(H) decode, but reference versions are
//     stored uncompressed.
//   - Hop: like Backward, but records at positions divisible by H^L ("hop
//     bases of level L") are encoded against the next level-L hop base,
//     skip-list style. Decode cost O(H·log_H N) while every record —
//     including hop bases — remains delta-encoded.
//
// Positions are 0-based insertion ordinals within one chain. The package is
// pure bookkeeping: it computes *which* encodings should exist; computing
// the deltas themselves is the caller's job.
package chain

// Scheme selects the encoding discipline of a chain. The zero value is Hop.
type Scheme int

const (
	// Hop is backward encoding with hop bases (dbDedup's scheme).
	Hop Scheme = iota
	// Backward is standard backward encoding.
	Backward
	// VersionJump is the fixed-cluster baseline.
	VersionJump
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case Backward:
		return "backward"
	case Hop:
		return "hop"
	case VersionJump:
		return "version-jump"
	default:
		return "unknown"
	}
}

// DefaultHopDistance is the paper's default hop distance: 16 balances
// compression ratio against decoding overhead (§5.5).
const DefaultHopDistance = 16

// Layout describes one scheme/parameter combination. The zero value is not
// valid; use New.
type Layout struct {
	scheme Scheme
	h      int
}

// New returns a Layout for the scheme. hopDistance is the hop distance (for
// Hop) or cluster size (for VersionJump); it defaults to DefaultHopDistance
// when zero and is ignored for Backward.
func New(s Scheme, hopDistance int) Layout {
	if hopDistance == 0 {
		hopDistance = DefaultHopDistance
	}
	if hopDistance < 2 {
		panic("chain: hop distance must be >= 2")
	}
	return Layout{scheme: s, h: hopDistance}
}

// Scheme returns the layout's scheme.
func (l Layout) Scheme() Scheme { return l.scheme }

// HopDistance returns H (hop distance or cluster size).
func (l Layout) HopDistance() int { return l.h }

// Base returns the position record i is encoded against in a chain that
// currently holds n records (positions 0..n-1), and whether it is encoded
// at all (raw records return ok=false).
func (l Layout) Base(i, n int) (base int, ok bool) {
	if i < 0 || i >= n {
		panic("chain: position out of range")
	}
	if i == n-1 {
		return 0, false // newest record is always raw
	}
	switch l.scheme {
	case Backward:
		return i + 1, true
	case VersionJump:
		if i%l.h == 0 {
			return 0, false // reference version, stored raw
		}
		return i + 1, true
	case Hop:
		// Choose the largest hop step available: the highest level L
		// (within i's own level) whose next base i+H^L already exists.
		best := i + 1
		step := l.h
		for i == 0 || i%step == 0 {
			if i+step <= n-1 {
				best = i + step
			} else {
				break
			}
			if step > (n-1)/l.h {
				break
			}
			step *= l.h
		}
		return best, true
	default:
		panic("chain: unknown scheme")
	}
}

// Writeback names a re-encoding triggered by an append: the record at
// position Pos must be re-encoded using the record at position NewBase as
// its delta source.
type Writeback struct {
	Pos     int
	NewBase int
}

// AppendWritebacks appends to dst the re-encodings required when position p
// joins the chain (p >= 1; appending position 0 rewrites nothing) and
// returns the extended slice. The new record itself is stored raw.
func (l Layout) AppendWritebacks(dst []Writeback, p int) []Writeback {
	if p < 1 {
		return dst
	}
	switch l.scheme {
	case Backward:
		return append(dst, Writeback{Pos: p - 1, NewBase: p})
	case VersionJump:
		if (p-1)%l.h == 0 {
			return dst // predecessor is a reference version; stays raw
		}
		return append(dst, Writeback{Pos: p - 1, NewBase: p})
	case Hop:
		wbs := append(dst, Writeback{Pos: p - 1, NewBase: p})
		// Each level L with H^L dividing p finalises the previous
		// level-L hop base at p-H^L.
		step := l.h
		for p%step == 0 {
			wbs = append(wbs, Writeback{Pos: p - step, NewBase: p})
			if step > p/l.h {
				break
			}
			step *= l.h
		}
		return wbs
	default:
		panic("chain: unknown scheme")
	}
}

// DecodePath returns the positions that must be fetched to decode record i
// in a chain of n records, ordered from i's base to the terminating raw
// record (inclusive). A raw record returns an empty path.
func (l Layout) DecodePath(i, n int) []int {
	var path []int
	for {
		base, ok := l.Base(i, n)
		if !ok {
			return path
		}
		path = append(path, base)
		i = base
		if len(path) > n {
			panic("chain: decode path cycle")
		}
	}
}

// Retrievals returns the number of source fetches needed to decode record i
// (the length of its decode path).
func (l Layout) Retrievals(i, n int) int { return len(l.DecodePath(i, n)) }

// WorstCaseRetrievals returns the maximum Retrievals over all positions in a
// chain of n records — the metric of Table 2 and Fig. 14.
func (l Layout) WorstCaseRetrievals(n int) int {
	worst := 0
	for i := 0; i < n; i++ {
		if r := l.Retrievals(i, n); r > worst {
			worst = r
		}
	}
	return worst
}

// TotalWritebacks returns how many record rewrites building a chain of n
// records costs in total — the bottom panel of Fig. 14.
func (l Layout) TotalWritebacks(n int) int {
	total := 0
	for p := 1; p < n; p++ {
		total += len(l.AppendWritebacks(nil, p))
	}
	return total
}

// RawPositions returns the positions stored unencoded in a chain of n
// records. Backward and Hop keep only the newest record raw; VersionJump
// additionally keeps every reference version raw (its compression loss).
func (l Layout) RawPositions(n int) []int {
	var raw []int
	for i := 0; i < n; i++ {
		if _, ok := l.Base(i, n); !ok {
			raw = append(raw, i)
		}
	}
	return raw
}
