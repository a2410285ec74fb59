package chunker

import "testing"

// Golden chunk-length vectors. These pin the exact boundary positions of both
// algorithms: any change to the gear table, the masks, the skip-ahead logic,
// or the rabin polynomial shows up here as a diff. Regenerate by temporarily
// dropping a main package into this directory that prints
// New(cfg).Chunks(corpus, nil) lengths for each (corpus, alg, avg) pair below.
//
// Corpora: subMin = xorshift(10), exactMax64 = xorshift(256) (== maxSize at
// avg 64), zeroRun = 1000 zero bytes (no boundaries fire; forced max-size
// cuts), rand512 = xorshift(512), rand4K = xorshift(4096).
var goldenLengths = map[string][]int{
	"rabin/64/subMin":     {10},
	"rabin/64/exactMax64": {112, 95, 49},
	"rabin/64/zeroRun":    {256, 256, 256, 232},
	"rabin/64/rand512":    {112, 95, 81, 136, 88},
	"rabin/64/rand4K": {112, 95, 81, 136, 93, 33, 108, 79, 83, 28, 48, 109,
		216, 70, 148, 31, 41, 106, 63, 17, 25, 40, 22, 83, 16, 26, 55, 43,
		206, 19, 166, 87, 42, 96, 50, 73, 17, 21, 139, 25, 122, 53, 22, 204,
		64, 108, 49, 32, 88, 59, 201, 60, 47, 20, 19},
	"rabin/1024/subMin":     {10},
	"rabin/1024/exactMax64": {256},
	"rabin/1024/zeroRun":    {1000},
	"rabin/1024/rand512":    {512},
	"rabin/1024/rand4K":     {779, 282, 828, 693, 500, 1014},

	"gear/64/subMin":     {10},
	"gear/64/exactMax64": {55, 30, 33, 44, 20, 63, 11},
	"gear/64/zeroRun":    {256, 256, 256, 232},
	"gear/64/rand512":    {55, 30, 33, 44, 20, 63, 33, 84, 51, 62, 37},
	"gear/64/rand4K": {55, 30, 33, 44, 20, 63, 33, 84, 51, 62, 139, 76, 30,
		180, 18, 40, 16, 22, 90, 37, 30, 70, 117, 169, 79, 52, 17, 74, 122,
		35, 71, 179, 21, 32, 105, 238, 28, 85, 37, 94, 132, 16, 35, 23, 43,
		68, 44, 75, 19, 81, 97, 68, 107, 34, 181, 120, 30, 145},
	"gear/1024/subMin":     {10},
	"gear/1024/exactMax64": {256},
	"gear/1024/zeroRun":    {1000},
	"gear/1024/rand512":    {512},
	"gear/1024/rand4K":     {780, 345, 713, 779, 675, 804},
}

func goldenCorpora() map[string][]byte {
	return map[string][]byte{
		"subMin":     xorshift(10),
		"exactMax64": xorshift(256),
		"zeroRun":    make([]byte, 1000),
		"rand512":    xorshift(512),
		"rand4K":     xorshift(4096),
	}
}

func TestGoldenChunkBoundaries(t *testing.T) {
	corpora := goldenCorpora()
	for _, alg := range []Algorithm{Rabin, Gear} {
		for _, avg := range []int{64, 1024} {
			c := New(Config{Algorithm: alg, AvgSize: avg})
			for name, data := range corpora {
				key := alg.String() + "/" + itoa(avg) + "/" + name
				want, ok := goldenLengths[key]
				if !ok {
					t.Fatalf("missing golden vector %q", key)
				}
				chunks := c.Chunks(data, nil)
				if len(chunks) != len(want) {
					t.Errorf("%s: %d chunks, want %d: %v", key, len(chunks), len(want), lengths(chunks))
					continue
				}
				for i, ch := range chunks {
					if ch.Length != want[i] {
						t.Errorf("%s: chunk %d length %d, want %d", key, i, ch.Length, want[i])
					}
				}
			}
		}
	}
}

func lengths(chunks []Chunk) []int {
	out := make([]int, len(chunks))
	for i, c := range chunks {
		out[i] = c.Length
	}
	return out
}

func itoa(n int) string {
	switch n {
	case 64:
		return "64"
	case 1024:
		return "1024"
	}
	panic("unexpected avg")
}
