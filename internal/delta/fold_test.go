package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// maxFoldCase bounds the targets a fold case declares: a chain of deltas
// that each copy their base several times grows exponentially, delta by
// delta, and so do both sequential application and a fold (at worst one
// fragment per byte). The fold would build every delta of such a chain behind
// a first delta that reads past the base, which only AppendTo sees.
const maxFoldCase = 16 << 10

// applySequentially applies wires to base one Unmarshal and Apply at a time,
// the reference a fold is held to. It reports false when a delta declares a target
// longer than maxFoldCase; the case is then skipped.
func applySequentially(base []byte, wires [][]byte) ([]byte, error, bool) {
	for _, w := range wires {
		if tl, _, _, err := header(w); err == nil && tl > maxFoldCase {
			return nil, nil, false
		}
	}
	cur := base
	for _, w := range wires {
		d, err := Unmarshal(w)
		if err == nil {
			cur, err = Apply(cur, d)
		}
		if err != nil {
			return nil, err, true
		}
	}
	return cur, nil, true
}

// foldBoth holds a fold of wires onto base to sequential application: the
// same bytes, or an error from both. dst's prefix survives either way.
func foldBoth(t *testing.T, f *Fold, base []byte, wires [][]byte) {
	t.Helper()
	want, wantErr, ok := applySequentially(base, wires)
	if !ok {
		return
	}
	f.Reset()
	var err error
	for _, w := range wires {
		if err = f.Add(w); err != nil {
			break
		}
	}
	prefix := []byte("prefix")
	got := prefix
	if err == nil {
		got, err = f.AppendTo(prefix, base)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("fold error %v, sequential error %v", err, wantErr)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatal("the fold overwrote dst's prefix")
	}
	if err != nil {
		if len(got) != len(prefix) {
			t.Fatal("a failed fold extended dst")
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("fold of %d deltas: %d bytes, sequential %d, or different ones", len(wires), len(got)-len(prefix), len(want))
	}
}

// revisionWires returns k deltas of a revision chain, innermost first: each
// takes the previous revision (the base, first) to a lightly edited one.
func revisionWires(rng *rand.Rand, base []byte, k int) [][]byte {
	wires := make([][]byte, k)
	cur := base
	for i := range wires {
		next := edit(rng, cur, 1+rng.Intn(4))
		wires[i] = Compress(cur, next, Options{}).Marshal()
		cur = next
	}
	return wires
}

func TestFoldMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	var f Fold
	for trial := 0; trial < 100; trial++ {
		base := makeText(rng, 100+rng.Intn(8000))
		wires := revisionWires(rng, base, rng.Intn(17))
		foldBoth(t, &f, base, wires)
		// Backward deltas too: a chain read walks from the newest revision
		// back, each delta copying out of order from a longer text.
		if len(wires) > 1 {
			tgt, _, _ := applySequentially(base, wires[:1])
			back := Reencode(base, tgt, Compress(base, tgt, Options{})).Marshal()
			foldBoth(t, &f, tgt, [][]byte{back, wires[0]})
		}
		if trial < 10 && len(wires) > 0 {
			// Every single-byte corruption of one delta: same verdict.
			w := wires[len(wires)/2]
			for i := range w {
				mut := append([]byte(nil), w...)
				mut[i] ^= 0x5a
				wires[len(wires)/2] = mut
				foldBoth(t, &f, base, wires)
			}
			wires[len(wires)/2] = w
		}
	}
	// A base shorter than the first delta reads is an error only AppendTo
	// can see, as it is to Apply.
	base := makeText(rng, 500)
	wires := revisionWires(rng, base, 3)
	foldBoth(t, &f, base[:100], wires)
	foldBoth(t, &f, nil, nil)
	foldBoth(t, &f, base, nil)
}

// TestFoldRejectsWrappingLengths: lengths whose sum passes the largest int
// are an error, where they used to wrap to a negative target length that the
// next delta's copies indexed the fragments with.
func TestFoldRejectsWrappingLengths(t *testing.T) {
	const big = 1<<63 - 1
	wrapping := Delta{TargetLen: -1, Insts: []Instruction{
		{Op: OpCopy, Off: 0, Len: big}, {Op: OpCopy, Off: 0, Len: big}, {Op: OpCopy, Off: 0, Len: 1}}}
	var f Fold
	if err := f.Add(wrapping.Marshal()); err == nil {
		far := Delta{TargetLen: 5, Insts: []Instruction{{Op: OpCopy, Off: -8, Len: 5}}}
		if err := f.Add(far.Marshal()); err == nil {
			t.Fatal("a fold accepted a target length that wraps")
		}
	}
}

// TestFoldAllocatesNothingWarm: a reused fold, rebuilt into a large enough
// dst, allocates nothing.
func TestFoldAllocatesNothingWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	base := makeText(rng, 8000)
	wires := revisionWires(rng, base, 16)
	var f Fold
	dst := make([]byte, 0, 16<<10)
	run := func() {
		f.Reset()
		for _, w := range wires {
			if err := f.Add(w); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.AppendTo(dst, base); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("a warm fold of 16 deltas allocates %.1f times", avg)
	}
}

// fuzzWire turns fuzz bytes into a delta over a base of baseLen bytes: every
// three bytes are an instruction, a copy whose offset and length are taken
// modulo a little more than the base (so that some reach past it) or a short
// insert. The declared length is the instructions' total.
func fuzzWire(raw []byte, baseLen int) []byte {
	var d Delta
	for i := 0; i+2 < len(raw); i += 3 {
		a, b := int(raw[i+1]), int(raw[i+2])
		if raw[i]&1 == 0 {
			n := 1 + a%16
			d.Insts = append(d.Insts, Instruction{Op: OpInsert, Len: n, Data: bytes.Repeat(raw[i:i+1], n)})
			continue
		}
		off := (a<<8 | b) % (baseLen + 2)
		n := int(raw[i]>>1) % (baseLen + 2 - off)
		d.Insts = append(d.Insts, Instruction{Op: OpCopy, Off: off, Len: n})
	}
	for _, inst := range d.Insts {
		d.TargetLen += inst.Len
	}
	return d.Marshal()
}

// FuzzFoldMatchesApply: a fold of 1-20 deltas onto an arbitrary base, some
// from Compress of random edits, some built from the fuzz bytes, some the
// fuzz bytes themselves, equals applying them one by one, or both fail.
func FuzzFoldMatchesApply(f *testing.F) {
	rng := rand.New(rand.NewSource(60))
	text := makeText(rng, 2000)
	f.Add(text, []byte{}, uint64(5))
	f.Add(text[:100], Compress(text[:100], text[:150], Options{}).Marshal(), uint64(1<<8|2))
	f.Add([]byte("base"), []byte{1, 0, 0, 1, 0, 2, 0, 3, 9}, uint64(19<<8|1))
	f.Add([]byte{}, hugeCopy, uint64(2<<8|2))
	f.Fuzz(func(t *testing.T, base, raw []byte, plan uint64) {
		rng := rand.New(rand.NewSource(int64(plan)))
		k := 1 + int(plan>>8%20)
		wires := make([][]byte, 0, k)
		cur := base
		for i := 0; i < k; i++ {
			var w []byte
			switch (plan >> uint(i%8)) % 3 {
			case 0:
				w = Compress(cur, edit(rng, cur, 1+rng.Intn(3)), Options{}).Marshal()
			case 1:
				w = fuzzWire(raw[min(i, len(raw)):], len(cur))
			default:
				w = raw
			}
			wires = append(wires, w)
			if next, err, ok := applySequentially(cur, [][]byte{w}); ok && err == nil {
				cur = next
			}
		}
		var fold Fold
		foldBoth(t, &fold, base, wires)
		// The same fold again, reused: Reset forgets everything.
		foldBoth(t, &fold, base, wires)
	})
}

// BenchmarkFold folds a 16-delta revision chain over documents of two sizes
// and builds the target, against applying the deltas one by one.
func BenchmarkFold(b *testing.B) {
	for _, size := range []int{4 << 10, 12 << 10} {
		rng := rand.New(rand.NewSource(61))
		base := makeText(rng, size)
		wires := revisionWires(rng, base, 16)
		dst := make([]byte, 0, 2*size)
		b.Run(fmt.Sprintf("fold/%dKiB", size>>10), func(b *testing.B) {
			var f Fold
			for i := 0; i < b.N; i++ {
				f.Reset()
				for _, w := range wires {
					if err := f.Add(w); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := f.AppendTo(dst, base); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The sequential arm decodes once and times the Apply calls alone,
		// each of which allocates its target.
		b.Run(fmt.Sprintf("sequential/%dKiB", size>>10), func(b *testing.B) {
			ds := make([]Delta, len(wires))
			for j, w := range wires {
				d, err := Unmarshal(w)
				if err != nil {
					b.Fatal(err)
				}
				ds[j] = d
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := base
				for _, d := range ds {
					var err error
					if cur, err = Apply(cur, d); err != nil {
						b.Fatal(err)
					}
				}
				_ = append(dst, cur...)
			}
		})
	}
}
