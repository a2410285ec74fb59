package workload

import (
	"bytes"
	"testing"
)

func TestDeterministic(t *testing.T) {
	for _, kind := range Kinds {
		a := New(Config{Kind: kind, Seed: 42, InsertBytes: 1 << 20}).Records()
		b := New(Config{Kind: kind, Seed: 42, InsertBytes: 1 << 20}).Records()
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Key != b[i].Key || !bytes.Equal(a[i].Payload, b[i].Payload) {
				t.Fatalf("%v: op %d differs across runs", kind, i)
			}
		}
		c := New(Config{Kind: kind, Seed: 43, InsertBytes: 1 << 20}).Records()
		if len(c) == len(a) && len(a) > 0 && bytes.Equal(c[0].Payload, a[0].Payload) {
			t.Errorf("%v: different seeds produced identical traces", kind)
		}
	}
}

func TestVolumeAndUniqueness(t *testing.T) {
	for _, kind := range Kinds {
		recs := New(Config{Kind: kind, Seed: 1, InsertBytes: 2 << 20}).Records()
		var total int64
		keys := make(map[string]bool, len(recs))
		for _, r := range recs {
			if r.Kind != OpInsert {
				t.Fatalf("%v: Records() returned a non-insert", kind)
			}
			if r.DB == "" || r.Key == "" || len(r.Payload) == 0 {
				t.Fatalf("%v: malformed record %+v", kind, r)
			}
			if keys[r.Key] {
				t.Fatalf("%v: duplicate key %q", kind, r.Key)
			}
			keys[r.Key] = true
			total += int64(len(r.Payload))
		}
		if total < 2<<20 {
			t.Errorf("%v: trace stopped at %d bytes, want >= %d", kind, total, 2<<20)
		}
		if total > 4<<20 {
			t.Errorf("%v: trace overshot to %d bytes", kind, total)
		}
	}
}

func TestReadsReferenceInsertedKeys(t *testing.T) {
	for _, kind := range Kinds {
		tr := New(Config{Kind: kind, Seed: 7, InsertBytes: 512 << 10, Reads: true, ReadSampling: 50})
		inserted := map[string]bool{}
		reads, validReads := 0, 0
		inserts := 0
		for {
			op, ok := tr.Next()
			if !ok {
				break
			}
			switch op.Kind {
			case OpInsert:
				inserted[op.Key] = true
				inserts++
			case OpRead:
				reads++
				if inserted[op.Key] {
					validReads++
				}
			}
		}
		if reads == 0 {
			t.Fatalf("%v: no reads generated", kind)
		}
		// Wikipedia may read a revision that is about to be written
		// (latest-pointer race in the mix); allow a small slop.
		if float64(validReads) < float64(reads)*0.95 {
			t.Errorf("%v: only %d/%d reads reference existing keys", kind, validReads, reads)
		}
		if inserts == 0 {
			t.Fatalf("%v: no inserts", kind)
		}
	}
}

func TestReadMixRatios(t *testing.T) {
	// Enron is 1:1; Wikipedia/StackExchange are read-heavy even after
	// sampling; MessageBoards generates multiple thread reads per insert.
	countOps := func(kind Kind, sampling int) (ins, rd int) {
		tr := New(Config{Kind: kind, Seed: 3, InsertBytes: 256 << 10, Reads: true, ReadSampling: sampling})
		for {
			op, ok := tr.Next()
			if !ok {
				return
			}
			if op.Kind == OpInsert {
				ins++
			} else {
				rd++
			}
		}
	}
	ins, rd := countOps(Enron, 1)
	if rd != ins {
		t.Errorf("Enron: %d reads for %d inserts, want 1:1", rd, ins)
	}
	ins, rd = countOps(Wikipedia, 1)
	if rd < ins*500 {
		t.Errorf("Wikipedia: %d reads for %d inserts, want ~999:1", rd, ins)
	}
	ins, rd = countOps(MessageBoards, 1)
	if rd < ins {
		t.Errorf("MessageBoards: %d reads for %d inserts, want thread reads > inserts", rd, ins)
	}
}

func TestWikipediaRedundancy(t *testing.T) {
	// Consecutive revisions of an article must be highly similar — the
	// defining property of the versioning workload. We check that some
	// pairs of records share long common prefixes/content via a cheap
	// proxy: total volume greatly exceeds the volume of distinct articles.
	recs := New(Config{Kind: Wikipedia, Seed: 5, InsertBytes: 2 << 20}).Records()
	articles := map[string]int{}
	for _, r := range recs {
		articles[r.Key[:7]]++ // aNNNNNN prefix
	}
	multi := 0
	for _, n := range articles {
		if n > 1 {
			multi++
		}
	}
	if multi < len(articles)/4 {
		t.Errorf("only %d/%d articles have multiple revisions", multi, len(articles))
	}
}

func TestEnronQuoting(t *testing.T) {
	recs := New(Config{Kind: Enron, Seed: 6, InsertBytes: 1 << 20}).Records()
	quoted := 0
	for _, r := range recs {
		if bytes.Contains(r.Payload, []byte("\n> ")) ||
			bytes.Contains(r.Payload, []byte("Forwarded message")) {
			quoted++
		}
	}
	if quoted < len(recs)/3 {
		t.Errorf("only %d/%d messages quote prior content", quoted, len(recs))
	}
}

func TestRecordSizeSpread(t *testing.T) {
	// Fig. 7's premise: record sizes span orders of magnitude.
	for _, kind := range Kinds {
		recs := New(Config{Kind: kind, Seed: 8, InsertBytes: 4 << 20}).Records()
		min, max := 1<<30, 0
		for _, r := range recs {
			if len(r.Payload) < min {
				min = len(r.Payload)
			}
			if len(r.Payload) > max {
				max = len(r.Payload)
			}
		}
		if max < min*10 {
			t.Errorf("%v: sizes span only [%d, %d]", kind, min, max)
		}
	}
}

func TestZipfChoiceBounds(t *testing.T) {
	tr := New(Config{Kind: Wikipedia, Seed: 1})
	for i := 0; i < 10000; i++ {
		if got := zipfChoice(tr.rng, 17); got < 0 || got >= 17 {
			t.Fatalf("zipfChoice out of range: %d", got)
		}
	}
	if got := zipfChoice(tr.rng, 1); got != 0 {
		t.Fatalf("zipfChoice(1) = %d", got)
	}
	if got := zipfChoice(tr.rng, 0); got != 0 {
		t.Fatalf("zipfChoice(0) = %d", got)
	}
}

func BenchmarkWikipediaTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := New(Config{Kind: Wikipedia, Seed: int64(i), InsertBytes: 1 << 20})
		n := 0
		for {
			if _, ok := tr.Next(); !ok {
				break
			}
			n++
		}
	}
}

// TestParseKind covers every spelling dedupbench -dataset and dedupstorm
// -blend accept: family names and short aliases, any case, spaces ignored.
func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"wikipedia": Wikipedia, "wiki": Wikipedia, "Wikipedia": Wikipedia, " WIKI ": Wikipedia,
		"enron": Enron, "mail": Enron, "email": Enron, "E-mail": -1,
		"stackexchange": StackExchange, "qa": StackExchange, "Stack Exchange": StackExchange, "QA": StackExchange,
		"messageboards": MessageBoards, "forum": MessageBoards, "Message Boards": MessageBoards,
		"": -1, "wikis": -1, "wiki,mail": -1,
	} {
		got, err := ParseKind(in)
		if want < 0 {
			if err == nil {
				t.Errorf("ParseKind(%q) = %v, want an error", in, got)
			}
			continue
		}
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Every family's figure name parses back to itself.
	for _, k := range Kinds {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}
