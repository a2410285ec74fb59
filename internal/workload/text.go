package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
)

// vocabulary is the word pool for synthetic prose. Text built from a fixed
// vocabulary compresses like natural language under both block compression
// and delta encoding, which is what the experiments need.
var vocabulary = []string{
	"the", "of", "and", "a", "to", "in", "is", "was", "he", "for", "it",
	"with", "as", "his", "on", "be", "at", "by", "had", "not", "are",
	"but", "from", "or", "have", "an", "they", "which", "one", "you",
	"were", "her", "all", "she", "there", "would", "their", "we", "him",
	"been", "has", "when", "who", "will", "more", "no", "if", "out",
	"system", "database", "record", "version", "storage", "network",
	"history", "article", "section", "reference", "external", "links",
	"category", "discussion", "editing", "content", "page", "table",
	"value", "number", "example", "information", "second", "between",
	"world", "city", "state", "university", "century", "government",
	"company", "group", "member", "national", "team", "season", "game",
	"player", "music", "album", "film", "series", "book", "author",
	"science", "theory", "model", "data", "result", "analysis", "method",
	"process", "development", "research", "project", "report", "design",
	"service", "market", "price", "energy", "power", "water", "land",
	"area", "population", "language", "school", "church", "building",
	"river", "mountain", "island", "north", "south", "east", "west",
}

// sentence appends one synthetic sentence to buf.
func sentence(rng *rand.Rand, buf *bytes.Buffer) {
	n := 5 + rng.Intn(12)
	for i := 0; i < n; i++ {
		w := vocabulary[rng.Intn(len(vocabulary))]
		if i == 0 {
			buf.WriteByte(w[0] - 'a' + 'A')
			buf.WriteString(w[1:])
		} else {
			buf.WriteString(w)
		}
		if i < n-1 {
			buf.WriteByte(' ')
		}
	}
	buf.WriteString(". ")
}

// prose returns roughly n bytes of synthetic text.
func prose(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	buf.Grow(n + 64)
	for buf.Len() < n {
		sentence(rng, &buf)
	}
	return buf.Bytes()
}

// revisionWords is the vocabulary of RevisionText: so small that any two
// draws share most of their chunks.
var revisionWords = []string{"the", "record", "database", "version", "of", "and",
	"revision", "content", "chunk", "update", "a", "delta", "system"}

// RevisionText returns exactly n bytes of text over a 13-word vocabulary.
// Tests, the acked-write churn and Fig. 14 build their records from it:
// every record is similar to every other, so chains form from the first
// insert. Trace digests and results_csv/fig14.csv pin its draws from rng.
func RevisionText(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	for buf.Len() < n {
		buf.WriteString(revisionWords[rng.Intn(len(revisionWords))])
		buf.WriteByte(' ')
	}
	return buf.Bytes()[:n]
}

// Revise returns the next version of a RevisionText record: a copy of data
// with k 12-byte spans overwritten and tail bytes of new text appended.
func Revise(rng *rand.Rand, data []byte, k, tail int) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < k && len(out) > 20; i++ {
		pos := rng.Intn(len(out) - 20)
		copy(out[pos:], RevisionText(rng, 12))
	}
	return append(out, RevisionText(rng, tail)...)
}

// lognormalSize draws a size with the given median and sigma (log-space),
// clamped to [min, max]. Real record-size distributions (Fig. 7) are heavy
// tailed; lognormal reproduces that shape.
func lognormalSize(rng *rand.Rand, median float64, sigma float64, min, max int) int {
	v := int(median * math.Exp(rng.NormFloat64()*sigma))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// editProse applies k small dispersed edits to text: sentence rewrites,
// insertions, deletions — the paper's characterisation of database record
// updates (duplicate regions of 10s-100s of bytes, spread out).
func editProse(rng *rand.Rand, text []byte, k int) []byte {
	out := append([]byte(nil), text...)
	for i := 0; i < k; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert a sentence at a random position
			var ins bytes.Buffer
			sentence(rng, &ins)
			pos := rng.Intn(len(out) + 1)
			out = append(out[:pos:pos], append(ins.Bytes(), out[pos:]...)...)
		case 4, 5, 6: // overwrite a span with new words
			if len(out) < 80 {
				continue
			}
			pos := rng.Intn(len(out) - 64)
			span := prose(rng, 24+rng.Intn(40))
			copy(out[pos:], span[:24+rng.Intn(40)])
		default: // delete a span
			if len(out) < 160 {
				continue
			}
			pos := rng.Intn(len(out) - 128)
			n := 16 + rng.Intn(96)
			out = append(out[:pos:pos], out[pos+n:]...)
		}
	}
	return out
}

// quote returns text quoted in email/forum style ("> " prefix per line,
// chunked into pseudo-lines of ~72 chars).
func quote(text []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(text) + len(text)/36 + 16)
	for off := 0; off < len(text); off += 72 {
		end := off + 72
		if end > len(text) {
			end = len(text)
		}
		buf.WriteString("> ")
		buf.Write(text[off:end])
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// header renders a small metadata envelope (usernames, timestamps,
// identifiers) like the ones each dataset's records carry.
func header(kind string, fields ...string) []byte {
	var buf bytes.Buffer
	buf.WriteString(kind)
	buf.WriteByte('\n')
	for i := 0; i+1 < len(fields); i += 2 {
		fmt.Fprintf(&buf, "%s: %s\n", fields[i], fields[i+1])
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}
