package workload

import (
	"fmt"
	"math/rand"
)

// maxActive bounds how many items (articles, threads, posts) a generator
// keeps revisable text for, so trace memory stays constant regardless of
// trace length. Retired items stop receiving updates — like real corpora,
// where old articles and threads go quiet.
const maxActive = 512

// ---------------------------------------------------------------- Wikipedia

type wikiArticle struct {
	id     int
	revs   int
	latest []byte
}

type wikiGen struct {
	articles []*wikiArticle // active set, most recently updated last
	nextID   int
	users    []string
}

func newWikiGen(rng *rand.Rand) *wikiGen {
	g := &wikiGen{}
	for i := 0; i < 64; i++ {
		g.users = append(g.users, fmt.Sprintf("user%04d", rng.Intn(10000)))
	}
	return g
}

func (g *wikiGen) nextInsert(t *Trace) (Op, []Op) {
	rng := t.rng
	var a *wikiArticle
	if len(g.articles) == 0 || rng.Float64() < 0.04 {
		// New article.
		a = &wikiArticle{id: g.nextID, latest: prose(rng, lognormalSize(rng, 3000, 1.1, 256, 256<<10))}
		g.nextID++
		g.articles = append(g.articles, a)
		if len(g.articles) > maxActive {
			g.articles = g.articles[1:]
		}
	} else {
		// Revise a recently active article (temporal locality): strong
		// bias to the most recently updated.
		idx := len(g.articles) - 1 - zipfChoice(rng, len(g.articles))
		a = g.articles[idx]
		// Articles mostly grow: edits plus occasional new sections.
		body := editProse(rng, a.latest, 1+rng.Intn(4))
		if rng.Float64() < 0.5 {
			body = append(body, prose(rng, 64+rng.Intn(512))...)
		}
		a.latest = body
		a.revs++
		// Move to most-recently-updated position.
		g.articles = append(append(g.articles[:idx:idx], g.articles[idx+1:]...), a)
	}

	hdr := header("wikirev",
		"article", fmt.Sprintf("a%06d", a.id),
		"revision", fmt.Sprintf("%d", a.revs),
		"user", g.users[rng.Intn(len(g.users))],
		"comment", string(prose(rng, 24+rng.Intn(48))),
	)
	payload := append(hdr, a.latest...)
	ins := Op{Kind: OpInsert, DB: t.DB(), Key: wikiKey(a.id, a.revs), Payload: payload}

	// Read mix: 99.9:0.1 R/W; 99.7% of reads go to the latest revision
	// of a (popularity-skewed) article, the rest to a specific older
	// revision (paper §5.1). We attach the mix's reads to each insert.
	var reads []Op
	if t.cfg.Reads {
		t.readDebt += 999 // 99.9 : 0.1
		n := int(t.readDebt)
		t.readDebt -= float64(n)
		for i := 0; i < n; i++ {
			ra := g.articles[len(g.articles)-1-zipfChoice(rng, len(g.articles))]
			rev := ra.revs
			if rng.Float64() >= 0.997 && ra.revs > 0 {
				rev = rng.Intn(ra.revs + 1) // time-travel read
			}
			reads = append(reads, Op{Kind: OpRead, DB: t.DB(), Key: wikiKey(ra.id, rev)})
		}
	}
	return ins, reads
}

func wikiKey(article, rev int) string {
	return fmt.Sprintf("a%06d/r%05d", article, rev)
}

// -------------------------------------------------------------------- Enron

type mailThread struct {
	id       int
	msgs     int
	lastBody []byte
}

type mailGen struct {
	threads []*mailThread
	nextID  int
	users   []string
}

func newMailGen(rng *rand.Rand) *mailGen {
	g := &mailGen{}
	for i := 0; i < 150; i++ { // ~150 mailboxes, like the corpus
		g.users = append(g.users, fmt.Sprintf("employee%03d@corp", i))
	}
	return g
}

// maxQuoted bounds how much of the previous message a reply quotes, like
// clients that truncate deep quote pyramids.
const maxQuoted = 16 << 10

func (g *mailGen) nextInsert(t *Trace) (Op, []Op) {
	rng := t.rng
	var th *mailThread
	var body []byte
	if len(g.threads) == 0 || rng.Float64() < 0.18 {
		th = &mailThread{id: g.nextID}
		g.nextID++
		g.threads = append(g.threads, th)
		if len(g.threads) > maxActive {
			g.threads = g.threads[1:]
		}
		body = prose(rng, lognormalSize(rng, 900, 1.0, 120, 64<<10))
	} else {
		idx := len(g.threads) - 1 - zipfChoice(rng, len(g.threads))
		th = g.threads[idx]
		g.threads = append(append(g.threads[:idx:idx], g.threads[idx+1:]...), th)
		fresh := prose(rng, lognormalSize(rng, 500, 0.9, 80, 16<<10))
		prev := th.lastBody
		if len(prev) > maxQuoted {
			prev = prev[:maxQuoted]
		}
		if rng.Float64() < 0.75 {
			// Reply: new text above the quoted previous message.
			body = append(append(fresh, '\n'), quote(prev)...)
		} else {
			// Forward: short note plus the previous body verbatim.
			body = append(append(fresh[:min(len(fresh), 200):min(len(fresh), 200)],
				[]byte("\n---------- Forwarded message ----------\n")...), prev...)
		}
	}
	th.msgs++
	th.lastBody = body

	from := g.users[rng.Intn(len(g.users))]
	to := g.users[rng.Intn(len(g.users))]
	hdr := header("email",
		"from", from,
		"to", to,
		"subject", fmt.Sprintf("Re: thread %d", th.id),
		"message-id", fmt.Sprintf("<t%d.m%d@corp>", th.id, th.msgs),
	)
	key := fmt.Sprintf("t%06d/m%04d", th.id, th.msgs)
	ins := Op{Kind: OpInsert, DB: t.DB(), Key: key, Payload: append(hdr, body...)}

	// 1:1 read-after-write (each delivered message is read once).
	var reads []Op
	if t.cfg.Reads {
		reads = []Op{{Kind: OpRead, DB: t.DB(), Key: key}}
	}
	return ins, reads
}

// ----------------------------------------------------------- Stack Exchange

type qaPost struct {
	key  string
	body []byte
	revs int
}

type qaGen struct {
	posts  []*qaPost // active set
	nextID int
}

func newQAGen(rng *rand.Rand) *qaGen { return &qaGen{} }

func (g *qaGen) nextInsert(t *Trace) (Op, []Op) {
	rng := t.rng
	var key string
	var body []byte
	switch {
	case len(g.posts) == 0 || rng.Float64() < 0.45:
		// New question or answer; answers sometimes copy chunks of
		// earlier posts from other threads (the dataset's second
		// duplication source).
		body = prose(rng, lognormalSize(rng, 700, 1.0, 100, 32<<10))
		if len(g.posts) > 0 && rng.Float64() < 0.30 {
			src := g.posts[rng.Intn(len(g.posts))]
			n := min(len(src.body), 200+rng.Intn(1200))
			body = append(body, src.body[:n]...)
		}
		key = fmt.Sprintf("p%07d/r0", g.nextID)
		g.posts = append(g.posts, &qaPost{key: key, body: body})
		g.nextID++
		if len(g.posts) > maxActive {
			g.posts = g.posts[1:]
		}
	default:
		// User revises their own post: a new record containing the
		// edited body (app-level versioning).
		idx := len(g.posts) - 1 - zipfChoice(rng, len(g.posts))
		p := g.posts[idx]
		p.body = editProse(rng, p.body, 1+rng.Intn(4))
		p.revs++
		body = p.body
		key = fmt.Sprintf("%s_rev%d", p.key[:len(p.key)-3], p.revs)
	}
	hdr := header("post",
		"user", fmt.Sprintf("u%05d", rng.Intn(40000)),
		"score", fmt.Sprintf("%d", rng.Intn(50)),
	)
	ins := Op{Kind: OpInsert, DB: t.DB(), Key: key, Payload: append(hdr, body...)}

	// 99.9:0.1 view-count-driven reads over (popularity-skewed) posts.
	var reads []Op
	if t.cfg.Reads {
		t.readDebt += 999
		n := int(t.readDebt)
		t.readDebt -= float64(n)
		for i := 0; i < n; i++ {
			p := g.posts[len(g.posts)-1-zipfChoice(rng, len(g.posts))]
			reads = append(reads, Op{Kind: OpRead, DB: t.DB(), Key: latestQAKey(p)})
		}
	}
	return ins, reads
}

func latestQAKey(p *qaPost) string {
	if p.revs == 0 {
		return p.key
	}
	return fmt.Sprintf("%s_rev%d", p.key[:len(p.key)-3], p.revs)
}

// ----------------------------------------------------------- Message Boards

type forumThread struct {
	id     int
	posts  []string // keys, in order
	recent [][]byte // bodies of the last few posts, for quoting
}

type forumGen struct {
	threads []*forumThread
	nextID  int
}

func newForumGen(rng *rand.Rand) *forumGen { return &forumGen{} }

func (g *forumGen) nextInsert(t *Trace) (Op, []Op) {
	rng := t.rng
	var th *forumThread
	if len(g.threads) == 0 || rng.Float64() < 0.12 {
		th = &forumThread{id: g.nextID}
		g.nextID++
		g.threads = append(g.threads, th)
		if len(g.threads) > maxActive {
			g.threads = g.threads[1:]
		}
	} else {
		idx := len(g.threads) - 1 - zipfChoice(rng, len(g.threads))
		th = g.threads[idx]
		g.threads = append(append(g.threads[:idx:idx], g.threads[idx+1:]...), th)
	}

	body := prose(rng, lognormalSize(rng, 400, 0.9, 64, 16<<10))
	if len(th.recent) > 0 && rng.Float64() < 0.65 {
		// Quote a recent post from the thread.
		q := th.recent[rng.Intn(len(th.recent))]
		if len(q) > 8<<10 {
			q = q[:8<<10]
		}
		body = append(quote(q), body...)
	}
	key := fmt.Sprintf("t%06d/p%04d", th.id, len(th.posts))
	th.posts = append(th.posts, key)
	th.recent = append(th.recent, body)
	if len(th.recent) > 4 {
		th.recent = th.recent[1:]
	}

	hdr := header("post",
		"forum", fmt.Sprintf("board%02d", th.id%17),
		"thread", fmt.Sprintf("%d", th.id),
		"user", fmt.Sprintf("member%05d", rng.Intn(30000)),
	)
	ins := Op{Kind: OpInsert, DB: t.DB(), Key: key, Payload: append(hdr, body...)}

	// Thread reads: each insertion triggers reads of all previous posts
	// in the thread, scaled by the thread's popularity (views/posts).
	var reads []Op
	if t.cfg.Reads {
		views := 1 + zipfChoice(rng, 8)
		for v := 0; v < views; v++ {
			for _, k := range th.posts {
				reads = append(reads, Op{Kind: OpRead, DB: t.DB(), Key: k})
			}
		}
	}
	return ins, reads
}
