package main

// gen.go synthesises every input the servers receive — search queries and
// index deltas — from the crawled corpus itself and a seed (Endrullis et
// al., "Evaluation of Query Generators for Entity Search Engines"): equal
// seeds give byte-identical streams, and the servers only ever see what
// these generators emit.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/internal/search"
)

// Search parameters every generated request carries (k and s of the
// paper's Table I mid-grid).
const (
	searchK = 10
	searchS = 200
)

// fragTerms is one crawled fragment: its identifier and keyword
// statistics, terms in lexical order.
type fragTerms struct {
	id    fragment.ID
	terms []string
	tfs   []int64
	total int64 // the fragment's keyword count (crawl.Output.FragmentTerms)
}

// corpus is what the generators draw from, in fragment-key order so a
// draw depends only on the seed.
type corpus struct {
	frags []fragTerms
}

func newCorpus(out *crawl.Output) (*corpus, error) {
	byKey := make(map[string]*fragTerms, len(out.FragmentTerms))
	keys := make([]string, 0, len(out.FragmentTerms))
	for key, total := range out.FragmentTerms {
		id, err := fragment.ParseID(key)
		if err != nil {
			return nil, fmt.Errorf("corpus: fragment key %q: %w", key, err)
		}
		byKey[key] = &fragTerms{id: id, total: total}
		keys = append(keys, key)
	}
	kws := make([]string, 0, len(out.Inverted))
	for kw := range out.Inverted {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	for _, kw := range kws {
		for _, p := range out.Inverted[kw] {
			ft, ok := byKey[p.FragKey]
			if !ok {
				return nil, fmt.Errorf("corpus: posting of %q names unknown fragment %q", kw, p.FragKey)
			}
			ft.terms = append(ft.terms, kw)
			ft.tfs = append(ft.tfs, p.TF)
		}
	}
	sort.Strings(keys)
	c := &corpus{frags: make([]fragTerms, 0, len(keys))}
	for _, key := range keys {
		if ft := byKey[key]; len(ft.terms) > 0 {
			c.frags = append(c.frags, *ft)
		}
	}
	if len(c.frags) == 0 {
		return nil, fmt.Errorf("corpus: crawl output has no indexed fragments")
	}
	return c, nil
}

// drawKeywords picks one fragment uniformly and 1, 2 or 3 (50/35/15 %) of
// its distinct keywords weighted by term frequency, so popular terms
// recur as they would in user queries and every query has an answer.
func (c *corpus) drawKeywords(rng *rand.Rand) []string {
	ft := &c.frags[rng.Intn(len(c.frags))]
	n := 1
	switch p := rng.Float64(); {
	case p >= 0.85:
		n = 3
	case p >= 0.50:
		n = 2
	}
	if n > len(ft.terms) {
		n = len(ft.terms)
	}
	picked := make([]int, 0, n)
	for len(picked) < n {
		var sum int64
		for i, tf := range ft.tfs {
			if !slices.Contains(picked, i) {
				sum += tf
			}
		}
		r := rng.Int63n(sum)
		for i, tf := range ft.tfs {
			if slices.Contains(picked, i) {
				continue
			}
			if r < tf {
				picked = append(picked, i)
				break
			}
			r -= tf
		}
	}
	out := make([]string, n)
	for i, ti := range picked {
		out[i] = ft.terms[ti]
	}
	return out
}

// canonicalQuery is the request identity the server's result cache keys
// on (search.NormalizeRequest): two queries with equal canonical forms
// share a cache entry at one epoch.
func canonicalQuery(keywords []string) string {
	return strings.Join(search.NormalizeRequest(search.Request{Keywords: keywords}).Keywords, " ")
}

// distinctStream is the search_uncached generator: an unbounded sequence
// of canonically distinct queries, each emitted once, so the server's
// result cache misses every time.
type distinctStream struct {
	c    *corpus
	rng  *rand.Rand
	seen map[string]struct{}
}

func newDistinctStream(c *corpus, seed int64) *distinctStream {
	return &distinctStream{c: c, rng: rand.New(rand.NewSource(seed)), seen: make(map[string]struct{})}
}

// next returns the next query as the q= parameter value.
func (s *distinctStream) next() string {
	for {
		kws := s.c.drawKeywords(s.rng)
		canon := canonicalQuery(kws)
		if _, dup := s.seen[canon]; dup {
			continue
		}
		s.seen[canon] = struct{}{}
		return strings.Join(kws, " ")
	}
}

// queryPool is the fixed set of distinct queries search_zipf_hot (and the
// write_durable reader) draw from; rank 0 is the most popular.
func queryPool(c *corpus, seed int64, n int) []string {
	s := newDistinctStream(c, seed)
	pool := make([]string, n)
	for i := range pool {
		pool[i] = s.next()
	}
	return pool
}

// zipfDraws yields pool ranks with Zipf(s) popularity.
type zipfDraws struct {
	z *rand.Zipf
}

func newZipfDraws(seed int64, s float64, n int) *zipfDraws {
	return &zipfDraws{z: rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))}
}

func (z *zipfDraws) next() int { return int(z.z.Uint64()) }

// changeJSON and applyBody mirror dashserve's /v1/admin/apply request
// shape.
type changeJSON struct {
	Op    string           `json:"op"`
	ID    []string         `json:"id"`
	Terms map[string]int64 `json:"terms,omitempty"`
	Total int64            `json:"total,omitempty"`
}

type applyBody struct {
	Changes []changeJSON `json:"changes,omitempty"`
	Recrawl [][]string   `json:"recrawl,omitempty"`
}

// applyOp is one generated maintenance request: the wire body plus the
// typed form the reference index replays.
type applyOp struct {
	body    applyBody
	delta   crawl.Delta   // explicit changes (empty for a recrawl request)
	recrawl []fragment.ID // partitions to re-derive (empty for explicit changes)
}

// changes is how many fragment changes the request carries.
func (op *applyOp) changes() int { return len(op.delta.Changes) + len(op.recrawl) }

// deltaGen emits the write workloads' maintenance stream. Updates rewrite
// an existing fragment with the keyword statistics of another (a row's
// text changed); inserts add fragments under customer keys past the
// generated range; removes delete earlier inserts; recrawl requests name
// fragments updated earlier, which the server re-derives from its
// unchanged database — a real update back to the crawled content.
type deltaGen struct {
	c        *corpus
	rng      *rand.Rand
	perBatch int
	// recrawlEvery makes every n-th request a recrawl of recrawlIDs
	// fragments; 0 emits explicit changes only.
	recrawlEvery, recrawlIDs int
	requests                 int
	inserted                 []fragment.ID
	nextCust                 int64
	updated                  []int // corpus indices updated since their last recrawl
	isUpdated                map[int]bool
}

func newDeltaGen(c *corpus, seed int64, perBatch, recrawlEvery, recrawlIDs int) *deltaGen {
	return &deltaGen{
		c: c, rng: rand.New(rand.NewSource(seed)), perBatch: perBatch,
		recrawlEvery: recrawlEvery, recrawlIDs: recrawlIDs,
		nextCust: 1 << 40, isUpdated: make(map[int]bool),
	}
}

func idStrings(id fragment.ID) []string {
	out := make([]string, len(id))
	for i, v := range id {
		out[i] = v.Text()
	}
	return out
}

func (g *deltaGen) next() *applyOp {
	g.requests++
	if g.recrawlEvery > 0 && g.requests%g.recrawlEvery == 0 && len(g.updated) >= g.recrawlIDs {
		return g.nextRecrawl()
	}
	op := &applyOp{}
	touched := make(map[int]bool, g.perBatch) // corpus indices in this batch
	for len(op.delta.Changes) < g.perBatch {
		donor := &g.c.frags[g.rng.Intn(len(g.c.frags))]
		p := g.rng.Float64()
		var ch crawl.FragmentChange
		switch {
		case p < 0.15 && len(g.inserted) > 0:
			k := g.rng.Intn(len(g.inserted))
			ch = crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: g.inserted[k]}
			g.inserted[k] = g.inserted[len(g.inserted)-1]
			g.inserted = g.inserted[:len(g.inserted)-1]
		case p < 0.30:
			// A fresh customer key, so the new fragment never collides
			// with a crawled one; the range attribute is borrowed from
			// the donor so it stays in the column's domain.
			id := append(fragment.ID(nil), donor.id...)
			id[0] = relation.Int(g.nextCust)
			g.nextCust++
			ch = crawl.FragmentChange{Op: crawl.OpInsertFragment, ID: id}
		default:
			ti := g.rng.Intn(len(g.c.frags))
			if touched[ti] {
				continue
			}
			touched[ti] = true
			if !g.isUpdated[ti] {
				g.isUpdated[ti] = true
				g.updated = append(g.updated, ti)
			}
			ch = crawl.FragmentChange{Op: crawl.OpUpdateFragment, ID: g.c.frags[ti].id}
		}
		cj := changeJSON{Op: ch.Op.String(), ID: idStrings(ch.ID)}
		if ch.Op != crawl.OpRemoveFragment {
			ch.TermCounts = make(map[string]int64, len(donor.terms))
			for i, t := range donor.terms {
				ch.TermCounts[t] = donor.tfs[i]
			}
			ch.TotalTerms = donor.total
			cj.Terms, cj.Total = ch.TermCounts, ch.TotalTerms
		}
		op.delta.Changes = append(op.delta.Changes, ch)
		op.body.Changes = append(op.body.Changes, cj)
	}
	// Inserts become removable only once their batch is out, so a batch
	// never names one fragment twice.
	for _, ch := range op.delta.Changes {
		if ch.Op == crawl.OpInsertFragment {
			g.inserted = append(g.inserted, ch.ID)
		}
	}
	return op
}

func (g *deltaGen) nextRecrawl() *applyOp {
	op := &applyOp{}
	for i := 0; i < g.recrawlIDs; i++ {
		k := g.rng.Intn(len(g.updated))
		ti := g.updated[k]
		g.updated[k] = g.updated[len(g.updated)-1]
		g.updated = g.updated[:len(g.updated)-1]
		delete(g.isUpdated, ti)
		id := g.c.frags[ti].id
		op.recrawl = append(op.recrawl, id)
		op.body.Recrawl = append(op.body.Recrawl, idStrings(id))
	}
	return op
}
