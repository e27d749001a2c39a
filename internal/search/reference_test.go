package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// refPage is the reference implementation's pending db-page: everything
// about it held eagerly, in one place.
type refPage struct {
	members []fragindex.FragRef
	weights []int64
	gkey    string
	lo, hi  int
	seed    fragindex.FragRef
	occ     []int64
	size    int64
	score   float64
}

// refLess is the queue order the engine documents on candLess, spelled out
// over whole pages.
func refLess(a, b *refPage) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.size != b.size {
		return a.size < b.size
	}
	if a.gkey != b.gkey {
		return a.gkey < b.gkey
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.hi < b.hi
}

func refWeighted(occ []int64, idf []float64) float64 {
	var sum float64
	for i, n := range occ {
		sum += float64(n) * idf[i]
	}
	return sum
}

func refScore(occ []int64, size int64, idf []float64) float64 {
	if size == 0 {
		return 0
	}
	return refWeighted(occ, idf) / float64(size)
}

// refSearch is a deliberately naive Algorithm 1 — maps for every lookup, a
// slice scanned linearly for the queue's head, group paths fetched eagerly
// for every seed — that shares no scoring-core code with the engine (only
// keyword normalisation and the canonical result order). It answers valid
// requests on engines without an application.
func refSearch(t *testing.T, snap *fragindex.Snapshot, req Request) []Result {
	t.Helper()
	kws := normalizeKeywords(nil, req.Keywords)
	idf := make([]float64, len(kws))
	seedOcc := map[fragindex.FragRef][]int64{}
	for i, w := range kws {
		idf[i] = snap.IDF(w)
		ps := slices.Clone(snap.Postings(w))
		if req.CandidateLimit > 0 && len(ps) > req.CandidateLimit {
			id := func(ref fragindex.FragRef) fragment.ID {
				m, err := snap.Meta(ref)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				return m.ID
			}
			sort.SliceStable(ps, func(a, b int) bool {
				if ps[a].TF != ps[b].TF {
					return ps[a].TF > ps[b].TF
				}
				return id(ps[a].Frag).Compare(id(ps[b].Frag)) < 0
			})
			ps = ps[:req.CandidateLimit]
		}
		for _, p := range ps {
			if seedOcc[p.Frag] == nil {
				seedOcc[p.Frag] = make([]int64, len(kws))
			}
			seedOcc[p.Frag][i] += p.TF
		}
	}

	var queue []*refPage
	for ref, occ := range seedOcc {
		members, weights, gkey, pos, err := snap.GroupPath(ref)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		p := &refPage{members: members, weights: weights, gkey: gkey, lo: pos, hi: pos,
			seed: ref, occ: slices.Clone(occ), size: weights[pos]}
		p.score = refScore(p.occ, p.size, idf)
		queue = append(queue, p)
	}

	gain := func(ref fragindex.FragRef) float64 { return refWeighted(seedOcc[ref], idf) }
	consumed := map[fragindex.FragRef]bool{}
	used := map[fragindex.FragRef]bool{}
	seen := map[[2]fragindex.FragRef]bool{}
	var out []Result
	for len(queue) > 0 && len(out) < req.K {
		best := 0
		for i := range queue {
			if refLess(queue[i], queue[best]) {
				best = i
			}
		}
		p := queue[best]
		queue = slices.Delete(queue, best, best+1)
		if p.lo == p.hi && consumed[p.seed] {
			continue
		}
		if p.size < int64(req.SizeThreshold) && (p.lo > 0 || p.hi < len(p.members)-1) {
			// Best neighbour: highest gain, then smaller weight, then left.
			left := p.lo > 0
			if p.hi < len(p.members)-1 && left {
				gl, gr := gain(p.members[p.lo-1]), gain(p.members[p.hi+1])
				wl, wr := p.weights[p.lo-1], p.weights[p.hi+1]
				left = !(gr > gl || (gr == gl && wr < wl))
			}
			at := p.hi + 1
			if left {
				at = p.lo - 1
			}
			p.lo, p.hi = min(p.lo, at), max(p.hi, at)
			p.size += p.weights[at]
			if occ, ok := seedOcc[p.members[at]]; ok {
				for i := range p.occ {
					p.occ[i] += occ[i]
				}
				consumed[p.members[at]] = true
			}
			p.score = refScore(p.occ, p.size, idf)
			queue = append(queue, p)
			continue
		}
		page := p.members[p.lo : p.hi+1]
		sig := [2]fragindex.FragRef{page[0], page[len(page)-1]}
		if seen[sig] {
			continue
		}
		seen[sig] = true
		if req.RequireAll && slices.Contains(p.occ, 0) {
			continue
		}
		if !req.AllowOverlap {
			if slices.ContainsFunc(page, func(ref fragindex.FragRef) bool { return used[ref] }) {
				continue
			}
			for _, ref := range page {
				used[ref] = true
			}
		}
		res := Result{Score: p.score, Fragments: slices.Clone(page), Size: p.size, EqKey: p.gkey}
		var err error
		if res.EqValues, err = snap.EqValues(page[0]); err != nil {
			t.Fatalf("reference: %v", err)
		}
		if res.RangeLo, err = snap.RangeValue(page[0]); err != nil {
			t.Fatalf("reference: %v", err)
		}
		if res.RangeHi, err = snap.RangeValue(page[len(page)-1]); err != nil {
			t.Fatalf("reference: %v", err)
		}
		out = append(out, res)
	}
	sort.SliceStable(out, func(i, j int) bool { return compareResults(&out[i], &out[j]) < 0 })
	return out
}

// tieSpec adds a third selection attribute beside the equality and range
// attributes, so one group can hold several fragments with the same range
// value — distinct pages that share a parameter box.
var tieSpec = fragindex.Spec{SelAttrs: []string{"g", "v", "x"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

var tieVocab = []string{"ale", "bun", "cod", "dip"}

// tieFragment draws a fragment of a tie-heavy corpus: TF 1 or 2 on each of
// a few keywords, the same total size for every fragment, range values from
// a small set (duplicates within a group are common).
func tieFragment(r *rand.Rand, groups int, serial int) corpusChange {
	counts := make(map[string]int64)
	for _, kw := range tieVocab {
		if r.Intn(2) == 0 {
			counts[kw] = int64(1 + r.Intn(2))
		}
	}
	return corpusChange{
		id: fragment.ID{
			relation.String(fmt.Sprintf("g%02d", r.Intn(groups))),
			relation.Int(int64(r.Intn(6))),
			relation.Int(int64(serial)),
		},
		counts: counts,
		total:  8,
	}
}

func tieRequest(r *rand.Rand) Request {
	req := Request{
		K:              []int{1, 3, 10, 1000}[r.Intn(4)],
		SizeThreshold:  []int{1, 8, 20, 60, 10000}[r.Intn(5)],
		CandidateLimit: []int{0, 0, 3, 10}[r.Intn(4)],
		RequireAll:     r.Intn(3) == 0,
		AllowOverlap:   r.Intn(3) == 0,
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		req.Keywords = append(req.Keywords, tieVocab[r.Intn(len(tieVocab))])
	}
	return req
}

// checkAgainstReference runs req on the engine, pinned to snap, and on the
// reference, and requires deeply equal answers; afterwards the scratch the
// engine retained must be fully un-set.
func checkAgainstReference(t *testing.T, e *Engine, snap *fragindex.Snapshot, req Request, when string) {
	t.Helper()
	got, err := e.SearchSnapshot(context.Background(), snap, req)
	if err != nil {
		t.Fatalf("%s: %+v: %v", when, req, err)
	}
	want := refSearch(t, snap, req)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: %+v: engine and reference disagree\n engine    %+v\n reference %+v", when, req, got, want)
	}
	checkScratchClean(t, &e.core, when)
}

// retainedScratch returns the one scratch on the engine's free list without
// taking it off: the next search on this goroutine borrows exactly it.
func retainedScratch(t *testing.T, e *core, when string) *searchScratch {
	t.Helper()
	select {
	case s := <-e.free:
		e.free <- s
		return s
	default:
		t.Fatalf("%s: no scratch was retained", when)
		return nil
	}
}

// checkScratchClean inspects the scratch the last search returned to the
// engine's free list (either engine's): no global dense-table entry may
// still be set, no seed may still be queued or pending, the seed arena must
// be zero through its whole capacity, and nothing may still point into a
// snapshot — neither the pinned set, nor a posting list, nor a tie band's
// identifiers, nor a group path.
func checkScratchClean(t *testing.T, e *core, when string) {
	t.Helper()
	s := retainedScratch(t, e, when)
	for ref, ord := range s.ordOf {
		if ord != 0 {
			t.Fatalf("%s: stale ordOf[%d] = %d", when, ref, ord)
		}
	}
	for ref, u := range s.used {
		if u {
			t.Fatalf("%s: stale used[%d]", when, ref)
		}
	}
	if s.err != nil || len(s.refs)+len(s.usedRefs)+len(s.seen) != 0 {
		t.Fatalf("%s: released scratch still holds query state", when)
	}
	if len(s.snaps)+len(s.base)+len(s.lists)+len(s.band) != 0 {
		t.Fatalf("%s: released scratch still holds a pinned set", when)
	}
	for _, snap := range s.snaps[:cap(s.snaps)] {
		if snap != nil {
			t.Fatalf("%s: released scratch still points to a pinned snapshot", when)
		}
	}
	for _, ps := range s.lists[:cap(s.lists)] {
		if ps != nil {
			t.Fatalf("%s: released scratch still points to a posting list", when)
		}
	}
	for _, b := range s.band[:cap(s.band)] {
		if b.id != nil {
			t.Fatalf("%s: released scratch still points to a band identifier", when)
		}
	}
	if len(s.pending)+len(s.heap)+s.queued != 0 {
		t.Fatalf("%s: released scratch still holds %d seeds bucketed (%d queued), %d heaped",
			when, len(s.pending), s.queued, len(s.heap))
	}
	if len(s.seedOcc) != 0 {
		t.Fatalf("%s: released scratch still holds %d seed occurrences", when, len(s.seedOcc))
	}
	for i, n := range s.seedOcc[:cap(s.seedOcc)] {
		if n != 0 {
			t.Fatalf("%s: seed arena not zero past its length: [%d] = %d", when, i, n)
		}
	}
	for _, c := range s.cands[:cap(s.cands)] {
		if c.members != nil || c.weights != nil || c.gkey != "" {
			t.Fatalf("%s: released scratch still points into a snapshot", when)
		}
	}
}

// TestReferenceTieHeavy compares the engine with the naive reference on
// random tie-heavy corpora: TF in {1,2}, equal fragment sizes, duplicate
// range values, several equality groups — so exact (score, size) ties, the
// content tie-break, page dedup and overlap exclusion all decide answers.
func TestReferenceTieHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		idx, err := fragindex.New(tieSpec)
		if err != nil {
			t.Fatal(err)
		}
		groups := 2 + r.Intn(5)
		for i, n := 0, 20+r.Intn(100); i < n; i++ {
			ch := tieFragment(r, groups, i)
			if _, err := idx.InsertFragment(ch.id, ch.counts, ch.total); err != nil {
				t.Fatal(err)
			}
		}
		e := New(idx, nil)
		for q := 0; q < 60; q++ {
			checkAgainstReference(t, e, idx.Snapshot(), tieRequest(r), fmt.Sprintf("trial %d query %d", trial, q))
		}
	}
}

// TestReferenceScratchReuse drives one Engine — and so one retained scratch
// — across snapshots whose ref space grows (and whose fragments come and
// go) between queries, interleaved with searches that end early: cancelled
// during seeding, cancelled mid-assembly with pages already accepted, no
// relevant fragments, an invalid request. Every following answer must
// still equal the reference's, and the scratch must come back un-set.
func TestReferenceScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	idx, err := fragindex.New(tieSpec)
	if err != nil {
		t.Fatal(err)
	}
	e := New(idx, nil)
	var live []fragment.ID
	var snaps []*fragindex.Snapshot
	serial := 0
	for round := 0; round < 14; round++ {
		// Grow by about a third (past the tables' headroom every round or
		// two), then remove a few fragments.
		for n := 6 + len(live)/3; n > 0; n-- {
			ch := tieFragment(r, 2+round/3, serial)
			serial++
			if _, err := idx.InsertFragment(ch.id, ch.counts, ch.total); err != nil {
				t.Fatal(err)
			}
			live = append(live, ch.id)
		}
		for n := r.Intn(4); n > 0 && len(live) > 1; n-- {
			i := r.Intn(len(live))
			if err := idx.RemoveFragment(live[i]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, i, i+1)
		}
		snap := idx.Freeze()
		snaps = append(snaps, snap)
		when := fmt.Sprintf("round %d (%d refs)", round, snap.NumRefs())

		for q := 0; q < 6; q++ {
			checkAgainstReference(t, e, snap, tieRequest(r), when)
		}
		// An older, smaller snapshot through the same, now larger, tables.
		checkAgainstReference(t, e, snaps[r.Intn(len(snaps))], tieRequest(r), when+" old snapshot")

		// Cancelled after the first keyword was seeded (polls: entry, then
		// one per keyword).
		req := tieRequest(r)
		req.Keywords = []string{"ale", "bun"}
		if _, err := e.SearchSnapshot(newErrAfter(2), snap, req); !errors.Is(err, errDeadline) {
			t.Fatalf("%s: seeding cancel: err = %v", when, err)
		}
		checkScratchClean(t, &e.core, when+" after seeding cancel")
		checkAgainstReference(t, e, snap, tieRequest(r), when+" after seeding cancel")

		// No relevant fragments, then an invalid request.
		if res, err := e.SearchSnapshot(context.Background(), snap, Request{Keywords: []string{"zzz"}, K: 3, SizeThreshold: 20}); err != nil || len(res) != 0 {
			t.Fatalf("%s: absent keyword: %v, %v", when, res, err)
		}
		checkScratchClean(t, &e.core, when+" after empty answer")
		checkAgainstReference(t, e, snap, tieRequest(r), when+" after empty answer")
		if _, err := e.SearchSnapshot(context.Background(), snap, Request{Keywords: []string{"ale"}}); !errors.Is(err, ErrBadK) {
			t.Fatalf("%s: K=0: err = %v", when, err)
		}
		checkAgainstReference(t, e, snap, tieRequest(r), when+" after invalid request")
	}
	if first, last := snaps[0].NumRefs(), snaps[len(snaps)-1].NumRefs(); last < 20*first {
		t.Fatalf("ref space grew only %d -> %d", first, last)
	}
}

// TestReferenceAfterMidAssemblyCancel cancels a search at its first
// assembly-loop poll — ctxCheckInterval queue visits in, hundreds of pages
// accepted and their fragments marked used — and requires the next answers
// from the same engine to equal the reference's.
func TestReferenceAfterMidAssemblyCancel(t *testing.T) {
	e, req := bigExpansionEngine(t, 1500)
	req.AllowOverlap = false
	req.SizeThreshold = 4 // two-fragment pages: accepted from the first visits on
	snap := e.Snapshot()

	// Polls: Search entry, searchSnapshot entry, one keyword, then the loop.
	if _, err := e.Search(newErrAfter(3), req); !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want the simulated deadline", err)
	}
	checkScratchClean(t, &e.core, "after mid-assembly cancel")
	for _, s := range []int{4, 6, 1} {
		req.SizeThreshold = s
		checkAgainstReference(t, e, snap, req, fmt.Sprintf("s=%d after mid-assembly cancel", s))
	}
}

// spreadEngine indexes one group of fragments that all carry "kw" once but
// differ in size (2 … 98 keywords), so seed scores spread over five binades
// and dozens of score buckets.
func spreadEngine(t *testing.T, members int) *Engine {
	t.Helper()
	idx, err := fragindex.New(corpusSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if _, err := idx.InsertFragment(id, map[string]int64{"kw": 1}, int64(2+i*31%97)); err != nil {
			t.Fatal(err)
		}
	}
	return New(idx, nil)
}

// TestReferenceEveryBucketDrains asks for more results than there are
// pages, so K is never reached and every score bucket must be queued before
// the search may end — while the heap runs empty between buckets (at s = 1
// nothing expands: the head beats the next bucket until it is popped).
func TestReferenceEveryBucketDrains(t *testing.T) {
	e := spreadEngine(t, 400)
	snap := e.Snapshot()
	all := Request{Keywords: []string{"kw"}, K: 1 << 30, SizeThreshold: 1, AllowOverlap: true}
	got, err := e.SearchSnapshot(context.Background(), snap, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("%d results, want one single-fragment page per seed (400)", len(got))
	}
	checkAgainstReference(t, e, snap, all, "one page per seed")

	r := rand.New(rand.NewSource(73))
	idx := buildFrom(t, randomCorpus(r, 12, 40))
	e = New(idx, nil)
	for q := 0; q < 40; q++ {
		req := tieRequest(r)
		req.K = 1 << 30
		req.Keywords = req.Keywords[:0]
		for n := 1 + r.Intn(3); n > 0; n-- {
			req.Keywords = append(req.Keywords, corpusVocab[r.Intn(len(corpusVocab))])
		}
		checkAgainstReference(t, e, idx.Snapshot(), req, fmt.Sprintf("unreachable K, query %d", q))
	}
}

// cancelProbe is a context whose Err() fails from the given poll on and, at
// the first failing poll, records how much of a scratch's queue had been
// built and consumed.
type cancelProbe struct {
	context.Context
	polls, failAt   int
	s               *searchScratch
	pending, heaped int
}

func (c *cancelProbe) Err() error {
	c.polls++
	if c.polls < c.failAt {
		return nil
	}
	if c.polls == c.failAt {
		c.pending, c.heaped = len(c.s.pending)-c.s.queued, len(c.s.heap)
	}
	return errDeadline
}

// TestReferenceAfterMidRefillCancel cancels a search at its first
// assembly-loop poll while most score buckets are still pending, and
// requires the scratch to come back empty and the next answers to equal
// the reference's.
func TestReferenceAfterMidRefillCancel(t *testing.T) {
	e := spreadEngine(t, 3000)
	snap := e.Snapshot()
	req := Request{Keywords: []string{"kw"}, K: 1 << 30, SizeThreshold: 1}
	checkAgainstReference(t, e, snap, req, "warm-up")

	// Polls: Search entry, searchSnapshot entry, one keyword, then the loop.
	probe := &cancelProbe{Context: context.Background(), failAt: 4, s: retainedScratch(t, &e.core, "warm-up")}
	if _, err := e.Search(probe, req); !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want the simulated deadline", err)
	}
	if probe.pending < 1000 || probe.heaped == 0 {
		t.Fatalf("cancelled with %d seeds pending and %d heaped, want a part-built queue", probe.pending, probe.heaped)
	}
	checkScratchClean(t, &e.core, "after mid-refill cancel")
	for _, s := range []int{1, 40, 300} {
		req.SizeThreshold = s
		checkAgainstReference(t, e, snap, req, fmt.Sprintf("s=%d after mid-refill cancel", s))
	}
}

// TestShardedScratchHygiene runs the scratch checks over a pinned shard
// set: after a normal sharded search, a mid-assembly cancel and a seeding
// cancel, the retained scratch holds no global table entry and no pointer
// into the pinned set, and the next answers still equal the single
// index's.
func TestShardedScratchHygiene(t *testing.T) {
	// 60 groups of 30 members, every member carrying "kw" and "ale": two-
	// fragment pages are accepted from the first visits on, and the loop
	// crosses the ctx poll interval.
	var changes []corpusChange
	for g := 0; g < 60; g++ {
		for v := 0; v < 30; v++ {
			changes = append(changes, corpusChange{
				id:     fragment.ID{relation.String(fmt.Sprintf("g%03d", g)), relation.Int(int64(v))},
				counts: map[string]int64{"kw": 1, "ale": int64(1 + (g+v)%3)},
				total:  2 + int64(v%4),
			})
		}
	}
	single := New(buildFrom(t, changes), nil)
	live, err := fragindex.NewShardedLive(buildFrom(t, changes), 4)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)
	check := func(req Request, when string) {
		t.Helper()
		want, err := single.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if d := diffResults(want, got); d != "" {
			t.Fatalf("%s: %+v: sharded diverges: %s", when, req, d)
		}
		checkScratchClean(t, &se.core, when)
	}
	req := Request{Keywords: []string{"kw"}, K: 1 << 20, SizeThreshold: 4}
	check(req, "normal search")
	check(Request{Keywords: []string{"kw", "ale"}, K: 7, SizeThreshold: 6, CandidateLimit: 50}, "truncated band")

	// Polls: Search entry, the core's entry, one keyword, then the loop.
	if _, err := se.Search(newErrAfter(3), req); !errors.Is(err, errDeadline) {
		t.Fatalf("mid-assembly cancel: err = %v", err)
	}
	checkScratchClean(t, &se.core, "after mid-assembly cancel")
	check(req, "after mid-assembly cancel")

	// Polls: the core's entry, the first keyword, then the second fails.
	req.Keywords = []string{"ale", "kw"}
	if _, err := se.SearchPinned(newErrAfter(2), se.Pin(), req); !errors.Is(err, errDeadline) {
		t.Fatalf("seeding cancel: err = %v", err)
	}
	checkScratchClean(t, &se.core, "after seeding cancel")
	check(req, "after seeding cancel")
}

// TestShardedSameLocalRefs: every shard numbers its refs from 0, so pages
// in different shards share local (lo, hi) refs. Both must be emitted — a
// dedup or overlap table keyed by local refs would drop one.
func TestShardedSameLocalRefs(t *testing.T) {
	var changes []corpusChange
	for g := 0; g < 8; g++ {
		changes = append(changes, corpusChange{
			id:     fragment.ID{relation.String(fmt.Sprintf("g%03d", g)), relation.Int(0)},
			counts: map[string]int64{"w": 1},
			total:  2,
		})
	}
	live, err := fragindex.NewShardedLive(buildFrom(t, changes), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if live.Shard(i).Snapshot().NumFragments() == 0 {
			t.Fatalf("shard %d is empty: no two pages share local refs", i)
		}
	}
	for _, overlap := range []bool{false, true} {
		got, err := NewSharded(live, nil).Search(context.Background(),
			Request{Keywords: []string{"w"}, K: 8, SizeThreshold: 1, AllowOverlap: overlap})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(changes) {
			t.Fatalf("overlap=%t: %d results, want one page per fragment (%d)", overlap, len(got), len(changes))
		}
	}
}
