package search

import (
	"context"
	"errors"
	"fmt"
	"math"
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
			seedOcc[p.Frag][i] += int64(p.TF)
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
// still be set, no seed may still be queued, the seed arena must be zero
// through its whole capacity, and nothing may still point into a snapshot
// — neither the pinned set, nor a posting cursor, nor a tie band's
// postings or identifiers, nor a group path.
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
	if s.err != nil || len(s.refs)+len(s.misses)+len(s.usedRefs)+len(s.seen) != 0 {
		t.Fatalf("%s: released scratch still holds query state", when)
	}
	if len(s.slotOf)+len(s.consumed) != 0 || s.work+s.postings+s.tabulated+s.probes+s.pushes != 0 {
		t.Fatalf("%s: released scratch still holds per-seed state or counts", when)
	}
	if len(s.snaps)+len(s.base)+len(s.curs)+len(s.band) != 0 {
		t.Fatalf("%s: released scratch still holds a pinned set", when)
	}
	for _, snap := range s.snaps[:cap(s.snaps)] {
		if snap != nil {
			t.Fatalf("%s: released scratch still points to a pinned snapshot", when)
		}
	}
	for _, c := range s.curs[:cap(s.curs)] {
		if !reflect.ValueOf(c).IsZero() {
			t.Fatalf("%s: released scratch still holds a posting cursor", when)
		}
	}
	for _, b := range s.band[:cap(s.band)] {
		if !reflect.ValueOf(b).IsZero() {
			t.Fatalf("%s: released scratch still holds a band entry", when)
		}
	}
	if len(s.heap)+len(s.deferred) != 0 || s.buckets != [numBuckets]int32{} || s.best != numBuckets {
		t.Fatalf("%s: released scratch still holds %d heaped and %d deferred seeds", when, len(s.heap), len(s.deferred))
	}
	if len(s.tabs) != 0 {
		t.Fatalf("%s: released scratch still holds TF tables", when)
	}
	if len(s.tabBufs) > maxTables {
		t.Fatalf("%s: released scratch keeps %d TF tables, want at most %d", when, len(s.tabBufs), maxTables)
	}
	for j, tab := range s.tabBufs {
		if i := slices.IndexFunc(tab, func(e uint64) bool { return uint32(e>>32) > s.stamp }); i >= 0 {
			t.Fatalf("%s: TF table %d carries a stamp past the scratch's at ref %d", when, j, i)
		}
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

// TestReferenceAfterMidAssemblyCancel cancels a search mid-assembly —
// every posting read (1 500 seeds tie on one score, so none is visited
// before the last is read), then hundreds of pages accepted and their
// fragments marked used — and requires the next answers from the same
// engine to equal the reference's.
func TestReferenceAfterMidAssemblyCancel(t *testing.T) {
	e, req := bigExpansionEngine(t, 1500)
	req.AllowOverlap = false
	req.SizeThreshold = 4 // two-fragment pages: accepted from the first visits on
	snap := e.Snapshot()
	checkAgainstReference(t, e, snap, req, "warm-up")

	// Polls: Search entry, searchSnapshot entry, one keyword, then one per
	// ctxCheckInterval postings read and visits. Every seed ties, so the smaller
	// one-fragment pages expand (and absorb) before any two-fragment page
	// is emitted: the 4 096th unit of work falls among the emissions.
	probe := &cancelProbe{Context: context.Background(), failAt: 7, s: retainedScratch(t, &e.core, "warm-up")}
	if _, err := e.Search(probe, req); !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want the simulated deadline", err)
	}
	if probe.read != 1500 || probe.accepted < 200 {
		t.Fatalf("cancelled with %d postings read and %d fragments in accepted pages, want all read and hundreds accepted", probe.read, probe.accepted)
	}
	checkScratchClean(t, &e.core, "after mid-assembly cancel")
	for _, s := range []int{4, 6, 1} {
		req.SizeThreshold = s
		checkAgainstReference(t, e, snap, req, fmt.Sprintf("s=%d after mid-assembly cancel", s))
	}
}

// spreadEngine indexes one group of fragments that all carry "kw" once but
// differ in size (2 … 98 keywords), so seed scores spread over five binades
// and the impact-ordered list hands them out in score order.
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
// pages, so K is never reached and every block must be read and every
// bucket emptied before the search may end — while the heap runs empty
// between block reads (at s = 1 nothing expands: each head is emitted and
// popped, and the next block refills the queue).
func TestReferenceEveryBucketDrains(t *testing.T) {
	e := spreadEngine(t, 400)
	snap := e.Snapshot()
	all := Request{Keywords: []string{"kw"}, K: 1 << 30, SizeThreshold: 1, AllowOverlap: true}
	before := e.SeedStats()
	got, err := e.SearchSnapshot(context.Background(), snap, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("%d results, want one single-fragment page per seed (400)", len(got))
	}
	if st := e.SeedStats(); st.Postings-before.Postings != 400 || st.Seeds-before.Seeds != 400 {
		t.Fatalf("read %d postings and registered %d seeds, want all 400", st.Postings-before.Postings, st.Seeds-before.Seeds)
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
// the first failing poll, records how far a scratch's seed source had
// been read, how many seeds had been queued (heap and buckets) and how
// many fragments accepted pages held.
type cancelProbe struct {
	context.Context
	polls, failAt          int
	s                      *searchScratch
	read, heaped, accepted int
}

func (c *cancelProbe) Err() error {
	c.polls++
	if c.polls < c.failAt {
		return nil
	}
	if c.polls == c.failAt {
		c.read, c.heaped, c.accepted = c.s.postings, len(c.s.heap)+len(c.s.deferred), len(c.s.usedRefs)
	}
	return errDeadline
}

// TestReferenceAfterMidRefillCancel cancels a search at its first work
// poll while most postings are still unread — between visits and block
// reads — and requires the scratch to come back empty and the next
// answers to equal the reference's.
func TestReferenceAfterMidRefillCancel(t *testing.T) {
	e := spreadEngine(t, 3000)
	snap := e.Snapshot()
	req := Request{Keywords: []string{"kw"}, K: 1 << 30, SizeThreshold: 1}
	checkAgainstReference(t, e, snap, req, "warm-up")

	// Polls: Search entry, searchSnapshot entry, one keyword, then the
	// first work poll, ctxCheckInterval postings read and visits in.
	probe := &cancelProbe{Context: context.Background(), failAt: 4, s: retainedScratch(t, &e.core, "warm-up")}
	if _, err := e.Search(probe, req); !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want the simulated deadline", err)
	}
	if probe.read > 2000 || probe.heaped == 0 {
		t.Fatalf("cancelled with %d of 3000 postings read and %d heaped, want a part-read source", probe.read, probe.heaped)
	}
	checkScratchClean(t, &e.core, "after a mid-seeding cancel")
	for _, s := range []int{1, 40, 300} {
		req.SizeThreshold = s
		checkAgainstReference(t, e, snap, req, fmt.Sprintf("s=%d after a mid-seeding cancel", s))
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

// TestReferenceLazyProperty checks the lazy engine — blocks read in
// impact order under the threshold bound — against the naive reference on
// seeded random histories: tie-heavy impacts (TF 1–2 over totals drawn
// from a few values, 0 among them), inserts, updates that change a
// fragment's total and keywords, and removals that leave tombstones in
// the lists; at S ∈ {1, 2, 3}, with RequireAll, AllowOverlap, truncating
// K and CandidateLimit drawn per request. The single index is searched
// with its tombstones in place; the shards, a partition of a compaction of
// it, are checked against the reference over that compaction. After each
// trial, searches of one, two and more than maxTables keywords are
// cancelled during a block read (a ctx failing at the first work poll, on
// a corpus large enough to reach it), and the engine's next answers must
// still be the reference's. The histories must reach TF probes, and with
// them the keywords' tables.
func TestReferenceLazyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	frag := func(groups, serial int) corpusChange {
		ch := tieFragment(r, groups, serial)
		ch.total = []int64{0, 2, 4, 8, 8}[r.Intn(5)]
		return ch
	}
	var probed, tabulated uint64 // TF probes and tables must be reached
	reached := func(st SeedStats) { probed, tabulated = probed+st.Probes, tabulated+st.Tabulated }
	for trial := 0; trial < 6; trial++ {
		idx, err := fragindex.New(tieSpec)
		if err != nil {
			t.Fatal(err)
		}
		groups := 2 + r.Intn(5)
		var live []corpusChange
		serial := 0
		for round := 0; round < 4; round++ {
			for n := 10 + r.Intn(60); n > 0; n-- {
				ch := frag(groups, serial)
				serial++
				if _, err := idx.InsertFragment(ch.id, ch.counts, ch.total); err != nil {
					t.Fatal(err)
				}
				live = append(live, ch)
			}
			for n := r.Intn(8); n > 0 && len(live) > 1; n-- {
				i := r.Intn(len(live))
				if r.Intn(2) == 0 {
					if err := idx.RemoveFragment(live[i].id); err != nil {
						t.Fatal(err)
					}
					live = slices.Delete(live, i, i+1)
					continue
				}
				upd := frag(groups, serial)
				live[i].counts, live[i].total = upd.counts, upd.total
				if err := idx.UpdateFragment(live[i].id, upd.counts, upd.total); err != nil {
					t.Fatal(err)
				}
			}
			snap := idx.Freeze()
			e := New(snap, nil)
			for _, shards := range []int{1, 2, 3} {
				when := fmt.Sprintf("trial %d round %d S=%d", trial, round, shards)
				if shards == 1 {
					for q := 0; q < 20; q++ {
						checkAgainstReference(t, e, snap, tieRequest(r), when)
					}
					reached(e.SeedStats())
					continue
				}
				// Restore orders a group's duplicate range values by
				// identifier, insertion by history, so the shards are
				// checked against a restored single index.
				flat, err := fragindex.Restore(idx.Dump()) // idx holds snap: nothing changed since the Freeze
				if err != nil {
					t.Fatal(err)
				}
				b, err := fragindex.Restore(idx.Dump())
				if err != nil {
					t.Fatal(err)
				}
				sl, err := fragindex.NewShardedLive(b, shards)
				if err != nil {
					t.Fatal(err)
				}
				se := NewSharded(sl, nil)
				for q := 0; q < 20; q++ {
					req := tieRequest(r)
					got, err := se.Search(context.Background(), req)
					if err != nil {
						t.Fatalf("%s: %+v: %v", when, req, err)
					}
					if d := diffResults(refSearch(t, flat.Snapshot(), req), got); d != "" {
						t.Fatalf("%s: %+v: sharded engine and reference disagree: %s", when, req, d)
					}
					checkScratchClean(t, &se.core, when)
				}
				reached(se.SeedStats())
			}
		}

		// Three cancels during a block read: 4 200 fragments carry "ale"
		// and "bun" on equal terms, so every seed ties with τ and nothing
		// is visited before every list is read — for "ale", for both, and
		// for a query of more keywords than maxTables, which reads every
		// list at open. Polls: Search entry, the core's entry, one per
		// keyword, then the first work poll, ctxCheckInterval postings
		// into the reads (no visit can come first while postings are
		// unread).
		big, err := fragindex.New(tieSpec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4200; i++ {
			ch := frag(groups, i)
			ch.counts["ale"], ch.counts["bun"], ch.total = 1, 1, 8
			if _, err := big.InsertFragment(ch.id, ch.counts, ch.total); err != nil {
				t.Fatal(err)
			}
		}
		e := New(big, nil)
		req := Request{Keywords: []string{"ale"}, K: 5, SizeThreshold: 20, RequireAll: r.Intn(2) == 0, AllowOverlap: r.Intn(2) == 0}
		checkAgainstReference(t, e, big.Snapshot(), req, "warm-up")
		for _, kws := range [][]string{{"ale"}, {"ale", "bun"}, append(slices.Clone(tieVocab), "eel")} { // eel: no list
			req.Keywords = kws
			when := fmt.Sprintf("trial %d: a cancel during a block read of %d keywords", trial, len(kws))
			probe := &cancelProbe{Context: context.Background(), failAt: 3 + len(kws), s: retainedScratch(t, &e.core, when)}
			if _, err := e.Search(probe, req); !errors.Is(err, errDeadline) {
				t.Fatalf("%s: err = %v, want the simulated deadline", when, err)
			}
			if probe.heaped == 0 || probe.read < ctxCheckInterval || probe.read >= 4200*len(kws) {
				t.Fatalf("%s: cancelled after reading %d postings with %d seeds queued, want a part-read source", when, probe.read, probe.heaped)
			}
			checkScratchClean(t, &e.core, when)
			checkAgainstReference(t, e, big.Snapshot(), req, "after "+when)
		}
	}
	if probed == 0 || tabulated == 0 {
		t.Fatalf("histories made %d TF probes and tabulated %d postings; want both", probed, tabulated)
	}
}

// TestTFTableStampWrap: a scratch's TF tables are retired by stamp, not
// cleared, so when the stamps wrap the tables must be cleared — or an
// entry a search wrote 2³² searches earlier, for another keyword at the
// same table index, would read as current.
func TestTFTableStampWrap(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	idx := buildFrom(t, randomCorpus(r, 12, 40))
	e := New(idx, nil)
	snap := idx.Snapshot()
	before := e.SeedStats()
	req := Request{Keywords: corpusVocab[:2], K: 1 << 30, SizeThreshold: 6}
	checkAgainstReference(t, e, snap, req, "first search")
	if st := retainedScratch(t, &e.core, "first search"); st.stamp != 1 {
		t.Fatalf("first search ran at stamp %d, want 1", st.stamp)
	}
	retainedScratch(t, &e.core, "first search").stamp = math.MaxUint32
	req.Keywords = corpusVocab[2:4]
	checkAgainstReference(t, e, snap, req, "after the stamps wrap")
	if st := e.SeedStats(); st.Tabulated == before.Tabulated {
		t.Fatal("no keyword was tabulated")
	}
}

// TestTFTablesBounded: a query may name any number of keywords, but a
// scratch fills at most maxTables TF tables, each 8 B per ref of the pinned
// set, and keeps no more once released. On a corpus of 300 keywords, a
// query naming all of them reads every list to the end — every posting,
// counted as one search that read every list — and fills no table;
// queries of up to maxTables keywords fill tables and leave at most
// maxTables behind; every answer is the reference's.
func TestTFTablesBounded(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	var changes []corpusChange
	for g := 0; g < 20; g++ {
		for v := 0; v < 40; v++ {
			counts := make(map[string]int64)
			for n := 1 + r.Intn(4); n > 0; n-- {
				counts[vocab[r.Intn(len(vocab))]] = int64(1 + r.Intn(3))
			}
			changes = append(changes, corpusChange{
				id:     fragment.ID{relation.String(fmt.Sprintf("g%03d", g)), relation.Int(int64(v))},
				counts: counts,
				total:  int64(4 + r.Intn(20)),
			})
		}
	}
	idx := buildFrom(t, changes)
	e := New(idx, nil)
	snap := idx.Snapshot()
	df := 0
	for _, w := range vocab {
		df += snap.DF(w)
	}
	wide := func(when string) {
		t.Helper()
		before := e.SeedStats()
		checkAgainstReference(t, e, snap, Request{Keywords: vocab, K: 10, SizeThreshold: 30}, when)
		st := e.SeedStats()
		if st.Drains != before.Drains+1 || st.Postings-before.Postings != uint64(df) {
			t.Fatalf("%s: read %d of %d postings, %d searches read every list; want every posting, one search",
				when, st.Postings-before.Postings, df, st.Drains-before.Drains)
		}
		if st.Tabulated != before.Tabulated || st.Probes != before.Probes {
			t.Fatalf("%s: %d postings tabulated and %d TF probes, want no table", when, st.Tabulated-before.Tabulated, st.Probes-before.Probes)
		}
		if n := len(retainedScratch(t, &e.core, when).tabBufs); n > maxTables {
			t.Fatalf("%s: the scratch keeps %d TF tables, want at most %d", when, n, maxTables)
		}
	}
	wide("a query of every keyword")
	before := e.SeedStats()
	for q := 0; q < 60; q++ {
		req := Request{K: 1 + r.Intn(20), SizeThreshold: 1 + r.Intn(60)}
		for n := 1 + r.Intn(maxTables); n > 0; n-- {
			req.Keywords = append(req.Keywords, vocab[r.Intn(len(vocab))])
		}
		checkAgainstReference(t, e, snap, req, fmt.Sprintf("query %d", q))
	}
	if st := e.SeedStats(); st.Tabulated == before.Tabulated {
		t.Fatal("no query of up to maxTables keywords filled a TF table")
	}
	wide("a query of every keyword, after tables were filled")
}
