package search

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/fragindex"
	"repro/internal/fragindex/fragtest"
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

// refQueue is the reference's queue, a container/heap ordered by refLess.
type refQueue []*refPage

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return refLess(q[i], q[j]) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refPage)) }
func (q *refQueue) Pop() any {
	p := (*q)[len(*q)-1]
	*q = (*q)[:len(*q)-1]
	return p
}

// refSearch is a deliberately naive Algorithm 1 — maps for every lookup,
// group paths fetched eagerly for every seed — that shares no scoring-core
// code with the engine (only keyword normalisation and the canonical
// result order). It answers valid requests on engines without an
// application. Unless hits is nil, it counts the search checker's paths it
// takes: a size-0 seed, a CandidateLimit cut or a limit that cuts nothing,
// a RequireAll rejection.
func refSearch(t *testing.T, snap *fragindex.Snapshot, req Request, hits map[string]int) []Result {
	t.Helper()
	reach := func(path string) {
		if hits != nil {
			hits[path]++
		}
	}
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
			reach(pathCut)
		} else if req.CandidateLimit > 0 && len(ps) > 0 {
			reach(pathUncut)
		}
		for _, p := range ps {
			if seedOcc[p.Frag] == nil {
				seedOcc[p.Frag] = make([]int64, len(kws))
			}
			seedOcc[p.Frag][i] += int64(p.TF)
		}
	}

	var queue refQueue
	for ref, occ := range seedOcc {
		members, weights, gkey, pos, err := snap.GroupPath(ref)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		p := &refPage{members: members, weights: weights, gkey: gkey, lo: pos, hi: pos,
			seed: ref, occ: slices.Clone(occ), size: weights[pos]}
		p.score = refScore(p.occ, p.size, idf)
		queue = append(queue, p)
		if p.size == 0 {
			reach(pathZeroSize)
		}
	}
	heap.Init(&queue)

	gain := func(ref fragindex.FragRef) float64 { return refWeighted(seedOcc[ref], idf) }
	consumed := map[fragindex.FragRef]bool{}
	used := map[fragindex.FragRef]bool{}
	seen := map[[2]fragindex.FragRef]bool{}
	var out []Result
	for len(queue) > 0 && len(out) < req.K {
		p := heap.Pop(&queue).(*refPage)
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
			heap.Push(&queue, p)
			continue
		}
		page := p.members[p.lo : p.hi+1]
		sig := [2]fragindex.FragRef{page[0], page[len(page)-1]}
		if seen[sig] {
			continue
		}
		seen[sig] = true
		if req.RequireAll && slices.Contains(p.occ, 0) {
			reach(pathRejected)
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

// checkAgainstReference runs req on the engine, pinned to snap, and on the
// reference, and requires deeply equal answers; afterwards the scratch the
// engine retained must be fully un-set.
func checkAgainstReference(t *testing.T, e *Engine, snap *fragindex.Snapshot, req Request, when string) {
	t.Helper()
	got, err := e.SearchSnapshot(context.Background(), snap, req)
	if err != nil {
		t.Fatalf("%s: %+v: %v", when, req, err)
	}
	want := refSearch(t, snap, req, nil)
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

// checkScratchClean fails t unless the scratch the last search returned to
// the engine's free list (either engine's) is clean (scratchErr).
func checkScratchClean(t *testing.T, e *core, when string) {
	t.Helper()
	if err := scratchErr(retainedScratch(t, e, when)); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// scratchErr inspects a released scratch: no global dense-table entry may
// still be set, no seed may still be queued, the seed arena must be zero
// through its whole capacity, and nothing may still point into a snapshot
// — neither the pinned set, nor a posting cursor, nor a tie band's
// postings or identifiers, nor a group path.
func scratchErr(s *searchScratch) error {
	for ref, ord := range s.ordOf {
		if ord != 0 {
			return fmt.Errorf("stale ordOf[%d] = %d", ref, ord)
		}
	}
	for ref, u := range s.used {
		if u {
			return fmt.Errorf("stale used[%d]", ref)
		}
	}
	if s.err != nil || len(s.refs)+len(s.misses)+len(s.usedRefs)+len(s.seen) != 0 {
		return errors.New("released scratch still holds query state")
	}
	if len(s.slotOf)+len(s.consumed) != 0 || s.work+s.postings+s.tabulated+s.probes+s.pushes != 0 {
		return errors.New("released scratch still holds per-seed state or counts")
	}
	if len(s.snaps)+len(s.base)+len(s.curs)+len(s.band) != 0 {
		return errors.New("released scratch still holds a pinned set")
	}
	for _, snap := range s.snaps[:cap(s.snaps)] {
		if snap != nil {
			return errors.New("released scratch still points to a pinned snapshot")
		}
	}
	for _, c := range s.curs[:cap(s.curs)] {
		if !reflect.ValueOf(c).IsZero() {
			return errors.New("released scratch still holds a posting cursor")
		}
	}
	for _, b := range s.band[:cap(s.band)] {
		if !reflect.ValueOf(b).IsZero() {
			return errors.New("released scratch still holds a band entry")
		}
	}
	if len(s.heap)+len(s.deferred) != 0 || s.buckets != [numBuckets]int32{} || s.best != numBuckets {
		return fmt.Errorf("released scratch still holds %d heaped and %d deferred seeds", len(s.heap), len(s.deferred))
	}
	if len(s.tabs) != 0 {
		return errors.New("released scratch still holds TF tables")
	}
	if len(s.tabBufs) > maxTables {
		return fmt.Errorf("released scratch keeps %d TF tables, want at most %d", len(s.tabBufs), maxTables)
	}
	for j, tab := range s.tabBufs {
		if i := slices.IndexFunc(tab, func(e uint64) bool { return uint32(e>>32) > s.stamp }); i >= 0 {
			return fmt.Errorf("TF table %d carries a stamp past the scratch's at ref %d", j, i)
		}
	}
	if len(s.seedOcc) != 0 {
		return fmt.Errorf("released scratch still holds %d seed occurrences", len(s.seedOcc))
	}
	for i, n := range s.seedOcc[:cap(s.seedOcc)] {
		if n != 0 {
			return fmt.Errorf("seed arena not zero past its length: [%d] = %d", i, n)
		}
	}
	for _, c := range s.cands[:cap(s.cands)] {
		if c.members != nil || c.weights != nil || c.gkey != "" {
			return errors.New("released scratch still points into a snapshot")
		}
	}
	return nil
}

// TestReferenceTieHeavy: tie-heavy histories — TF 1 or 2, one total for
// every fragment, duplicate range values — so exact (score, size) ties, the
// content tie-break, page dedup and overlap exclusion all decide answers.
func TestReferenceTieHeavy(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "ties", Steps: 20, Corpus: 60, Ties: true, Totals: []int64{8}, Dups: true},
		trials: 3, shards: []int{1}, reach: []string{pathProbes, pathTables, pathCut, pathRejected}})
}

// TestReferenceScratchReuse: one Engine, and so one retained scratch, over
// histories whose ref space grows twentyfold — past the dense tables'
// headroom — while every step also runs a cancelled search and an invalid
// request and re-reads the first and the last step's snapshots — the
// first up to twenty times smaller — through the grown tables.
func TestReferenceScratchReuse(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "growth", Steps: 40, Corpus: 4, Changes: 8, Kinds: "iiiir", Ops: "pppppppppg"},
		trials: 2, shards: []int{1}, reach: []string{pathGrown, pathGC}})
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

// TestShardedScratchHygiene cancels a sharded search mid-assembly — 60
// groups of 30 members all carrying "kw", so two-fragment pages are
// accepted from the first visits on and the loop crosses the poll
// interval — and requires the retained scratch to hold no global table
// entry and no pointer into the pinned set, and the next answer to be the
// reference's. (The search checker inspects the scratch after every other
// sharded search, cancelled ones included.)
func TestShardedScratchHygiene(t *testing.T) {
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
	live, err := fragindex.NewShardedLive(buildFrom(t, changes), 4)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)
	req := Request{Keywords: []string{"kw"}, K: 1 << 20, SizeThreshold: 4}
	// Polls: Search entry, the core's entry, one keyword, then the loop.
	if _, err := se.Search(newErrAfter(3), req); !errors.Is(err, errDeadline) {
		t.Fatalf("mid-assembly cancel: err = %v", err)
	}
	checkScratchClean(t, &se.core, "after mid-assembly cancel")
	pinned := se.Pin()
	flat, err := flatten(live, pinned)
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.SearchPinned(context.Background(), pinned, req)
	if err == nil {
		err = singleRefs(live, pinned, flat.Snapshot(), got)
	}
	if want := refSearch(t, flat.Snapshot(), req, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after mid-assembly cancel (%v): engine and reference disagree\n engine    %+v\n reference %+v", err, got, want)
	}
	checkScratchClean(t, &se.core, "after mid-assembly cancel")
}

// TestShardedSameLocalRefs: every shard numbers its refs from 0, so pages in
// different shards share local (lo, hi) refs; a dedup or overlap table keyed
// by them would drop one. A quarter of the new fragments open a group.
func TestShardedSameLocalRefs(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "local-refs", Steps: 15, Corpus: 30, Fresh: true, Ops: "pppg"},
		trials: 2, shards: []int{2}})
}

// TestReferenceLazyProperty checks the lazy engine — blocks read in
// impact order under the threshold bound — against the naive reference on
// histories of tie-heavy impacts (TF 1–2 over totals drawn from a few
// values, 0 among them) and duplicate range values, with removals leaving
// tombstones in the lists, at S ∈ {1, 2, 3}. Then searches of one, two and
// more than maxTables keywords are cancelled during a block read, and the
// engine's next answers must still be the reference's.
func TestReferenceLazyProperty(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "lazy", Steps: 30, Corpus: 40, Ties: true, Totals: []int64{0, 2, 4, 8, 8}, Dups: true},
		trials: 4, shards: []int{1, 2, 3}, reach: []string{pathProbes, pathTables, pathSplit, pathRestore, pathGC, pathZeroSize, pathCut, pathRejected}})

	// 4 200 fragments carry "ale" and "bun" on equal terms, so every seed
	// ties with τ and nothing is visited before every list is read — for
	// "ale", for both, and for a query of more keywords than maxTables,
	// which reads every list at open. Polls: Search entry, the core's
	// entry, one per keyword, then the first work poll, ctxCheckInterval
	// postings into the reads (no visit can come first while postings are
	// unread).
	big, err := fragindex.New(tieSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4200; i++ {
		id := fragment.ID{relation.String(fmt.Sprint("g", i%5)), relation.Int(int64(i % 6)), relation.Int(int64(i))}
		counts := map[string]int64{"ale": 1, "bun": 1, "cod": int64(i % 3), "dip": int64(i % 2)}
		maps.DeleteFunc(counts, func(_ string, tf int64) bool { return tf == 0 })
		if _, err := big.InsertFragment(id, counts, 8); err != nil {
			t.Fatal(err)
		}
	}
	e := New(big, nil)
	req := Request{Keywords: []string{"ale"}, K: 5, SizeThreshold: 20, RequireAll: true}
	checkAgainstReference(t, e, big.Snapshot(), req, "warm-up")
	for _, kws := range [][]string{{"ale"}, {"ale", "bun"}, {"ale", "bun", "cod", "dip", "eel"}} { // eel: no list
		req.Keywords = kws
		when := fmt.Sprintf("a cancel during a block read of %d keywords", len(kws))
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
// set, and keeps no more once released (scratchErr, after every search of
// the search checker). A query of more than maxTables keywords — one of the
// checker's fixed queries — reads every list to the end at open and fills
// no table (searchRun.seeding); queries of fewer fill tables.
func TestTFTablesBounded(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "wide", Steps: 15, Corpus: 60, Ops: "ppppRg"},
		trials: 2, shards: []int{1, 2}, reach: []string{pathWide, pathTables, pathGC}})
}
