package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// visit is one queue visit as the assembly loop sees it: the head's score
// and size, and the global ref of the fragment that seeded it (ordinals
// depend on the order seeds were registered in; refs do not).
type visit struct {
	score float64
	size  int64
	ref   fragindex.FragRef
}

// visitOrder drives a queue the way the assembly loop does — look at the
// head, then either retire it or rewrite it in place — and returns the
// entries in the order they were visited. Each entry is rewritten at most
// three times: its score raised, lowered, set to exactly another seed's
// score, or zeroed, its size sometimes grown. The decisions come from r, so
// two queues that visit in the same order are driven identically.
func visitOrder(r *rand.Rand, scores []float64, head func() (heapEntry, fragindex.FragRef, bool), pop func(), rewrite func(heapEntry)) []visit {
	var order []visit
	rewrites := make(map[fragindex.FragRef]int)
	for {
		e, ref, ok := head()
		if !ok {
			return order
		}
		order = append(order, visit{e.score, e.size, ref})
		if rewrites[ref] < 3 && r.Intn(2) == 0 {
			rewrites[ref]++
			switch r.Intn(4) {
			case 0:
				e.score *= 1 + r.Float64()
			case 1:
				e.score *= r.Float64()
			case 2:
				e.score = scores[r.Intn(len(scores))]
			case 3:
				e.score = 0
			}
			e.size += int64(r.Intn(2))
			rewrite(e)
			continue
		}
		pop()
	}
}

// queueFragment is one fragment of a queue test corpus: its keyword TFs
// (over queueVocab) and its total.
type queueFragment struct {
	tfs   [3]int64
	total int64
}

var queueVocab = [3]string{"ale", "bun", "cod"}

// queueIndex indexes fragments in three groups, the i-th at range value i,
// and returns the pinned set at the given shard count.
func queueIndex(t *testing.T, frags []queueFragment, shards int) ([]*fragindex.Snapshot, *core) {
	t.Helper()
	var changes []corpusChange
	for i, f := range frags {
		counts := map[string]int64{}
		for j, tf := range f.tfs {
			if tf > 0 {
				counts[queueVocab[j]] = tf
			}
		}
		changes = append(changes, corpusChange{
			id:     fragment.ID{relation.String(fmt.Sprintf("g%d", i%3)), relation.Int(int64(i))},
			counts: counts,
			total:  f.total,
		})
	}
	idx := buildFrom(t, changes)
	if shards == 1 {
		e := New(idx, nil)
		return []*fragindex.Snapshot{idx.Snapshot()}, &e.core
	}
	live, err := fragindex.NewShardedLive(idx, shards)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)
	return se.Pin(), &se.core
}

// openQueue borrows a scratch over snaps with the lazy seed source open
// for all three keywords.
func openQueue(t *testing.T, e *core, snaps []*fragindex.Snapshot) *searchScratch {
	t.Helper()
	s := e.getScratch(snaps)
	s.keywords = normalizeKeywords(s.keywords, queueVocab[:])
	if err := s.open(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// readAll reads every block of every cursor of s, as a query that never
// settles does, completes every seed — with no probe, since every cursor
// is exhausted — and returns each seed's exact entry, indexed by ordinal.
func readAll(t *testing.T, s *searchScratch) []heapEntry {
	t.Helper()
	for ci := range s.curs {
		for !s.curs[ci].done {
			if err := s.read(context.Background(), ci); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeds := make([]heapEntry, len(s.refs))
	for ord := range seeds {
		g := s.refs[ord]
		si := s.shardOf(g)
		size := s.snaps[si].TermsOf(g - s.base[si])
		s.complete(int32(ord), size)
		seeds[ord] = heapEntry{score: score(s.occOf(int32(ord)), size, s.idf), size: size, ord: int32(ord)}
	}
	if s.probes != 0 {
		t.Fatalf("completing after every list was read made %d TF probes, want none", s.probes)
	}
	return seeds
}

// checkBuckets requires s's buckets to hold every seed of want (indexed by
// ordinal) exactly once, with its size, in the bucket of its key, keyed by
// its exact score or, if queued under a bound, by one no lower; and no
// bucket before s.best may hold one.
func checkBuckets(t *testing.T, s *searchScratch, want []heapEntry, when string) {
	t.Helper()
	seen := make([]bool, len(want))
	for b, at := range s.buckets {
		if at != 0 && b < s.best {
			t.Fatalf("%s: bucket %d holds seeds, but the best is %d", when, b, s.best)
		}
		for ; at != 0; at = s.deferred[at-1].next {
			d := s.deferred[at-1]
			w := want[d.ord]
			switch {
			case seen[d.ord]:
				t.Fatalf("%s: seed %d is queued twice", when, d.ord)
			case s.bucketOf(d.score) != b:
				t.Fatalf("%s: seed %d, key %v, is in bucket %d, not %d", when, d.ord, d.score, b, s.bucketOf(d.score))
			case d.size != w.size || d.score < w.score || !d.bound && d.score != w.score:
				t.Fatalf("%s: seed %d is queued as %+v (bound %t), want %+v", when, d.ord, d.heapEntry, d.bound, w)
			}
			seen[d.ord] = true
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("%s: seed %d of %d is not queued", when, i, len(want))
	}
}

// TestLazyQueueVisitsInFullHeapOrder: on random corpora, the one seeding
// walk — blocks read from the cursor of the largest bound only until the
// head strictly outscores τ (fill), seeds queued in score buckets under
// upper bounds where a TF is unknown and completed as their bucket moves
// into the heap — visits entries in exactly the order a queue holding
// every seed from the start does under candLess, while heads are popped,
// raised and lowered. The reference here is every seed, read up front
// (every block of every list, each queued once under a key no lower than
// its exact score; see checkBuckets), in a slice scanned for its minimum.
// The cases aim at the bound: exact ties at τ, every score equal, scores a
// few units in the last place apart on either side of τ (where only the
// margin keeps the bound sound), size-0 fragments scoring 0, and scores
// across many binades; trials must reach a first visit with postings
// unread, and a seed completed by a TF probe.
func TestLazyQueueVisitsInFullHeapOrder(t *testing.T) {
	pick := func(r *rand.Rand, xs ...int64) int64 { return xs[r.Intn(len(xs))] }
	some := func(r *rand.Rand, f func() int64) (tfs [3]int64) {
		for tfs == ([3]int64{}) {
			for j := range tfs {
				if r.Intn(2) == 0 {
					tfs[j] = f()
				}
			}
		}
		return tfs
	}
	cases := []struct {
		name string
		frag func(r *rand.Rand) queueFragment
		lazy bool // some trial's first visit must come with postings unread
	}{
		{"heavy ties", func(r *rand.Rand) queueFragment {
			return queueFragment{some(r, func() int64 { return pick(r, 1, 2) }), pick(r, 2, 4)}
		}, true},
		{"one bucket", func(r *rand.Rand) queueFragment {
			return queueFragment{[3]int64{1, 0, 0}, 7}
		}, false},
		{"bucket edges", func(r *rand.Rand) queueFragment {
			// Impacts within a few units in the last place of each other,
			// summed over up to three keywords.
			return queueFragment{some(r, func() int64 { return 1_000_000 + r.Int63n(3) }), 3_000_000 + r.Int63n(3)}
		}, true},
		{"zero scores", func(r *rand.Rand) queueFragment {
			return queueFragment{some(r, func() int64 { return 1 + r.Int63n(4) }), pick(r, 0, 0, 8+r.Int63n(40))}
		}, true},
		{"wide range", func(r *rand.Rand) queueFragment {
			return queueFragment{some(r, func() int64 { return 1 + r.Int63n(50) }), 1 + r.Int63n(5000)}
		}, true},
		{"adjacent floats", func(r *rand.Rand) queueFragment {
			return queueFragment{some(r, func() int64 { return pick(r, 999_999, 1_000_000, 1_000_001) }), pick(r, 2_999_999, 3_000_000, 3_000_001)}
		}, false},
	}
	probes := 0 // over all cases: TF probes that completed a seed
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			early := 0 // trials whose first visit came with postings unread
			r := rand.New(rand.NewSource(71))
			for trial := 0; trial < 30; trial++ {
				n := 1 + r.Intn(600)
				if tc.lazy {
					n += 40
				}
				frags := make([]queueFragment, n)
				for i := range frags {
					frags[i] = tc.frag(r)
				}
				snaps, e := queueIndex(t, frags, 1+trial%2)
				df := 0
				for _, snap := range snaps {
					for _, w := range queueVocab {
						df += snap.DF(w)
					}
				}

				// The reference: every seed registered before the first visit.
				full := openQueue(t, e, snaps)
				seeds := readAll(t, full)
				if len(seeds) != n || full.postings != df {
					t.Fatalf("trial %d: reading every list registered %d of %d seeds after %d of %d postings", trial, len(seeds), n, full.postings, df)
				}
				checkBuckets(t, full, seeds, fmt.Sprintf("trial %d", trial))
				all := slices.Clone(seeds)
				scores := make([]float64, len(all))
				for i, h := range all {
					scores[i] = h.score
				}

				lazy := openQueue(t, e, snaps)
				seed := r.Int63()
				first := true
				got := visitOrder(rand.New(rand.NewSource(seed)), scores,
					func() (heapEntry, fragindex.FragRef, bool) {
						if err := lazy.fill(context.Background()); err != nil {
							t.Fatal(err)
						}
						if first && lazy.postings < df {
							early++
						}
						first = false
						if len(lazy.heap) == 0 {
							return heapEntry{}, 0, false
						}
						return lazy.heap[0], lazy.refs[lazy.heap[0].ord], true
					},
					lazy.popTop,
					func(e heapEntry) { lazy.heap[0] = e; lazy.siftDown(0) })
				if slices.ContainsFunc(lazy.curs, func(c cursor) bool { return !c.done }) {
					t.Fatalf("trial %d: queue ran empty with postings unread", trial)
				}
				probes += lazy.probes

				best := 0
				want := visitOrder(rand.New(rand.NewSource(seed)), scores,
					func() (heapEntry, fragindex.FragRef, bool) {
						if len(all) == 0 {
							return heapEntry{}, 0, false
						}
						best = 0
						for i := range all {
							if full.candLess(all[i], all[best]) {
								best = i
							}
						}
						return all[best], full.refs[all[best].ord], true
					},
					func() { all = slices.Delete(all, best, best+1) },
					func(e heapEntry) { all[best] = e })
				e.putScratch(lazy)
				e.putScratch(full)

				if !slices.Equal(got, want) {
					for i := range want {
						if i >= len(got) || got[i] != want[i] {
							t.Fatalf("trial %d (%d seeds, S=%d): visit %d differs\n lazy %+v\n full %+v",
								trial, n, len(snaps), i, got[min(i, len(got)-1)], want[i])
						}
					}
					t.Fatalf("trial %d: lazy queue made %d visits, full queue %d", trial, len(got), len(want))
				}
			}
			if tc.lazy && early == 0 {
				t.Fatal("no trial visited before every posting was read")
			}
		})
	}
	if probes == 0 {
		t.Fatal("no trial completed a seed by a TF probe")
	}
}

// TestBucketQueueEdges drives the score buckets directly. bucketOf must
// put topBits itself, and every score above it, in bucket 0, whose floor
// is one bucket width below topBits, with sixteen buckets to a power of
// two and the last bucket taking every score below. Then, on trials of
// seeds pinned within two units in the last place of a bucket edge — some
// queued under a bound zero to two buckets above their exact score, so
// that completing them drops them to a lower bucket — refill must hand out
// exactly the order a slice of the exact entries scanned for its candLess
// minimum does while heads are popped, raised and lowered.
// Every seed's candidate is materialised up front, as a one-fragment
// interval of a group at path position ord, so candLess never reads an
// index; a bound seed k's exact score is carried by its own keyword k, so
// completing it probes nothing.
func TestBucketQueueEdges(t *testing.T) {
	const width = uint64(1) << bucketShift
	top := math.Float64bits(0.25)
	edges := &searchScratch{topBits: top}
	for _, c := range []struct {
		bits uint64
		want int
	}{
		{math.Float64bits(math.MaxFloat64), 0}, {top + 1, 0}, {top, 0}, {top - width + 1, 0},
		{top - width, 1}, {top - 2*width + 1, 1}, {top - 2*width, 2},
		{math.Float64bits(0.125), 16},
		{top - (numBuckets-1)*width, numBuckets - 1}, {top - numBuckets*width, numBuckets - 1}, {0, numBuckets - 1},
	} {
		if got := edges.bucketOf(math.Float64frombits(c.bits)); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", math.Float64frombits(c.bits), got, c.want)
		}
	}

	const nb = 8 // seeds queued under a bound, per trial
	r := rand.New(rand.NewSource(73))
	dropped := 0 // bound seeds completed into a lower bucket
	for trial := 0; trial < 30; trial++ {
		n := nb + 40 + r.Intn(600)
		s := &searchScratch{topBits: top, best: numBuckets, keywords: make([]string, nb), idf: make([]float64, nb),
			slotOf: make([]int32, n), consumed: make([]bool, n), seedOcc: make([]int64, n*nb)}
		want := make([]heapEntry, n)
		for ord := range want {
			b := top - uint64(r.Intn(6))*width + uint64(r.Intn(5)) - 2
			e := heapEntry{score: math.Float64frombits(b), size: int64(1 + r.Intn(2)), ord: int32(ord)}
			want[ord] = e
			s.cands = append(s.cands, candidate{gkey: fmt.Sprintf("g%d", r.Intn(3)), lo: ord, hi: ord})
			s.slotOf[ord] = int32(ord) + 1
			if ord < nb {
				s.idf[ord] = e.score
				s.occOf(int32(ord))[ord] = e.size // scores size × idf / size: exactly idf
				e.score = math.Float64frombits(b + uint64(r.Intn(3))*width)
				s.enqueue(e, true)
				continue
			}
			s.enqueue(e, false)
		}
		when := fmt.Sprintf("trial %d", trial)
		checkBuckets(t, s, want, when)

		scores := make([]float64, n)
		for i, e := range want {
			scores[i] = e.score
		}
		seed := r.Int63()
		first := true
		got := visitOrder(rand.New(rand.NewSource(seed)), scores,
			func() (heapEntry, fragindex.FragRef, bool) {
				s.refill()
				if first && s.best == numBuckets {
					t.Fatalf("%s: every bucket moved into the heap before the first visit", when)
				}
				first = false
				if len(s.heap) == 0 {
					return heapEntry{}, 0, false
				}
				return s.heap[0], fragindex.FragRef(s.heap[0].ord), true
			},
			s.popTop,
			func(e heapEntry) { s.heap[0] = e; s.siftDown(0) })
		if s.best != numBuckets {
			t.Fatalf("%s: queue ran empty with bucket %d holding seeds", when, s.best)
		}
		dropped += len(s.deferred) - n
		all, best := want, 0
		wantOrder := visitOrder(rand.New(rand.NewSource(seed)), scores,
			func() (heapEntry, fragindex.FragRef, bool) {
				if len(all) == 0 {
					return heapEntry{}, 0, false
				}
				best = 0
				for i := range all {
					if s.candLess(all[i], all[best]) {
						best = i
					}
				}
				return all[best], fragindex.FragRef(all[best].ord), true
			},
			func() { all = slices.Delete(all, best, best+1) },
			func(e heapEntry) { all[best] = e })
		if !slices.Equal(got, wantOrder) {
			t.Fatalf("%s: the buckets visit %d entries, a full queue %d, in another order", when, len(got), len(wantOrder))
		}
	}
	if dropped == 0 {
		t.Fatal("no seed queued under a bound fell to a lower bucket")
	}
}
