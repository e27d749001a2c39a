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

// TestLazyQueueVisitsInFullHeapOrder: on random corpora, the threshold-
// bounded queue — seeds pulled in impact order only until the head strictly
// outscores τ (fill), the rest drained into score buckets once a quarter of
// the postings are pulled — visits entries in exactly the order a queue
// holding every seed from the start does under candLess, while heads are
// popped, raised and lowered. The reference here is every seed, drained up
// front, in a slice scanned for its minimum; that drain must bucket every
// seed exactly once, scored, best bucket first (see checkBuckets;
// TestBucketQueueEdges drives the buckets on their edges directly). The
// cases aim at the bound: exact ties at τ, every score equal, scores a few
// units in the last place apart on either side of τ (where only the margin
// keeps the bound sound), size-0 fragments scoring 0, and scores across
// many binades; trials must reach both a first visit with postings unread
// and a drain.
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
		lazy bool // some trial's first visit must come before a drain, with postings unread
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
	drains := 0 // trials, over all cases, whose lazy queue drained
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			early := 0 // trials whose first visit came with postings unread, before any drain
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
				if err := full.drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				all := slices.Clone(full.pending)
				if len(all) != n || full.postings != df {
					t.Fatalf("trial %d: draining registered %d of %d seeds after %d of %d postings", trial, len(all), n, full.postings, df)
				}
				seeds := make([]heapEntry, n)
				for ord := range seeds {
					size := full.sizeOf(int32(ord))
					seeds[ord] = heapEntry{score: score(full.occOf(int32(ord)), size, full.idf), size: size, ord: int32(ord)}
				}
				checkBuckets(t, full, seeds, fmt.Sprintf("trial %d", trial))
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
						if first && !lazy.drained && lazy.postings < df {
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
				if lazy.drained {
					drains++
				}

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
	if drains == 0 {
		t.Fatal("no trial drained")
	}
}

// checkBuckets requires s's pending buckets to hold exactly the entries
// want, indexed by ordinal — every seed once, with its score and size —
// grouped best bucket first.
func checkBuckets(t *testing.T, s *searchScratch, want []heapEntry, when string) {
	t.Helper()
	got := slices.Clone(s.pending)
	slices.SortFunc(got, func(a, b heapEntry) int { return int(a.ord - b.ord) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the buckets hold %d entries, want every one of %d seeds once, scored", when, len(got), len(want))
	}
	for i := 1; i < len(s.pending); i++ {
		if s.bucketOf(s.pending[i-1].score) < s.bucketOf(s.pending[i].score) {
			t.Fatalf("%s: pending[%d] is in a better bucket than pending[%d]", when, i, i-1)
		}
	}
}

// TestBucketQueueEdges drives bucketSeeds and refill directly, with scores
// pinned on a bucket boundary: at least 256 seeds spanning
// [edge-3<<40, edge+3<<40) make the shift 35, so edge-1 and edge are
// adjacent floats in different buckets, and most seeds sit within two
// units in the last place of a boundary. Every seed's candidate is
// materialised up front, as a one-fragment interval of a group at path
// position ord, so candLess never reads an index. The buckets must hold
// every seed once, best bucket first, and refill must visit in exactly the
// order a slice scanned for its candLess minimum does while heads are
// popped, raised and lowered.
func TestBucketQueueEdges(t *testing.T) {
	edge := math.Float64bits(0.25)
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		n := numBuckets + 40 + r.Intn(600)
		s := &searchScratch{slotOf: make([]int32, n), consumed: make([]bool, n)}
		want := make([]heapEntry, n)
		minBits, maxBits := uint64(math.MaxUint64), uint64(0)
		for ord := range want {
			b := edge + uint64(r.Intn(5)-2)<<35 + uint64(r.Intn(3)) - 1
			if ord < 2 { // pin the range
				b = edge - 3<<40 + uint64(ord)*(6<<40-1)
			}
			e := heapEntry{score: math.Float64frombits(b), size: int64(1 + r.Intn(2)), ord: int32(ord)}
			want[ord] = e
			s.pool = append(s.pool, e)
			s.cands = append(s.cands, candidate{gkey: fmt.Sprintf("g%d", r.Intn(3)), lo: ord, hi: ord})
			s.slotOf[ord] = int32(ord) + 1
			minBits, maxBits = min(minBits, b), max(maxBits, b)
		}
		s.bucketSeeds(minBits, maxBits)
		if s.shift != 35 {
			t.Fatalf("trial %d: shift = %d, want 35", trial, s.shift)
		}
		if s.bucketOf(math.Float64frombits(edge-1)) == s.bucketOf(math.Float64frombits(edge)) {
			t.Fatalf("trial %d: edge-1 and edge share a bucket", trial)
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
				if first && s.queued == len(s.pending) {
					t.Fatalf("%s: all %d seeds queued before the first visit", when, n)
				}
				first = false
				if len(s.heap) == 0 {
					return heapEntry{}, 0, false
				}
				return s.heap[0], fragindex.FragRef(s.heap[0].ord), true
			},
			s.popTop,
			func(e heapEntry) { s.heap[0] = e; s.siftDown(0) })
		if s.queued != len(s.pending) {
			t.Fatalf("%s: queue ran empty with %d seeds pending", when, len(s.pending)-s.queued)
		}
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
}
