package search

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// queueScratch builds a scratch whose queue can run without a snapshot:
// every seed's candidate is pre-materialised as a one-fragment interval of
// group keys[ord] at path position ord, so candLess is a total order that
// never asks the index for a path. The seeds are bucketed the way
// searchSnapshot buckets them, from their own min/max score bits.
func queueScratch(scores []float64, sizes []int64, keys []string) *searchScratch {
	s := &searchScratch{slotOf: make([]int32, len(scores))}
	minBits, maxBits := uint64(math.MaxUint64), uint64(0)
	for ord, sc := range scores {
		s.heap = append(s.heap, heapEntry{score: sc, size: sizes[ord], ord: int32(ord)})
		s.cands = append(s.cands, candidate{gkey: keys[ord], lo: ord, hi: ord})
		s.slotOf[ord] = int32(ord) + 1
		b := math.Float64bits(sc)
		minBits, maxBits = min(minBits, b), max(maxBits, b)
	}
	s.bucketSeeds(minBits, maxBits)
	return s
}

// visitOrder drives a queue the way the assembly loop does — look at the
// head, then either retire it or rewrite it in place — and returns the
// entries in the order they were visited. Each entry is rewritten at most
// three times: its score raised, lowered, set to exactly another seed's
// score, or zeroed, its size sometimes grown. The decisions come from r, so
// two queues that visit in the same order are driven identically.
func visitOrder(r *rand.Rand, scores []float64, head func() (heapEntry, bool), pop func(), rewrite func(heapEntry)) []heapEntry {
	var order []heapEntry
	rewrites := make(map[int32]int)
	for {
		e, ok := head()
		if !ok {
			return order
		}
		order = append(order, e)
		if rewrites[e.ord] < 3 && r.Intn(2) == 0 {
			rewrites[e.ord]++
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

// TestLazyQueueVisitsInFullHeapOrder: on random score multisets, the lazily
// bucketed queue visits entries in exactly the order a queue holding every
// seed from the start does under candLess — the reference here is a slice
// scanned for its minimum — while heads are popped, raised and lowered.
func TestLazyQueueVisitsInFullHeapOrder(t *testing.T) {
	// edge is a bit pattern on a bucket boundary of the "bucket edges" case:
	// its seeds — at least 256, so all 256 buckets are in use — span
	// [edge-3<<40, edge+3<<40), so the shift is 35 and edge-1 / edge are
	// adjacent floats in different buckets.
	edge := math.Float64bits(0.25)
	cases := []struct {
		name  string
		score func(r *rand.Rand, i int) float64
		size  func(r *rand.Rand) int64
		lazy  bool // the first visit must leave seeds pending
	}{
		{"heavy ties", func(r *rand.Rand, _ int) float64 { return []float64{0.5, 0.25, 0.125}[r.Intn(3)] },
			func(r *rand.Rand) int64 { return int64(1 + r.Intn(2)) }, true},
		{"one bucket", func(*rand.Rand, int) float64 { return 0.04 },
			func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) }, false},
		{"bucket edges", func(r *rand.Rand, i int) float64 {
			if i < 2 { // pin the range
				return math.Float64frombits(edge - 3<<40 + uint64(i)*(6<<40-1))
			}
			return math.Float64frombits(edge + uint64(r.Intn(5)-2)<<35 + uint64(r.Intn(3)) - 1)
		}, func(r *rand.Rand) int64 { return int64(1 + r.Intn(2)) }, true},
		{"zero scores", func(r *rand.Rand, _ int) float64 {
			if r.Intn(3) == 0 {
				return 0
			}
			return float64(1+r.Intn(4)) / float64(8+r.Intn(40))
		}, func(r *rand.Rand) int64 { return int64(r.Intn(3)) }, true},
		{"wide range", func(r *rand.Rand, _ int) float64 { return math.Exp(-20 * r.Float64()) },
			func(r *rand.Rand) int64 { return int64(1 + r.Intn(50)) }, true},
		{"adjacent floats", func(r *rand.Rand, _ int) float64 {
			return math.Float64frombits(math.Float64bits(0.01) + uint64(r.Intn(200)))
		}, func(*rand.Rand) int64 { return 7 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(71))
			for trial := 0; trial < 30; trial++ {
				n := 1 + r.Intn(600)
				if tc.lazy {
					n += 40
				}
				if tc.name == "bucket edges" {
					n += numBuckets
				}
				scores, sizes, keys := make([]float64, n), make([]int64, n), make([]string, n)
				for i := range scores {
					scores[i], sizes[i] = tc.score(r, i), tc.size(r)
					keys[i] = fmt.Sprintf("g%d", r.Intn(3))
				}
				s := queueScratch(scores, sizes, keys)
				if tc.name == "bucket edges" && s.shift != 35 {
					t.Fatalf("shift = %d, want 35", s.shift)
				}
				// The buckets hold every seed exactly once, best bucket first.
				all := slices.Clone(s.pending)
				slices.SortFunc(all, func(a, b heapEntry) int { return int(a.ord - b.ord) })
				if len(all) != n {
					t.Fatalf("trial %d: %d seeds bucketed into %d entries", trial, n, len(all))
				}
				for ord, e := range all {
					if e != (heapEntry{score: scores[ord], size: sizes[ord], ord: int32(ord)}) {
						t.Fatalf("trial %d: bucketed ordinal %d is %+v", trial, ord, e)
					}
				}
				for i := 1; i < len(s.pending); i++ {
					if s.bucketOf(s.pending[i-1].score) < s.bucketOf(s.pending[i].score) {
						t.Fatalf("trial %d: pending[%d] is in a better bucket than pending[%d]", trial, i, i-1)
					}
				}

				seed := r.Int63()
				first := true
				got := visitOrder(rand.New(rand.NewSource(seed)), scores,
					func() (heapEntry, bool) {
						s.refill()
						if first && tc.lazy && s.queued == len(s.pending) {
							t.Fatalf("trial %d: all %d seeds queued before the first visit", trial, n)
						}
						first = false
						if len(s.heap) == 0 {
							return heapEntry{}, false
						}
						return s.heap[0], true
					},
					s.popTop,
					func(e heapEntry) { s.heap[0] = e; s.siftDown(0) })
				if s.queued != len(s.pending) {
					t.Fatalf("trial %d: queue ran empty with %d seeds pending", trial, len(s.pending)-s.queued)
				}

				best := 0
				want := visitOrder(rand.New(rand.NewSource(seed)), scores,
					func() (heapEntry, bool) {
						if len(all) == 0 {
							return heapEntry{}, false
						}
						best = 0
						for i := range all {
							if s.candLess(all[i], all[best]) {
								best = i
							}
						}
						return all[best], true
					},
					func() { all = slices.Delete(all, best, best+1) },
					func(e heapEntry) { all[best] = e })

				if !slices.Equal(got, want) {
					for i := range want {
						if i >= len(got) || got[i] != want[i] {
							t.Fatalf("trial %d (%d seeds, shift %d): visit %d differs\n lazy %+v\n full %+v",
								trial, n, s.shift, i, got[min(i, len(got)-1)], want[i])
						}
					}
					t.Fatalf("trial %d: lazy queue made %d visits, full queue %d", trial, len(got), len(want))
				}
			}
		})
	}
}
