package fragindex

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/crawl"
)

// BenchmarkPostingCompactionThreshold measures the posting-list compaction
// trade-off (ROADMAP "tune the serving-path knobs"): update churn through a
// LiveIndex interleaved with Postings reads of a hot keyword shared by
// every fragment, at eager (1/8), default (1/4), and lazy (1/2)
// thresholds. Each update tombstones one entry of the hot list, so the
// threshold decides between frequent O(list) compaction rewrites (eager)
// and Postings paying a filtered copy while tombstones linger (lazy) — the
// read/write mix here has reads outnumber writes 4:1, the serving shape
// the default was picked for.
func BenchmarkPostingCompactionThreshold(b *testing.B) {
	const frags = 4096
	for _, th := range []struct{ num, den int }{{1, 8}, {1, 4}, {1, 2}} {
		b.Run(fmt.Sprintf("threshold=%d-%d", th.num, th.den), func(b *testing.B) {
			idx, err := New(shardedSpec)
			if err != nil {
				b.Fatal(err)
			}
			if err := idx.setPostingCompaction(th.num, th.den); err != nil {
				b.Fatal(err)
			}
			counts := func(i, bump int) map[string]int64 {
				return map[string]int64{
					"hot":                          int64(1 + bump%3),
					fmt.Sprintf("cold%04d", i%512): 2,
				}
			}
			for i := 0; i < frags; i++ {
				if _, err := idx.InsertFragment(synthID(i/8, i%8), counts(i, 0), 3); err != nil {
					b.Fatal(err)
				}
			}
			live := NewLive(idx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i % frags
				_, err := live.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{{
					Op: crawl.OpUpdateFragment, ID: synthID(at/8, at%8),
					TermCounts: counts(at, i+1), TotalTerms: 3,
				}}})
				if err != nil {
					b.Fatal(err)
				}
				snap := live.Snapshot()
				for r := 0; r < 4; r++ {
					if ps := snap.Postings("hot"); len(ps) == 0 {
						b.Fatal("hot list empty")
					}
				}
				if i%1024 == 1023 {
					if _, err := live.CompactIfNeeded(context.Background(), 0.5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
