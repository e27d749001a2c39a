package search

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fragindex"
)

// missQueries draws n canonically distinct queries the way the
// search_uncached workload does: a fragment of the index uniformly, then
// 1, 2 or 3 (50/35/15 %) of its distinct keywords weighted by term
// frequency, without replacement — so popular terms recur as in user
// queries and every query has an answer.
func missQueries(snap *fragindex.Snapshot, seed int64, n int) [][]string {
	type frag struct {
		kws []string
		tfs []int64
	}
	frags := make([]frag, snap.NumRefs())
	for _, kw := range snap.Keywords() { // sorted: each fragment's terms come out in lexical order
		for _, p := range snap.Postings(kw) {
			f := &frags[p.Frag]
			f.kws, f.tfs = append(f.kws, kw), append(f.tfs, int64(p.TF))
		}
	}
	frags = slices.DeleteFunc(frags, func(f frag) bool { return len(f.kws) == 0 })
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out [][]string
	for len(out) < n {
		f := frags[r.Intn(len(frags))]
		k := 1
		switch p := r.Float64(); {
		case p >= 0.85:
			k = 3
		case p >= 0.50:
			k = 2
		}
		k = min(k, len(f.kws))
		var picked []int
		for len(picked) < k {
			var sum int64
			for i, tf := range f.tfs {
				if !slices.Contains(picked, i) {
					sum += tf
				}
			}
			x := r.Int63n(sum)
			for i, tf := range f.tfs {
				if slices.Contains(picked, i) {
					continue
				}
				if x < tf {
					picked = append(picked, i)
					break
				}
				x -= tf
			}
		}
		q := make([]string, k)
		for i, j := range picked {
			q[i] = f.kws[j]
		}
		if canon := strings.Join(normalizeKeywords(nil, q), " "); !seen[canon] {
			seen[canon] = true
			out = append(out, q)
		}
	}
	return out
}

// TestMissSeedingReads: on the benchmark corpus, 4 096 distinct queries of
// the search_uncached mix (missQueries at k = 10, s = 200) answer exactly
// what the reference does (every 64th is checked), and the threshold bound
// earns its keep, by the engine's own SeedStats: over all the misses, the
// walk reads at most a fifth of the postings their keywords' lists hold
// (Σ DF; ≈ 10 %).
func TestMissSeedingReads(t *testing.T) {
	idx, _ := smallQ2Index(t)
	e := New(idx, nil)
	snap := idx.Snapshot()
	df := uint64(0)
	for i, q := range missQueries(snap, 1, 4096) {
		req := Request{Keywords: q, K: 10, SizeThreshold: 200}
		if i%64 == 0 {
			checkAgainstReference(t, e, snap, req, fmt.Sprintf("query %d", i))
		} else if _, err := e.Search(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		for _, w := range normalizeKeywords(nil, q) {
			df += uint64(snap.DF(w))
		}
	}
	st := e.SeedStats()
	t.Logf("%d searches read %d of %d postings (%.1f %%) and tabulated %d; %d read every list",
		st.Searches, st.Postings, df, 100*float64(st.Postings)/float64(df), st.Tabulated, st.Drains)
	if st.Postings*5 > df {
		t.Fatalf("the searches read %d postings of %d, want at most a fifth", st.Postings, df)
	}
}

// BenchmarkSearchMissQ2 is a result-cache miss on the benchmark corpus:
// distinct 1–3-keyword queries from small/Q2's fragments at k = 10,
// s = 200, the search_uncached mix, straight into the engine. Beside
// ns/op it reports the seeding counts per search (SeedStats): postings
// read and tabulated, TF probes, seeds registered and the share of
// searches that read every list, and the Σ DF of the queried keywords for
// scale.
func BenchmarkSearchMissQ2(b *testing.B) {
	idx, app := smallQ2Index(b)
	e := New(idx, app)
	snap := idx.Snapshot()
	qs := missQueries(snap, 1, 4096)
	df := 0
	for _, q := range qs {
		for _, w := range normalizeKeywords(nil, q) {
			df += snap.DF(w)
		}
	}
	before := e.SeedStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(context.Background(), Request{Keywords: qs[i%len(qs)], K: 10, SizeThreshold: 200}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, n := e.SeedStats(), float64(b.N)
	b.ReportMetric(float64(st.Drains-before.Drains)/n, "readall/op")
	b.ReportMetric(float64(st.Postings-before.Postings)/n, "postings/op")
	b.ReportMetric(float64(st.Tabulated-before.Tabulated)/n, "tabulated/op")
	b.ReportMetric(float64(st.Probes-before.Probes)/n, "probes/op")
	b.ReportMetric(float64(st.Seeds-before.Seeds)/n, "seeds/op")
	b.ReportMetric(float64(st.Pushes-before.Pushes)/n, "pushes/op")
	b.ReportMetric(float64(df)/float64(len(qs)), "df/op")
}
