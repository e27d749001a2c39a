package search

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

// updateGolden rewrites testdata/golden_small_q2.txt from the engine in
// this checkout. The committed file was produced by the commit CHANGES.md
// names; regenerate it only for a change that is meant to alter answers.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/search/testdata/golden_small_q2.txt")

const goldenPath = "testdata/golden_small_q2.txt"

// smallQ2 is the benchmark's corpus — TPC-H `small`, query Q2, seed 42,
// integrated crawl — built once per test binary.
var smallQ2 struct {
	once sync.Once
	idx  *fragindex.Index
	app  *webapp.Application
	err  error
}

func smallQ2Index(tb testing.TB) (*fragindex.Index, *webapp.Application) {
	tb.Helper()
	f := &smallQ2
	f.once.Do(func() {
		f.app, f.err = tpch.App("Q2")
		if f.err != nil {
			return
		}
		db := tpch.Generate(tpch.Small, 42)
		if f.err = f.app.Bind(db); f.err != nil {
			return
		}
		bound, err := f.app.Bound()
		if err != nil {
			f.err = err
			return
		}
		out, err := crawl.Integrated(context.Background(), db, bound, crawl.Options{})
		if err != nil {
			f.err = err
			return
		}
		spec, err := fragindex.SpecFromBound(bound)
		if err != nil {
			f.err = err
			return
		}
		f.idx, f.err = fragindex.Build(out, spec)
	})
	if f.err != nil {
		tb.Fatalf("small/Q2 fixture: %v", f.err)
	}
	return f.idx, f.app
}

// keywordsByDF returns the snapshot's keywords hottest first (DF
// descending, name ascending).
func keywordsByDF(snap *fragindex.Snapshot) []string {
	kws := append([]string(nil), snap.Keywords()...)
	sort.SliceStable(kws, func(i, j int) bool { return snap.DF(kws[i]) > snap.DF(kws[j]) })
	return kws
}

// goldenParams enumerates the parameter sets the digest covers, in file
// order.
func goldenParams() []Request {
	var out []Request
	for _, k := range []int{1, 10, 50} {
		for _, s := range []int{1, 20, 200, 2000} {
			for _, limit := range []int{0, 5, 50} {
				for _, all := range []bool{false, true} {
					for _, overlap := range []bool{false, true} {
						out = append(out, Request{K: k, SizeThreshold: s, CandidateLimit: limit, RequireAll: all, AllowOverlap: overlap})
					}
				}
			}
		}
	}
	return out
}

func goldenLabel(p Request) string {
	return fmt.Sprintf("K=%d s=%d limit=%d all=%t overlap=%t", p.K, p.SizeThreshold, p.CandidateLimit, p.RequireAll, p.AllowOverlap)
}

// goldenPerSet requests per parameter set: 144 sets × 40 = 5 760 requests.
const goldenPerSet = 40

// goldenRequests draws one parameter set's seeded requests: 1–3 keywords,
// each drawn from the 200 hottest terms with probability 0.7 and from the
// whole vocabulary otherwise.
func goldenRequests(kws []string, set int, p Request) []Request {
	r := rand.New(rand.NewSource(int64(1000 + set)))
	hot := kws[:min(200, len(kws))]
	out := make([]Request, goldenPerSet)
	for q := range out {
		out[q] = p
		for n := 1 + r.Intn(3); n > 0; n-- {
			pool := kws
			if r.Float64() < 0.7 {
				pool = hot
			}
			out[q].Keywords = append(out[q].Keywords, pool[r.Intn(len(pool))])
		}
	}
	return out
}

// goldenDigest runs one parameter set's requests through search and hashes
// every answer: per request the keywords and result count, per result the
// URL, score bits, size and fragment refs.
func goldenDigest(t *testing.T, search func(context.Context, Request) ([]Result, error), kws []string, set int, p Request) string {
	h := sha256.New()
	var num [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	for _, req := range goldenRequests(kws, set, p) {
		res, err := search(context.Background(), req)
		if err != nil {
			t.Fatalf("%s %v: %v", goldenLabel(p), req.Keywords, err)
		}
		h.Write([]byte(strings.Join(req.Keywords, " ")))
		put(uint64(len(res)))
		for _, x := range res {
			h.Write([]byte(x.URL))
			put(math.Float64bits(x.Score))
			put(uint64(x.Size))
			put(uint64(len(x.Fragments)))
			for _, f := range x.Fragments {
				put(uint64(f))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenAnswers recomputes the per-parameter-set answer digests on the
// benchmark corpus and compares them with the file recorded on the commit
// before the scoring core was rebuilt: ranking, scores, sizes, fragment
// intervals and URLs must stay byte-identical. (dashload's oracle is built
// from the same internal/search source as the server, so it cannot see a
// ranking change; this file can.)
func TestGoldenAnswers(t *testing.T) {
	idx, app := smallQ2Index(t)
	e := New(idx, app)
	kws := keywordsByDF(idx.Snapshot())

	var got []string
	for i, p := range goldenParams() {
		got = append(got, goldenLabel(p)+" "+goldenDigest(t, e.Search, kws, i, p))
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := goldenFile(t)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answers changed:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}

// goldenFile reads the recorded digests, one line a parameter set.
func goldenFile(t *testing.T) []string {
	raw, err := os.ReadFile(goldenPath)
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if err != nil || len(want) != len(goldenParams()) {
		t.Fatalf("%s has %d parameter sets, the test computes %d (%v)", goldenPath, len(want), len(goldenParams()), err)
	}
	return want
}

// TestGoldenShardedMatchesSingle replays the golden requests — 144
// parameter sets, 5 760 requests, truncating K and CandidateLimit included
// — over the benchmark corpus split into S ∈ {2, 4} shards, each answer's
// fragments rewritten as refs of the single index, and checks each set's
// digest against the file TestGoldenAnswers checks at S = 1. Only a set
// whose digest differs is run on the single index, to name the first
// request that differs.
func TestGoldenShardedMatchesSingle(t *testing.T) {
	idx, app := smallQ2Index(t)
	kws := keywordsByDF(idx.Snapshot())
	want := goldenFile(t)
	for _, shards := range []int{2, 4} {
		live, err := fragindex.NewShardedLive(idx, shards) // reads idx, builds new shards
		if err != nil {
			t.Fatal(err)
		}
		se, pinned := NewSharded(live, app), live.PinAll()
		sharded := func(ctx context.Context, req Request) ([]Result, error) {
			res, err := se.SearchPinned(ctx, pinned, req)
			if err == nil {
				err = singleRefs(live, pinned, idx.Snapshot(), res)
			}
			return res, err
		}
		for set, p := range goldenParams() {
			if goldenLabel(p)+" "+goldenDigest(t, sharded, kws, set, p) == want[set] {
				continue
			}
			single := New(idx, app)
			for _, req := range goldenRequests(kws, set, p) {
				w, err := single.Search(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if g, _ := sharded(context.Background(), req); !reflect.DeepEqual(g, w) {
					t.Fatalf("S=%d %s %v:\n got  %+v\n want %+v", shards, goldenLabel(p), req.Keywords, g, w)
				}
			}
			t.Fatalf("S=%d %s: every answer is the single index's, but the digest is not %s's (see TestGoldenAnswers)", shards, goldenLabel(p), goldenPath)
		}
	}
}
