package fragindex

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex/fragtest"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// chunkID derives the i-th synthetic identifier: groups of 16 consecutive
// refs, ordered so incremental insertion appends at each group's tail.
func chunkID(i int) fragment.ID {
	return fragment.ID{relation.String(fmt.Sprintf("g%06d", i/16)), relation.Int(int64(i % 16))}
}

// chunkedIndex builds an index spanning multiple metadata chunks: ref i
// carries a unique keyword u<i> and a shared keyword s<i mod 97>.
func chunkedIndex(t *testing.T, n int) *Index {
	t.Helper()
	idx, err := New(Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		counts := map[string]int64{
			fmt.Sprintf("u%d", i):    int64(1 + i%3),
			fmt.Sprintf("s%d", i%97): 1,
		}
		if _, err := idx.InsertFragment(chunkID(i), counts, int64(2+i%3)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return idx
}

// checkFragment asserts ref-independent invariants for one identifier: it
// resolves, its unique keyword posts to it, and its group membership is
// positionally consistent.
func checkFragment(t *testing.T, s *Snapshot, i int, wantTF int64) {
	t.Helper()
	id := chunkID(i)
	ref, ok := s.Lookup(id)
	if !ok {
		t.Fatalf("fragment %d (%s) does not resolve", i, id)
	}
	if !s.AliveRef(ref) {
		t.Fatalf("fragment %d resolved to dead ref %d", i, ref)
	}
	ps := s.Postings(fmt.Sprintf("u%d", i))
	if len(ps) != 1 || ps[0].Frag != ref || int64(ps[0].TF) != wantTF {
		t.Fatalf("fragment %d postings = %+v, want [{%d %d}]", i, ps, ref, wantTF)
	}
	members, pos, err := s.GroupMembers(ref)
	if err != nil {
		t.Fatal(err)
	}
	if members[pos] != ref {
		t.Fatalf("fragment %d group position broken: members[%d]=%d, ref %d", i, pos, members[pos], ref)
	}
}

// TestChunkBoundaryUpdateRemoveInsert drives update, remove, and
// re-insert at every chunk-boundary position of a multi-chunk index,
// checking the mutated version and the isolation of the previously
// published snapshot after each step.
func TestChunkBoundaryUpdateRemoveInsert(t *testing.T) {
	const n = chunkSize + 40
	idx := chunkedIndex(t, n)
	live := NewLive(idx)
	// The first ref, both sides of the first chunk boundary, and the last
	// ref of the trailing partial chunk.
	for _, i := range []int{0, chunkSize - 1, chunkSize, n - 1} {
		i := i
		t.Run(fmt.Sprintf("ref=%d", i), func(t *testing.T) {
			id := chunkID(i)
			before := live.Snapshot()
			beforeRef, ok := before.Lookup(id)
			if !ok {
				t.Fatal("fragment missing before mutation")
			}
			beforeTerms := before.TermsOf(beforeRef)

			// Update with fresh statistics.
			st, err := live.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpUpdateFragment, ID: id,
				TermCounts: map[string]int64{fmt.Sprintf("u%d", i): 7}, TotalTerms: 7,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			checkFragment(t, live.Snapshot(), i, 7)
			if before.TermsOf(beforeRef) != beforeTerms {
				t.Error("published snapshot observed the update")
			}
			// An update tombstones in the fragment's chunk and re-inserts at
			// the tail: at most two dirty chunks however large the index is.
			if st.ClonedChunks > 2 {
				t.Errorf("update cloned %d chunks", st.ClonedChunks)
			}

			// Remove, then verify the old version still serves it.
			mid := live.Snapshot()
			if _, err := live.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpRemoveFragment, ID: id,
			}}}); err != nil {
				t.Fatal(err)
			}
			if live.Snapshot().Has(id) {
				t.Fatal("removed fragment still resolves")
			}
			checkFragment(t, mid, i, 7)

			// Re-insert; the fragment returns under a fresh tail ref.
			if _, err := live.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpInsertFragment, ID: id,
				TermCounts: map[string]int64{fmt.Sprintf("u%d", i): int64(1 + i%3), fmt.Sprintf("s%d", i%97): 1},
				TotalTerms: int64(2 + i%3),
			}}}); err != nil {
				t.Fatal(err)
			}
			checkFragment(t, live.Snapshot(), i, int64(1+i%3))
		})
	}
}

// TestChunkBoundaryAppendGrowsTable: inserting the ref that starts a new
// chunk appends to the chunk table without disturbing the published
// snapshot, whose table keeps its length.
func TestChunkBoundaryAppendGrowsTable(t *testing.T) {
	idx := chunkedIndex(t, chunkSize) // exactly one full chunk
	frozen := idx.Freeze()
	if got := frozen.numChunks(); got != 1 {
		t.Fatalf("full chunk table has %d chunks, want 1", got)
	}
	ref, err := idx.InsertFragment(chunkID(chunkSize),
		map[string]int64{fmt.Sprintf("u%d", chunkSize): 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int(ref) != chunkSize {
		t.Fatalf("boundary insert got ref %d, want %d", ref, chunkSize)
	}
	next := idx.Freeze()
	if next.numChunks() != 2 || next.NumRefs() != chunkSize+1 {
		t.Errorf("new table: %d chunks / %d refs, want 2 / %d", next.numChunks(), next.NumRefs(), chunkSize+1)
	}
	if frozen.numChunks() != 1 || frozen.NumRefs() != chunkSize {
		t.Errorf("published table grew: %d chunks / %d refs", frozen.numChunks(), frozen.NumRefs())
	}
	// The full first chunk was untouched by the append: still shared.
	if frozen.chunkAt(0) != next.chunkAt(0) {
		t.Error("untouched full chunk was cloned by a tail append")
	}
	checkFragment(t, next, chunkSize, 1)
}

// TestChunkBoundaryPartialChunkIsolation: appending into a partially
// filled tail chunk after a publish clones that chunk — the published
// snapshot's view of the shared prefix stays frozen.
func TestChunkBoundaryPartialChunkIsolation(t *testing.T) {
	const n = chunkSize + 10 // tail chunk holds 10 refs
	idx := chunkedIndex(t, n)
	frozen := idx.Freeze()
	ref, err := idx.InsertFragment(chunkID(n), map[string]int64{fmt.Sprintf("u%d", n): 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int(ref) != n {
		t.Fatalf("tail insert got ref %d, want %d", ref, n)
	}
	if frozen.NumRefs() != n {
		t.Errorf("published ref space grew to %d", frozen.NumRefs())
	}
	if frozen.Has(chunkID(n)) {
		t.Error("published snapshot sees the new fragment")
	}
	next := idx.Freeze()
	if next.chunkAt(0) != frozen.chunkAt(0) {
		t.Error("full chunk cloned by a tail-chunk append")
	}
	if next.chunkAt(1) == frozen.chunkAt(1) {
		t.Error("tail chunk shared after an append into it")
	}
	checkFragment(t, next, n, 1)
}

// TestChunkBoundaryCompact: a snapshot GC across chunk boundaries
// renumbers refs contiguously and preserves every surviving fragment —
// after random histories, and after removals at each boundary position.
func TestChunkBoundaryCompact(t *testing.T) {
	cfg := modelConfig{Config: fragtest.Config{Name: "chunks", Steps: 12, Corpus: 3*chunkSize - 100, Ops: "pRRg"}, trials: 1, reach: []string{pathGC}}
	checkModel(t, cfg)
	m, h, hits := fragtest.NewModel(cfg.Config, 0), fragtest.History{Cfg: cfg.Name, Steps: []fragtest.Step{{Op: fragtest.Publish}, {Op: fragtest.GC}}}, map[string]int{}
	for _, ref := range []int{0, chunkSize - 1, chunkSize, 2*chunkSize - 1, 2 * chunkSize, cfg.Corpus - 1} {
		f := m.Frags[m.Keys[ref]] // the corpus loads in key order: its ref is its position
		h.Steps[0].Changes = append(h.Steps[0].Changes, fragtest.Change{Op: crawl.OpRemoveFragment, G: f.G, V: f.V})
	}
	if err := run(cfg, h, hits); err != nil || hits[pathGC] != 1 {
		t.Fatalf("boundary removals and a GC: %v (%d GCs)", err, hits[pathGC])
	}
}
