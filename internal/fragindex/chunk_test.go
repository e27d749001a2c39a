package fragindex

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/crawl"
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
	if len(ps) != 1 || ps[0].Frag != ref || ps[0].TF != wantTF {
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

// boundaryRefs are the ref positions the chunked layout must get right:
// the first ref, both sides of the first chunk boundary, and the last ref
// of the trailing partial chunk.
func boundaryRefs(n int) []int {
	return []int{0, chunkSize - 1, chunkSize, n - 1}
}

// TestChunkBoundaryUpdateRemoveInsert drives update, remove, and
// re-insert at every chunk-boundary position of a multi-chunk index,
// checking the mutated version and the isolation of the previously
// published snapshot after each step.
func TestChunkBoundaryUpdateRemoveInsert(t *testing.T) {
	const n = chunkSize + 40
	idx := chunkedIndex(t, n)
	live := NewLive(idx)
	for _, i := range boundaryRefs(n) {
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

// TestChunkTablePageBoundary: the ref that opens the chunk table's
// second page (the first one past the Snapshot's inline page) appends it
// without disturbing the published snapshot; a later removal confined to
// the inline page shares the second page, and an append into the second
// page copies it.
func TestChunkTablePageBoundary(t *testing.T) {
	const n = pageSize * chunkSize // exactly the inline page
	ctx := context.Background()
	live := NewLive(chunkedIndex(t, n))
	frozen := live.Snapshot()
	ins := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: chunkID(n),
		TermCounts: map[string]int64{fmt.Sprintf("u%d", n): 1}, TotalTerms: 1}}}
	if _, err := live.Apply(ctx, ins); err != nil {
		t.Fatal(err)
	}
	next := live.Snapshot()
	if len(frozen.pages) != 0 || frozen.numChunks() != pageSize || len(next.pages) != 1 {
		t.Fatalf("later pages: published %d (%d chunks), next %d; want 0 (%d), 1",
			len(frozen.pages), frozen.numChunks(), len(next.pages), pageSize)
	}
	checkFragment(t, next, n, 1)
	if frozen.Has(chunkID(n)) {
		t.Error("published snapshot sees the new fragment")
	}

	rm := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: chunkID(0)}}}
	if _, err := live.Apply(ctx, rm); err != nil {
		t.Fatal(err)
	}
	removed := live.Snapshot()
	if removed.pages[0] != next.pages[0] {
		t.Error("the second page was copied by a removal confined to the inline page")
	}
	if removed.chunkAt(0) == next.chunkAt(0) || removed.chunkAt(1) != next.chunkAt(1) {
		t.Error("want chunk 0 cloned and chunk 1 shared")
	}
	if removed.Has(chunkID(0)) {
		t.Error("removed fragment still resolves")
	}
	checkFragment(t, next, 0, 1)

	// Updating fragment 1 appends its new ref to the tail chunk, on the
	// second page.
	if _, err := live.Apply(ctx, updateDelta(chunkID(1), map[string]int64{"u1": 3}, 3)); err != nil {
		t.Fatal(err)
	}
	last := live.Snapshot()
	if last.pages[0] == removed.pages[0] || last.chunkAt(pageSize) == removed.chunkAt(pageSize) {
		t.Error("the second page or its tail chunk is shared after an append into it")
	}
	checkFragment(t, removed, 1, 2)
	checkFragment(t, last, 1, 3)
	checkFragment(t, last, n, 1)
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

// TestChunkBoundaryCompact: compaction across chunk boundaries renumbers
// refs contiguously and preserves every surviving fragment, with removals
// placed at each boundary position.
func TestChunkBoundaryCompact(t *testing.T) {
	const n = 2*chunkSize + 25
	idx := chunkedIndex(t, n)
	live := NewLive(idx)
	removed := map[int]bool{}
	var changes []crawl.FragmentChange
	for _, i := range []int{0, chunkSize - 1, chunkSize, 2 * chunkSize, n - 1} {
		removed[i] = true
		changes = append(changes, crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: chunkID(i)})
	}
	if _, err := live.Apply(context.Background(), crawl.Delta{Changes: changes}); err != nil {
		t.Fatal(err)
	}
	ran, err := live.CompactIfNeeded(context.Background(), 0.000001) // any tombstone triggers
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compaction did not run")
	}
	s := live.Snapshot()
	if s.NumRefs() != n-len(removed) || s.NumFragments() != n-len(removed) {
		t.Fatalf("compacted to %d refs / %d fragments, want %d", s.NumRefs(), s.NumFragments(), n-len(removed))
	}
	for i := 0; i < n; i++ {
		if removed[i] {
			if s.Has(chunkID(i)) {
				t.Errorf("removed fragment %d survived compaction", i)
			}
			continue
		}
		checkFragment(t, s, i, int64(1+i%3))
	}
}
