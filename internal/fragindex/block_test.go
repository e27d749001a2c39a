package fragindex

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// checkBlocks checks every posting list of s against the block invariants:
// each block holds 1…maxBlock postings, their concatenation is in (TF
// descending, identifier ascending) order — a tombstone may tie with the
// live posting that replaced it — and the list's count is the sum of its
// block lengths. When prev is the snapshot s was published after, it also
// checks that every block of s not stamped gen (the generation that built
// s) is one of prev's blocks of the same list, array and length, and that
// no block stamped gen is. It returns the longest list's block count and
// how many lists the publish split a block of: lists holding more blocks
// than in prev while still sharing some, which a recut (a compaction, or
// a list new in s) never does.
func checkBlocks(t *testing.T, prev, s *Snapshot, gen uint64) (maxBlocks, splits int) {
	t.Helper()
	s.eachList(func(kw string, pl *postingList) {
		n := 0
		var last Posting
		for bi, b := range pl.blocks {
			if len(b.ps) == 0 || len(b.ps) > maxBlock {
				t.Fatalf("%q: block %d holds %d postings, want 1…%d", kw, bi, len(b.ps), maxBlock)
			}
			for j, p := range b.ps {
				if n+j > 0 {
					c := s.metaAt(last.Frag).ID.Compare(s.metaAt(p.Frag).ID)
					tie := c == 0 && !(s.aliveAt(last.Frag) && s.aliveAt(p.Frag))
					if last.TF < p.TF || last.TF == p.TF && c >= 0 && !tie {
						t.Fatalf("%q: block %d posting %d %v after %v breaks (TF desc, identifier asc) order", kw, bi, j, p, last)
					}
				}
				last = p
			}
			n += len(b.ps)
		}
		if n != pl.n {
			t.Fatalf("%q: count %d, blocks hold %d", kw, pl.n, n)
		}
		maxBlocks = max(maxBlocks, len(pl.blocks))
		if prev == nil {
			return
		}
		had := make(map[*Posting]int) // prev's blocks: first posting → length
		var before []postingBlock
		if opl := prev.list(kw); opl != nil {
			before = opl.blocks
		}
		for _, b := range before {
			had[&b.ps[0]] = len(b.ps)
		}
		shared := 0
		for bi, b := range pl.blocks {
			l, ok := had[&b.ps[0]]
			if b.gen == gen {
				if ok {
					t.Fatalf("%q: block %d was written by the publish in an array the previous snapshot holds", kw, bi)
				}
				continue
			}
			if !ok || l != len(b.ps) {
				t.Fatalf("%q: block %d was not written by the publish but is not the previous snapshot's", kw, bi)
			}
			shared++
		}
		if shared > 0 && len(pl.blocks) > len(before) {
			splits++
		}
	})
	return maxBlocks, splits
}

// TestPostingBlocksRandomHistories runs TestCoWIsolationRandomHistories'
// generator over a corpus whose hot keyword spans several posting blocks,
// and checks the block invariants (checkBlocks) after every publish —
// threshold compactions included — and every snapshot GC, and that no
// later publish changes an earlier capture of the lists (captureLists). The histories must split
// blocks and must reach a list of at least four.
func TestPostingBlocksRandomHistories(t *testing.T) {
	ctx := context.Background()
	var maxBlocks, splits, gcs int
	for trial := 0; trial < 3; trial++ {
		m := &cowModel{r: rand.New(rand.NewSource(int64(trial))), frags: make(map[string]cowFrag), hot: "hot"}
		idx, err := New(cowSpec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			ch, _ := m.change(4, map[string]bool{})
			if _, err := idx.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms); err != nil {
				t.Fatal(err)
			}
		}
		l := NewLive(idx)
		snaps := []*Snapshot{l.Snapshot()}
		caps := []map[string]any{captureLists(l.Snapshot())}
		check := func(prev *Snapshot) {
			t.Helper()
			s := l.Snapshot()
			mb, sp := checkBlocks(t, prev, s, l.builder.gen-1)
			maxBlocks, splits = max(maxBlocks, mb), splits+sp
			snaps, caps = append(snaps, s), append(caps, captureLists(s))
		}
		checkBlocks(t, nil, l.Snapshot(), 0)
		for step := 0; step < 150; step++ {
			prev := l.Snapshot()
			if m.r.Intn(25) == 0 {
				ran, err := l.CompactIfNeeded(ctx, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				if ran {
					gcs++
					check(nil) // a fresh lineage: nothing is shared
				}
				continue
			}
			used := make(map[string]bool)
			var changes []crawl.FragmentChange
			for n := 1 + m.r.Intn(8); len(changes) < n; {
				if ch, ok := m.change(m.r.Intn(6), used); ok {
					changes = append(changes, ch)
				}
			}
			if _, err := l.Apply(ctx, crawl.Delta{Changes: changes}); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			check(prev)
		}
		for i, s := range snaps {
			if !reflect.DeepEqual(captureLists(s), caps[i]) {
				t.Fatalf("trial %d: snapshot %d of %d changed after its publish", trial, i, len(snaps))
			}
		}
	}
	t.Logf("longest list %d blocks, %d splits, %d snapshot GCs", maxBlocks, splits, gcs)
	if maxBlocks < 4 || splits == 0 || gcs == 0 {
		t.Errorf("histories missed a path: longest list %d blocks, %d splits, %d snapshot GCs", maxBlocks, splits, gcs)
	}
}

// TestPublishCopiesOneBlock: inserting one posting into a list of 10 000
// copies the list's block directory and the one block the posting lands
// in; every other block stays shared with the published snapshot, which
// is unchanged. A regression to whole-list copies fails here, not only in
// a benchmark.
func TestPublishCopiesOneBlock(t *testing.T) {
	const n = 10_000
	d := &Dump{SelAttrs: cowSpec.SelAttrs, EqAttrs: cowSpec.EqAttrs, RangeAttr: cowSpec.RangeAttr}
	ps := make([]Posting, n)
	for i := range ps {
		d.FragKeys = append(d.FragKeys, fragment.ID{relation.String("g"), relation.Int(int64(2 * i))}.Key())
		d.Terms = append(d.Terms, 1)
		ps[i] = Posting{Frag: FragRef(i), TF: 1}
	}
	d.Keywords, d.Postings = []string{"w"}, [][]Posting{ps}
	idx, err := Restore(d)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLive(idx)
	before := l.Snapshot()
	want := rawPostings(before.list("w"))
	// An odd range value falls between two fragments: mid-list.
	id := fragment.ID{relation.String("g"), relation.Int(n + 1)}
	st, err := l.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{
		{Op: crawl.OpInsertFragment, ID: id, TermCounts: map[string]int64{"w": 1}, TotalTerms: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	old, now := before.list("w"), l.Snapshot().list("w")
	if want := (n + blockSize - 1) / blockSize; len(old.blocks) != want || len(now.blocks) != want || now.n != n+1 {
		t.Fatalf("%d blocks, then %d holding %d postings; want %d holding %d",
			len(old.blocks), len(now.blocks), now.n, want, n+1)
	}
	if st.ClonedLists != 1 || &now.blocks[0] == &old.blocks[0] {
		t.Errorf("the block directory was not copied once (%d cloned lists)", st.ClonedLists)
	}
	copied := 0
	for i, b := range now.blocks {
		if &b.ps[0] != &old.blocks[i].ps[0] {
			copied++
		}
	}
	if copied != 1 {
		t.Errorf("the publish copied %d of %d blocks, want 1", copied, len(now.blocks))
	}
	if !reflect.DeepEqual(rawPostings(old), want) || old.n != n {
		t.Error("the published list changed")
	}
}
