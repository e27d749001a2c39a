package fragindex

import (
	"context"
	"fmt"
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
// no block stamped gen is; and checkStamps holds every other
// copy-on-write unit to the same rule. It returns the longest list's
// block count and how many lists the publish split a block of: lists
// holding more blocks than in prev while still sharing some, which a
// recut (a compaction, or a list new in s) never does.
func checkBlocks(prev, s *Snapshot, gen uint64) (maxBlocks, splits int, err error) {
	if prev != nil {
		if err := checkStamps(prev, s, gen); err != nil {
			return 0, 0, err
		}
	}
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	s.eachList(func(kw string, pl *postingList) {
		n := 0
		var last Posting
		for bi, b := range pl.blocks {
			if len(b.ps) == 0 || len(b.ps) > maxBlock {
				fail("%q: block %d holds %d postings, want 1…%d", kw, bi, len(b.ps), maxBlock)
				return
			}
			for j, p := range b.ps {
				if n+j > 0 {
					c := s.metaAt(last.Frag).ID.Compare(s.metaAt(p.Frag).ID)
					tie := c == 0 && !(s.aliveAt(last.Frag) && s.aliveAt(p.Frag))
					if last.TF < p.TF || last.TF == p.TF && c >= 0 && !tie {
						fail("%q: block %d posting %d %v after %v breaks (TF desc, identifier asc) order", kw, bi, j, p, last)
					}
				}
				last = p
			}
			n += len(b.ps)
		}
		if n != pl.n {
			fail("%q: count %d, blocks hold %d", kw, pl.n, n)
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
			switch {
			case b.gen == gen && ok:
				fail("%q: block %d was written by the publish in an array the previous snapshot holds", kw, bi)
			case b.gen != gen && (!ok || l != len(b.ps)):
				fail("%q: block %d was not written by the publish but is not the previous snapshot's", kw, bi)
			case b.gen != gen:
				shared++
			}
		}
		if shared > 0 && len(pl.blocks) > len(before) {
			splits++
		}
	})
	return maxBlocks, splits, err
}

// checkStamps checks the copy-on-write units of s — the Snapshot struct,
// later chunk-table pages, metadata chunks, posting and group shards,
// group pages, groups and posting-list headers — against prev, the
// snapshot s was published after, slot by slot: a unit stamped gen was
// allocated by the publish, so prev must not reach it in that slot; any
// other unit must be prev's unit in the same slot. A clone that forgets
// its stamp fails the second rule; a slot written in place in a shared
// table, the first.
func checkStamps(prev, s *Snapshot, gen uint64) (err error) {
	check := func(what string, slot any, was, now any, stamp uint64) {
		switch {
		case err != nil:
		case stamp > gen:
			err = fmt.Errorf("%s %v is stamped %d, past the publish's generation %d", what, slot, stamp, gen)
		case stamp == gen && was == now:
			err = fmt.Errorf("%s %v is stamped by the publish but reachable from the previous snapshot", what, slot)
		case stamp < gen && was != now:
			err = fmt.Errorf("%s %v is not stamped by the publish but is not the previous snapshot's", what, slot)
		}
	}
	check("snapshot", 0, prev, s, s.gen)
	for i, p := range s.pages {
		var was any
		if i < len(prev.pages) {
			was = prev.pages[i]
		}
		check("chunk page", i, was, p, p.gen)
	}
	for ci := 0; ci < s.numChunks(); ci++ {
		var was any
		if ci < prev.numChunks() {
			was = prev.chunkAt(ci)
		}
		check("chunk", ci, was, s.chunkAt(ci), s.chunkAt(ci).gen)
	}
	for i, sh := range s.shards {
		check("posting shard", i, prev.shards[i], sh, sh.gen)
	}
	for i, gs := range s.gshards {
		check("group shard", i, prev.gshards[i], gs, gs.gen)
	}
	for i, p := range s.gpages {
		var was any
		if i < len(prev.gpages) {
			was = prev.gpages[i]
		}
		check("group page", i, was, p, p.gen)
	}
	for gid := int32(0); int(gid) < s.ngroups; gid++ {
		var was any
		if int(gid) < prev.ngroups {
			was = prev.group(gid)
		}
		check("group", gid, was, s.group(gid), s.group(gid).gen)
	}
	s.eachList(func(kw string, pl *postingList) { check("list header", kw, prev.list(kw), pl, pl.gen) })
	return err
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
