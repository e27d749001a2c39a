package fragindex

import (
	"slices"
	"testing"

	"repro/internal/fragment"
	"repro/internal/relation"
)

// updateInBigGroup: an update in a group whose members span several
// chunks clones at most two chunks — the old ref's and the append tail —
// and exactly one group, and keeps the fragment's group position.
func updateInBigGroup(t *testing.T) {
	idx, err := New(cowSpec)
	if err != nil {
		t.Fatal(err)
	}
	id := func(v int) fragment.ID { return fragment.ID{relation.String("g"), relation.Int(int64(v))} }
	const n = 3*chunkSize + 10 // one group over four chunks
	for v := 0; v < n; v++ {
		if _, err := idx.InsertFragment(id(v), map[string]int64{"k": 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	idx.Freeze()
	if err := idx.UpdateFragment(id(chunkSize+5), map[string]int64{"k": 2, "u": 1}, 3); err != nil {
		t.Fatal(err)
	}
	if chunks, _, _, groups := idx.pendingClones(); chunks > 2 || groups != 1 {
		t.Errorf("an update in a %d-member group cloned %d chunks and %d groups, want ≤ 2 and 1", n, chunks, groups)
	}
	ref, _ := idx.s.Lookup(id(chunkSize + 5))
	if _, _, _, pos, err := idx.s.GroupPath(ref); err != nil || pos != chunkSize+5 {
		t.Errorf("the updated fragment sits at position %d (%v), want %d", pos, err, chunkSize+5)
	}
}

// TestSortedDirCloneSharesKeys: a directory bucket's clones share its
// keys, and neither an insert nor a delete through a clone writes them,
// even where the bucket's keys have spare capacity.
func TestSortedDirCloneSharesKeys(t *testing.T) {
	d := &sortedDir[int32]{}
	for i, k := range []string{"a", "c", "e", "g", "i"} {
		d.put(k, int32(i))
	}
	ins, del := d.clone(1), d.clone(1)
	if &ins.keys[0] != &d.keys[0] {
		t.Error("the clone copied the keys")
	}
	ins.put("b", 5)
	del.deleteAt(3)
	for _, c := range []struct {
		name string
		d    *sortedDir[int32]
		keys []string
		vals []int32
	}{
		{"bucket", d, []string{"a", "c", "e", "g", "i"}, []int32{0, 1, 2, 3, 4}},
		{"insert", ins, []string{"a", "b", "c", "e", "g", "i"}, []int32{0, 5, 1, 2, 3, 4}},
		{"delete", del, []string{"a", "c", "e", "i"}, []int32{0, 1, 2, 4}},
	} {
		if !slices.Equal(c.d.keys, c.keys) || !slices.Equal(c.d.vals, c.vals) {
			t.Errorf("%s: %v %v, want %v %v", c.name, c.d.keys, c.d.vals, c.keys, c.vals)
		}
	}
}

// rawPostings returns pl's blocks concatenated: the whole list in storage
// order, tombstones included.
func rawPostings(pl *postingList) []Posting {
	var out []Posting
	for _, b := range pl.blocks {
		out = append(out, b.ps...)
	}
	return out
}
