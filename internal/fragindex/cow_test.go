package fragindex

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// capture records everything a reader of s can observe — snapState, each
// list's raw postings (tombstones included) and dead count, every group by
// id, the group directory, and every ref's Meta, GroupPath and group
// slot — deep-copied, so a later write into storage the snapshot shares
// shows up as a difference.
func capture(s *Snapshot) map[string]any {
	out := snapState(s)
	maps.Copy(out, captureLists(s))
	for gid := int32(0); int(gid) < s.ngroups; gid++ {
		g := s.group(gid)
		out[fmt.Sprintf("group:%d", gid)] = []any{g.key, slices.Clone(g.members), slices.Clone(g.weights)}
	}
	for _, gs := range s.gshards {
		for i, key := range gs.keys {
			out["gdir:"+key] = gs.vals[i]
		}
	}
	for ref := FragRef(0); int(ref) < s.NumRefs(); ref++ {
		m, err := s.Meta(ref)
		if err != nil {
			panic(err)
		}
		m.ID = append(fragment.ID(nil), m.ID...)
		out[fmt.Sprintf("meta:%d", ref)] = m
		if members, weights, key, pos, err := s.GroupPath(ref); err == nil {
			out[fmt.Sprintf("path:%d", ref)] = []any{
				append([]FragRef(nil), members...), append([]int64(nil), weights...), key, pos,
			}
			out[fmt.Sprintf("slot:%d", ref)] = [2]int{int(s.gidAt(ref)), s.posAt(ref)}
		}
	}
	return out
}

// captureLists records each list's raw postings (tombstones included) and
// dead count, deep-copied: the part of capture a posting write can change.
func captureLists(s *Snapshot) map[string]any {
	out := make(map[string]any)
	s.eachList(func(kw string, pl *postingList) {
		out["raw:"+kw] = rawPostings(pl)
		out["dead:"+kw] = pl.dead
	})
	return out
}

// cowModel is the reference a random history runs against: the live
// fragments and their keyword statistics. When hot is set, every drawn
// keyword set holds it too unless avoided, so its list grows long enough
// to span several posting blocks. With fresh set, a third of the keyword
// sets also hold a keyword never drawn before, and a quarter of the new
// fragments open a group of their own: the directories then gain keys
// between publishes, and a list whose one fragment goes away is dropped
// from a posting shard holding other keywords.
type cowModel struct {
	r     *rand.Rand
	frags map[string]cowFrag
	nextV int64
	hot   string
	fresh bool
}

type cowFrag struct {
	id    fragment.ID
	terms map[string]int64
}

const cowVocab = 12

func (m *cowModel) kw(i int) string { return fmt.Sprintf("t%d", i%cowVocab) }

// terms draws a keyword set of 1–4 keywords, plus hot, none of them in
// avoid.
func (m *cowModel) terms(avoid map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for n := 1 + m.r.Intn(4); len(out) < n; {
		if kw := m.kw(m.r.Intn(cowVocab)); avoid[kw] == 0 {
			out[kw] = int64(1 + m.r.Intn(3))
		}
	}
	if m.hot != "" && avoid[m.hot] == 0 {
		out[m.hot] = int64(1 + m.r.Intn(3))
	}
	if m.fresh && m.r.Intn(3) == 0 {
		m.nextV++
		out[fmt.Sprintf("n%d", m.nextV)] = int64(1 + m.r.Intn(3))
	}
	return out
}

func (m *cowModel) newID() fragment.ID {
	m.nextV++
	g := fmt.Sprintf("g%d", m.r.Intn(3))
	if m.fresh && m.r.Intn(4) == 0 {
		g = fmt.Sprintf("g%d", m.nextV)
	}
	return fragment.ID{relation.String(g), relation.Int(m.nextV)}
}

// pick returns a live fragment not in used, preferring one holding kw when
// kw is non-empty; ok is false when there is none.
func (m *cowModel) pick(used map[string]bool, kw string) (cowFrag, bool) {
	var keys []string
	for k, f := range m.frags {
		if !used[k] && (kw == "" || f.terms[kw] > 0) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return cowFrag{}, false
	}
	sort.Strings(keys)
	return m.frags[keys[m.r.Intn(len(keys))]], true
}

// change draws one change of the given kind against fragments not yet in
// used, and applies it to the model.
func (m *cowModel) change(kind int, used map[string]bool) (crawl.FragmentChange, bool) {
	switch kind {
	case 0, 1, 2, 3: // update: overlapping, disjoint, gaining, losing a keyword
		f, ok := m.pick(used, "")
		if !ok {
			return crawl.FragmentChange{}, false
		}
		terms := make(map[string]int64)
		old := sortedKeys(f.terms)
		switch kind {
		case 0: // keep one keyword, with a new TF, and draw the rest afresh
			kw := old[m.r.Intn(len(old))]
			terms[kw] = 1 + f.terms[kw]%3
			for kw, tf := range m.terms(terms) {
				terms[kw] = tf
			}
		case 1:
			terms = m.terms(f.terms)
		case 2:
			for kw, tf := range f.terms {
				terms[kw] = tf
			}
			kw := sortedKeys(m.terms(f.terms))[0]
			terms[kw] = 1
		case 3:
			if len(old) < 2 {
				return crawl.FragmentChange{}, false
			}
			for _, kw := range old[1:] {
				terms[kw] = f.terms[kw]
			}
		}
		used[f.id.Key()] = true
		m.frags[f.id.Key()] = cowFrag{f.id, terms}
		return crawl.FragmentChange{Op: crawl.OpUpdateFragment, ID: f.id, TermCounts: terms, TotalTerms: int64(len(terms))}, true
	case 4: // insert
		f := cowFrag{m.newID(), m.terms(nil)}
		used[f.id.Key()] = true
		m.frags[f.id.Key()] = f
		return crawl.FragmentChange{Op: crawl.OpInsertFragment, ID: f.id, TermCounts: f.terms, TotalTerms: int64(len(f.terms))}, true
	default: // remove
		f, ok := m.pick(used, "")
		if !ok {
			return crawl.FragmentChange{}, false
		}
		used[f.id.Key()] = true
		delete(m.frags, f.id.Key())
		return crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: f.id}, true
	}
}

// removeWith removes a live fragment holding kw; insertWith inserts a new
// fragment holding kw. Both apply to the model.
func (m *cowModel) removeWith(kw string, used map[string]bool) (crawl.FragmentChange, bool) {
	f, ok := m.pick(used, kw)
	if !ok {
		return crawl.FragmentChange{}, false
	}
	used[f.id.Key()] = true
	delete(m.frags, f.id.Key())
	return crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: f.id}, true
}

func (m *cowModel) insertWith(kw string, used map[string]bool) crawl.FragmentChange {
	terms := m.terms(map[string]int64{kw: 1})
	terms[kw] = int64(1 + m.r.Intn(3))
	f := cowFrag{m.newID(), terms}
	used[f.id.Key()] = true
	m.frags[f.id.Key()] = f
	return crawl.FragmentChange{Op: crawl.OpInsertFragment, ID: f.id, TermCounts: terms, TotalTerms: int64(len(terms))}
}

// reference builds the model's state from scratch, for comparing dumps.
func (m *cowModel) reference(t *testing.T) *Dump {
	t.Helper()
	idx, err := New(cowSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.frags {
		if _, err := idx.InsertFragment(f.id, f.terms, int64(len(f.terms))); err != nil {
			t.Fatal(err)
		}
	}
	return idx.Dump()
}

var cowSpec = Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

// TestCoWIsolationRandomHistories runs random histories through a
// LiveIndex and captures every published snapshot at its publish: no later
// publish — header-only tombstone clones sharing postings, inserts copying
// them, threshold compactions of shared or owned lists, CompactIfNeeded —
// may change a capture. The histories mix updates with overlapping and
// with disjoint keyword sets, fragments gaining and losing a keyword,
// inserts, removals, and a tombstone followed by an insert on the same
// keyword both within one publish and across consecutive publishes, new
// keywords and new groups, and lists emptied and so dropped from a shard
// shared with the published snapshot. After every publish the serving
// state must also equal a from-scratch build of the model. A
// tombstone-only publish must share its parent's postings arrays and
// report no cloned lists.
func TestCoWIsolationRandomHistories(t *testing.T) {
	ctx := context.Background()
	var compacted, dropped, newGroups, gcs, shared int
	for trial := 0; trial < 8; trial++ {
		m := &cowModel{r: rand.New(rand.NewSource(int64(trial))), frags: make(map[string]cowFrag), fresh: true}
		idx, err := New(cowSpec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			ch, _ := m.change(4, map[string]bool{})
			if _, err := idx.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms); err != nil {
				t.Fatal(err)
			}
		}
		l := NewLive(idx)
		snaps := []*Snapshot{l.Snapshot()}
		caps := []map[string]any{capture(l.Snapshot())}
		publish := func(changes []crawl.FragmentChange) ApplyStats {
			t.Helper()
			prev := l.Snapshot()
			st, err := l.Apply(ctx, crawl.Delta{Changes: changes})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			s := l.Snapshot()
			prev.eachList(func(kw string, pl *postingList) {
				now := s.list(kw)
				if now == nil {
					dropped++
				}
				if now == nil || now.n < pl.n {
					compacted++
				}
			})
			if s.ngroups > prev.ngroups {
				newGroups++
			}
			snaps, caps = append(snaps, s), append(caps, capture(s))
			got, want := l.Dump(), m.reference(t)
			got.Epoch, want.Epoch = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: serving state diverged from the model after %v", trial, changes)
			}
			return st
		}
		for step := 0; step < 60; step++ {
			used := make(map[string]bool)
			var changes []crawl.FragmentChange
			switch kind := m.r.Intn(10); kind {
			case 7: // tombstone then insert on one keyword, in one publish
				kw := m.kw(m.r.Intn(cowVocab))
				if ch, ok := m.removeWith(kw, used); ok {
					changes = append(changes, ch, m.insertWith(kw, used))
				}
			case 8: // the same across two consecutive publishes
				kw := m.kw(m.r.Intn(cowVocab))
				if ch, ok := m.removeWith(kw, used); ok {
					publish([]crawl.FragmentChange{ch})
					changes = append(changes, m.insertWith(kw, map[string]bool{}))
				}
			case 9: // a tombstone-only publish, or the snapshot GC
				if m.r.Intn(2) == 0 {
					ran, err := l.CompactIfNeeded(ctx, 0.2)
					if err != nil {
						t.Fatal(err)
					}
					if ran {
						gcs++
						snaps, caps = append(snaps, l.Snapshot()), append(caps, capture(l.Snapshot()))
					}
					continue
				}
				prev := l.Snapshot()
				ch, ok := m.change(5, used)
				if !ok {
					continue
				}
				st := publish([]crawl.FragmentChange{ch})
				copies := 0
				for _, kw := range prev.kwsAt(mustLookup(t, prev, ch.ID)) {
					before, after := prev.list(kw), l.Snapshot().list(kw)
					if after == nil {
						continue // the last live posting: the list is dropped, not copied
					}
					if after.dead == 0 {
						copies++ // compacted: a fresh array of the live postings
						continue
					}
					if after == before || !sameBlocks(after, before) {
						t.Fatalf("trial %d: tombstone on %q did not clone the header and share the postings", trial, kw)
					}
					shared++
				}
				if st.ClonedLists != copies {
					t.Errorf("trial %d: tombstone-only publish reports %d cloned lists, %d compacted", trial, st.ClonedLists, copies)
				}
				continue
			default: // 1–4 random changes
				for n := 1 + m.r.Intn(4); len(changes) < n; {
					if ch, ok := m.change(m.r.Intn(6), used); ok {
						changes = append(changes, ch)
					}
				}
			}
			if len(changes) > 0 {
				publish(changes)
			}
		}
		for i, s := range snaps {
			if !reflect.DeepEqual(capture(s), caps[i]) {
				t.Fatalf("trial %d: snapshot %d of %d changed after its publish", trial, i, len(snaps))
			}
		}
	}
	if compacted == 0 || dropped == 0 || newGroups == 0 || gcs == 0 || shared == 0 {
		t.Errorf("histories missed a path: %d threshold compactions, %d dropped lists, %d publishes creating groups, %d snapshot GCs, %d shared tombstones",
			compacted, dropped, newGroups, gcs, shared)
	}
}

// TestUpdateKeepsGroupSlot checks the in-place update against what it
// replaces, a removal followed by an insert: over random histories, an
// index that updates in place and one that removes and re-inserts hold
// the same Dump, the same graph edges as identifier pairs, and every live
// fragment at the same group position, on the same path of identifiers
// and node weights. And an update in a group whose
// members span several chunks clones at most two chunks — the old ref's
// and the append tail — and exactly one group.
func TestUpdateKeepsGroupSlot(t *testing.T) {
	edges := func(idx *Index) []string {
		var out []string
		for _, e := range idx.Edges() {
			a, b := idKey(idx, e[0]), idKey(idx, e[1])
			out = append(out, min(a, b)+"|"+max(a, b))
		}
		sort.Strings(out)
		return out
	}
	paths := func(idx *Index) map[string]string {
		out := make(map[string]string)
		for ref := FragRef(0); int(ref) < idx.NumRefs(); ref++ {
			if members, weights, _, pos, err := idx.s.GroupPath(ref); err == nil {
				ids := make([]string, len(members))
				for i, m := range members {
					ids[i] = idKey(idx, m)
				}
				out[idKey(idx, ref)] = fmt.Sprint(pos, ids, weights)
			}
		}
		return out
	}
	updates := 0
	for trial := 0; trial < 8; trial++ {
		m := &cowModel{r: rand.New(rand.NewSource(int64(trial))), frags: make(map[string]cowFrag), fresh: true}
		inPlace, err := New(cowSpec)
		if err != nil {
			t.Fatal(err)
		}
		spliced, err := New(cowSpec)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 120; step++ {
			kind := m.r.Intn(6)
			if step < 20 {
				kind = 4 // grow the groups first
			}
			ch, ok := m.change(kind, map[string]bool{})
			if !ok {
				continue
			}
			if err := applyChange(inPlace, ch); err != nil {
				t.Fatal(err)
			}
			op := ch.Op
			if op == crawl.OpUpdateFragment {
				updates++
				if err := spliced.RemoveFragment(ch.ID); err != nil {
					t.Fatal(err)
				}
				ch.Op = crawl.OpInsertFragment
			}
			if err := applyChange(spliced, ch); err != nil {
				t.Fatal(err)
			}
			if step%3 == 0 {
				inPlace.Freeze()
				spliced.Freeze()
			}
			if !reflect.DeepEqual(inPlace.Dump(), spliced.Dump()) {
				t.Fatalf("trial %d step %d: dumps differ after %s %s", trial, step, op, ch.ID)
			}
			if !slices.Equal(edges(inPlace), edges(spliced)) {
				t.Fatalf("trial %d step %d: edges differ after %s %s", trial, step, op, ch.ID)
			}
			if !maps.Equal(paths(inPlace), paths(spliced)) {
				t.Fatalf("trial %d step %d: group paths differ after %s %s", trial, step, op, ch.ID)
			}
		}
	}
	if updates == 0 {
		t.Fatal("histories drew no update")
	}

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
	if _, _, _, pos, err := idx.s.GroupPath(mustLookup(t, idx.s, id(chunkSize+5))); err != nil || pos != chunkSize+5 {
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

// applyChange applies one delta change to idx.
func applyChange(idx *Index, ch crawl.FragmentChange) error {
	switch ch.Op {
	case crawl.OpInsertFragment:
		_, err := idx.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
		return err
	case crawl.OpUpdateFragment:
		return idx.UpdateFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
	default:
		return idx.RemoveFragment(ch.ID)
	}
}

// idKey returns ref's identifier key.
func idKey(idx *Index, ref FragRef) string { return idx.s.metaAt(ref).ID.Key() }

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func mustLookup(t *testing.T, s *Snapshot, id fragment.ID) FragRef {
	t.Helper()
	ref, ok := s.Lookup(id)
	if !ok {
		t.Fatalf("%s not in the snapshot", id)
	}
	return ref
}

// sameBlocks reports whether a and b hold the same blocks: the same
// arrays, at the same lengths.
func sameBlocks(a, b *postingList) bool {
	if len(a.blocks) != len(b.blocks) {
		return false
	}
	for i := range a.blocks {
		if &a.blocks[i].ps[0] != &b.blocks[i].ps[0] || len(a.blocks[i].ps) != len(b.blocks[i].ps) {
			return false
		}
	}
	return true
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
