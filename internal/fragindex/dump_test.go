package fragindex

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
)

// output renders the model's live fragments that keep admits as a crawl
// output, each keyword list in the crawler's (TF descending, fragment key
// ascending) order — which is not identifier order once range values
// change sign, so a Build from it stores lists a Dump must re-sort.
func (m *cowModel) output(keep func(fragment.ID) bool) *crawl.Output {
	out := &crawl.Output{
		SelAttrs:      cowSpec.SelAttrs,
		FragmentTerms: make(map[string]int64),
		Inverted:      make(map[string][]crawl.Posting),
	}
	for key, f := range m.frags {
		if !keep(f.id) {
			continue
		}
		out.FragmentTerms[key] = int64(len(f.terms))
		for kw, tf := range f.terms {
			out.Inverted[kw] = append(out.Inverted[kw], crawl.Posting{FragKey: key, TF: tf})
		}
	}
	for _, ps := range out.Inverted {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].TF != ps[j].TF {
				return ps[i].TF > ps[j].TF
			}
			return ps[i].FragKey < ps[j].FragKey
		})
	}
	return out
}

// builtDump is the Dump of a from-scratch Build of out.
func builtDump(t *testing.T, out *crawl.Output) *Dump {
	t.Helper()
	idx, err := Build(out, cowSpec)
	if err != nil {
		t.Fatal(err)
	}
	return idx.Dump()
}

// withEpoch returns a copy of d stamped with epoch e.
func withEpoch(d *Dump, e uint64) *Dump {
	c := *d
	c.Epoch = e
	return &c
}

// TestDumpEquivalenceRandomHistories runs TestCoWIsolationRandomHistories'
// random histories and, after every publish and every snapshot GC, checks
// the bulk dump/rebuild path three ways: the serving Dump equals the Dump
// of a from-scratch Build of the model's live fragments; Restore of that
// Dump dumps back to it exactly; and a compaction — a Restore of the
// shard's own Dump — dumps exactly like the snapshot it replaced, apart
// from the epoch. Every few steps a 2-way NewShardedLive split of the
// serving state must also equal per-shard Builds of the routed fragments,
// each shard at the epoch of its fragment count.
func TestDumpEquivalenceRandomHistories(t *testing.T) {
	ctx := context.Background()
	all := func(fragment.ID) bool { return true }
	var gcs, splits int
	for trial := 0; trial < 8; trial++ {
		// Range values start negative and climb past zero: a key encodes an
		// integer's two's complement, so fragment-key order — the order a
		// Build adopts — then disagrees with identifier order.
		m := &cowModel{r: rand.New(rand.NewSource(int64(trial))), frags: make(map[string]cowFrag), nextV: -40}
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
		check := func(what string) {
			t.Helper()
			got := l.Dump()
			if want := builtDump(t, m.output(all)); !reflect.DeepEqual(withEpoch(got, 0), want) {
				t.Fatalf("trial %d, %s: Dump differs from a from-scratch Build", trial, what)
			}
			r, err := Restore(got)
			if err != nil {
				t.Fatalf("trial %d, %s: Restore of the Dump: %v", trial, what, err)
			}
			if !reflect.DeepEqual(r.Dump(), got) {
				t.Fatalf("trial %d, %s: Restore(d).Dump() differs from d", trial, what)
			}
		}
		for step := 0; step < 80; step++ {
			if m.r.Intn(5) == 0 {
				before := l.Snapshot().dump(nil)
				ran, err := l.CompactIfNeeded(ctx, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				if !ran {
					continue
				}
				gcs++
				if after := l.Dump(); !reflect.DeepEqual(after, withEpoch(before, before.Epoch+1)) {
					t.Fatalf("trial %d step %d: compaction changed the dumped state", trial, step)
				}
				check("after a compaction")
				continue
			}
			used := make(map[string]bool)
			var changes []crawl.FragmentChange
			for n := 1 + m.r.Intn(4); len(changes) < n; {
				if ch, ok := m.change(m.r.Intn(6), used); ok {
					changes = append(changes, ch)
				}
			}
			if _, err := l.Apply(ctx, crawl.Delta{Changes: changes}); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			check("after a publish")
			if step%10 != 9 {
				continue
			}
			// A split of n > 1 only reads the builder it is handed — here
			// the serving one, tombstones and all.
			sl, err := NewShardedLive(l.builder, 2)
			if err != nil {
				t.Fatal(err)
			}
			splits++
			for si := 0; si < 2; si++ {
				want := builtDump(t, m.output(func(id fragment.ID) bool {
					shard, err := sl.ShardFor(id)
					return err == nil && shard == si
				}))
				got := sl.Shard(si).Dump()
				if got.Epoch != uint64(len(got.FragKeys)) {
					t.Fatalf("trial %d step %d: shard %d publishes at epoch %d, holds %d fragments",
						trial, step, si, got.Epoch, len(got.FragKeys))
				}
				if !reflect.DeepEqual(withEpoch(got, 0), want) {
					t.Fatalf("trial %d step %d: split shard %d differs from a Build of its fragments", trial, step, si)
				}
			}
		}
	}
	if gcs == 0 || splits == 0 {
		t.Errorf("histories missed a path: %d snapshot GCs, %d splits", gcs, splits)
	}
}
