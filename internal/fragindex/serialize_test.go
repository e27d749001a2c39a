package fragindex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// TestDumpRestoreRoundTrip: Restore(Dump()) reproduces the exact logical
// state. Every checker step restores the serving Dump and dumps it again,
// and a 'd' step serves the restored index.
func TestDumpRestoreRoundTrip(t *testing.T) {
	checkModel(t, modelConfig{name: "roundtrip", trials: 2, steps: 30, corpus: 10, ops: "ppd"})
}

// TestDumpCanonical: two indexes reaching the same logical state through
// different mutation histories dump identically (modulo epoch, which counts
// mutations) — the recovery-equivalence bedrock. Every checker step
// compares the serving index with a twin that updates by removal and
// insert, and with a from-scratch Build.
func TestDumpCanonical(t *testing.T) {
	checkModel(t, modelConfig{name: "canonical", trials: 2, steps: 30, corpus: 10, ops: "pppf"})
}

// TestSetEpoch: the forced epoch is what the next snapshot reports — the
// contract journal replay leans on to land on the acknowledged epoch.
func TestSetEpoch(t *testing.T) {
	idx := fooddbIndex(t)
	idx.SetEpoch(41)
	if got := idx.Freeze().Epoch(); got != 41 {
		t.Fatalf("epoch after SetEpoch(41) = %d", got)
	}
	l := NewLive(idx)
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	st, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Snapshot().Epoch(); got <= 41 || got != st.Epoch {
		t.Fatalf("epoch after one apply = %d (stats %d), want > 41 and agreeing", got, st.Epoch)
	}
}

// corruptDump builds a small valid dump, lets the caller damage it, and
// expects Restore to answer ErrCorruptIndex.
func corruptDump(t *testing.T, name string, damage func(d *Dump)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		idx := fooddbIndex(t)
		d := idx.Dump()
		damage(d)
		if _, err := Restore(d); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("err = %v, want ErrCorruptIndex", err)
		}
	})
}

// TestRestoreRejectsCorruption: every invariant violation Restore guards —
// each would silently corrupt group or document-frequency state if accepted.
func TestRestoreRejectsCorruption(t *testing.T) {
	corruptDump(t, "fragment arrays disagree", func(d *Dump) {
		d.Terms = d.Terms[:len(d.Terms)-1]
	})
	corruptDump(t, "keyword arrays disagree", func(d *Dump) {
		d.Postings = d.Postings[:len(d.Postings)-1]
	})
	corruptDump(t, "bad fragment key", func(d *Dump) {
		d.FragKeys[0] = "not a fragment key"
	})
	corruptDump(t, "fragment arity", func(d *Dump) {
		d.FragKeys[0] = fragment.ID{relation.String("x")}.Key()
	})
	corruptDump(t, "duplicate fragment key", func(d *Dump) {
		d.FragKeys[1] = d.FragKeys[0]
	})
	corruptDump(t, "empty keyword", func(d *Dump) {
		d.Keywords[0] = ""
	})
	corruptDump(t, "posting ref out of range", func(d *Dump) {
		d.Postings[0][0].Frag = FragRef(len(d.FragKeys))
	})
	corruptDump(t, "negative posting ref", func(d *Dump) {
		d.Postings[0][0].Frag = -1
	})
	corruptDump(t, "duplicate posting", func(d *Dump) {
		d.Postings[0] = append(d.Postings[0], d.Postings[0][0])
	})
	corruptDump(t, "duplicate keyword", func(d *Dump) {
		d.Keywords[1] = d.Keywords[0]
	})
	corruptDump(t, "negative total", func(d *Dump) {
		d.Terms[0] = -5
	})
	corruptDump(t, "total past int32", func(d *Dump) {
		d.Terms[0] = math.MaxInt32 + 1
	})
}

// TestRestoreRejectsMisorderedPostings: Restore accepts a posting list only
// in strict (TF descending, identifier ascending) order with positive TFs —
// the order insertPosting and the search's TF cutoff binary-search on, so
// a list out of it would answer wrong without failing.
func TestRestoreRejectsMisorderedPostings(t *testing.T) {
	cases := []struct {
		name string
		ps   []Posting
		ok   bool
	}{
		{"ordered, tie in identifier order", []Posting{{2, 7}, {0, 2}, {1, 2}}, true},
		{"reversed, negative TF", []Posting{{0, -5}, {1, 2}, {2, 7}}, false},
		{"ascending TF", []Posting{{0, 1}, {1, 2}, {2, 3}}, false},
		{"tie out of identifier order", []Posting{{2, 7}, {1, 2}, {0, 2}}, false},
		{"zero TF", []Posting{{0, 3}, {1, 0}}, false},
		{"negative TF alone", []Posting{{1, -1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &Dump{
				SelAttrs: []string{"c", "v"},
				EqAttrs:  []string{"c"},
				FragKeys: []string{
					fragment.ID{relation.String("a"), relation.Int(1)}.Key(),
					fragment.ID{relation.String("a"), relation.Int(2)}.Key(),
					fragment.ID{relation.String("b"), relation.Int(1)}.Key(),
				},
				Terms:    []int64{9, 9, 9},
				Keywords: []string{"kw"},
				Postings: [][]Posting{tc.ps},
			}
			_, err := Restore(d)
			if tc.ok && err != nil {
				t.Fatalf("ordered list rejected: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("err = %v, want ErrCorruptIndex", err)
			}
		})
	}
}

// fuzzDump decodes fuzz input into a small Dump over the spec (c, v) with
// equality attribute c. Every field is drawn from b — up to 7 fragments
// (group a–c, an int8 range value, int8 terms), then up to 5 keywords ("" or
// k1–k5), each with up to 4 postings (ref −8…8, TF from fuzzTF) — so the
// fuzzer reaches every check Restore makes: duplicate or unsorted
// fragments, duplicate or empty keywords, out-of-range or duplicate refs,
// misordered lists and non-positive TFs. Input past what is needed is
// ignored, and missing input reads as zero.
func fuzzDump(b []byte) *Dump {
	next := func() int8 {
		if len(b) == 0 {
			return 0
		}
		v := int8(b[0])
		b = b[1:]
		return v
	}
	d := &Dump{SelAttrs: []string{"c", "v"}, EqAttrs: []string{"c"}, RangeAttr: "v"}
	for n := uint8(next()) % 8; n > 0; n-- {
		g := string(rune('a' + uint8(next())%3))
		d.FragKeys = append(d.FragKeys, fragment.ID{relation.String(g), relation.Int(int64(next()))}.Key())
		d.Terms = append(d.Terms, int64(next()))
	}
	for n := uint8(next()) % 6; n > 0; n-- {
		kw := ""
		if v := uint8(next()) % 6; v > 0 {
			kw = fmt.Sprintf("k%d", v)
		}
		var ps []Posting
		for m := uint8(next()) % 5; m > 0; m-- {
			ref, tf := FragRef(next()%9), next()
			ps = append(ps, Posting{Frag: ref, TF: fuzzTF(tf)})
		}
		d.Keywords = append(d.Keywords, kw)
		d.Postings = append(d.Postings, ps)
	}
	return d
}

// fuzzTF maps a fuzz byte to a TF in −7…7, except at the two extremes: 127
// is math.MaxInt32, the largest TF a posting holds, and −128 is
// math.MinInt32, what a TF of 2³¹ becomes if anything truncates it to a
// posting's int32.
func fuzzTF(v int8) int32 {
	switch v {
	case math.MaxInt8:
		return math.MaxInt32
	case math.MinInt8:
		return math.MinInt32
	}
	return int32(v % 8)
}

// FuzzRestore: Restore, the decoder behind replica bootstrap and crash
// recovery, either refuses a dump with ErrCorruptIndex or builds an index
// whose every posting list is in strict (TF descending, identifier
// ascending) order with positive TFs, and whose own Dump restores to
// itself. Seeds live in testdata/fuzz/FuzzRestore.
func FuzzRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		idx, err := Restore(fuzzDump(b))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		s := idx.Snapshot()
		s.eachList(func(kw string, pl *postingList) {
			ps := rawPostings(pl)
			for i, p := range ps {
				if p.TF <= 0 {
					t.Fatalf("%q: accepted TF %d", kw, p.TF)
				}
				if i == 0 {
					continue
				}
				q := ps[i-1]
				if q.TF < p.TF || q.TF == p.TF && s.metaAt(q.Frag).ID.Compare(s.metaAt(p.Frag).ID) >= 0 {
					t.Fatalf("%q: accepted misordered postings %v", kw, ps)
				}
			}
		})
		d := idx.Dump()
		again, err := Restore(d)
		if err != nil {
			t.Fatalf("own dump rejected: %v", err)
		}
		if !reflect.DeepEqual(again.Dump(), d) {
			t.Fatal("dump does not round-trip")
		}
	})
}

// TestInsertRejectsUnrestorablePostings: an insert or update whose
// statistics Restore would refuse — an empty keyword, a non-positive TF, or
// a total outside 0…math.MaxInt32 — or whose TF does not fit a posting's
// int32 fails and changes nothing, so an index's own Dump always restores
// and no TF is truncated.
func TestInsertRejectsUnrestorablePostings(t *testing.T) {
	for name, c := range map[string]struct {
		counts map[string]int64
		total  int64
	}{
		"zero TF":        {map[string]int64{"burger": 1, "fries": 0}, 1},
		"negative TF":    {map[string]int64{"burger": -2}, 1},
		"empty keyword":  {map[string]int64{"": 1}, 1},
		"TF 2^31":        {map[string]int64{"burger": 1, "fries": math.MaxInt32 + 1}, 1},
		"negative total": {map[string]int64{"burger": 1}, -5},
		"total 2^31":     {map[string]int64{"burger": 1}, math.MaxInt32 + 1},
	} {
		t.Run(name, func(t *testing.T) {
			idx := fooddbIndex(t)
			before := idx.Dump()
			if _, err := idx.InsertFragment(fragment.ID{relation.String("Nordic"), relation.Int(1)}, c.counts, c.total); err == nil {
				t.Error("insert accepted")
			}
			if err := idx.UpdateFragment(fragment.ID{relation.String("American"), relation.Int(10)}, c.counts, c.total); err == nil {
				t.Error("update accepted")
			}
			if !reflect.DeepEqual(idx.Dump(), before) {
				t.Error("a rejected change changed the index")
			}
		})
	}
}

// TestBuildRejectsTFPastInt32: a crawl output whose TF does not fit a
// posting's int32, or whose fragment total is outside 0…math.MaxInt32,
// fails to build instead of building truncated postings or a negative
// node weight; math.MaxInt32 itself builds, and dumps and restores exactly.
func TestBuildRejectsTFPastInt32(t *testing.T) {
	key := fragment.ID{relation.String("a"), relation.Int(1)}.Key()
	build := func(tf, total int64) (*Index, error) {
		return Build(&crawl.Output{
			SelAttrs:      cowSpec.SelAttrs,
			FragmentTerms: map[string]int64{key: total},
			Inverted:      map[string][]crawl.Posting{"kw": {{FragKey: key, TF: tf}}},
		}, cowSpec)
	}
	for _, c := range [][2]int64{{math.MaxInt32 + 1, 1}, {1, -5}, {1, math.MaxInt32 + 1}} {
		if _, err := build(c[0], c[1]); err == nil {
			t.Errorf("Build accepted TF %d, total %d", c[0], c[1])
		}
	}
	idx, err := build(math.MaxInt32, math.MaxInt32)
	if err != nil {
		t.Fatalf("Build rejected TF math.MaxInt32: %v", err)
	}
	if ps := idx.Postings("kw"); len(ps) != 1 || ps[0].TF != math.MaxInt32 {
		t.Fatalf("postings %v, want one of TF %d", ps, math.MaxInt32)
	}
	d := idx.Dump()
	again, err := Restore(d)
	if err != nil || !reflect.DeepEqual(again.Dump(), d) {
		t.Fatalf("dump of TF math.MaxInt32 does not round-trip: %v", err)
	}
}

// TestSortRefsByID covers both paths of the sorted-check fast path: already
// sorted input returns untouched, unsorted input comes out fully ordered.
func TestSortRefsByID(t *testing.T) {
	idx := fooddbIndex(t)
	s := idx.s
	n := s.numRefs
	refs := make([]FragRef, n)
	for i := range refs {
		refs[i] = FragRef(i)
	}
	sortRefsByID(s, refs)
	for i := 1; i < n; i++ {
		if s.metaAt(refs[i-1]).ID.Compare(s.metaAt(refs[i]).ID) > 0 {
			t.Fatalf("refs not sorted at %d", i)
		}
	}
	sorted := append([]FragRef(nil), refs...)
	// Reverse and re-sort: must match the first ordering exactly.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		refs[i], refs[j] = refs[j], refs[i]
	}
	sortRefsByID(s, refs)
	if !reflect.DeepEqual(refs, sorted) {
		t.Error("sorting reversed input diverged from sorted input")
	}
}

// TestPublishHookWriteAhead: the hook observes the folded delta and epoch
// before the swap; a hook error aborts the publish entirely — nothing
// served, builder rolled back.
func TestPublishHookWriteAhead(t *testing.T) {
	l := liveFooddb(t)
	var hooked []uint64
	fail := false
	l.SetPublishHook(func(_ context.Context, d crawl.Delta, epoch uint64) error {
		if fail {
			return errors.New("journal down")
		}
		if len(d.Changes) == 0 {
			t.Error("hook saw an empty delta")
		}
		// The swap must not have happened yet: the serving snapshot still
		// reports the previous epoch.
		if got := l.Snapshot().Epoch(); got >= epoch {
			t.Errorf("hook ran after publish: serving epoch %d >= hooked %d", got, epoch)
		}
		hooked = append(hooked, epoch)
		return nil
	})
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 2}, 2)); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != l.Snapshot().Epoch() {
		t.Fatalf("hooked epochs %v, serving epoch %d", hooked, l.Snapshot().Epoch())
	}

	fail = true
	before := l.Snapshot()
	if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 9}, 9)); err == nil {
		t.Fatal("apply succeeded with a failing hook")
	}
	if l.Snapshot() != before {
		t.Error("failed hook still published")
	}
	fail = false
	// The builder rolled back: the next apply publishes cleanly with no
	// trace of the aborted delta. "zanzibar" is new to the corpus, so its
	// DF isolates this update.
	if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"zanzibar": 1}, 1)); err != nil {
		t.Fatal(err)
	}
	s := l.Snapshot()
	if s.DF("zanzibar") != 1 {
		t.Error("post-abort apply missing its change")
	}
	if tf := postingTF(s, "burger", id); tf == 9 {
		t.Error("aborted delta leaked into a later snapshot")
	}
}

func postingTF(s *Snapshot, kw string, id fragment.ID) int32 {
	for _, p := range s.Postings(kw) {
		if m, err := s.Meta(p.Frag); err == nil && m.ID.Compare(id) == 0 {
			return p.TF
		}
	}
	return -1
}
