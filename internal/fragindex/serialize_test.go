package fragindex

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// dumpOf round-trips an index through Dump for comparisons.
func dumpOf(t *testing.T, idx *Index) *Dump {
	t.Helper()
	d := idx.Dump()
	if len(d.FragKeys) != len(d.Terms) || len(d.Keywords) != len(d.Postings) {
		t.Fatalf("inconsistent dump: %d/%d frags, %d/%d keywords",
			len(d.FragKeys), len(d.Terms), len(d.Keywords), len(d.Postings))
	}
	return d
}

// TestDumpRestoreRoundTrip: Restore(Dump()) reproduces the exact logical
// state — the restored index dumps byte-identically and serves the same
// postings.
func TestDumpRestoreRoundTrip(t *testing.T) {
	idx := fooddbIndex(t)
	// Mix in mutations so tombstones and updated lists are exercised.
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	if err := idx.UpdateFragment(id, map[string]int64{"burger": 3, "shake": 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := idx.RemoveFragment(fragment.ID{relation.String("Thai"), relation.Int(10)}); err != nil {
		t.Fatal(err)
	}
	d := dumpOf(t, idx)

	got, err := Restore(d)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(got.Dump(), d) {
		t.Error("restored index dumps differently from its source")
	}
	a, b := idx.Freeze(), got.Freeze()
	if a.Epoch() != b.Epoch() {
		t.Errorf("epochs differ: %d vs %d", a.Epoch(), b.Epoch())
	}
	if a.NumFragments() != b.NumFragments() || a.NumKeywords() != b.NumKeywords() {
		t.Errorf("cardinality differs: %d/%d vs %d/%d",
			a.NumFragments(), a.NumKeywords(), b.NumFragments(), b.NumKeywords())
	}
	for _, kw := range a.Keywords() {
		if a.DF(kw) != b.DF(kw) {
			t.Errorf("%q: DF %d vs %d", kw, a.DF(kw), b.DF(kw))
		}
	}
}

// TestDumpCanonical: two indexes reaching the same logical state through
// different mutation histories dump identically (modulo epoch, which counts
// mutations) — the recovery-equivalence bedrock.
func TestDumpCanonical(t *testing.T) {
	direct := fooddbIndex(t)
	id := fragment.ID{relation.String("Nordic"), relation.Int(7)}
	if _, err := direct.InsertFragment(id, map[string]int64{"herring": 2, "rye": 1}, 3); err != nil {
		t.Fatal(err)
	}

	detour := fooddbIndex(t)
	// Insert wrong, update right, plus an insert/remove pair that must leave
	// no trace in the canonical form.
	tmp := fragment.ID{relation.String("Zanzibar"), relation.Int(1)}
	if _, err := detour.InsertFragment(id, map[string]int64{"lutefisk": 9}, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := detour.InsertFragment(tmp, map[string]int64{"clove": 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := detour.UpdateFragment(id, map[string]int64{"herring": 2, "rye": 1}, 3); err != nil {
		t.Fatal(err)
	}
	if err := detour.RemoveFragment(tmp); err != nil {
		t.Fatal(err)
	}

	da, db := direct.Dump(), detour.Dump()
	da.Epoch, db.Epoch = 0, 0
	if !reflect.DeepEqual(da, db) {
		t.Error("same logical state dumped differently across mutation histories")
	}
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

// TestInsertRejectsUnrestorablePostings: an insert whose statistics Restore
// would refuse — an empty keyword or a non-positive TF — or whose TF does
// not fit a posting's int32 fails and changes nothing, so an index's own
// Dump always restores and no TF is truncated.
func TestInsertRejectsUnrestorablePostings(t *testing.T) {
	for name, counts := range map[string]map[string]int64{
		"zero TF":       {"burger": 1, "fries": 0},
		"negative TF":   {"burger": -2},
		"empty keyword": {"": 1},
		"TF 2^31":       {"burger": 1, "fries": math.MaxInt32 + 1},
	} {
		t.Run(name, func(t *testing.T) {
			idx := fooddbIndex(t)
			before := dumpOf(t, idx)
			id := fragment.ID{relation.String("Nordic"), relation.Int(1)}
			if _, err := idx.InsertFragment(id, counts, 1); err == nil {
				t.Fatal("insert accepted")
			}
			if !reflect.DeepEqual(dumpOf(t, idx), before) {
				t.Error("rejected insert changed the index")
			}
		})
	}
}

// TestBuildRejectsTFPastInt32: a crawl output whose TF does not fit a
// posting's int32 fails to build instead of building truncated postings;
// math.MaxInt32 itself builds, and dumps and restores exactly.
func TestBuildRejectsTFPastInt32(t *testing.T) {
	key := fragment.ID{relation.String("a"), relation.Int(1)}.Key()
	build := func(tf int64) (*Index, error) {
		return Build(&crawl.Output{
			SelAttrs:      cowSpec.SelAttrs,
			FragmentTerms: map[string]int64{key: tf},
			Inverted:      map[string][]crawl.Posting{"kw": {{FragKey: key, TF: tf}}},
		}, cowSpec)
	}
	if _, err := build(math.MaxInt32 + 1); err == nil {
		t.Error("Build accepted TF 2^31")
	}
	idx, err := build(math.MaxInt32)
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

// TestSaveLoadCanonicalState: the gob envelope preserves the canonical
// dump exactly (the broader round-trip lives in TestSaveLoadRoundTrip).
func TestSaveLoadCanonicalState(t *testing.T) {
	idx := fooddbIndex(t)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := idx.Dump(), got.Dump()
	// Save does not carry the epoch; everything else must survive.
	d1.Epoch, d2.Epoch = 0, 0
	if !reflect.DeepEqual(d1, d2) {
		t.Error("Save/Load changed the logical state")
	}
}

// loadWire gob-encodes a hand-built wire struct and runs it through Load —
// corruption below the Dump level, as a damaged or malicious file would
// carry it.
func loadWire(t *testing.T, wire *indexWire) error {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	return err
}

// TestLoadRejectsCorruptFiles: Load refuses wire-level corruption with
// ErrCorruptIndex instead of building a broken index — duplicate fragment
// keys, out-of-range postings, and duplicate postings were previously
// accepted silently.
func TestLoadRejectsCorruptFiles(t *testing.T) {
	base := func() *indexWire {
		return &indexWire{
			SelAttrs: []string{"c", "v"},
			EqAttrs:  []string{"c"},
			FragKeys: []string{
				fragment.ID{relation.String("a"), relation.Int(1)}.Key(),
				fragment.ID{relation.String("a"), relation.Int(2)}.Key(),
			},
			Terms: []int64{3, 4},
			Inverted: map[string][]wirePosting{
				"kw": {{Frag: 0, TF: 2}, {Frag: 1, TF: 1}},
			},
		}
	}
	if err := loadWire(t, base()); err != nil {
		t.Fatalf("baseline wire rejected: %v", err)
	}
	cases := []struct {
		name   string
		damage func(w *indexWire)
	}{
		{"truncated gob", nil}, // handled separately below
		{"duplicate fragment key", func(w *indexWire) { w.FragKeys[1] = w.FragKeys[0] }},
		{"posting ref out of range", func(w *indexWire) { w.Inverted["kw"][1].Frag = 2 }},
		{"negative posting ref", func(w *indexWire) { w.Inverted["kw"][1].Frag = -1 }},
		{"duplicate posting", func(w *indexWire) {
			w.Inverted["kw"] = append(w.Inverted["kw"], wirePosting{Frag: 0, TF: 1})
		}},
		{"terms array mismatch", func(w *indexWire) { w.Terms = w.Terms[:1] }},
		{"TF 2^31", func(w *indexWire) { w.Inverted["kw"][0].TF = math.MaxInt32 + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.damage == nil {
				_, err = Load(bytes.NewReader([]byte{0x01, 0x02, 0x03}))
			} else {
				w := base()
				tc.damage(w)
				err = loadWire(t, w)
			}
			if !errors.Is(err, ErrCorruptIndex) {
				t.Errorf("err = %v, want ErrCorruptIndex", err)
			}
		})
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
