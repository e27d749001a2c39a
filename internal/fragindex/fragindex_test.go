package fragindex

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fooddb"
	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

func fooddbIndex(t *testing.T) *Index {
	t.Helper()
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	out, err := crawl.Reference(db, b)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	spec, err := SpecFromBound(b)
	if err != nil {
		t.Fatalf("SpecFromBound: %v", err)
	}
	idx, err := Build(out, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

func refByName(t *testing.T, idx *Index, name string) FragRef {
	t.Helper()
	for i := 0; i < idx.NumRefs(); i++ {
		m, err := idx.Meta(FragRef(i))
		if err != nil {
			t.Fatal(err)
		}
		if m.Alive && m.ID.String() == name {
			return FragRef(i)
		}
	}
	t.Fatalf("fragment %s not found", name)
	return 0
}

func TestSpecFromBound(t *testing.T) {
	db := fooddb.New()
	b, _ := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	spec, err := SpecFromBound(b)
	if err != nil {
		t.Fatalf("SpecFromBound: %v", err)
	}
	want := Spec{SelAttrs: []string{"cuisine", "budget"}, EqAttrs: []string{"cuisine"}, RangeAttr: "budget"}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("spec = %+v, want %+v", spec, want)
	}

	// Two range attributes are rejected.
	b2, err := psj.Bind(psj.MustParse(
		"SELECT name FROM restaurant WHERE budget BETWEEN $a AND $b AND rate BETWEEN $c AND $d"), db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpecFromBound(b2); !errors.Is(err, ErrMultiRange) {
		t.Errorf("multi-range err = %v", err)
	}
}

// TestGraphMatchesFig9 asserts the exact fragment graph of Fig. 9: the
// American fragments form the path 9–10–12–18, (Thai,10) is isolated, and
// node weights are 8, 8, 17, 8, 10.
func TestGraphMatchesFig9(t *testing.T) {
	idx := fooddbIndex(t)
	if got := idx.NumFragments(); got != 5 {
		t.Fatalf("fragments = %d, want 5", got)
	}
	if got := idx.NumEdges(); got != 3 {
		t.Errorf("edges = %d, want 3", got)
	}
	wantWeights := map[string]int64{
		"(American,9)": 8, "(American,10)": 8, "(American,12)": 17,
		"(American,18)": 8, "(Thai,10)": 10,
	}
	wantNeighbors := map[string][]string{
		"(American,9)":  {"(American,10)"},
		"(American,10)": {"(American,9)", "(American,12)"},
		"(American,12)": {"(American,10)", "(American,18)"},
		"(American,18)": {"(American,12)"},
		"(Thai,10)":     nil,
	}
	for name, weight := range wantWeights {
		ref := refByName(t, idx, name)
		m, _ := idx.Meta(ref)
		if m.Terms != weight {
			t.Errorf("%s weight = %d, want %d", name, m.Terms, weight)
		}
		ns, err := idx.Neighbors(ref)
		if err != nil {
			t.Fatalf("Neighbors(%s): %v", name, err)
		}
		var got []string
		for _, n := range ns {
			nm, _ := idx.Meta(n)
			got = append(got, nm.ID.String())
		}
		if !reflect.DeepEqual(got, wantNeighbors[name]) {
			t.Errorf("%s neighbors = %v, want %v", name, got, wantNeighbors[name])
		}
	}
}

func TestPostingsAndDF(t *testing.T) {
	idx := fooddbIndex(t)
	ps := idx.Postings("burger")
	if len(ps) != 3 || idx.DF("burger") != 3 {
		t.Fatalf("burger postings = %v, DF = %d", ps, idx.DF("burger"))
	}
	if ps[0].TF != 2 {
		t.Errorf("top TF = %d, want 2", ps[0].TF)
	}
	m, _ := idx.Meta(ps[0].Frag)
	if m.ID.String() != "(American,10)" {
		t.Errorf("top fragment = %s", m.ID)
	}
	if idx.DF("nosuchword") != 0 {
		t.Error("DF of unknown word should be 0")
	}
	if kws := idx.Keywords(); len(kws) == 0 {
		t.Error("Keywords() empty")
	}
}

func TestEqAndRangeAccess(t *testing.T) {
	idx := fooddbIndex(t)
	ref := refByName(t, idx, "(American,12)")
	eq, err := idx.EqValues(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !eq["cuisine"].Equal(relation.String("American")) {
		t.Errorf("eq vals = %v", eq)
	}
	rv, err := idx.RangeValue(ref)
	if err != nil || !rv.Equal(relation.Int(12)) {
		t.Errorf("range val = %v, %v", rv, err)
	}
	members, pos, err := idx.GroupMembers(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 || pos != 2 {
		t.Errorf("group members = %d, pos = %d; want 4, 2", len(members), pos)
	}
	if idx.AvgTermsPerFragment() != (8+8+17+8+10)/5.0 {
		t.Errorf("avg terms = %v", idx.AvgTermsPerFragment())
	}
}

func TestMetaErrors(t *testing.T) {
	idx := fooddbIndex(t)
	if _, err := idx.Meta(FragRef(99)); !errors.Is(err, ErrNoFragment) {
		t.Errorf("Meta(99) err = %v", err)
	}
	if _, err := idx.Neighbors(FragRef(-1)); !errors.Is(err, ErrNoFragment) {
		t.Errorf("Neighbors(-1) err = %v", err)
	}
}

func TestInsertErrors(t *testing.T) {
	idx := fooddbIndex(t)
	ref := refByName(t, idx, "(Thai,10)")
	m, _ := idx.Meta(ref)
	if _, err := idx.InsertFragment(m.ID, nil, 1); !errors.Is(err, ErrDupFragment) {
		t.Errorf("dup insert err = %v", err)
	}
	if _, err := idx.InsertFragment(fragment.ID{relation.Int(1)}, nil, 1); !errors.Is(err, ErrBadIDArity) {
		t.Errorf("arity err = %v", err)
	}
}

func TestRemoveFragmentHealsGraph(t *testing.T) {
	idx := fooddbIndex(t)
	mid := refByName(t, idx, "(American,12)")
	m, _ := idx.Meta(mid)
	if err := idx.RemoveFragment(m.ID); err != nil {
		t.Fatalf("RemoveFragment: %v", err)
	}
	// 9–10–12–18 collapses to 9–10–18.
	if got := idx.NumEdges(); got != 2 {
		t.Errorf("edges after removal = %d, want 2", got)
	}
	ten := refByName(t, idx, "(American,10)")
	ns, err := idx.Neighbors(ten)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range ns {
		nm, _ := idx.Meta(n)
		names = append(names, nm.ID.String())
	}
	if !reflect.DeepEqual(names, []string{"(American,9)", "(American,18)"}) {
		t.Errorf("neighbors of (American,10) = %v", names)
	}
	// Postings hide the tombstone.
	if idx.DF("fries") != 0 {
		t.Errorf("fries DF = %d, want 0", idx.DF("fries"))
	}
	if idx.DF("burger") != 2 {
		t.Errorf("burger DF = %d, want 2", idx.DF("burger"))
	}
	if idx.NumFragments() != 4 {
		t.Errorf("fragments = %d, want 4", idx.NumFragments())
	}
	if err := idx.RemoveFragment(m.ID); !errors.Is(err, ErrNoFragment) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestUpdateFragment(t *testing.T) {
	idx := fooddbIndex(t)
	ref := refByName(t, idx, "(American,10)")
	m, _ := idx.Meta(ref)
	// The restaurant gained a comment mentioning "froyo".
	err := idx.UpdateFragment(m.ID, map[string]int64{
		"burger": 2, "queen": 1, "10": 1, "4.3": 1, "froyo": 3,
	}, 8+3)
	if err != nil {
		t.Fatalf("UpdateFragment: %v", err)
	}
	if idx.DF("froyo") != 1 {
		t.Errorf("froyo DF = %d, want 1", idx.DF("froyo"))
	}
	// burger still has three fragments, with the refreshed one on top.
	ps := idx.Postings("burger")
	if len(ps) != 3 || ps[0].TF != 2 {
		t.Fatalf("burger postings after update = %v", ps)
	}
	nref := refByName(t, idx, "(American,10)")
	nm, _ := idx.Meta(nref)
	if nm.Terms != 11 {
		t.Errorf("updated terms = %d, want 11", nm.Terms)
	}
	// Graph intact: still 3 edges.
	if idx.NumEdges() != 3 {
		t.Errorf("edges after update = %d, want 3", idx.NumEdges())
	}
	if err := idx.UpdateFragment(fragment.ID{relation.String("X"), relation.Int(1)}, nil, 0); !errors.Is(err, ErrNoFragment) {
		t.Errorf("update missing err = %v", err)
	}
}

// TestCompact: Compact rebuilds without tombstones and keeps the logical
// state. The checker's GC step compacts the serving index and compares the
// result's Dump with its source's, and with a from-scratch Build.
func TestCompact(t *testing.T) {
	checkModel(t, modelConfig{name: "compact", trials: 2, steps: 20, corpus: 20, ops: "pRg", reach: []string{pathGC}})
}

// TestNoRangeAttrIndex covers equality-only queries: every fragment is its
// own group, the graph has no edges.
func TestNoRangeAttrIndex(t *testing.T) {
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse("SELECT name, rate FROM restaurant WHERE cuisine = $c"), db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := crawl.Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromBound(b)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RangeAttr != "" {
		t.Fatalf("spec = %+v", spec)
	}
	idx, err := Build(out, spec)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumFragments() != 2 { // American, Thai
		t.Errorf("fragments = %d, want 2", idx.NumFragments())
	}
	if idx.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", idx.NumEdges())
	}
}
