package crawl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fooddb"
	"repro/internal/fragment"
	"repro/internal/mapreduce"
	"repro/internal/psj"
	"repro/internal/relation"
)

func fooddbBound(t *testing.T) (*relation.Database, *psj.Bound) {
	t.Helper()
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return db, b
}

// fragTermsByName renders FragmentTerms with human-readable fragment names.
func fragTermsByName(t *testing.T, out *Output) map[string]int64 {
	t.Helper()
	got := make(map[string]int64, len(out.FragmentTerms))
	for k, n := range out.FragmentTerms {
		id, err := fragment.ParseID(k)
		if err != nil {
			t.Fatalf("ParseID: %v", err)
		}
		got[id.String()] = n
	}
	return got
}

// wantFig9Terms is the fragment graph node weights of Fig. 9.
var wantFig9Terms = map[string]int64{
	"(American,9)":  8,
	"(American,10)": 8,
	"(American,12)": 17,
	"(American,18)": 8,
	"(Thai,10)":     10,
}

func checkFooddbOutput(t *testing.T, out *Output) {
	t.Helper()
	if got := fragTermsByName(t, out); !reflect.DeepEqual(got, wantFig9Terms) {
		t.Errorf("fragment terms = %v, want %v", got, wantFig9Terms)
	}
	// Fig. 6: burger appears in three fragments with counts 2,1,1 sorted
	// by TF descending.
	ps := out.Inverted["burger"]
	if len(ps) != 3 {
		t.Fatalf("burger postings = %v", ps)
	}
	if ps[0].TF != 2 {
		t.Errorf("top burger posting TF = %d, want 2", ps[0].TF)
	}
	id, err := fragment.ParseID(ps[0].FragKey)
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "(American,10)" {
		t.Errorf("top burger fragment = %s, want (American,10)", id)
	}
	if ps[1].TF != 1 || ps[2].TF != 1 {
		t.Errorf("burger tail TFs = %d,%d, want 1,1", ps[1].TF, ps[2].TF)
	}
	for kw, want := range map[string]int{"coffee": 1, "fries": 1} {
		if got := out.Inverted[kw]; len(got) != want {
			t.Errorf("%s postings = %v, want %d", kw, got, want)
		}
	}
}

func TestReferenceFooddb(t *testing.T) {
	db, b := fooddbBound(t)
	out, err := Reference(db, b)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	checkFooddbOutput(t, out)
}

func TestStepwiseFooddb(t *testing.T) {
	db, b := fooddbBound(t)
	out, err := Stepwise(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatalf("Stepwise: %v", err)
	}
	checkFooddbOutput(t, out)
	if out.Algorithm != AlgStepwise {
		t.Errorf("Algorithm = %q", out.Algorithm)
	}
	wantPhases := []string{"SW-Jn", "SW-Grp", "SW-Idx"}
	if len(out.Phases) != 3 {
		t.Fatalf("phases = %v", out.Phases)
	}
	for i, p := range out.Phases {
		if p.Name != wantPhases[i] {
			t.Errorf("phase[%d] = %s, want %s", i, p.Name, wantPhases[i])
		}
	}
	if out.Phases[0].Metrics.IntermediateRecords == 0 {
		t.Error("join phase should shuffle records")
	}
}

func TestIntegratedFooddb(t *testing.T) {
	db, b := fooddbBound(t)
	out, err := Integrated(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatalf("Integrated: %v", err)
	}
	checkFooddbOutput(t, out)
	if out.Algorithm != AlgIntegrated {
		t.Errorf("Algorithm = %q", out.Algorithm)
	}
	wantPhases := []string{"INT-Jn", "INT-Ext", "INT-Cnsd"}
	for i, p := range out.Phases {
		if p.Name != wantPhases[i] {
			t.Errorf("phase[%d] = %s, want %s", i, p.Name, wantPhases[i])
		}
	}
}

// equalOutputs compares the index content (not metrics) of two outputs.
func equalOutputs(a, b *Output) error {
	if !reflect.DeepEqual(a.FragmentTerms, b.FragmentTerms) {
		return fmt.Errorf("fragment terms differ:\n%v\n%v", a.FragmentTerms, b.FragmentTerms)
	}
	if len(a.Inverted) != len(b.Inverted) {
		return fmt.Errorf("keyword counts differ: %d vs %d", len(a.Inverted), len(b.Inverted))
	}
	for kw, ap := range a.Inverted {
		bp, ok := b.Inverted[kw]
		if !ok {
			return fmt.Errorf("keyword %q missing", kw)
		}
		if !reflect.DeepEqual(ap, bp) {
			return fmt.Errorf("postings for %q differ: %v vs %v", kw, ap, bp)
		}
	}
	return nil
}

func TestAllAlgorithmsAgreeOnFooddb(t *testing.T) {
	db, b := fooddbBound(t)
	ref, err := Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Stepwise(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := Integrated(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalOutputs(ref, sw); err != nil {
		t.Errorf("reference vs stepwise: %v", err)
	}
	if err := equalOutputs(ref, in); err != nil {
		t.Errorf("reference vs integrated: %v", err)
	}
}

func TestFragmentsAccessor(t *testing.T) {
	db, b := fooddbBound(t)
	out, err := Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := out.Fragments()
	if err != nil {
		t.Fatalf("Fragments: %v", err)
	}
	if len(ids) != 5 {
		t.Fatalf("fragments = %d, want 5", len(ids))
	}
	// Sorted by identifier: American group before Thai group.
	if ids[0].String() != "(American,9)" || ids[4].String() != "(Thai,10)" {
		t.Errorf("fragment order = %v … %v", ids[0], ids[4])
	}
}

func TestCancelledContext(t *testing.T) {
	db, b := fooddbBound(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Stepwise(ctx, db, b, Options{}); err == nil {
		t.Error("Stepwise with cancelled ctx should fail")
	}
	if _, err := Integrated(ctx, db, b, Options{}); err == nil {
		t.Error("Integrated with cancelled ctx should fail")
	}
}

// randomTestDB builds a three-relation database with (r1 ⋈ r2) ⋈ r3
// chains, random data, and occasional NULLs in projected and selection
// columns (join columns stay non-NULL, as in real key/foreign-key data).
func randomTestDB(r *rand.Rand) *relation.Database {
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox hen", "gnu ibis"}
	randText := func() relation.Value {
		if r.Intn(10) == 0 {
			return relation.Null()
		}
		return relation.String(words[r.Intn(len(words))])
	}
	db := relation.NewDatabase("rand")

	r1 := relation.NewTable(relation.MustSchema("r1",
		relation.Column{Name: "j1", Kind: relation.KindInt},
		relation.Column{Name: "s1", Kind: relation.KindString},
		relation.Column{Name: "n1", Kind: relation.KindInt},
		relation.Column{Name: "x1", Kind: relation.KindString},
	))
	for i := 0; i < 2+r.Intn(12); i++ {
		var sel relation.Value = relation.String([]string{"a", "b"}[r.Intn(2)])
		if r.Intn(12) == 0 {
			sel = relation.Null() // excluded from every fragment
		}
		_ = r1.Append(relation.Row{
			relation.Int(int64(r.Intn(4))), sel,
			relation.Int(int64(r.Intn(3))), randText(),
		})
	}

	r2 := relation.NewTable(relation.MustSchema("r2",
		relation.Column{Name: "j1", Kind: relation.KindInt},
		relation.Column{Name: "j2", Kind: relation.KindInt},
		relation.Column{Name: "x2", Kind: relation.KindString},
	))
	for i := 0; i < r.Intn(15); i++ {
		_ = r2.Append(relation.Row{
			relation.Int(int64(r.Intn(4))), relation.Int(int64(r.Intn(4))), randText(),
		})
	}

	r3 := relation.NewTable(relation.MustSchema("r3",
		relation.Column{Name: "j2", Kind: relation.KindInt},
		relation.Column{Name: "x3", Kind: relation.KindString},
	))
	for i := 0; i < r.Intn(8); i++ {
		_ = r3.Append(relation.Row{relation.Int(int64(r.Intn(4))), randText()})
	}

	db.AddTable(r1)
	db.AddTable(r2)
	db.AddTable(r3)
	return db
}

// TestPropAlgorithmsAgreeOnRandomDatabases is the central equivalence
// property of §V: stepwise, integrated, and the non-MR reference produce
// identical fragment indexes, across join kinds and random data.
func TestPropAlgorithmsAgreeOnRandomDatabases(t *testing.T) {
	joins := []string{"JOIN", "LEFT JOIN"}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomTestDB(r)
		sql := fmt.Sprintf(
			"SELECT x1, x2, x3, s1 FROM (r1 %s r2) %s r3 WHERE s1 = $a AND n1 BETWEEN $lo AND $hi",
			joins[r.Intn(2)], joins[r.Intn(2)])
		b, err := psj.Bind(psj.MustParse(sql), db)
		if err != nil {
			t.Fatalf("seed %d: Bind: %v", seed, err)
		}
		ref, err := Reference(db, b)
		if err != nil {
			t.Fatalf("seed %d: Reference: %v", seed, err)
		}
		opts := Options{Parallelism: 1 + r.Intn(4), ReduceTasks: 1 + r.Intn(4)}
		sw, err := Stepwise(context.Background(), db, b, opts)
		if err != nil {
			t.Fatalf("seed %d: Stepwise: %v", seed, err)
		}
		in, err := Integrated(context.Background(), db, b, opts)
		if err != nil {
			t.Fatalf("seed %d: Integrated: %v", seed, err)
		}
		if err := equalOutputs(ref, sw); err != nil {
			t.Fatalf("seed %d (%s): reference vs stepwise: %v", seed, sql, err)
		}
		if err := equalOutputs(ref, in); err != nil {
			t.Fatalf("seed %d (%s): reference vs integrated: %v", seed, sql, err)
		}
	}
}

// TestPropBushyTreeAgrees exercises the bushy (Q3-like) join shape.
func TestPropBushyTreeAgrees(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomTestDB(r)
		// r4 joins r3 on a fresh key to build (r1⋈r2)⋈(r3⋈r4).
		r4 := relation.NewTable(relation.MustSchema("r4",
			relation.Column{Name: "j2", Kind: relation.KindInt},
			relation.Column{Name: "x4", Kind: relation.KindString},
		))
		for i := 0; i < r.Intn(6); i++ {
			_ = r4.Append(relation.Row{
				relation.Int(int64(r.Intn(4))),
				relation.String([]string{"pea", "oak", "fir elm"}[r.Intn(3)]),
			})
		}
		db.AddTable(r4)
		sql := "SELECT x1, x2, x3, x4 FROM (r1 JOIN r2) JOIN (r3 JOIN r4 ON j2) WHERE s1 = $a AND n1 BETWEEN $lo AND $hi"
		b, err := psj.Bind(psj.MustParse(sql), db)
		if err != nil {
			t.Fatalf("seed %d: Bind: %v", seed, err)
		}
		ref, err := Reference(db, b)
		if err != nil {
			t.Fatalf("seed %d: Reference: %v", seed, err)
		}
		sw, err := Stepwise(context.Background(), db, b, Options{})
		if err != nil {
			t.Fatalf("seed %d: Stepwise: %v", seed, err)
		}
		in, err := Integrated(context.Background(), db, b, Options{})
		if err != nil {
			t.Fatalf("seed %d: Integrated: %v", seed, err)
		}
		if err := equalOutputs(ref, sw); err != nil {
			t.Fatalf("seed %d: reference vs stepwise: %v", seed, err)
		}
		if err := equalOutputs(ref, in); err != nil {
			t.Fatalf("seed %d: reference vs integrated: %v", seed, err)
		}
	}
}

// TestIntegratedShufflesFewerBytes verifies the headline claim of §V-B: on
// a workload with wide projection attributes and joins, the integrated
// algorithm moves less intermediate data than the stepwise algorithm.
func TestIntegratedShufflesFewerBytes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := relation.NewDatabase("wide")
	// High join fan-out (many children per parent) and wide parent text:
	// the stepwise join replicates each parent's text once per child,
	// which is exactly the overhead §V-B eliminates.
	longText := "parent description " + fmt.Sprint(r.Int63()) + " " +
		"alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu " +
		"nu xi omicron pi rho sigma tau upsilon phi chi psi omega " +
		"one two three four five six seven eight nine ten"
	parent := relation.NewTable(relation.MustSchema("parent",
		relation.Column{Name: "pk", Kind: relation.KindInt},
		relation.Column{Name: "grp", Kind: relation.KindInt},
		relation.Column{Name: "ptext", Kind: relation.KindString},
	))
	for i := 0; i < 20; i++ {
		_ = parent.Append(relation.Row{
			relation.Int(int64(i)), relation.Int(int64(i % 4)),
			relation.String(fmt.Sprintf("%s block%d", longText, i)),
		})
	}
	child := relation.NewTable(relation.MustSchema("child",
		relation.Column{Name: "pk", Kind: relation.KindInt},
		relation.Column{Name: "score", Kind: relation.KindInt},
		relation.Column{Name: "ctext", Kind: relation.KindString},
	))
	for i := 0; i < 2000; i++ {
		_ = child.Append(relation.Row{
			relation.Int(int64(r.Intn(20))), relation.Int(int64(r.Intn(4))),
			relation.String("short note"),
		})
	}
	db.AddTable(parent)
	db.AddTable(child)

	b, err := psj.Bind(psj.MustParse(
		"SELECT ptext, ctext FROM parent JOIN child WHERE grp = $g AND score BETWEEN $lo AND $hi"), db)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Stepwise(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := Integrated(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalOutputs(sw, in); err != nil {
		t.Fatalf("outputs differ: %v", err)
	}
	var swBytes, inBytes int64
	for _, p := range sw.Phases {
		swBytes += p.Metrics.IntermediateBytes
	}
	for _, p := range in.Phases {
		inBytes += p.Metrics.IntermediateBytes
	}
	if inBytes >= swBytes {
		t.Errorf("integrated shuffled %d bytes, stepwise %d — expected integrated < stepwise",
			inBytes, swBytes)
	}
	if sw.TotalWall() <= 0 || in.TotalWall() <= 0 {
		t.Error("wall times should be positive")
	}
}

// decodeAll collects what decodePostings decodes.
func decodeAll(b []byte) ([]Posting, error) {
	var ps []Posting
	err := decodePostings(b, func(fragKey []byte, tf int64) {
		ps = append(ps, Posting{FragKey: string(fragKey), TF: tf})
	})
	return ps, err
}

// corruptPostingSeeds are TestDecodePostingsCorrupt's inputs, and
// FuzzDecodePostings's seeds. hugeKey claims a key of 2⁶⁴−1 bytes, which
// is −1 as an int.
func corruptPostingSeeds() (truncVarint, ok, truncKey, hugeKey []byte) {
	ok = appendPosting(nil, "frag", 3)
	hugeKey = binary.AppendUvarint([]byte{3}, math.MaxUint64)
	return []byte{0x80}, ok, ok[:len(ok)-2], append(hugeKey, "frag"...)
}

func TestDecodePostingsCorrupt(t *testing.T) {
	truncVarint, blob, truncKey, hugeKey := corruptPostingSeeds()
	if _, err := decodeAll(truncVarint); err == nil {
		t.Error("truncated varint should fail")
	}
	if _, err := decodeAll(hugeKey); err == nil {
		t.Error("a key longer than the input should fail")
	}
	if ps, err := decodeAll(blob); err != nil || len(ps) != 1 || ps[0].TF != 3 {
		t.Errorf("round trip = %v, %v", ps, err)
	}
	if _, err := decodeAll(truncKey); err == nil {
		t.Error("truncated key should fail")
	}
	// 0x83 0x00 is 3 in two bytes: decodable, but not what appendPosting
	// writes, so it is not a posting.
	if _, err := decodeAll(append([]byte{0x83, 0x00}, blob[1:]...)); err == nil {
		t.Error("non-minimal TF varint should fail")
	}
	if _, err := decodeAll(append([]byte{3, 0x84, 0x00}, blob[2:]...)); err == nil {
		t.Error("non-minimal key length varint should fail")
	}
}

// FuzzDecodePostings: decoding never panics, and whatever it accepts is
// exactly what appendPosting writes for the decoded postings.
func FuzzDecodePostings(f *testing.F) {
	truncVarint, blob, truncKey, hugeKey := corruptPostingSeeds()
	for _, seed := range [][]byte{truncVarint, blob, truncKey, hugeKey, append(blob, blob...)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ps, err := decodeAll(b)
		if err != nil {
			return
		}
		var again []byte
		for _, p := range ps {
			again = appendPosting(again, p.FragKey, p.TF)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("decoded %v from %x, which re-encodes to %x", ps, b, again)
		}
	})
}

// TestAssembleOutputRejectsCorruptPostings: a posting whose fragment key
// does not decode, or names a fragment no size record names, is an error
// wrapping ErrCorruptPosting — never a posting ranked first by default.
func TestAssembleOutputRejectsCorruptPostings(t *testing.T) {
	key := func(s string) string { return fragment.ID{relation.String(s)}.Key() }
	size := func(fragKey string, n uint64) mapreduce.KV {
		return mapreduce.KV{Key: sizeKeyPrefix + fragKey, Value: binary.AppendUvarint(nil, n)}
	}
	kw := func(fragKeys ...string) mapreduce.KV {
		var blob []byte
		for _, fk := range fragKeys {
			blob = appendPosting(blob, fk, 1)
		}
		return mapreduce.KV{Key: keywordKeyPrefix + "kiwi", Value: blob}
	}
	const undecodable = "\xff" // no value kind is 0xff
	for _, tc := range []struct {
		name string
		kvs  []mapreduce.KV
	}{
		{"size record key does not decode", []mapreduce.KV{size(key("a"), 1), size(undecodable, 1), kw(key("a"))}},
		{"posting key does not decode", []mapreduce.KV{size(key("a"), 1), kw(key("a"), undecodable)}},
		{"posting key has no size record", []mapreduce.KV{kw(key("a"), key("b")), size(key("a"), 1)}},
	} {
		if _, err := assembleOutput(AlgIntegrated, nil, tc.kvs, nil); !errors.Is(err, ErrCorruptPosting) {
			t.Errorf("%s: err = %v, want ErrCorruptPosting", tc.name, err)
		}
	}
	out, err := assembleOutput(AlgIntegrated, nil,
		[]mapreduce.KV{kw(key("b"), key("a")), size(key("b"), 1), size(key("a"), 1)}, nil)
	if err != nil {
		t.Fatalf("well-formed pairs: %v", err)
	}
	if got := out.Inverted["kiwi"]; len(got) != 2 || got[0].FragKey != key("a") || got[1].FragKey != key("b") {
		t.Errorf("kiwi postings = %v, want a then b", got)
	}
}

// TestTiesListInIdentifierOrder: two fragments tie on TF, and the byte
// order of their keys ("b" < "ab": the uvarint length prefix comes first)
// is the reverse of their identifier order ("ab" < "b"). Every algorithm,
// at any reduce-task count, lists them in identifier order.
func TestTiesListInIdentifierOrder(t *testing.T) {
	db := relation.NewDatabase("ties")
	tbl := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "x", Kind: relation.KindString},
	))
	for _, r := range [][2]string{{"b", "kiwi fig fig"}, {"ab", "kiwi"}, {"ab", "fig"}} {
		if err := tbl.Append(relation.Row{relation.String(r[0]), relation.String(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	db.AddTable(tbl)
	b, err := psj.Bind(psj.MustParse("SELECT x FROM t WHERE s = $s"), db)
	if err != nil {
		t.Fatal(err)
	}
	if key := func(s string) string { return fragment.ID{relation.String(s)}.Key() }; key("b") >= key("ab") {
		t.Fatal("fixture: the key of b must sort before the key of ab")
	}
	// fig: TF decides before identifier order does.
	want := map[string][]string{"kiwi": {"(ab)", "(b)"}, "fig": {"(b)", "(ab)"}}
	for _, reduceTasks := range []int{1, 3} {
		opts := Options{Parallelism: 2, ReduceTasks: reduceTasks}
		outs := map[string]func() (*Output, error){
			"reference":  func() (*Output, error) { return Reference(db, b) },
			"stepwise":   func() (*Output, error) { return Stepwise(context.Background(), db, b, opts) },
			"integrated": func() (*Output, error) { return Integrated(context.Background(), db, b, opts) },
		}
		for name, run := range outs {
			out, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make(map[string][]string)
			for kw, ps := range out.Inverted {
				for _, p := range ps {
					id, err := fragment.ParseID(p.FragKey)
					if err != nil {
						t.Fatal(err)
					}
					got[kw] = append(got[kw], id.String())
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d reduce tasks: postings = %v, want %v", name, reduceTasks, got, want)
			}
		}
	}
}

// TestFooddbPhaseVolumesPinned pins every phase's record and byte counts on
// fooddb, so Fig. 10's shuffle volumes cannot drift, at one map task, and
// INT-Cnsd's at two: INT-Ext emits each group's keywords in keyword order,
// so INT-Cnsd's input splits, and what its combiner merges, are the same
// from run to run.
func TestFooddbPhaseVolumesPinned(t *testing.T) {
	type volumes struct {
		name                     string
		inRec, inB, midRec, midB int64
		outRec, outB             int64
	}
	db, b := fooddbBound(t)
	opts := Options{Parallelism: 2, MapTasks: 1, ReduceTasks: 3}
	for _, tc := range []struct {
		run  func() (*Output, error)
		want []volumes
	}{
		{func() (*Output, error) { return Stepwise(context.Background(), db, b, opts) }, []volumes{
			{"SW-Jn", 26, 1362, 26, 1699, 16, 1291},
			{"SW-Grp", 8, 666, 8, 554, 5, 501},
			{"SW-Idx", 5, 501, 41, 1169, 41, 1169},
		}},
		{func() (*Output, error) { return Integrated(context.Background(), db, b, opts) }, []volumes{
			{"INT-Jn", 42, 1580, 41, 1505, 31, 1244},
			{"INT-Ext", 39, 1947, 39, 1832, 63, 1543},
			{"INT-Cnsd", 63, 1543, 41, 1169, 41, 1169},
		}},
	} {
		out, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]volumes, len(out.Phases))
		for i, p := range out.Phases {
			m := p.Metrics
			got[i] = volumes{p.Name, m.MapInputRecords, m.MapInputBytes,
				m.IntermediateRecords, m.IntermediateBytes, m.OutputRecords, m.OutputBytes}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("phase volumes = %+v, want %+v", got, tc.want)
		}
	}
	opts.MapTasks = 2
	out, err := Integrated(context.Background(), db, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Phases[2].Metrics
	got := volumes{out.Phases[2].Name, m.MapInputRecords, m.MapInputBytes,
		m.IntermediateRecords, m.IntermediateBytes, m.OutputRecords, m.OutputBytes}
	if want := (volumes{"INT-Cnsd", 63, 1543, 48, 1283, 41, 1169}); got != want {
		t.Errorf("at 2 map tasks, INT-Cnsd's volumes = %+v, want %+v", got, want)
	}
}

// TestSingleRelationQuery exercises the degenerate no-join case.
func TestSingleRelationQuery(t *testing.T) {
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(
		"SELECT name, rate FROM restaurant WHERE cuisine = $c AND budget BETWEEN $l AND $u"), db)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Stepwise(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := Integrated(context.Background(), db, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalOutputs(ref, sw); err != nil {
		t.Errorf("reference vs stepwise: %v", err)
	}
	if err := equalOutputs(ref, in); err != nil {
		t.Errorf("reference vs integrated: %v", err)
	}
	if len(ref.FragmentTerms) != 5 {
		t.Errorf("fragments = %d, want 5", len(ref.FragmentTerms))
	}
}
