package crawl

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// testScale is a TPC-H database small enough for a full crawl per test.
var testScale = tpch.Scale{Name: "test", Customers: 40, OrdersPerCust: 3, LinesPerOrder: 3, Parts: 30}

// boundTPCH generates a TPC-H database and binds the named application
// query against it.
func boundTPCH(t testing.TB, scale tpch.Scale, query string) (*relation.Database, *psj.Bound) {
	t.Helper()
	db := tpch.Generate(scale, 1)
	app, err := tpch.App(query)
	if err != nil {
		t.Fatal(err)
	}
	b, err := psj.Bind(app.Query, db)
	if err != nil {
		t.Fatal(err)
	}
	return db, b
}

// checkRecrawls re-crawls every fragment a full crawl derives and checks
// the keyword statistics are identical to the full crawl's.
func checkRecrawls(t *testing.T, db *relation.Database, b *psj.Bound) {
	t.Helper()
	out, err := Reference(db, b)
	if err != nil {
		t.Fatal(err)
	}
	// Full-crawl per-fragment counts from the inverted lists.
	want := make(map[string]map[string]int64)
	for kw, ps := range out.Inverted {
		for _, p := range ps {
			m, ok := want[p.FragKey]
			if !ok {
				m = make(map[string]int64)
				want[p.FragKey] = m
			}
			m[kw] = p.TF
		}
	}
	ids, err := out.Fragments()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("full crawl derived no fragments")
	}
	for _, id := range ids {
		counts, total, exists, err := RecrawlFragment(db, b, id)
		if err != nil {
			t.Fatalf("RecrawlFragment(%s): %v", id, err)
		}
		if !exists {
			t.Fatalf("fragment %s vanished on recrawl", id)
		}
		if total != out.FragmentTerms[id.Key()] {
			t.Errorf("%s total = %d, full crawl %d", id, total, out.FragmentTerms[id.Key()])
		}
		if !reflect.DeepEqual(counts, want[id.Key()]) {
			t.Errorf("%s counts = %v, full crawl %v", id, counts, want[id.Key()])
		}
	}
}

// TestRecrawlMatchesReference: re-crawling any single partition yields
// byte-identical keyword statistics to what the full crawl derives for
// that fragment — the property that lets a delta patch an index built by
// Reference or the MR algorithms without drift. fooddb's query is a chain
// of left-outer joins; TPC-H Q1 and Q2 are chains of inner joins and Q3 is
// a bushy one.
func TestRecrawlMatchesReference(t *testing.T) {
	t.Run("fooddb", func(t *testing.T) {
		db, b := boundFooddb(t)
		checkRecrawls(t, db, b)
	})
	for _, q := range tpch.QueryNames() {
		t.Run("tpch-"+q, func(t *testing.T) {
			db, b := boundTPCH(t, testScale, q)
			checkRecrawls(t, db, b)
		})
	}
}

// TestRecrawlSeesAppendedRows: the indexes a recrawl looks rows up through
// stay current when rows are appended after they were built — once in
// place (the row slice had capacity) and once through a reallocation — so
// the next RecrawlFragment and Execute see the new rows.
func TestRecrawlSeesAppendedRows(t *testing.T) {
	db, b := boundFooddb(t)
	comments, err := db.Table("comment")
	if err != nil {
		t.Fatal(err)
	}
	// Bond's Cafe, the (American, 9) partition.
	id := fragment.ID{relation.String("American"), relation.Int(9)}
	params, err := PinParams(b, id)
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity for the in-place append; the recrawls build the
	// indexes over this array.
	comments.Rows = slices.Grow(comments.Rows, 1)
	checkRecrawls(t, db, b)

	for i, step := range []struct {
		word    string
		realloc bool
	}{{"zucchini", false}, {"quinoa", true}} {
		if step.realloc {
			comments.Rows = slices.Clip(comments.Rows)
		}
		first := &comments.Rows[0]
		err := comments.Append(relation.Row{
			relation.Int(int64(300 + i)), relation.Int(7), relation.Int(120),
			relation.String("Fresh " + step.word), relation.String("05/12"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if moved := &comments.Rows[0] != first; moved != step.realloc {
			t.Fatalf("%s: append moved the rows = %v, want %v", step.word, moved, step.realloc)
		}
		counts, _, exists, err := RecrawlFragment(db, b, id)
		if err != nil || !exists {
			t.Fatalf("%s: RecrawlFragment = exists %v, %v", step.word, exists, err)
		}
		if counts[step.word] != 1 {
			t.Errorf("%s: recrawl misses the appended comment: %v", step.word, counts)
		}
		page, err := b.Execute(db, params)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range page.Rows {
			for _, v := range r {
				found = found || strings.Contains(v.Text(), step.word)
			}
		}
		if !found {
			t.Errorf("%s: Execute misses the appended comment: %v", step.word, page.Rows)
		}
		checkRecrawls(t, db, b)
	}
}

// TestRecrawlAfterDeleteAndAppend: deleting a row and appending another
// keeps the comment table's length. Done in place, it also keeps the row
// slice's array, and only the row at the last position tells the indexes
// the positions moved; replacing Rows with a new slice, the way Table
// documents, is the other case. Either way the recrawls see the delete
// and the append.
func TestRecrawlAfterDeleteAndAppend(t *testing.T) {
	for _, inPlace := range []bool{true, false} {
		db, b := boundFooddb(t)
		comments, err := db.Table("comment")
		if err != nil {
			t.Fatal(err)
		}
		checkRecrawls(t, db, b) // builds the indexes
		n, first := len(comments.Rows), &comments.Rows[0]
		if inPlace {
			// Burger Queen's "Burger experts", the (American, 10) partition.
			comments.Rows = slices.Delete(comments.Rows, 0, 1)
		} else {
			comments.Rows = slices.Delete(slices.Clone(comments.Rows), 0, 1)
		}
		// A comment on Bond's Cafe, the (American, 9) partition.
		err = comments.Append(relation.Row{
			relation.Int(300), relation.Int(7), relation.Int(120),
			relation.String("Fresh zucchini"), relation.String("05/12"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(comments.Rows) != n || (&comments.Rows[0] == first) != inPlace {
			t.Fatalf("in place %v: the delete and append changed the length or moved the rows", inPlace)
		}
		counts, _, _, err := RecrawlFragment(db, b, fragment.ID{relation.String("American"), relation.Int(10)})
		if err != nil || counts["experts"] != 0 {
			t.Errorf("in place %v: (American, 10) still has the deleted comment: %v, %v", inPlace, counts, err)
		}
		counts, _, _, err = RecrawlFragment(db, b, fragment.ID{relation.String("American"), relation.Int(9)})
		if err != nil || counts["zucchini"] != 1 {
			t.Errorf("in place %v: (American, 9) misses the appended comment: %v, %v", inPlace, counts, err)
		}
		checkRecrawls(t, db, b)
	}
}

// recrawlIDs returns n Q2 fragment identifiers spread over the customers:
// each customer's key with the quantity of its first lineitem.
func recrawlIDs(t testing.TB, db *relation.Database, scale tpch.Scale, n int) []fragment.ID {
	t.Helper()
	lineitem, err := db.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	qty := lineitem.Schema.ColumnIndex("qty")
	ids := make([]fragment.ID, n)
	for i := range ids {
		cust := i * scale.Customers / n
		first := lineitem.Rows[cust*scale.OrdersPerCust*scale.LinesPerOrder]
		ids[i] = fragment.ID{relation.Int(int64(cust)), first[qty]}
	}
	return ids
}

// TestRecrawlAllocsFollowPartition guards a recrawl's O(partition) cost:
// allocations per RecrawlFragment on Q2 follow the partition's rows
// (1 customer × 5 orders × 3 lineitems at small, 1 × 7 × 4 at medium),
// not the tables (medium has 3× small's customers, 4.2× its orders and
// 5.6× its lineitems). When every recrawl scanned the tables and
// hash-built the orders, medium took 4.02× small's allocations (65 586
// against 16 328 per call); through the indexes it takes 1.07× (111
// against 104).
func TestRecrawlAllocsFollowPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the medium TPC-H database")
	}
	perCall := func(scale tpch.Scale) float64 {
		db, b := boundTPCH(t, scale, "Q2")
		ids := recrawlIDs(t, db, scale, 20)
		return testing.AllocsPerRun(5, func() {
			for _, id := range ids {
				if _, _, exists, err := RecrawlFragment(db, b, id); err != nil || !exists {
					t.Fatalf("RecrawlFragment(%s) = exists %v, %v", id, exists, err)
				}
			}
		}) / float64(len(ids))
	}
	small, medium := perCall(tpch.Small), perCall(tpch.Medium)
	t.Logf("allocs per recrawl: small %.0f, medium %.0f (%.2f×)", small, medium, medium/small)
	if medium > 2.5*small {
		t.Errorf("medium recrawl allocates %.0f, %.2f× small's %.0f: the cost follows the tables, not the partition",
			medium, medium/small, small)
	}
}

// BenchmarkRecrawlFragment re-derives one small/Q2 fragment per op.
func BenchmarkRecrawlFragment(b *testing.B) {
	db, bound := boundTPCH(b, tpch.Small, "Q2")
	ids := recrawlIDs(b, db, tpch.Small, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RecrawlFragment(db, bound, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}
