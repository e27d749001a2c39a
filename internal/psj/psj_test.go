package psj

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/fooddb"
	"repro/internal/relation"
)

const searchSQL = `SELECT name, budget, rate, comment, uname, date ` +
	`FROM (restaurant LEFT JOIN comment) LEFT JOIN customer ` +
	`WHERE (cuisine = "$cuisine") AND (budget BETWEEN $min AND $max)`

func TestParseSearchQuery(t *testing.T) {
	q, err := Parse(searchSQL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Star {
		t.Error("Star = true, want false")
	}
	if len(q.Projections) != 6 || q.Projections[0].Col != "name" || q.Projections[5].Col != "date" {
		t.Errorf("Projections = %v", q.Projections)
	}
	if got := q.From.Leaves(); strings.Join(got, ",") != "restaurant,comment,customer" {
		t.Errorf("Leaves = %v", got)
	}
	if q.From.Kind != relation.JoinLeftOuter || q.From.Left.Kind != relation.JoinLeftOuter {
		t.Errorf("join kinds = %v, %v", q.From.Kind, q.From.Left.Kind)
	}
	// BETWEEN desugars: cuisine=, budget>=, budget<=.
	if len(q.Conditions) != 3 {
		t.Fatalf("Conditions = %v", q.Conditions)
	}
	want := []Condition{
		{Attr: ColRef{Col: "cuisine"}, Op: OpEQ, Param: "cuisine"},
		{Attr: ColRef{Col: "budget"}, Op: OpGE, Param: "min"},
		{Attr: ColRef{Col: "budget"}, Op: OpLE, Param: "max"},
	}
	for i, c := range q.Conditions {
		if c != want[i] {
			t.Errorf("Conditions[%d] = %v, want %v", i, c, want[i])
		}
	}
}

func TestParseTPCHStyleQueries(t *testing.T) {
	// Table III queries (paper §VII), in our schema's column names.
	for _, sql := range []string{
		`select * from (region join nation) join customer where region.regionkey = $r and acctbal between $min and $max`,
		`select * from (customer join orders) join lineitem where customer.custkey = $r and qty between $min and $max`,
		`select * from (customer join orders) join (lineitem join part) where customer.custkey = $r and qty between $min and $max`,
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if !q.Star {
			t.Errorf("%q: Star = false", sql)
		}
		if len(q.SelectionAttrs()) != 2 {
			t.Errorf("%q: SelectionAttrs = %v", sql, q.SelectionAttrs())
		}
	}
	// Bushy tree shape for Q3.
	q := MustParse(`select * from (customer join orders) join (lineitem join part) where customer.custkey = $r and qty between $min and $max`)
	if q.From.Left.IsLeaf() || q.From.Right.IsLeaf() {
		t.Error("Q3 should be a bushy join of two internal nodes")
	}
}

func TestParseOnClause(t *testing.T) {
	q, err := Parse(`SELECT a FROM x JOIN y ON k = k WHERE a = $p`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From.On) != 1 || q.From.On[0] != "k" {
		t.Errorf("On = %v", q.From.On)
	}
	if _, err := Parse(`SELECT a FROM x JOIN y ON k = j`); err == nil {
		t.Error("ON with differing column names should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT a, FROM x`,
		`SELECT * FROM (x JOIN y`,
		`SELECT * FROM x WHERE a > $p`, // strict inequality unsupported
		`SELECT * FROM x WHERE a = 5`,  // literal, not parameter
		`SELECT * FROM x WHERE a BETWEEN $l`,
		`SELECT * FROM x WHERE (a = $p`,
		`SELECT * FROM x extra`,
		`SELECT * FROM x WHERE a = "p"`,  // quoted non-parameter
		`SELECT * FROM x WHERE a = "$0"`, // quoted, but no identifier
		`SELECT * FROM x WHERE a = "$ p"`,
		`SELECT * FROM x WHERE a = $`, // missing name
		"SELECT * FROM x WHERE a = 'unterminated",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) err = %v, want ErrSyntax", sql, err)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q := MustParse(searchSQL)
	again, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", q.String(), err)
	}
	if again.String() != q.String() {
		t.Errorf("round trip mismatch:\n%s\n%s", q.String(), again.String())
	}
}

func TestSelectionAttrClassification(t *testing.T) {
	q := MustParse(searchSQL)
	sel := q.SelectionAttrs()
	if len(sel) != 2 || sel[0].Col != "cuisine" || sel[1].Col != "budget" {
		t.Errorf("SelectionAttrs = %v", sel)
	}
	if eq := q.EqAttrs(); len(eq) != 1 || eq[0].Col != "cuisine" {
		t.Errorf("EqAttrs = %v", eq)
	}
	if rg := q.RangeAttrs(); len(rg) != 1 || rg[0].Col != "budget" {
		t.Errorf("RangeAttrs = %v", rg)
	}
	if p := q.Params(); strings.Join(p, ",") != "cuisine,min,max" {
		t.Errorf("Params = %v", p)
	}
}

func TestBindSearchQuery(t *testing.T) {
	db := fooddb.New()
	b, err := Bind(MustParse(searchSQL), db)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if got := strings.Join(b.SelAttrs, ","); got != "cuisine,budget" {
		t.Errorf("SelAttrs = %v", got)
	}
	if got := strings.Join(b.Projections, ","); got != "name,budget,rate,comment,uname,date" {
		t.Errorf("Projections = %v", got)
	}
	// Leaf partition drives the integrated algorithm.
	wantLeaves := map[string]struct{ sel, join, proj string }{
		"restaurant": {"cuisine,budget", "rid", "name,budget,rate"},
		"comment":    {"", "rid,uid", "comment,date"},
		"customer":   {"", "uid", "uname"},
	}
	for _, li := range b.Leaves {
		w, ok := wantLeaves[li.Relation]
		if !ok {
			t.Errorf("unexpected leaf %s", li.Relation)
			continue
		}
		if got := strings.Join(li.SelAttrs, ","); got != w.sel {
			t.Errorf("%s SelAttrs = %q, want %q", li.Relation, got, w.sel)
		}
		gotJoin := append([]string(nil), li.JoinAttrs...)
		sort.Strings(gotJoin)
		if got := strings.Join(gotJoin, ","); got != w.join {
			t.Errorf("%s JoinAttrs = %q, want %q", li.Relation, got, w.join)
		}
		if got := strings.Join(li.ProjAttrs, ","); got != w.proj {
			t.Errorf("%s ProjAttrs = %q, want %q", li.Relation, got, w.proj)
		}
	}
	if got := strings.Join(b.CrawlProjection(), ","); got != "name,budget,rate,comment,uname,date,cuisine" {
		t.Errorf("CrawlProjection = %v", got)
	}
	kinds := b.SelAttrKinds()
	if kinds[0] != relation.KindString || kinds[1] != relation.KindInt {
		t.Errorf("SelAttrKinds = %v", kinds)
	}
	if k, err := b.ParamKind("min"); err != nil || k != relation.KindInt {
		t.Errorf("ParamKind(min) = %v, %v", k, err)
	}
	if _, err := b.ParamKind("zzz"); !errors.Is(err, ErrNoParam) {
		t.Errorf("ParamKind(zzz) err = %v", err)
	}
}

func TestBindErrors(t *testing.T) {
	db := fooddb.New()
	cases := []string{
		`SELECT * FROM nosuch WHERE a = $p`,
		`SELECT * FROM restaurant JOIN customer WHERE cuisine = $p`,          // no shared cols
		`SELECT nope FROM restaurant WHERE cuisine = $p`,                     // bad projection
		`SELECT name FROM restaurant WHERE nosuchcol = $p`,                   // bad condition attr
		`SELECT name FROM restaurant WHERE zzz.cuisine = $p`,                 // unknown qualifier
		`SELECT name FROM restaurant JOIN restaurant WHERE cuisine = $p`,     // duplicate relation
		`SELECT * FROM restaurant JOIN comment ON nosuch WHERE cuisine = $p`, // bad ON col
	}
	for _, sql := range cases {
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if _, err := Bind(q, db); !errors.Is(err, ErrUnbound) {
			t.Errorf("Bind(%q) err = %v, want ErrUnbound", sql, err)
		}
	}
}

func TestJoinAllFooddb(t *testing.T) {
	db := fooddb.New()
	b, err := Bind(MustParse(searchSQL), db)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	joined, err := b.JoinAll(db)
	if err != nil {
		t.Fatalf("JoinAll: %v", err)
	}
	// Fig. 5 lists 8 joined rows (6 commented + 2 comment-less).
	if joined.Len() != 8 {
		t.Fatalf("JoinAll rows = %d, want 8", joined.Len())
	}
}

// TestExecuteP1 reproduces db-page P1 (Example 1): American restaurants with
// budget between 10 and 15, with customer comments.
func TestExecuteP1(t *testing.T) {
	db := fooddb.New()
	b, err := Bind(MustParse(searchSQL), db)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	page, err := b.Execute(db, map[string]relation.Value{
		"cuisine": relation.String("American"),
		"min":     relation.Int(10),
		"max":     relation.Int(15),
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// P1: Burger Queen (1 row), Wandy's 4.1 (no comment), Wandy's 4.2 (2
	// comments) = 4 rows.
	if page.Len() != 4 {
		t.Fatalf("P1 rows = %d, want 4; got %v", page.Len(), page.Rows)
	}
	names := map[string]int{}
	for _, r := range page.Rows {
		names[r[0].AsString()]++
	}
	if names["Burger Queen"] != 1 || names["Wandy's"] != 3 {
		t.Errorf("P1 restaurant mix = %v", names)
	}
	// Columns are exactly the projections, in order.
	if got := strings.Join(page.Schema.ColumnNames(), ","); got != "name,budget,rate,comment,uname,date" {
		t.Errorf("P1 columns = %v", got)
	}
}

// TestExecuteP2 reproduces db-page P2: budget 10..20 adds McRonald's.
func TestExecuteP2(t *testing.T) {
	db := fooddb.New()
	b, _ := Bind(MustParse(searchSQL), db)
	page, err := b.Execute(db, map[string]relation.Value{
		"cuisine": relation.String("American"),
		"min":     relation.Int(10),
		"max":     relation.Int(20),
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if page.Len() != 5 {
		t.Fatalf("P2 rows = %d, want 5", page.Len())
	}
}

func TestExecuteMissingParam(t *testing.T) {
	db := fooddb.New()
	b, _ := Bind(MustParse(searchSQL), db)
	_, err := b.Execute(db, map[string]relation.Value{"cuisine": relation.String("Thai")})
	if !errors.Is(err, ErrNoParam) {
		t.Errorf("Execute err = %v, want ErrNoParam", err)
	}
}

// TestExecuteMatchesJoinAllFilter cross-checks push-down evaluation against
// filtering the full join.
func TestExecuteMatchesJoinAllFilter(t *testing.T) {
	db := fooddb.New()
	b, _ := Bind(MustParse(searchSQL), db)
	for _, params := range []map[string]relation.Value{
		{"cuisine": relation.String("American"), "min": relation.Int(9), "max": relation.Int(12)},
		{"cuisine": relation.String("Thai"), "min": relation.Int(10), "max": relation.Int(10)},
		{"cuisine": relation.String("French"), "min": relation.Int(0), "max": relation.Int(99)},
	} {
		fast, err := b.Execute(db, params)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		joined, err := b.JoinAll(db)
		if err != nil {
			t.Fatalf("JoinAll: %v", err)
		}
		cuisineIdx := joined.Schema.ColumnIndex("cuisine")
		budgetIdx := joined.Schema.ColumnIndex("budget")
		slow := joined.Select(func(r relation.Row) bool {
			return r[cuisineIdx].Equal(params["cuisine"]) &&
				!r[budgetIdx].IsNull() &&
				r[budgetIdx].Compare(params["min"]) >= 0 &&
				r[budgetIdx].Compare(params["max"]) <= 0
		})
		if fast.Len() != slow.Len() {
			t.Errorf("params %v: Execute rows = %d, filtered JoinAll = %d",
				params, fast.Len(), slow.Len())
		}
	}
}
