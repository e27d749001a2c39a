package psj_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fooddb"
	"repro/internal/psj"
	"repro/internal/relation"
	"repro/internal/tpch"
)

// referenceExecute is the evaluation Execute used before it looked rows up
// through indexes: every leaf filtered by a full scan, every join a hash
// join over the filtered inputs, then the projection. Execute must return
// its rows, in its order.
func referenceExecute(b *psj.Bound, db *relation.Database, params map[string]relation.Value) (*relation.Table, error) {
	var eval func(*psj.JoinExpr) (*relation.Table, error)
	eval = func(node *psj.JoinExpr) (*relation.Table, error) {
		if !node.IsLeaf() {
			left, err := eval(node.Left)
			if err != nil {
				return nil, err
			}
			right, err := eval(node.Right)
			if err != nil {
				return nil, err
			}
			return relation.Join(left, right, b.NodeOn(node), node.Kind)
		}
		t, err := db.Table(node.Relation)
		if err != nil {
			return nil, err
		}
		return t.Select(func(row relation.Row) bool {
			for _, c := range b.Conds {
				if c.Relation != node.Relation {
					continue
				}
				v := row[t.Schema.ColumnIndex(c.Attr.Col)]
				if v.IsNull() {
					return false
				}
				cmp := v.Compare(params[c.Param])
				if (c.Op == psj.OpEQ && cmp != 0) || (c.Op == psj.OpGE && cmp < 0) || (c.Op == psj.OpLE && cmp > 0) {
					return false
				}
			}
			return true
		}), nil
	}
	joined, err := eval(b.Query.From)
	if err != nil {
		return nil, err
	}
	return joined.Project(b.Projections)
}

// sameTable fails t unless got and want hold byte-identical rows in the
// same order under the same columns.
func sameTable(t *testing.T, label string, got, want *relation.Table) {
	t.Helper()
	if fmt.Sprint(got.Schema.Columns) != fmt.Sprint(want.Schema.Columns) {
		t.Fatalf("%s: columns %v, reference %v", label, got.Schema.Columns, want.Schema.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if relation.Key(got.Rows[i]) != relation.Key(want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, reference %v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

func checkExecute(t *testing.T, label string, b *psj.Bound, db *relation.Database, params map[string]relation.Value) int {
	t.Helper()
	got, err := b.Execute(db, params)
	if err != nil {
		t.Fatalf("%s: Execute: %v", label, err)
	}
	want, err := referenceExecute(b, db, params)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	sameTable(t, label, got, want)
	return len(got.Rows)
}

// oddFooddb is fooddb plus the rows that stress the index paths: NULL join
// keys on both sides of both joins, a NULL selection value, a restaurant
// with no comments, a budget stored as a float (so the column holds two
// kinds) and a rate equal to an integer.
func oddFooddb(t *testing.T) *relation.Database {
	t.Helper()
	db := fooddb.New()
	add := func(table string, rows ...relation.Row) {
		tbl, err := db.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Append(rows...); err != nil {
			t.Fatal(err)
		}
	}
	I, S, F, N := relation.Int, relation.String, relation.Float, relation.Null
	add("restaurant",
		relation.Row{I(8), S("Null Diner"), N(), I(10), F(3.0)},
		relation.Row{N(), S("Ghost Grill"), S("American"), I(10), F(4.0)},
		relation.Row{I(9), S("Float Bistro"), S("French"), F(10), F(4.0)},
		relation.Row{I(10), S("Quiet Place"), S("French"), I(12), F(5.0)},
	)
	add("comment",
		relation.Row{I(207), N(), I(109), S("Orphan comment"), S("01/12")},
		relation.Row{I(208), I(9), N(), S("Anonymous praise"), S("02/12")},
		relation.Row{I(209), I(9), I(132), S("Bill liked it"), S("03/12")},
		relation.Row{I(210), I(1), I(999), S("Unknown user"), S("04/12")},
	)
	add("customer", relation.Row{N(), S("Nobody")})
	return db
}

// TestExecuteMatchesReference is the differential test of the index paths:
// point and non-point ranges, unknown values, NULL join keys, unmatched
// left-outer rows, a column of mixed kinds and an Int parameter against a
// Float column must all give the reference's rows in the reference's order.
func TestExecuteMatchesReference(t *testing.T) {
	I, S, F := relation.Int, relation.String, relation.Float
	t.Run("fooddb", func(t *testing.T) {
		db := oddFooddb(t)
		b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, cuisine := range []relation.Value{S("American"), S("Thai"), S("French"), S("Klingon"), I(3)} {
			for _, r := range [][2]relation.Value{
				{I(10), I(10)}, {I(12), I(12)}, {I(9), I(9)}, {I(0), I(99)}, {I(10), I(15)},
				{I(13), I(11)}, {F(10), F(10)}, {F(10), I(10)}, {I(10), F(10.5)},
			} {
				params := map[string]relation.Value{"cuisine": cuisine, "min": r[0], "max": r[1]}
				rows += checkExecute(t, fmt.Sprint(params), b, db, params)
			}
		}
		if rows == 0 {
			t.Fatal("no case selected any row")
		}
	})
	t.Run("int-param-float-column", func(t *testing.T) {
		db := oddFooddb(t)
		for _, sql := range []string{
			`SELECT name, rate, comment FROM restaurant LEFT JOIN comment WHERE (rate = $r)`,
			`SELECT name, rate, comment FROM restaurant LEFT JOIN comment WHERE (rate BETWEEN $r AND $r)`,
		} {
			b, err := psj.Bind(psj.MustParse(sql), db)
			if err != nil {
				t.Fatal(err)
			}
			// Int(4) compares equal to the Float(4.0) rates.
			if n := checkExecute(t, sql, b, db, map[string]relation.Value{"r": I(4)}); n == 0 {
				t.Errorf("%s: Int(4) matched no Float(4.0) rate", sql)
			}
			checkExecute(t, sql, b, db, map[string]relation.Value{"r": F(4.3)})
		}
	})
	t.Run("inner-joins", func(t *testing.T) {
		db := oddFooddb(t)
		sql := `SELECT name, comment, uname FROM (restaurant JOIN comment) JOIN customer ` +
			`WHERE (cuisine = "$c") AND (budget BETWEEN $min AND $max)`
		b, err := psj.Bind(psj.MustParse(sql), db)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"American", "Thai", "French"} {
			for _, r := range [][2]int64{{10, 10}, {9, 12}, {18, 18}} {
				params := map[string]relation.Value{"c": S(c), "min": I(r[0]), "max": I(r[1])}
				checkExecute(t, fmt.Sprint(params), b, db, params)
			}
		}
	})
	scale := tpch.Scale{Name: "test", Customers: 60, OrdersPerCust: 3, LinesPerOrder: 3, Parts: 40}
	db := tpch.Generate(scale, 3)
	rng := rand.New(rand.NewSource(5))
	for _, name := range tpch.QueryNames() {
		t.Run("tpch-"+name, func(t *testing.T) {
			app, err := tpch.App(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := psj.Bind(app.Query, db)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for i := 0; i < 60; i++ {
				lo := I(int64(rng.Intn(50)))
				hi := lo
				if i%3 == 0 {
					hi = I(lo.AsInt() + int64(rng.Intn(400)))
				}
				key := I(int64(rng.Intn(scale.Customers)))
				if name == "Q1" {
					key = I(int64(rng.Intn(5)))
				}
				params := tpchParams(b, key, lo, hi)
				rows += checkExecute(t, fmt.Sprint(params), b, db, params)
			}
			if rows == 0 {
				t.Fatal("no case selected any row")
			}
		})
	}
}

// tpchParams assigns a TPC-H application query's parameters — the key, then
// the range's low and high ends, in WHERE order.
func tpchParams(b *psj.Bound, key, lo, hi relation.Value) map[string]relation.Value {
	names := b.Query.Params()
	return map[string]relation.Value{names[0]: key, names[1]: lo, names[2]: hi}
}

// TestExecuteConcurrent: Execute callers sharing one database build and
// read its indexes concurrently (run under -race) and all get the
// reference's answer.
func TestExecuteConcurrent(t *testing.T) {
	db := tpch.Generate(tpch.Scale{Name: "test", Customers: 40, OrdersPerCust: 3, LinesPerOrder: 3, Parts: 30}, 9)
	app, err := tpch.App("Q3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := psj.Bind(app.Query, db)
	if err != nil {
		t.Fatal(err)
	}
	paramsFor := func(i int) map[string]relation.Value {
		return tpchParams(b, relation.Int(int64(i%40)), relation.Int(int64(i%50)), relation.Int(int64(i%50+i%3)))
	}
	want := make([]*relation.Table, 40)
	for i := range want {
		if want[i], err = referenceExecute(b, db, paramsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range want {
				j := (i + w*5) % len(want)
				got, err := b.Execute(db, paramsFor(j))
				if err == nil && len(got.Rows) != len(want[j].Rows) {
					err = fmt.Errorf("params %v: %d rows, reference %d", paramsFor(j), len(got.Rows), len(want[j].Rows))
				}
				for k := 0; err == nil && k < len(got.Rows); k++ {
					if relation.Key(got.Rows[k]) != relation.Key(want[j].Rows[k]) {
						err = fmt.Errorf("params %v: row %d = %v, reference %v", paramsFor(j), k, got.Rows[k], want[j].Rows[k])
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
