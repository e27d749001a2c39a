package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sameRows reports whether two tables hold byte-identical rows in the same
// order under the same columns.
func sameRows(a, b *Table) bool {
	if !reflect.DeepEqual(a.Schema.Columns, b.Schema.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if Key(a.Rows[i]) != Key(b.Rows[i]) {
			return false
		}
	}
	return true
}

// randomJoinTables builds a left table and a base table sharing a
// two-column key (k1, k2) from small domains, with NULLs in both key
// columns on both sides and duplicate keys.
func randomJoinTables(r *rand.Rand) (*Table, *Table) {
	val := func() Value {
		if r.Intn(8) == 0 {
			return Null()
		}
		return Int(r.Int63n(4))
	}
	left := NewTable(MustSchema("l", Column{"k1", KindInt}, Column{"k2", KindInt}, Column{"lv", KindInt}))
	right := NewTable(MustSchema("r", Column{"k2", KindInt}, Column{"rv", KindInt}, Column{"k1", KindInt}))
	for i := 0; i < r.Intn(40); i++ {
		_ = left.Append(Row{val(), val(), Int(int64(i))})
	}
	for i := 0; i < r.Intn(40); i++ {
		_ = right.Append(Row{val(), Int(int64(i)), val()})
	}
	return left, right
}

// TestPropProbeJoinMatchesJoin: probing the base table's index is the hash
// join of the filtered base table — same rows, same order, both kinds, on
// one or two columns.
func TestPropProbeJoinMatchesJoin(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		left, right := randomJoinTables(r)
		single, err := right.Project([]string{"rv", "k1"})
		if err != nil {
			t.Fatal(err)
		}
		single.Schema.Name = "s"
		db := NewDatabase("t")
		db.AddTable(right)
		db.AddTable(single)
		for _, c := range []struct {
			base *Table
			on   []string
			rv   int // position of rv in base
		}{{right, []string{"k2", "k1"}, 1}, {right, nil, 1}, {single, []string{"k1"}, 0}} {
			odd := func(row Row) bool { return row[c.rv].AsInt()%2 == 1 }
			for _, kind := range []JoinKind{JoinInner, JoinLeftOuter} {
				for _, keep := range []func(Row) bool{nil, odd} {
					filtered := c.base
					if keep != nil {
						filtered = c.base.Select(keep)
					}
					want, err := Join(left, filtered, c.on, kind)
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.ProbeJoin(left, c.base.Schema.Name, c.on, kind, keep)
					if err != nil {
						t.Fatal(err)
					}
					if !sameRows(got, want) {
						t.Fatalf("seed %d on %v %v filtered %v:\nprobe %v\nhash  %v",
							seed, c.on, kind, keep != nil, got.Rows, want.Rows)
					}
				}
			}
		}
	}
}

// TestSelectEqualMatchesSelect: an index lookup returns what a scan with
// Value.Compare selects, and declines exactly where Key equality and
// Compare disagree.
func TestSelectEqualMatchesSelect(t *testing.T) {
	tbl := NewTable(MustSchema("t", Column{"n", KindInt}, Column{"s", KindString},
		Column{"f", KindFloat}, Column{"mixed", KindInt}))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n, s := Int(r.Int63n(10)), String(string(rune('a'+r.Intn(5))))
		if i%11 == 0 {
			n, s = Null(), Null()
		}
		mixed := Int(r.Int63n(3))
		if i%7 == 0 {
			mixed = Float(float64(r.Int63n(3)))
		}
		_ = tbl.Append(Row{n, s, Float(float64(i % 4)), mixed})
	}
	db := NewDatabase("t")
	db.AddTable(tbl)
	keep := func(row Row) bool { return row[2].AsFloat() != 1 }

	for _, c := range []struct {
		col string
		v   Value
	}{{"n", Int(3)}, {"n", Int(42)}, {"s", String("c")}, {"s", String("zz")}} {
		j := tbl.Schema.ColumnIndex(c.col)
		want := tbl.Select(func(row Row) bool { return !row[j].IsNull() && row[j].Compare(c.v) == 0 && keep(row) })
		got, ok, err := db.SelectEqual("t", c.col, c.v, keep)
		if err != nil || !ok {
			t.Fatalf("SelectEqual(%s = %v) = ok %v, %v", c.col, c.v, ok, err)
		}
		if !sameRows(got, want) {
			t.Errorf("SelectEqual(%s = %v) = %v, scan %v", c.col, c.v, got.Rows, want.Rows)
		}
	}
	// A float or NULL value, a value of another kind than the column's, and
	// a column of two kinds: Key equality is not Compare equality there.
	for _, c := range []struct {
		col string
		v   Value
	}{{"f", Float(1)}, {"f", Int(1)}, {"n", Null()}, {"n", Float(3)}, {"n", String("3")}, {"mixed", Int(1)}} {
		if _, ok, err := db.SelectEqual("t", c.col, c.v, nil); ok || err != nil {
			t.Errorf("SelectEqual(%s = %v) answered (ok %v, err %v); want a scan", c.col, c.v, ok, err)
		}
	}
	if _, _, err := db.SelectEqual("t", "nope", Int(1), nil); err == nil {
		t.Error("SelectEqual on a missing column: no error")
	}
	if _, _, err := db.SelectEqual("nope", "n", Int(1), nil); err == nil {
		t.Error("SelectEqual on a missing table: no error")
	}
}

// TestIndexStaysCurrent: an index extends over rows appended in place,
// rebuilds when the row slice or the table is replaced or its last row
// moved, and answers for the current rows after each.
func TestIndexStaysCurrent(t *testing.T) {
	tbl := NewTable(MustSchema("t", Column{"k", KindInt}, Column{"v", KindInt}))
	tbl.Rows = make([]Row, 0, 4)
	_ = tbl.Append(Row{Int(1), Int(10)}, Row{Int(2), Int(20)})
	db := NewDatabase("t")
	db.AddTable(tbl)

	count := func(k int64) int {
		t.Helper()
		got, ok, err := db.SelectEqual("t", "k", Int(k), nil)
		if err != nil || !ok {
			t.Fatalf("SelectEqual(%d) = ok %v, %v", k, ok, err)
		}
		return got.Len()
	}
	ix, err := db.index("t", tbl, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	mapOf := func() uintptr { return reflect.ValueOf(ix.pos).Pointer() }

	if count(1) != 1 {
		t.Fatal("initial lookup")
	}
	built := mapOf()
	_ = tbl.Append(Row{Int(1), Int(11)}) // within capacity
	if count(1) != 2 || mapOf() != built {
		t.Errorf("in-place append: count %d, map rebuilt %v; want 2, extended", count(1), mapOf() != built)
	}
	_ = tbl.Append(Row{Int(1), Int(12)}, Row{Int(3), Int(30)}) // reallocates
	if count(1) != 3 || count(3) != 1 || mapOf() == built {
		t.Errorf("reallocating append: count %d/%d, rebuilt %v; want 3/1, rebuilt", count(1), count(3), mapOf() != built)
	}
	if err := tbl.SortBy("v"); err != nil {
		t.Fatal(err)
	}
	got, _, _ := db.SelectEqual("t", "k", Int(1), nil)
	if want := tbl.Select(func(r Row) bool { return r[0].AsInt() == 1 }); !sameRows(got, want) {
		t.Errorf("after SortBy: %v, want %v", got.Rows, want.Rows)
	}
	// A delete in place followed by an append keeps the slice's array and
	// length but moves its last row: the index rebuilds.
	n, first := len(tbl.Rows), &tbl.Rows[0]
	tbl.Rows = slices.Delete(tbl.Rows, 0, 1)
	_ = tbl.Append(Row{Int(4), Int(40)})
	if len(tbl.Rows) != n || &tbl.Rows[0] != first {
		t.Fatal("delete and append moved the rows")
	}
	for k := int64(1); k <= 4; k++ {
		got, _, _ := db.SelectEqual("t", "k", Int(k), nil)
		if want := tbl.Select(func(r Row) bool { return r[0].AsInt() == k }); !sameRows(got, want) {
			t.Errorf("after delete and append, k = %d: %v, want %v", k, got.Rows, want.Rows)
		}
	}
	replaced := NewTable(tbl.Schema)
	_ = replaced.Append(Row{Int(1), Int(99)})
	db.AddTable(replaced)
	if count(1) != 1 || count(3) != 0 {
		t.Errorf("replaced table: counts %d/%d, want 1/0", count(1), count(3))
	}
}
