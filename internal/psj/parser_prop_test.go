package psj

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
)

// genQuery builds a random but well-formed PSJ query over a synthetic
// catalog of relation/column names.
func genQuery(r *rand.Rand) *Query {
	nRels := 1 + r.Intn(4)
	q := &Query{}

	// Join tree: left-deep or one bushy split.
	makeLeaf := func(i int) *JoinExpr { return &JoinExpr{Relation: fmt.Sprintf("rel%d", i)} }
	tree := makeLeaf(0)
	for i := 1; i < nRels; i++ {
		kind := relation.JoinInner
		if r.Intn(3) == 0 {
			kind = relation.JoinLeftOuter
		}
		node := &JoinExpr{Left: tree, Right: makeLeaf(i), Kind: kind}
		if r.Intn(2) == 0 {
			node.On = []string{fmt.Sprintf("k%d", i)}
		}
		tree = node
	}
	q.From = tree

	// Projections or star.
	if r.Intn(4) == 0 {
		q.Star = true
	} else {
		for i := 0; i <= r.Intn(4); i++ {
			ref := ColRef{Col: fmt.Sprintf("col%d", i)}
			if r.Intn(3) == 0 {
				ref.Table = fmt.Sprintf("rel%d", r.Intn(nRels))
			}
			q.Projections = append(q.Projections, ref)
		}
	}

	// Conditions: one equality plus optionally a range pair.
	q.Conditions = append(q.Conditions, Condition{
		Attr: ColRef{Col: "eqattr"}, Op: OpEQ, Param: "p0",
	})
	if r.Intn(2) == 0 {
		q.Conditions = append(q.Conditions,
			Condition{Attr: ColRef{Col: "rgattr"}, Op: OpGE, Param: "lo"},
			Condition{Attr: ColRef{Col: "rgattr"}, Op: OpLE, Param: "hi"},
		)
	}
	if r.Intn(3) == 0 {
		q.Conditions = append(q.Conditions, Condition{
			Attr: ColRef{Table: fmt.Sprintf("rel%d", r.Intn(nRels)), Col: "other"},
			Op:   OpEQ, Param: "p1",
		})
	}
	return q
}

// TestPropParserRoundTrip: String() output re-parses to an identical query,
// for thousands of randomly generated queries.
func TestPropParserRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := genQuery(r)
		text := q.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, text, err)
		}
		if parsed.String() != text {
			t.Fatalf("seed %d: round trip\n in: %s\nout: %s", seed, text, parsed.String())
		}
	}
}

// TestPropParserCaseInsensitiveKeywords: keyword case never changes the
// parse.
func TestPropParserCaseInsensitiveKeywords(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := genQuery(r)
		text := q.String()
		lower := strings.NewReplacer(
			"SELECT", "select", "FROM", "from", "WHERE", "where",
			"JOIN", "join", "LEFT", "left", "AND", "and", "ON", "on",
		).Replace(text)
		a, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Parse(lower)
		if err != nil {
			t.Fatalf("seed %d: lower-case parse failed: %v", seed, err)
		}
		if a.String() != b.String() {
			t.Fatalf("seed %d: case sensitivity:\n%s\n%s", seed, a, b)
		}
	}
}

// TestPropSelectionAttrsStable: SelectionAttrs/EqAttrs/RangeAttrs partition
// correctly on generated queries.
func TestPropSelectionAttrsStable(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := genQuery(r)
		sel := q.SelectionAttrs()
		eq, rg := q.EqAttrs(), q.RangeAttrs()
		if len(eq)+len(rg) != len(sel) {
			t.Fatalf("seed %d: eq %v + range %v != sel %v", seed, eq, rg, sel)
		}
		seen := make(map[ColRef]bool)
		for _, a := range sel {
			if seen[a] {
				t.Fatalf("seed %d: duplicate selection attr %v", seed, a)
			}
			seen[a] = true
		}
		for _, a := range rg {
			ops := q.AttrOps()[a]
			hasRange := false
			for _, op := range ops {
				if op != OpEQ {
					hasRange = true
				}
			}
			if !hasRange {
				t.Fatalf("seed %d: %v classified range without >=/<=", seed, a)
			}
		}
	}
}

// TestParseWhitespaceInsensitive: arbitrary extra whitespace is harmless.
func TestParseWhitespaceInsensitive(t *testing.T) {
	compact := `SELECT a,b FROM (x JOIN y) WHERE a = $p AND b BETWEEN $l AND $h`
	spaced := "SELECT   a ,  b\n FROM ( x \t JOIN y )\nWHERE  a=$p  AND  b  BETWEEN  $l  AND  $h"
	qa, err := Parse(compact)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := Parse(spaced)
	if err != nil {
		t.Fatal(err)
	}
	if qa.String() != qb.String() {
		t.Errorf("whitespace changed parse:\n%s\n%s", qa, qb)
	}
}

// FuzzParse: Parse never panics, and an accepted query's String()
// re-parses to the same String().
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		searchSQL,
		`select * from (customer join orders) join (lineitem join part) where customer.custkey = $r and qty between $min and $max`,
		`SELECT a FROM x JOIN y ON k = k WHERE a = $p`,
		`SELECT * FROM (x LEFT OUTER JOIN y) INNER JOIN z ON k, j WHERE (a = '$p' AND b >= $l) AND b <= $h`,
		`SELECT * FROM x WHERE a = "p"`,
		`SELECT * FROM x WHERE a > $p`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			return
		}
		text := q.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", sql, text, err)
		}
		if again.String() != text {
			t.Fatalf("Parse(%q) renders %q, which renders %q", sql, text, again.String())
		}
	})
}
