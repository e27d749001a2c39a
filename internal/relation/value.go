// Package relation implements a small in-memory relational engine: typed
// values, schemas, tables, selection, projection, grouped aggregation, and
// inner/left-outer equi-joins over join trees.
//
// It is the database substrate Dash crawls. The engine is deliberately
// minimal — it supports exactly what parameterized project-select-join (PSJ)
// queries (see internal/psj) need — but it is a real evaluator with typed
// values and two access paths. Join is a hash join and Select a scan, for
// whole-table work such as the crawling query. For one db-page's partition,
// a Database also answers equality selections (SelectEqual) and joins
// against a base table (ProbeJoin) through persistent hash indexes, so the
// cost follows the rows selected rather than the table sizes. Callers push
// predicates down to the leaves and choose the path (internal/psj).
package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value types the engine supports.
type Kind uint8

// Supported value kinds. KindNull is the zero Kind so that a zero Value is a
// valid SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// Value is a small tagged struct rather than an interface so that rows can
// be stored and compared without per-cell heap allocation.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is only meaningful for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the value as a float64. Integers are widened.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload. It is only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// Text renders the value the way a db-page would print it: integers without
// exponent, floats in their shortest representation, NULL as the empty
// string. Keyword extraction tokenizes this rendering, so it must be stable.
func (v Value) Text() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'f', -1, 64)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// String implements fmt.Stringer; NULL prints as "NULL" to stay visible in
// debug output (page rendering uses Text instead).
func (v Value) String() string {
	if v.kind == KindNull {
		return "NULL"
	}
	return v.Text()
}

// numeric reports whether the value is an int or float.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values compare equal. Ints and floats compare
// numerically; NULL equals only NULL (three-valued logic is not needed by
// the PSJ subset Dash evaluates, where NULLs never reach predicates).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare returns -1, 0, or +1. The total order is
// NULL < numeric (by numeric value) < string (lexicographic).
// It is used for sorting fragment identifiers and range adjacency.
func (v Value) Compare(o Value) int {
	vr, or := v.rank(), o.rank()
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.numeric():
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
			return 0
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.s, o.s)
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// ParseAs parses raw text into a value of the requested kind. It is used by
// query-string parsing, where HTTP parameters arrive as strings but compare
// against typed columns.
func ParseAs(raw string, kind Kind) (Value, error) {
	switch kind {
	case KindInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse %q as int: %w", raw, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse %q as float: %w", raw, err)
		}
		return Float(f), nil
	case KindString:
		return String(raw), nil
	case KindNull:
		return Null(), nil
	default:
		return Value{}, fmt.Errorf("parse %q: unknown kind %v", raw, kind)
	}
}

// Row is a tuple of values positionally aligned with a Schema.
type Row []Value

// CloneRow returns a copy of the row. Values are immutable, so a shallow
// copy of the slice suffices.
func CloneRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// CompareRows orders rows lexicographically by Value.Compare.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
