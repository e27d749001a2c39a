package webapp

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"repro/internal/psj"
	"repro/internal/relation"
)

// Errors returned by query-string handling.
var (
	ErrMissingField = errors.New("webapp: query string missing field")
	ErrNotBound     = errors.New("webapp: application is not bound to a database")
)

// Application is the analyzed form of a web application: its parameterized
// PSJ query plus the logic to go between HTTP query strings and query
// parameters in both directions.
type Application struct {
	Name     string
	BaseURL  string
	Query    *psj.Query
	SQL      string // reconstructed parameterized SQL text
	Bindings []Binding

	bound *psj.Bound
	db    *relation.Database
}

// Bind validates the application query against a database and caches the
// binding. It must be called before Execute, ParseQueryString, or Handler.
func (a *Application) Bind(db *relation.Database) error {
	b, err := psj.Bind(a.Query, db)
	if err != nil {
		return err
	}
	a.bound = b
	a.db = db
	return nil
}

// Bound returns the cached binding, or an error if Bind was not called.
func (a *Application) Bound() (*psj.Bound, error) {
	if a.bound == nil {
		return nil, ErrNotBound
	}
	return a.bound, nil
}

// FieldForParam returns the query-string field bound to a parameter.
func (a *Application) FieldForParam(param string) (string, bool) {
	for _, b := range a.Bindings {
		if b.Param == param {
			return b.Field, true
		}
	}
	return "", false
}

// ParamForField returns the parameter bound to a query-string field.
func (a *Application) ParamForField(field string) (string, bool) {
	for _, b := range a.Bindings {
		if b.Field == field {
			return b.Param, true
		}
	}
	return "", false
}

// ParseQueryString performs execution step (a): it parses an HTTP query
// string (e.g. "c=American&l=10&u=15") into typed parameter values. The
// application must be bound so field types are known.
func (a *Application) ParseQueryString(qs string) (map[string]relation.Value, error) {
	b, err := a.Bound()
	if err != nil {
		return nil, err
	}
	vals, err := url.ParseQuery(qs)
	if err != nil {
		return nil, fmt.Errorf("webapp: parse query string: %w", err)
	}
	params := make(map[string]relation.Value, len(a.Bindings))
	for _, bind := range a.Bindings {
		raw := vals.Get(bind.Field)
		if raw == "" && !vals.Has(bind.Field) {
			return nil, fmt.Errorf("%w: %s", ErrMissingField, bind.Field)
		}
		kind, err := b.ParamKind(bind.Param)
		if err != nil {
			return nil, err
		}
		v, err := relation.ParseAs(raw, kind)
		if err != nil {
			return nil, fmt.Errorf("webapp: field %s: %w", bind.Field, err)
		}
		params[bind.Param] = v
	}
	return params, nil
}

// FormatQueryString is the reverse query-string parsing of §IV: given typed
// parameter values it produces the query string the application would have
// received. Fields appear in binding order, matching the paper's URLs.
func (a *Application) FormatQueryString(params map[string]relation.Value) (string, error) {
	var b strings.Builder
	for i, bind := range a.Bindings {
		v, ok := params[bind.Param]
		if !ok {
			return "", fmt.Errorf("%w: $%s", psj.ErrNoParam, bind.Param)
		}
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(bind.Field)
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(v.Text()))
	}
	return b.String(), nil
}

// FormatURL renders the full db-page URL for parameter values.
func (a *Application) FormatURL(params map[string]relation.Value) (string, error) {
	qs, err := a.FormatQueryString(params)
	if err != nil {
		return "", err
	}
	return a.URLFor(qs), nil
}

// URLFor renders the db-page URL for an already formatted query string.
func (a *Application) URLFor(queryString string) string {
	return a.BaseURL + "?" + queryString
}

// PageParams converts a db-page description — one value per equality
// attribute plus a [lo,hi] interval for the range attribute — into the
// parameter map the query expects. eqVals are keyed by attribute column
// name. It is the bridge from assembled fragments to URLs: for the merged
// fragment (American,(10,12)), PageParams yields {cuisine:American, min:10,
// max:12} and FormatURL then produces …?c=American&l=10&u=12 (Example 7).
func (a *Application) PageParams(eqVals map[string]relation.Value, rangeLo, rangeHi relation.Value) (map[string]relation.Value, error) {
	b, err := a.Bound()
	if err != nil {
		return nil, err
	}
	params := make(map[string]relation.Value, len(b.Conds))
	for _, c := range b.Conds {
		switch c.Op {
		case psj.OpEQ:
			v, ok := eqVals[c.Attr.Col]
			if !ok {
				return nil, fmt.Errorf("%w: no value for equality attribute %s", ErrMissingField, c.Attr.Col)
			}
			params[c.Param] = v
		case psj.OpGE:
			if rangeLo.IsNull() {
				return nil, fmt.Errorf("%w: no lower bound for range attribute %s", ErrMissingField, c.Attr.Col)
			}
			params[c.Param] = rangeLo
		case psj.OpLE:
			if rangeHi.IsNull() {
				return nil, fmt.Errorf("%w: no upper bound for range attribute %s", ErrMissingField, c.Attr.Col)
			}
			params[c.Param] = rangeHi
		}
	}
	return params, nil
}

// Execute runs the application for a raw query string: step (a) parse, step
// (b) evaluate the application query, returning the db-page content as a
// table of projected rows.
func (a *Application) Execute(qs string) (*relation.Table, error) {
	b, err := a.Bound()
	if err != nil {
		return nil, err
	}
	params, err := a.ParseQueryString(qs)
	if err != nil {
		return nil, err
	}
	return b.Execute(a.db, params)
}
