package psj

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/relation"
)

// Parse parses an SQL-subset PSJ query. The dialect covers the paper's
// application queries (Fig. 3, Table III):
//
//	SELECT * | col[, col…]
//	FROM rel | (joinExpr) [LEFT|INNER] JOIN rel|(joinExpr) [ON col [= col]] …
//	WHERE (attr = $p) AND attr BETWEEN $lo AND $hi AND attr >= $x …
//
// Parameters are $-prefixed identifiers and may be quoted ("$p" or '$p'),
// matching how string parameters appear inside reconstructed SQL text.
func Parse(sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return q, nil
}

// MustParse is Parse for statically known queries; it panics on error and is
// intended for tests and built-in workload definitions.
func MustParse(sql string) *Query {
	q, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return q
}

type tokKind uint8

const (
	tokIdent tokKind = iota + 1
	tokNumber
	tokString
	tokSymbol // ( ) , = >= <= * . $
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '.' || c == '$' || c == '=':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '>' || c == '<':
			if i+1 >= len(src) || src[i+1] != '=' {
				return nil, fmt.Errorf("%w: strict inequality at offset %d (only =, >=, <= are allowed)", ErrSyntax, i)
			}
			toks = append(toks, token{tokSymbol, string(c) + "=", i})
			i += 2
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("%w: unterminated string at offset %d", ErrSyntax, i)
			}
			toks = append(toks, token{tokString, src[i+1 : j], i})
			i = j + 1
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("%w: unexpected character %q at offset %d", ErrSyntax, c, i)
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.eof() {
		return token{}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSyntax, fmt.Sprintf(format, args...))
}

// acceptKeyword consumes the next token if it is the given (case-insensitive)
// keyword.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s near %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	if p.acceptSymbol("*") {
		q.Star = true
	} else {
		for {
			ref, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			q.Projections = append(q.Projections, ref)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseJoinExpr()
	if err != nil {
		return nil, err
	}
	q.From = from
	if p.acceptKeyword("WHERE") {
		for {
			conds, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			q.Conditions = append(q.Conditions, conds...)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	return q, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return ColRef{}, p.errorf("expected column name, got %q", t.text)
	}
	ref := ColRef{Col: t.text}
	if p.acceptSymbol(".") {
		t2 := p.next()
		if t2.kind != tokIdent {
			return ColRef{}, p.errorf("expected column after %q.", t.text)
		}
		ref = ColRef{Table: t.text, Col: t2.text}
	}
	return ref, nil
}

func (p *parser) parseJoinExpr() (*JoinExpr, error) {
	left, err := p.parseJoinTerm()
	if err != nil {
		return nil, err
	}
	for {
		kind, ok := p.parseJoinOp()
		if !ok {
			return left, nil
		}
		right, err := p.parseJoinTerm()
		if err != nil {
			return nil, err
		}
		node := &JoinExpr{Left: left, Right: right, Kind: kind}
		if p.acceptKeyword("ON") {
			for {
				a, err := p.parseColRef()
				if err != nil {
					return nil, err
				}
				if p.acceptSymbol("=") {
					b, err := p.parseColRef()
					if err != nil {
						return nil, err
					}
					if a.Col != b.Col {
						return nil, p.errorf("ON %s = %s: join columns must share a name", a, b)
					}
				}
				node.On = append(node.On, a.Col)
				if !p.acceptSymbol(",") {
					break
				}
			}
		}
		left = node
	}
}

func (p *parser) parseJoinOp() (relation.JoinKind, bool) {
	switch {
	case p.acceptKeyword("LEFT"):
		_ = p.acceptKeyword("OUTER")
		if !p.acceptKeyword("JOIN") {
			p.pos-- // restore; will fail upstream
			return 0, false
		}
		return relation.JoinLeftOuter, true
	case p.acceptKeyword("INNER"):
		if !p.acceptKeyword("JOIN") {
			p.pos--
			return 0, false
		}
		return relation.JoinInner, true
	case p.acceptKeyword("JOIN"):
		return relation.JoinInner, true
	default:
		return 0, false
	}
}

func (p *parser) parseJoinTerm() (*JoinExpr, error) {
	if p.acceptSymbol("(") {
		inner, err := p.parseJoinExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptSymbol(")") {
			return nil, p.errorf("expected ) near %q", p.peek().text)
		}
		return inner, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errorf("expected relation name, got %q", t.text)
	}
	return &JoinExpr{Relation: t.text}, nil
}

// parseCondition parses one WHERE conjunct, desugaring BETWEEN into two
// conditions. Redundant parentheses around a conjunct are allowed, as in the
// paper's Fig. 3 SQL.
func (p *parser) parseCondition() ([]Condition, error) {
	if p.acceptSymbol("(") {
		conds, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		for p.acceptKeyword("AND") {
			more, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			conds = append(conds, more...)
		}
		if !p.acceptSymbol(")") {
			return nil, p.errorf("expected ) in condition near %q", p.peek().text)
		}
		return conds, nil
	}
	attr, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptSymbol("="):
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		return []Condition{{Attr: attr, Op: OpEQ, Param: param}}, nil
	case p.acceptSymbol(">="):
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		return []Condition{{Attr: attr, Op: OpGE, Param: param}}, nil
	case p.acceptSymbol("<="):
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		return []Condition{{Attr: attr, Op: OpLE, Param: param}}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		return []Condition{
			{Attr: attr, Op: OpGE, Param: lo},
			{Attr: attr, Op: OpLE, Param: hi},
		}, nil
	default:
		return nil, p.errorf("expected comparison operator after %s, got %q", attr, p.peek().text)
	}
}

// parseParam accepts $name, "$name", or '$name'. Quoted or not, name lexes
// as one identifier, so a query's String() parses back to the same query.
func (p *parser) parseParam() (string, error) {
	t := p.peek()
	if t.kind == tokString {
		p.pos++
		name := strings.TrimSpace(t.text)
		toks, err := lex(strings.TrimPrefix(name, "$"))
		if !strings.HasPrefix(name, "$") || err != nil || len(toks) != 1 ||
			toks[0].kind != tokIdent || len(toks[0].text) != len(name)-1 {
			return "", p.errorf("expected quoted parameter like \"$p\", got %q", t.text)
		}
		return name[1:], nil
	}
	if p.acceptSymbol("$") {
		t2 := p.next()
		if t2.kind != tokIdent {
			return "", p.errorf("expected parameter name after $, got %q", t2.text)
		}
		return t2.text, nil
	}
	return "", p.errorf("expected parameter ($name), got %q", t.text)
}
