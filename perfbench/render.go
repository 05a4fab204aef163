package main

import (
	"fmt"
	"strconv"
	"strings"

	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/types"
)

// renderSQL renders a generated query as SQL text the engine's parser
// accepts, emitting every predicate of q.Filter. The benchmark sends the
// engine this text (SQL in, rows out) and the oracle runs q itself, so
// every checked answer also checks that the text means q.
func renderSQL(q *plan.Query) (string, error) {
	var b strings.Builder
	b.WriteString("SELECT ")
	items := 0
	for _, c := range q.Select {
		if items > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
		items++
	}
	for _, a := range q.Aggs {
		if items > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Func.String())
		b.WriteByte('(')
		if a.Arg == nil {
			b.WriteByte('*')
		} else if err := renderExpr(&b, a.Arg); err != nil {
			return "", err
		}
		b.WriteByte(')')
		if a.Alias != "" {
			b.WriteString(" AS " + a.Alias)
		}
		items++
	}
	if items == 0 {
		return "", fmt.Errorf("render: query selects nothing")
	}
	b.WriteString(" FROM ")
	for i, r := range q.Relations {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Table + " " + r.Alias)
	}
	var conj []string
	for _, j := range q.Joins {
		conj = append(conj, j.Left.String()+" = "+j.Right.String())
	}
	for _, p := range q.Filter {
		terms, err := renderPred(p)
		if err != nil {
			return "", err
		}
		conj = append(conj, terms...)
	}
	if len(conj) > 0 {
		b.WriteString(" WHERE " + strings.Join(conj, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if q.OrderBy != nil {
		b.WriteString(" ORDER BY " + q.OrderBy.Col.String())
		if q.OrderBy.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.Limit))
	}
	return b.String(), nil
}

func renderExpr(b *strings.Builder, e expr.Expr) error {
	switch x := e.(type) {
	case *expr.Col:
		b.WriteString(x.Ref.String())
	case *expr.Const:
		if x.V.Kind != types.Float64 && x.V.Kind != types.Int64 {
			return fmt.Errorf("render: %v constant in arithmetic", x.V.Kind)
		}
		lit, err := renderLiteral(x.V)
		if err != nil {
			return err
		}
		b.WriteString(lit)
	case *expr.Bin:
		b.WriteByte('(')
		if err := renderExpr(b, x.L); err != nil {
			return err
		}
		b.WriteString(" " + string(rune(x.Op)) + " ")
		if err := renderExpr(b, x.R); err != nil {
			return err
		}
		b.WriteByte(')')
	default:
		return fmt.Errorf("render: unsupported expression %T", e)
	}
	return nil
}

// renderPred renders one column constraint as conjuncts: an IN list for
// string sets, "=" for a point interval, else one comparison per bound.
func renderPred(p expr.Pred) ([]string, error) {
	col := p.Col.String()
	c := p.Con
	if c.Kind == types.String {
		if len(c.Set) == 0 {
			return nil, fmt.Errorf("render: empty set on %s", col)
		}
		lits := make([]string, len(c.Set))
		for i, s := range c.Set {
			lit, err := renderLiteral(types.NewString(s))
			if err != nil {
				return nil, err
			}
			lits[i] = lit
		}
		return []string{col + " IN (" + strings.Join(lits, ", ") + ")"}, nil
	}
	iv := c.Iv
	if iv.HasLo && iv.HasHi && iv.LoIncl && iv.HiIncl && iv.Lo.Compare(iv.Hi) == 0 {
		lit, err := renderLiteral(iv.Lo)
		if err != nil {
			return nil, err
		}
		return []string{col + " = " + lit}, nil
	}
	var out []string
	if iv.HasLo {
		lit, err := renderLiteral(iv.Lo)
		if err != nil {
			return nil, err
		}
		op := " > "
		if iv.LoIncl {
			op = " >= "
		}
		out = append(out, col+op+lit)
	}
	if iv.HasHi {
		lit, err := renderLiteral(iv.Hi)
		if err != nil {
			return nil, err
		}
		op := " < "
		if iv.HiIncl {
			op = " <= "
		}
		out = append(out, col+op+lit)
	}
	return out, nil
}

// renderLiteral renders a value the parser reads back exactly. The
// lexer has no signed or exponent numbers, so those are refused rather
// than rendered into a different query.
func renderLiteral(v types.Value) (string, error) {
	switch v.Kind {
	case types.Int64:
		if v.I < 0 {
			return "", fmt.Errorf("render: negative literal %d", v.I)
		}
		return strconv.FormatInt(v.I, 10), nil
	case types.Float64:
		if v.F < 0 || v.F != v.F {
			return "", fmt.Errorf("render: float literal %v", v.F)
		}
		return strconv.FormatFloat(v.F, 'f', -1, 64), nil
	case types.Date:
		return "DATE '" + types.FormatDate(v.I) + "'", nil
	case types.String:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'", nil
	}
	return "", fmt.Errorf("render: unsupported literal kind %v", v.Kind)
}
