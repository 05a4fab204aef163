package main

import (
	"context"
	"strings"
	"testing"

	"hashstash"
	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

func testDB(t *testing.T) *hashstash.DB {
	t.Helper()
	db := hashstash.Open(hashstash.WithTuning(hashstash.Tuning{Parallelism: 1}))
	if err := db.LoadTPCH(0.002); err != nil {
		t.Fatal(err)
	}
	return db
}

// sameQuery reports how a parsed query differs from the generated one.
func sameQuery(a, b *plan.Query) string {
	switch {
	case len(a.Relations) != len(b.Relations):
		return "relations"
	case len(a.Joins) != len(b.Joins):
		return "joins"
	case !a.Filter.Equal(b.Filter):
		return "filter " + a.Filter.String() + " vs " + b.Filter.String()
	case !refsEqual(a.Select, b.Select):
		return "select"
	case !refsEqual(a.GroupBy, b.GroupBy):
		return "group by"
	case !expr.SpecsEqual(a.Aggs, b.Aggs):
		return "aggregates"
	case (a.OrderBy == nil) != (b.OrderBy == nil) || (a.OrderBy != nil && *a.OrderBy != *b.OrderBy):
		return "order by"
	case a.Limit != b.Limit:
		return "limit"
	}
	for i := range a.Relations {
		if a.Relations[i] != b.Relations[i] {
			return "relation " + a.Relations[i].Alias
		}
	}
	for i := range a.Joins {
		if a.Joins[i] != b.Joins[i] {
			return "join " + a.Joins[i].Left.String()
		}
	}
	for i := range a.Aggs {
		if a.Aggs[i].Alias != b.Aggs[i].Alias {
			return "aggregate alias"
		}
	}
	return ""
}

func refsEqual(a, b []storage.ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func generated() []workload.Step {
	var steps []workload.Step
	for seed := uint64(1); seed <= 3; seed++ {
		steps = append(steps, workload.Generate(workload.Config{Level: workload.Medium, N: 64, Seed: seed})...)
		steps = append(steps, workload.GenerateSkewed(workload.SkewConfig{N: 64, Seed: seed})...)
		steps = append(steps, workload.GeneratePartitioned(workload.PartitionedConfig{N: 64, Seed: seed})...)
	}
	return steps
}

// TestRenderRoundTrip parses the rendered text of every generated query
// shape back into the same logical query, c_age window included.
func TestRenderRoundTrip(t *testing.T) {
	db := testDB(t)
	for i, s := range generated() {
		sql, err := renderSQL(s.Query)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		q, err := db.Parse(sql)
		if err != nil {
			t.Fatalf("step %d: parse %q: %v", i, sql, err)
		}
		if d := sameQuery(q, s.Query); d != "" {
			t.Fatalf("step %d: %s differs after round trip: %s", i, d, sql)
		}
	}
}

// TestRenderedTextAnswersLikeQuery runs the rendered text and the
// logical query on one engine and compares the answers.
func TestRenderedTextAnswersLikeQuery(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	for i, s := range generated()[:40] {
		sql, err := renderSQL(s.Query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := db.ExecParsed(ctx, s.Query)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := sameAnswer(got, want, false); err != nil {
			t.Fatalf("step %d: %v: %s", i, err, sql)
		}
	}
}

func TestRenderPredicates(t *testing.T) {
	ref := func(a, c string) storage.ColRef { return storage.ColRef{Table: a, Column: c} }
	q := &plan.Query{
		Relations: []plan.Rel{{Alias: "c", Table: "customer"}, {Alias: "o", Table: "orders"}},
		Joins:     []plan.JoinPred{{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")}},
		Filter: expr.NewBox(
			expr.Pred{Col: ref("c", "c_mktsegment"), Con: expr.SetConstraint("BUILDING", "O'HARA")},
			expr.Pred{Col: ref("c", "c_custkey"), Con: expr.IntervalConstraint(types.Int64, expr.PointInterval(types.NewInt(7)))},
			expr.Pred{Col: ref("o", "o_totalprice"), Con: expr.IntervalConstraint(types.Float64, expr.Interval{
				HasLo: true, Lo: types.NewFloat(1000.5),
				HasHi: true, Hi: types.NewFloat(2e5), HiIncl: true,
			})},
		),
		Select:  []storage.ColRef{ref("o", "o_orderkey")},
		OrderBy: &plan.OrderSpec{Col: ref("o", "o_orderkey"), Desc: true},
		Limit:   5,
	}
	sql, err := renderSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{
		"c.c_mktsegment IN ('BUILDING', 'O''HARA')", "c.c_custkey = 7",
		"o.o_totalprice > 1000.5", "o.o_totalprice <= 200000", "ORDER BY o.o_orderkey DESC LIMIT 5",
	} {
		if !strings.Contains(sql, part) {
			t.Errorf("%q lacks %q", sql, part)
		}
	}
	parsed, err := testDB(t).Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameQuery(parsed, q); d != "" {
		t.Fatalf("%s differs after round trip: %s", d, sql)
	}

	neg := &plan.Query{
		Relations: q.Relations[:1],
		Filter: expr.NewBox(expr.Pred{Col: ref("c", "c_acctbal"),
			Con: expr.IntervalConstraint(types.Float64, expr.Interval{HasLo: true, Lo: types.NewFloat(-5)})}),
		Select: []storage.ColRef{ref("c", "c_custkey")},
	}
	if sql, err := renderSQL(neg); err == nil {
		t.Fatalf("negative literal rendered as %q; the lexer has no signed numbers", sql)
	}
}
