package optimizer

import (
	"context"
	"errors"
	"slices"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
)

// These tests drive runSharedGroup directly: PlanBatch decides merges
// by cost, so a batch-level test cannot guarantee that a given pair
// executes as one shared plan.

// assertMatchesSingles compares each result with the query's answer
// from a never-reuse single-query optimizer.
func assertMatchesSingles(t *testing.T, cat *catalog.Catalog, queries []*plan.Query, got []*Result) {
	t.Helper()
	never := New(cat, htcache.New(0), nil, Options{Strategy: NeverReuse})
	for i, q := range queries {
		want, err := never.Run(q)
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("query %d: empty reference answer", i)
		}
		if g, w := canonicalRows(got[i]), canonicalRows(want); !slices.Equal(g, w) {
			t.Fatalf("query %d: %d shared rows differ from %d single rows", i, len(g), len(w))
		}
	}
}

// TestSharedSPJGroupRetag runs an SPJ pair as one shared plan (spine
// output split by qid), then a second pair inside the first pair's
// hull, which must re-tag the cached shared join table.
func TestSharedSPJGroupRetag(t *testing.T) {
	cat, s := newBatchEnv(t)
	first := []*plan.Query{
		spjQ("1995-01-01", "1995-03-01"),
		spjQ("1995-02-01", "1995-04-01"),
	}
	res, err := s.runSharedGroup(context.Background(), first, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingles(t, cat, first, res)
	before := s.Cache.Stats().Hits

	second := []*plan.Query{
		spjQ("1995-02-01", "1995-03-01"),
		spjQ("1995-01-15", "1995-03-15"),
	}
	res, err = s.runSharedGroup(context.Background(), second, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingles(t, cat, second, res)
	if s.Cache.Stats().Hits <= before {
		t.Error("second pair did not re-tag the cached shared join table")
	}
}

// TestSharedMixedAggregates merges queries carrying AVG (rewritten to
// SUM/COUNT), COUNT(*) and MAX over a Date column (folded as Int64).
func TestSharedMixedAggregates(t *testing.T) {
	cat, s := newBatchEnv(t)
	mixed := func(lo, hi string) *plan.Query {
		q := aggQuery(lo, hi)
		q.Aggs = append(q.Aggs,
			expr.AggSpec{Func: expr.AggAvg, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "avg_price"},
			expr.AggSpec{Func: expr.AggCount, Alias: "n"},
			expr.AggSpec{Func: expr.AggMax, Arg: &expr.Col{Ref: ref("l", "l_shipdate")}, Alias: "last_ship"},
		)
		return q
	}
	queries := []*plan.Query{mixed("1995-01-01", "1995-07-01"), mixed("1995-03-01", "1995-09-01")}
	res, err := s.runSharedGroup(context.Background(), queries, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingles(t, cat, queries, res)
	if got := res[0].Columns; len(got) != 5 || got[2] != "avg_price" || got[4] != "last_ship" {
		t.Errorf("columns = %v", got)
	}
}

// TestSharedGroupFailureUnwinds fails a merged group's first morsel:
// the error surfaces, no half-built shared table stays registered, and
// the same group succeeds once the fault is disarmed.
func TestSharedGroupFailureUnwinds(t *testing.T) {
	cat, s := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	if err := faultinject.Arm("exec.morsel=err:once"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	if _, err := s.runSharedGroup(context.Background(), queries, []int{0, 1}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if n := s.Cache.Stats().Entries; n != 0 {
		t.Fatalf("%d cache entries left after a failed shared group", n)
	}
	faultinject.Disarm()
	res, err := s.runSharedGroup(context.Background(), queries, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSingles(t, cat, queries, res)
}
