package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/catalog"
	"hashstash/internal/costmodel"
	"hashstash/internal/exec"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/sqlparser"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

const rows = 240

// newEngine builds an n-shard engine with serial per-shard optimizers
// and the given partition keys declared, then loads the test tables:
//
//	pa(k, v, w, g)  k unique, v = k%7, w = 1.5k, g one of three strings
//	pb(k, v)        k = i%60 (duplicate keys), v = i%5
//	rep(k, v)       k = i%10, v = i%3
func newEngine(t *testing.T, n int, keys map[string]string) *Engine {
	t.Helper()
	model := costmodel.NewModel(nil)
	shards := make([]*Shard, n)
	for s := range shards {
		cat := catalog.New()
		cache := htcache.New(0)
		opts := optimizer.DefaultOptions()
		opts.Parallelism = 1
		shards[s] = &Shard{ID: s, Cat: cat, Cache: cache, Opt: optimizer.New(cat, cache, model, opts)}
	}
	e := New(shards, model, exec.Parallelism{Workers: 1})
	for table, col := range keys {
		e.DeclarePartitionKey(table, col)
	}
	pa := storage.NewTable("pa", storage.NewColumn("k", types.Int64), storage.NewColumn("v", types.Int64),
		storage.NewColumn("w", types.Float64), storage.NewColumn("g", types.String))
	pb := storage.NewTable("pb", storage.NewColumn("k", types.Int64), storage.NewColumn("v", types.Int64))
	rep := storage.NewTable("rep", storage.NewColumn("k", types.Int64), storage.NewColumn("v", types.Int64))
	for i := 0; i < rows; i++ {
		pa.AppendRow(types.NewInt(int64(i)), types.NewInt(int64(i%7)), types.NewFloat(1.5*float64(i)),
			types.NewString(string(rune('x'+i%3))))
		pb.AppendRow(types.NewInt(int64(i%60)), types.NewInt(int64(i%5)))
		rep.AppendRow(types.NewInt(int64(i%10)), types.NewInt(int64(i%3)))
	}
	for _, tbl := range []*storage.Table{pa, pb, rep} {
		if err := e.LoadTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func parse(t *testing.T, e *Engine, sql string) *plan.Query {
	t.Helper()
	q, err := sqlparser.Parse(sql, e.Shard(0).Cat)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return q
}

func run(t *testing.T, e *Engine, sql string) *optimizer.Result {
	t.Helper()
	res, err := e.Run(parse(t, e, sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// otherShardKey returns a key of pb that hashes to a different shard
// than key does.
func otherShardKey(t *testing.T, key int64, n int) int64 {
	t.Helper()
	home := storage.ShardOf(types.NewInt(key), n)
	for k := int64(0); k < 60; k++ {
		if storage.ShardOf(types.NewInt(k), n) != home {
			return k
		}
	}
	t.Fatal("every key hashes to one shard")
	return 0
}

func TestRouteShard(t *testing.T) {
	keys := map[string]string{"pa": "k", "pb": "k"}
	one := newEngine(t, 1, keys)
	if s, ok := one.routeShard(parse(t, one, `SELECT a.v FROM pa a WHERE a.v = 3`)); s != 0 || !ok {
		t.Errorf("1-shard engine routed an unpinned query to (%d, %v), want (0, true)", s, ok)
	}

	const n = 4
	e := newEngine(t, n, keys)
	home := storage.ShardOf(types.NewInt(17), n)
	other := otherShardKey(t, 17, n)
	for _, tc := range []struct {
		name   string
		sql    string
		shard  int
		single bool
	}{
		{"point", `SELECT a.v FROM pa a WHERE a.k = 17`, home, true},
		{"join-propagated", `SELECT a.v, b.v FROM pa a, pb b WHERE a.k = b.k AND b.k = 17`, home, true},
		{"join-propagated-chain", `SELECT a.v FROM pa a, pb b, rep r
			WHERE a.k = b.k AND b.v = r.k AND a.k = 17`, home, true},
		{"mismatched-pins", fmt.Sprintf(`SELECT a.v FROM pa a, pb b
			WHERE a.v = b.v AND a.k = 17 AND b.k = %d`, other), 0, false},
		{"unpinned", `SELECT a.v FROM pa a WHERE a.v = 3`, 0, false},
		{"non-key-join", `SELECT a.v FROM pa a, pb b WHERE a.v = b.v AND a.k = 17`, 0, false},
		{"replicated-only", `SELECT r.v FROM rep r WHERE r.k = 3`, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ok := e.routeShard(parse(t, e, tc.sql))
			if s != tc.shard || ok != tc.single {
				t.Errorf("routeShard = (%d, %v), want (%d, %v)", s, ok, tc.shard, tc.single)
			}
		})
	}
}

// TestInsertRoutingInvalidatesTouchedShards: rows route to their hash
// shard, only that shard drops its cached artifacts over the table,
// and the next scatter sees the new rows.
func TestInsertRoutingInvalidatesTouchedShards(t *testing.T) {
	const n = 4
	e := newEngine(t, n, map[string]string{"pa": "k"})
	const sql = `SELECT a.g, SUM(a.v) AS s FROM pa a GROUP BY a.g`
	run(t, e, sql)
	for s := 0; s < n; s++ {
		if e.Shard(s).Cache.Stats().Entries == 0 {
			t.Fatalf("shard %d cached nothing for the scatter aggregate", s)
		}
	}
	before := make([]int, n)
	fragRows := make([]int, n)
	for s := range before {
		before[s] = e.Shard(s).Cache.Stats().Entries
		fragRows[s] = e.Shard(s).Cat.Table("pa").NumRows()
	}

	const key = 1000
	home := storage.ShardOf(types.NewInt(key), n)
	row := []types.Value{types.NewInt(key), types.NewInt(100), types.NewFloat(0), types.NewString("x")}
	if err := e.InsertRows("pa", [][]types.Value{row, row}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		got := e.Shard(s).Cache.Stats().Entries
		wantRows := fragRows[s]
		if s == home {
			wantRows += 2
			if got != 0 {
				t.Errorf("touched shard %d kept %d cached entries", s, got)
			}
		} else if got != before[s] {
			t.Errorf("untouched shard %d went from %d to %d cached entries", s, before[s], got)
		}
		if r := e.Shard(s).Cat.Table("pa").NumRows(); r != wantRows {
			t.Errorf("shard %d fragment has %d rows, want %d", s, r, wantRows)
		}
	}

	want := map[string]int64{}
	for i := 0; i < rows; i++ {
		want[string(rune('x'+i%3))] += int64(i % 7)
	}
	want["x"] += 200
	res := run(t, e, sql)
	if len(res.Rows) != len(want) {
		t.Fatalf("%d groups, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if r[1].AsInt() != want[r[0].S] {
			t.Errorf("group %s: sum %v, want %d", r[0].S, r[1], want[r[0].S])
		}
	}

	if err := e.InsertRows("nowhere", nil); !errors.Is(err, hashstasherr.ErrUnknownTable) {
		t.Errorf("insert into unknown table: %v", err)
	}
	if err := e.InsertRows("pa", [][]types.Value{{types.NewInt(1)}}); err == nil {
		t.Error("short row accepted")
	}
}

// TestScatterMerges: scattered AVG partials and ordered top-k legs
// merge to the 1-shard engine's answer, and the scatter path really
// ran on every shard.
func TestScatterMerges(t *testing.T) {
	keys := map[string]string{"pa": "k", "pb": "k"}
	one := newEngine(t, 1, keys)
	const n = 3
	e := newEngine(t, n, keys)
	for _, tc := range []struct {
		name    string
		sql     string
		ordered bool
	}{
		{"avg-partials", `SELECT a.g, AVG(a.v) AS av, COUNT(*) AS n, MIN(a.w) AS lo, MAX(a.w) AS hi
			FROM pa a GROUP BY a.g`, false},
		{"avg-superset-groupby", `SELECT a.g, AVG(a.w) AS av FROM pa a GROUP BY a.g, a.v`, false},
		{"topk", `SELECT a.k, a.w FROM pa a WHERE a.v > 2 ORDER BY a.w DESC LIMIT 7`, true},
		{"agg-topk", `SELECT a.v, COUNT(*) AS n FROM pa a GROUP BY a.v ORDER BY a.v DESC LIMIT 3`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := e.QueryCounts()
			got := run(t, e, tc.sql)
			for s, c := range e.QueryCounts() {
				if c != counts[s]+1 {
					t.Fatalf("shard %d ran %d legs, want 1", s, c-counts[s])
				}
			}
			want := run(t, one, tc.sql)
			g, w := render(got.Rows), render(want.Rows)
			if !tc.ordered {
				sort.Strings(g)
				sort.Strings(w)
			}
			if !slices.Equal(g, w) {
				t.Errorf("scatter rows\n%v\nwant\n%v", g, w)
			}
		})
	}
}

func render(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestGatherRepartitionRoundTrip: re-keying a replicated table splits
// it by hash with no row lost or duplicated, and gathering the
// fragments — again after a second re-key — gives back the row set.
func TestGatherRepartitionRoundTrip(t *testing.T) {
	const n = 3
	e := newEngine(t, n, nil)
	orig, err := e.GatherTable("pb")
	if err != nil {
		t.Fatal(err)
	}
	want := tableRows(orig)
	for _, key := range []string{"k", "v"} {
		if err := e.Repartition("pb", key); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			frag := e.Shard(s).Cat.Table("pb")
			for _, v := range frag.Column(key).Ints {
				if storage.ShardOf(types.NewInt(v), n) != s {
					t.Fatalf("key %s=%d on shard %d", key, v, s)
				}
			}
		}
		full, err := e.GatherTable("pb")
		if err != nil {
			t.Fatal(err)
		}
		if got := tableRows(full); !slices.Equal(got, want) {
			t.Fatalf("after re-keying on %s: %d rows, want %d", key, len(got), len(want))
		}
	}
	if _, err := e.GatherTable("nowhere"); !errors.Is(err, hashstasherr.ErrUnknownTable) {
		t.Errorf("gather of unknown table: %v", err)
	}
	if err := e.Repartition("pb", "nope"); !errors.Is(err, hashstasherr.ErrUnknownColumn) {
		t.Errorf("repartition on a missing column: %v", err)
	}
}

// tableRows renders a table's rows, sorted, as a multiset.
func tableRows(t *storage.Table) []string {
	out := make([]string, t.NumRows())
	for i := range out {
		for _, c := range t.Cols {
			out[i] += c.Value(i).String() + "|"
		}
	}
	sort.Strings(out)
	return out
}
