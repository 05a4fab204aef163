package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// aggGroup is a set of group-queries sharing one grouping table (same
// group-by keys, per Section 4.1: aggregation operators with the same
// group-by keys are shared).
type aggGroup struct {
	queryIdx []int            // indexes into groupExec.queries
	keys     []storage.ColRef // base-qualified group-by columns
	rawCols  []storage.ColRef // base-qualified columns feeding any aggregate
	grouping *hashtable.Table // SRHA grouping-phase table (tuples + qid)
	qidCol   int              // layout position of the qid column
	reuse    bool             // grouping table reused from the cache
}

// groupKeySig canonically identifies a group-by column set.
func groupKeySig(keys []storage.ColRef) string {
	s := make([]string, len(keys))
	for i, k := range keys {
		s[i] = k.String()
	}
	sort.Strings(s)
	return strings.Join(s, ",")
}

// compileRoot wires the shared spine into grouping tables (SRHA) and
// per-query aggregation readouts, or — for SPJ batches — into one
// collected output split by qid afterwards.
func (g *groupExec) compileRoot(tree *Node) error {
	anyAgg := false
	for _, q := range g.queries {
		if q.IsAggregate() {
			anyAgg = true
		}
	}
	if !anyAgg {
		return g.compileSPJBatch(tree)
	}
	for _, q := range g.queries {
		if !q.IsAggregate() {
			return fmt.Errorf("shared: mixed SPJ/SPJA batches are not mergeable")
		}
	}

	groups := g.formAggGroups()
	// Try to reuse a cached grouping table per agg group.
	needSpine := false
	for _, ag := range groups {
		if !g.tryReuseGrouping(ag) {
			needSpine = true
		}
	}

	if needSpine {
		src, tfs, schema, err := g.compileStream(tree)
		if err != nil {
			return err
		}
		var sinks []exec.Sink
		for _, ag := range groups {
			if ag.reuse {
				continue
			}
			if err := g.createGroupingTable(ag); err != nil {
				return err
			}
			sink, err := exec.NewBuildHT(ag.grouping, schema, buildFeed(g.rep, ag.grouping.Layout()))
			if err != nil {
				return err
			}
			sinks = append(sinks, sink)
		}
		g.pipelines = append(g.pipelines, &exec.Pipeline{
			Source: src, Transforms: tfs, Sink: &exec.Multi{Sinks: sinks},
		})
	}

	// Per-query aggregation over its grouping table.
	g.collects = make([]*exec.Collect, len(g.queries))
	g.columns = make([][]string, len(g.queries))
	for _, ag := range groups {
		for _, qi := range ag.queryIdx {
			if err := g.compileQueryReadout(ag, qi); err != nil {
				return err
			}
		}
	}
	return nil
}

// formAggGroups partitions the group's queries by group-by key set.
func (g *groupExec) formAggGroups() []*aggGroup {
	bySig := map[string]*aggGroup{}
	var order []string
	for qi, q := range g.queries {
		keys := baseQualifyRefs(q, q.GroupBy)
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		sig := groupKeySig(keys)
		ag, ok := bySig[sig]
		if !ok {
			ag = &aggGroup{keys: keys, qidCol: -1}
			bySig[sig] = ag
			order = append(order, sig)
		}
		ag.queryIdx = append(ag.queryIdx, qi)
		for _, s := range q.Aggs {
			if s.Arg == nil {
				continue
			}
			baseQualifyExpr(q, s.Arg).Walk(func(r storage.ColRef) {
				if !slices.Contains(ag.rawCols, r) {
					ag.rawCols = append(ag.rawCols, r)
				}
			})
		}
	}
	var out []*aggGroup
	for _, sig := range order {
		ag := bySig[sig]
		sort.Slice(ag.rawCols, func(i, j int) bool { return ag.rawCols[i].String() < ag.rawCols[j].String() })
		out = append(out, ag)
	}
	return out
}

// createGroupingTable lays out a fresh SRHA grouping table: group
// keys, raw aggregate inputs, every filter column (re-tagging needs
// them), then the qid tag. Entries are individual tuples (Insert, not
// Upsert): the grouping phase output of the paper's SRHA.
func (g *groupExec) createGroupingTable(ag *aggGroup) error {
	boxes := g.queryBoxesBase()
	payload := append([]storage.ColRef(nil), ag.rawCols...)
	for _, b := range boxes {
		for _, p := range b {
			payload = append(payload, p.Col)
		}
	}
	layout, err := g.o.newLayout(ag.keys, payload, true)
	if err != nil {
		return err
	}
	ag.grouping = hashtable.New(layout)
	ag.qidCol = len(layout.Cols) - 1

	// Register when the union of the group's full filters is exact.
	if hull, ok := boxesUnion(boxes); ok {
		lin := htcache.Lineage{
			Kind:    htcache.SharedGrouping,
			Tables:  maskTables(g.rep, (1<<uint(len(g.rep.Relations)))-1),
			JoinSig: g.rep.JoinGraphSignature(),
			Filter:  hull,
			KeyCols: ag.keys,
			GroupBy: ag.keys,
			QidCol:  ag.qidCol,
		}
		g.created = append(g.created, g.o.Cache.Register(ag.grouping, lin))
	}
	return nil
}

// tryReuseGrouping looks for a cached SRHA grouping table with the same
// structure whose content covers every query; on success it re-tags it.
func (g *groupExec) tryReuseGrouping(ag *aggGroup) bool {
	probeLin := htcache.Lineage{
		Kind:    htcache.SharedGrouping,
		JoinSig: g.rep.JoinGraphSignature(),
		KeyCols: ag.keys,
		GroupBy: ag.keys,
	}
	required := append(append([]storage.ColRef(nil), ag.keys...), ag.rawCols...)
	ht, qidCol := g.retagCached(probeLin, g.queryBoxesBase(), required)
	if ht == nil {
		return false
	}
	ag.grouping, ag.qidCol, ag.reuse = ht, qidCol, true
	return true
}

// compileQueryReadout aggregates one query's answer from its grouping
// table: scan entries with the query's qid bit, compute its aggregate
// arguments, fold into a per-query result table, then project.
func (g *groupExec) compileQueryReadout(ag *aggGroup, qi int) error {
	q := g.queries[qi]
	specs, srcIdx := expr.RewriteAvg(q.Aggs)
	// Columns to read: group keys + this query's raw columns.
	read := append([]storage.ColRef(nil), ag.keys...)
	for i := range specs {
		specs[i] = baseQualifySpec(q, specs[i])
		if specs[i].Arg != nil {
			specs[i].Arg.Walk(func(r storage.ColRef) {
				if !slices.Contains(read, r) {
					read = append(read, r)
				}
			})
		}
	}
	layout := ag.grouping.Layout()
	outCols := make([]int, len(read))
	for i, ref := range read {
		if outCols[i] = layout.ColIndex(ref); outCols[i] < 0 {
			return fmt.Errorf("shared: column %v missing from grouping table", ref)
		}
	}
	src, err := exec.NewHTScan(ag.grouping, outCols, read, nil)
	if err != nil {
		return err
	}
	src.QidCol = ag.qidCol
	src.QidMask = 1 << uint(qi)

	// Result table: group keys + one cell per rewritten spec.
	resLayout, err := g.o.aggLayout(ag.keys, specs)
	if err != nil {
		return err
	}
	resHT := hashtable.New(resLayout)
	args := make([]expr.Expr, len(specs))
	for i, s := range specs {
		args[i] = s.Arg
	}
	cells, tfs, schema := g.o.aggCells(specs, args, src.Schema())
	sink, err := exec.NewAggHT(resHT, ag.keys, cells, schema)
	if err != nil {
		return err
	}
	g.pipelines = append(g.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})

	// Final readout of the per-query result table.
	fsrc, err := exec.NewHTScan(resHT, identityCols(len(resLayout.Cols)), nil, nil)
	if err != nil {
		return err
	}
	p, collect, names, err := aggOutput(q, specs, srcIdx, fsrc, fsrc.Schema(), nil)
	if err != nil {
		return err
	}
	g.pipelines = append(g.pipelines, p)
	g.collects[qi] = collect
	g.columns[qi] = names
	return nil
}

// compileSPJBatch runs the shared spine once and splits rows per query
// afterwards (Data-Query model output splitting).
func (g *groupExec) compileSPJBatch(tree *Node) error {
	src, tfs, schema, err := g.compileStream(tree)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(schema)
	g.pipelines = append(g.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	g.spineOut = collect
	g.columns = make([][]string, len(g.queries))
	for qi, q := range g.queries {
		names := make([]string, len(q.Select))
		for i, sel := range q.Select {
			names[i] = sel.String()
		}
		g.columns[qi] = names
	}
	return nil
}

// collectResults assembles per-query results after the pipelines ran.
func (g *groupExec) collectResults(elapsed time.Duration) ([]*Result, error) {
	per := elapsed / time.Duration(len(g.queries))
	out := make([]*Result, len(g.queries))

	if g.spineOut != nil { // SPJ split path
		qidIdx := g.spineOut.Schema.IndexOf(exec.QidRef())
		if qidIdx < 0 {
			return nil, fmt.Errorf("shared: spine output lacks qid column")
		}
		for qi, q := range g.queries {
			var sel []int
			for _, ref := range q.Select {
				base := baseQualifyRefs(q, []storage.ColRef{ref})[0]
				j := g.spineOut.Schema.IndexOf(storage.ColRef{Table: aliasForTable(g.rep, base.Table), Column: ref.Column})
				if j < 0 {
					return nil, fmt.Errorf("shared: select column %v not in spine output", ref)
				}
				sel = append(sel, j)
			}
			res := &Result{Columns: g.columns[qi], ExecTime: per}
			bit := uint64(1) << uint(qi)
			for _, row := range g.spineOut.Rows {
				if uint64(row[qidIdx].I)&bit == 0 {
					continue
				}
				outRow := make([]types.Value, len(sel))
				for i, j := range sel {
					outRow[i] = row[j]
				}
				res.Rows = append(res.Rows, outRow)
			}
			out[qi] = res
		}
		return out, nil
	}

	for qi := range g.queries {
		out[qi] = &Result{
			Columns:  g.columns[qi],
			Rows:     g.collects[qi].Rows,
			ExecTime: per,
		}
	}
	return out, nil
}
