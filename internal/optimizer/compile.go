package optimizer

import (
	"fmt"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Compiled is an executable form of a planned query.
type Compiled struct {
	Pipelines []*exec.Pipeline
	Out       *exec.Collect
	Columns   []string

	pinned        []*htcache.Entry
	created       []*htcache.Entry
	filterUpdates []filterUpdate
	// ordered marks plans whose pipelines already emit rows in ORDER BY
	// order, truncated to LIMIT (the bounded index-order scan); the
	// executor's sort+truncate fallback is skipped.
	ordered bool
}

// filterUpdate records one copy-on-write widening performed by the
// compiled plan: ht is the private successor of prev (the snapshot the
// plan was classified against), newFilter its content description. On
// successful execution the optimizer publishes it with a
// compare-and-swap; a concurrent widening of the same entry simply wins
// the race and this update is dropped (the query's own results came
// from ht either way).
type filterUpdate struct {
	entry     *htcache.Entry
	prev      *htcache.Snapshot
	ht        *hashtable.Table
	newFilter expr.Box
}

type compiler struct {
	o      *Optimizer
	q      *plan.Query
	needed map[string][]string
	out    *Compiled
	// register controls cache bookkeeping; experiment harnesses disable
	// it to execute sub-plans without polluting the cache.
	register bool
}

// Compile lowers a planned query to pipelines, creating fresh hash
// tables and pinning reused ones.
func (o *Optimizer) Compile(p *Planned) (*Compiled, error) {
	return o.compile(p, true)
}

// CompileDetached compiles without registering fresh tables in the
// cache and without pinning (for isolated sub-plan measurements).
func (o *Optimizer) CompileDetached(p *Planned) (*Compiled, error) {
	return o.compile(p, false)
}

func (o *Optimizer) compile(p *Planned, register bool) (*Compiled, error) {
	c := &compiler{
		o:        o,
		q:        p.Query,
		needed:   o.neededCols(p.Query),
		out:      &Compiled{},
		register: register,
	}
	var err error
	if p.Agg == nil {
		err = c.compileSPJRoot(p.Root)
	} else {
		err = c.compileAggRoot(p)
	}
	if err != nil {
		c.releaseAll()
		return nil, err
	}
	return c.out, nil
}

// releaseAll unwinds a failed compilation: reused entries are unpinned,
// and tables registered for builds that will now never run are removed
// from the cache — releasing them would publish empty tables as reuse
// candidates.
func (c *compiler) releaseAll() {
	if !c.register {
		return
	}
	for _, e := range c.out.pinned {
		c.o.Cache.Release(e)
	}
	for _, e := range c.out.created {
		c.o.Cache.Abandon(e)
	}
}

// compileStream lowers a node into (source, transforms); build-side
// pipelines are appended to the compiled plan as encountered.
func (c *compiler) compileStream(n *Node) (exec.Source, []exec.Transform, storage.Schema, error) {
	switch n.Kind {
	case nodeScan:
		rel := c.q.Relations[n.RelIdx]
		boxes := n.ScanBoxes
		if boxes == nil {
			boxes = []expr.Box{c.q.FilterFor(rel.Alias)}
		}
		if src := c.tryIndexScan(n, rel, boxes); src != nil {
			return src, nil, src.Schema(), nil
		}
		src, err := exec.NewTableScan(c.o.Cat.Table(rel.Table), rel.Alias, boxes, c.needed[rel.Alias])
		if err != nil {
			return nil, nil, nil, err
		}
		return src, nil, src.Schema(), nil

	case nodeJoin:
		ht, emitCols, emitRefs, err := c.obtainBuildHT(n)
		if err != nil {
			return nil, nil, nil, err
		}
		src, tfs, schema, err := c.compileStream(n.Probe)
		if err != nil {
			return nil, nil, nil, err
		}
		var postFilter expr.Box
		if n.Reuse != nil {
			postFilter = n.Reuse.PostFilter
		}
		probe, err := exec.NewProbe(ht, n.ProbeKeys, emitCols, emitRefs, postFilter, schema)
		if err != nil {
			return nil, nil, nil, err
		}
		tfs = append(tfs, probe)
		return src, tfs, probe.OutSchema(), nil
	}
	return nil, nil, nil, fmt.Errorf("optimizer: unknown node kind %d", n.Kind)
}

// newLayout builds a hash-table layout from base-qualified columns:
// the deduplicated key columns first, then the remaining payload
// columns, then — for a shared (qid-tagged) table — the qid tag.
func (o *Optimizer) newLayout(keys, payload []storage.ColRef, qid bool) (hashtable.Layout, error) {
	var cols []storage.ColMeta
	seen := map[storage.ColRef]bool{}
	add := func(refs []storage.ColRef) error {
		for _, ref := range refs {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			kind, err := o.Cat.Resolve(ref.Table, ref.Column)
			if err != nil {
				return err
			}
			cols = append(cols, storage.ColMeta{Ref: ref, Kind: kind})
		}
		return nil
	}
	if err := add(keys); err != nil {
		return hashtable.Layout{}, err
	}
	nKeys := len(cols)
	if err := add(payload); err != nil {
		return hashtable.Layout{}, err
	}
	if qid {
		cols = append(cols, storage.ColMeta{Ref: exec.QidRef(), Kind: types.Int64})
	}
	return hashtable.Layout{Cols: cols, KeyCols: nKeys}, nil
}

// buildFeed maps a base-qualified table layout to the query's
// alias-qualified stream columns that fill it. The qid tag has no
// table, so it maps to itself.
func buildFeed(q *plan.Query, layout hashtable.Layout) []storage.ColRef {
	feed := make([]storage.ColRef, len(layout.Cols))
	for i, m := range layout.Cols {
		feed[i] = storage.ColRef{Table: aliasForTable(q, m.Ref.Table), Column: m.Ref.Column}
	}
	return feed
}

// probeEmits maps the required build-side columns (base-qualified) to
// their layout positions and the alias-qualified refs a probe emits.
func probeEmits(q *plan.Query, layout hashtable.Layout, required []storage.ColRef) ([]int, []storage.ColRef, error) {
	var emitCols []int
	var emitRefs []storage.ColRef
	seen := map[storage.ColRef]bool{}
	for _, ref := range required {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		ci := layout.ColIndex(ref)
		if ci < 0 {
			return nil, nil, fmt.Errorf("optimizer: column %v missing from build table layout", ref)
		}
		emitCols = append(emitCols, ci)
		emitRefs = append(emitRefs, storage.ColRef{Table: aliasForTable(q, ref.Table), Column: ref.Column})
	}
	return emitCols, emitRefs, nil
}

// freshBuildHT compiles the build-side sub-plan of a join into a new
// hash table and registers it (the ModeNew path, also the fallback when
// a cold candidate loses its entry between planning and compilation).
func (c *compiler) freshBuildHT(n *Node) (*hashtable.Table, error) {
	q := c.q
	layout, err := c.o.newLayout(baseQualifyRefs(q, n.BuildKeys), c.o.requiredBuildCols(q, n.BuildMask, c.needed), false)
	if err != nil {
		return nil, err
	}
	ht := hashtable.New(layout)
	bsrc, btfs, bschema, err := c.compileStream(n.Build)
	if err != nil {
		return nil, err
	}
	sink, err := exec.NewBuildHT(ht, bschema, buildFeed(q, layout))
	if err != nil {
		return nil, err
	}
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: bsrc, Transforms: btfs, Sink: sink})
	if c.register {
		lin := htcache.Lineage{
			Kind:    htcache.JoinBuild,
			Tables:  maskTables(q, n.BuildMask),
			JoinSig: q.SubgraphSignature(n.BuildMask),
			Filter:  q.BaseQualify(n.BuildFilter),
			KeyCols: baseQualifyRefs(q, n.BuildKeys),
			QidCol:  -1,
		}
		c.out.created = append(c.out.created, c.o.Cache.Register(ht, lin))
	}
	return ht, nil
}

// obtainBuildHT prepares the hash table for a join node per its reuse
// decision and returns (table, probe emit layout positions, emit refs).
func (c *compiler) obtainBuildHT(n *Node) (*hashtable.Table, []int, []storage.ColRef, error) {
	q := c.q
	choice := n.Reuse
	var ht *hashtable.Table

	switch choice.Mode {
	case ModeNew:
		var err error
		if ht, err = c.freshBuildHT(n); err != nil {
			return nil, nil, nil, err
		}

	case ModeExact, ModeSubsuming:
		// Probe the snapshot the plan was classified against: frozen,
		// immutable, safe for lock-free probes however many queries widen
		// the entry concurrently. A cold choice has no snapshot yet —
		// revive the entry (relist, or rebuild from its compact spill);
		// if the cold entry was dropped between plan and compile, or the
		// compile is detached (no cache mutations), degrade to the fresh
		// build plan the option carries.
		snap := choice.Snap
		if choice.Cold != nil && snap == nil && c.register {
			if s := c.o.Cache.Revive(choice.Entry, nil); s != nil && s.HT != nil {
				snap = s
			}
		}
		if snap == nil || snap.HT == nil {
			if n.Build == nil {
				return nil, nil, nil, fmt.Errorf("optimizer: cold entry %d unrevivable and no fresh fallback", choice.Entry.ID)
			}
			var err error
			if ht, err = c.freshBuildHT(n); err != nil {
				return nil, nil, nil, err
			}
			break
		}
		ht = snap.HT
		if c.register {
			c.o.Cache.Pin(choice.Entry)
			c.o.Cache.Credit(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}

	case ModePartial, ModeOverlapping:
		// Widen the snapshot into a private copy-on-write successor: the
		// residual scan builds the missing tuples into it while other
		// queries keep probing the frozen base it shares.
		ht = choice.Snap.HT.Widen()
		if c.register {
			c.o.Cache.Pin(choice.Entry)
			c.o.Cache.Credit(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}
		relIdx, ok := singleRelation(n.BuildMask)
		if !ok {
			return nil, nil, nil, fmt.Errorf("optimizer: partial join reuse on multi-relation build side")
		}
		rel := q.Relations[relIdx]
		layout := ht.Layout()
		colNames := make([]string, len(layout.Cols))
		feed := make([]storage.ColRef, len(layout.Cols))
		for i, m := range layout.Cols {
			colNames[i] = m.Ref.Column
			feed[i] = storage.ColRef{Table: rel.Alias, Column: m.Ref.Column}
		}
		src, err := exec.NewTableScan(c.o.Cat.Table(rel.Table), rel.Alias, choice.ResidualBoxes, colNames)
		if err != nil {
			return nil, nil, nil, err
		}
		sink, err := exec.NewBuildHT(ht, src.Schema(), feed)
		if err != nil {
			return nil, nil, nil, err
		}
		c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Sink: sink})
		if c.register {
			c.out.filterUpdates = append(c.out.filterUpdates, filterUpdate{
				entry: choice.Entry, prev: choice.Snap, ht: ht, newFilter: choice.NewFilter,
			})
		}

	default:
		return nil, nil, nil, fmt.Errorf("optimizer: unknown reuse mode %v", choice.Mode)
	}

	// The probe emits every needed build-side column.
	emitCols, emitRefs, err := probeEmits(q, ht.Layout(), c.o.requiredBuildCols(q, n.BuildMask, c.needed))
	if err != nil {
		return nil, nil, nil, err
	}
	return ht, emitCols, emitRefs, nil
}

func maskTables(q *plan.Query, mask int) []string {
	var out []string
	for i, rel := range q.Relations {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, rel.Table)
		}
	}
	return out
}

// tryOrderedSource lowers a single-scan top-k query (ORDER BY col
// LIMIT k) to a bounded index-order scan when a cached index on the
// order column exists: the index's permutation IS the sort, so the scan
// walks it (reversed for DESC), filters residually and stops at k rows.
// Indexes are never built just for ordering — only recycled.
func (c *compiler) tryOrderedSource(root *Node) exec.Source {
	q := c.q
	o := c.o
	if o.Opts.NoSecondaryIndexes || q.OrderBy == nil || q.Limit <= 0 || root.Kind != nodeScan {
		return nil
	}
	rel := q.Relations[root.RelIdx]
	if q.OrderBy.Col.Table != rel.Alias {
		return nil
	}
	boxes := root.ScanBoxes
	if boxes == nil {
		boxes = []expr.Box{q.FilterFor(rel.Alias)}
	}
	if len(boxes) != 1 || boxes[0].Empty() {
		return nil
	}
	tbl := o.Cat.Table(rel.Table)
	if tbl == nil {
		return nil
	}
	colBase := storage.ColRef{Table: rel.Table, Column: q.OrderBy.Col.Column}
	entry, tree := o.cachedIndexEntry(colBase)
	if tree == nil {
		return nil
	}
	src, err := exec.NewIndexOrderScan(tbl, rel.Alias, tree, q.OrderBy.Desc, q.Limit, boxes[0], c.needed[rel.Alias])
	if err != nil {
		return nil
	}
	if c.register {
		o.Cache.Pin(entry)
		c.out.pinned = append(c.out.pinned, entry)
	}
	return src
}

// compileSPJRoot terminates a pure SPJ query with projection + collect.
func (c *compiler) compileSPJRoot(root *Node) error {
	var src exec.Source
	var tfs []exec.Transform
	var schema storage.Schema
	if ord := c.tryOrderedSource(root); ord != nil {
		src, schema = ord, ord.Schema()
		c.out.ordered = true
	} else {
		var err error
		src, tfs, schema, err = c.compileStream(root)
		if err != nil {
			return err
		}
	}
	var cols []int
	var names []string
	for _, ref := range c.q.Select {
		i := schema.IndexOf(ref)
		if i < 0 {
			return fmt.Errorf("optimizer: select column %v not produced by plan", ref)
		}
		cols = append(cols, i)
		names = append(names, ref.String())
	}
	if len(cols) == 0 {
		for i, m := range schema {
			cols = append(cols, i)
			names = append(names, m.Ref.String())
		}
	}
	proj, err := exec.NewProject(cols, nil, schema)
	if err != nil {
		return err
	}
	tfs = append(tfs, proj)
	collect := exec.NewCollect(proj.OutSchema())
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out.Out = collect
	c.out.Columns = names
	return nil
}

// aggCellRef names the hash-table cell of a base-qualified spec.
func aggCellRef(s expr.AggSpec) storage.ColRef {
	return storage.ColRef{Column: s.Name()}
}

// aggLayout builds the layout of a fresh aggregation table: the group
// keys, then one cell per base-qualified spec.
func (o *Optimizer) aggLayout(groupBase []storage.ColRef, specs []expr.AggSpec) (hashtable.Layout, error) {
	var cols []storage.ColMeta
	for _, ref := range groupBase {
		kind, err := o.Cat.Resolve(ref.Table, ref.Column)
		if err != nil {
			return hashtable.Layout{}, err
		}
		cols = append(cols, storage.ColMeta{Ref: ref, Kind: kind})
	}
	for _, s := range specs {
		cols = append(cols, storage.ColMeta{Ref: aggCellRef(s), Kind: specCellKind(s, o.argKind(s))})
	}
	return hashtable.Layout{Cols: cols, KeyCols: len(groupBase)}, nil
}

// aggCells maps each base-qualified spec to its input column in schema.
// args holds each spec's argument as the stream qualifies it; a plain
// column reference may already flow through the stream, otherwise a
// Compute (returned in tfs) evaluates it.
func (o *Optimizer) aggCells(specs []expr.AggSpec, args []expr.Expr, schema storage.Schema) ([]exec.AggCell, []exec.Transform, storage.Schema) {
	cells := make([]exec.AggCell, len(specs))
	var tfs []exec.Transform
	for i, s := range specs {
		kind := specCellKind(s, o.argKind(s))
		if args[i] == nil {
			cells[i] = exec.AggCell{Func: s.Func, InCol: -1, Kind: kind}
			continue
		}
		if col, ok := args[i].(*expr.Col); ok {
			if j := schema.IndexOf(col.Ref); j >= 0 {
				cells[i] = exec.AggCell{Func: s.Func, InCol: j, Kind: kind}
				continue
			}
		}
		ref := storage.ColRef{Column: fmt.Sprintf("_agg%d", i)}
		comp := exec.NewCompute(args[i], ref, schema)
		tfs = append(tfs, comp)
		schema = comp.OutSchema()
		cells[i] = exec.AggCell{Func: s.Func, InCol: schema.IndexOf(ref), Kind: kind}
	}
	return cells, tfs, schema
}

// attachAggInput compiles one input plan (full or residual) and sinks it
// into the aggregation table, computing aggregate arguments on the way.
// specs lists the table's cell specs in layout order (base-qualified).
func (c *compiler) attachAggInput(root *Node, ht *hashtable.Table, groupBase []storage.ColRef, specs []expr.AggSpec) error {
	q := c.q
	src, tfs, schema, err := c.compileStream(root)
	if err != nil {
		return err
	}
	args := make([]expr.Expr, len(specs))
	for i, s := range specs {
		if s.Arg != nil {
			args[i] = aliasQualifyExpr(q, s.Arg)
		}
	}
	cells, argTfs, schema := c.o.aggCells(specs, args, schema)
	tfs = append(tfs, argTfs...)
	groupAlias := make([]storage.ColRef, len(groupBase))
	for i, ref := range groupBase {
		groupAlias[i] = storage.ColRef{Table: aliasForTable(q, ref.Table), Column: ref.Column}
	}
	sink, err := exec.NewAggHT(ht, groupAlias, cells, schema)
	if err != nil {
		return err
	}
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})
	return nil
}

// compileAggRoot handles SPJA queries for every aggregation reuse mode.
func (c *compiler) compileAggRoot(p *Planned) error {
	agg := p.Agg
	choice := agg.Choice

	switch choice.Mode {
	case ModeNew:
		return c.compileFreshAgg(p.Root, agg)

	case ModeExact, ModeSubsuming:
		// A cold choice carries no snapshot: revive it here (relist the
		// pending artifact, or rebuild from its compact spill). If the
		// cold entry was dropped meanwhile, or the compile is detached,
		// degrade to the fresh SPJ plan the option carries as fallback.
		snap := choice.Snap
		if choice.Cold != nil && snap == nil && c.register {
			if s := c.o.Cache.Revive(choice.Entry, nil); s != nil && s.HT != nil {
				snap = s
			}
		}
		if snap == nil || snap.HT == nil {
			if agg.FreshRoot == nil {
				return fmt.Errorf("optimizer: cold aggregate entry %d unrevivable and no fresh fallback", choice.Entry.ID)
			}
			fresh := *agg
			fresh.Choice = ReuseChoice{Mode: ModeNew}
			return c.compileFreshAgg(agg.FreshRoot, &fresh)
		}
		if c.register {
			c.o.Cache.Pin(choice.Entry)
			c.o.Cache.Credit(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}
		return c.compileReadout(snap.HT, agg, agg.CachedSpecIdx, choice.PostFilter, agg.PostAgg)

	case ModePartial, ModeOverlapping:
		if c.register {
			c.o.Cache.Pin(choice.Entry)
			c.o.Cache.Credit(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}
		// Widen the snapshot and fold every residual input into the
		// private successor, updating ALL of its aggregate cells so the
		// whole table stays consistent with its (widened) lineage.
		// Existing groups shadow-promote into the successor's own arena;
		// concurrent probes of the frozen base never see the folds.
		widened := choice.Snap.HT.Widen()
		for _, rr := range agg.ResidualRoots {
			if err := c.attachAggInput(rr, widened, agg.GroupBase, choice.Entry.Lineage.Aggs); err != nil {
				return err
			}
		}
		if c.register {
			c.out.filterUpdates = append(c.out.filterUpdates, filterUpdate{
				entry: choice.Entry, prev: choice.Snap, ht: widened, newFilter: choice.NewFilter,
			})
		}
		return c.compileReadout(widened, agg, agg.CachedSpecIdx, choice.PostFilter, false)
	}
	return fmt.Errorf("optimizer: unknown aggregation mode %v", choice.Mode)
}

// compileFreshAgg builds a fresh aggregation table from the SPJ plan
// root (the ModeNew path, also the fallback when a cold aggregate loses
// its entry between planning and compilation).
func (c *compiler) compileFreshAgg(root *Node, agg *AggChoice) error {
	layout, err := c.o.aggLayout(agg.GroupBase, agg.Specs)
	if err != nil {
		return err
	}
	ht := hashtable.New(layout)
	if err := c.attachAggInput(root, ht, agg.GroupBase, agg.Specs); err != nil {
		return err
	}
	if c.register {
		c.out.created = append(c.out.created, c.o.Cache.Register(ht, c.aggLineage(agg, c.q.BaseQualify(c.q.Filter))))
	}
	return c.compileReadout(ht, agg, identitySpecIdx(len(agg.Specs)), nil, false)
}

func identitySpecIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func (c *compiler) aggLineage(agg *AggChoice, filter expr.Box) htcache.Lineage {
	q := c.q
	full := (1 << uint(len(q.Relations))) - 1
	return htcache.Lineage{
		Kind:    htcache.Aggregate,
		Tables:  maskTables(q, full),
		JoinSig: q.JoinGraphSignature(),
		Filter:  filter,
		KeyCols: agg.GroupBase,
		GroupBy: agg.GroupBase,
		Aggs:    agg.Specs,
		QidCol:  -1,
	}
}

// mergeFunc maps an aggregate to the function that folds partial
// aggregates during post-aggregation (SUM of sums, SUM of counts, ...).
func mergeFunc(f expr.AggFunc) expr.AggFunc {
	if f == expr.AggCount {
		return expr.AggSum
	}
	return f
}

// compileReadout emits the final pipeline(s): scan the aggregation
// table, optionally post-filter, optionally post-aggregate (group-by
// subset reuse), reconstruct AVGs, project and collect.
func (c *compiler) compileReadout(ht *hashtable.Table, agg *AggChoice, specIdx []int, postFilter expr.Box, postAgg bool) error {
	q := c.q
	layout := ht.Layout()

	// Columns to read: the requested group keys + the required cells.
	var outCols []int
	var outRefs []storage.ColRef
	for _, ref := range agg.GroupBase {
		ci := layout.ColIndex(ref)
		if ci < 0 {
			return fmt.Errorf("optimizer: group column %v missing from cached layout", ref)
		}
		outCols = append(outCols, ci)
		outRefs = append(outRefs, ref)
	}
	nKeysCached := layout.KeyCols
	for i := range agg.Specs {
		ci := nKeysCached + specIdx[i]
		if ci >= len(layout.Cols) {
			return fmt.Errorf("optimizer: aggregate cell %d out of cached layout", ci)
		}
		outCols = append(outCols, ci)
		outRefs = append(outRefs, aggCellRef(agg.Specs[i]))
	}
	src, err := exec.NewHTScan(ht, outCols, outRefs, postFilter)
	if err != nil {
		return err
	}
	schema := src.Schema()
	var tfs []exec.Transform

	if postAgg {
		// Fold the superset grouping down to the requested keys.
		mergedLayout, err := c.o.aggLayout(agg.GroupBase, agg.Specs)
		if err != nil {
			return err
		}
		merged := hashtable.New(mergedLayout)
		cells := make([]exec.AggCell, len(agg.Specs))
		for i, s := range agg.Specs {
			cells[i] = exec.AggCell{
				Func:  mergeFunc(s.Func),
				InCol: schema.MustIndexOf(aggCellRef(s)),
				Kind:  specCellKind(s, c.o.argKind(s)),
			}
		}
		sink, err := exec.NewAggHT(merged, agg.GroupBase, cells, schema)
		if err != nil {
			return err
		}
		c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})
		if c.register {
			// The folded table is a genuine aggregation result: cache it.
			c.out.created = append(c.out.created, c.o.Cache.Register(merged, c.aggLineage(agg, c.q.BaseQualify(c.q.Filter))))
		}
		src2, err := exec.NewHTScan(merged, identityCols(len(mergedLayout.Cols)), readoutRefs(agg), nil)
		if err != nil {
			return err
		}
		src = src2
		schema = src.Schema()
		tfs = nil
	}

	p, collect, names, err := aggOutput(q, agg.Specs, agg.SrcIdx, src, schema, tfs)
	if err != nil {
		return err
	}
	c.out.Pipelines = append(c.out.Pipelines, p)
	c.out.Out = collect
	c.out.Columns = names
	return nil
}

// aggOutput finishes an aggregate readout over a stream carrying the
// base-qualified group keys and one cell per spec (named by
// aggCellRef): reconstruct AVGs from their sum/count cells (srcIdx, as
// expr.RewriteAvg maps q.Aggs to specs), project the select columns
// then the aggregates under their output names, and collect.
func aggOutput(q *plan.Query, specs []expr.AggSpec, srcIdx [][2]int, src exec.Source, schema storage.Schema, tfs []exec.Transform) (*exec.Pipeline, *exec.Collect, []string, error) {
	finalAggRefs := make([]storage.ColRef, len(q.Aggs))
	for i, orig := range q.Aggs {
		si, ci := srcIdx[i][0], srcIdx[i][1]
		if orig.Func == expr.AggAvg && si != ci {
			ref := storage.ColRef{Column: fmt.Sprintf("_avg%d", i)}
			div := &expr.Bin{Op: expr.OpDiv,
				L: &expr.Col{Ref: aggCellRef(specs[si])},
				R: &expr.Col{Ref: aggCellRef(specs[ci])},
			}
			comp := exec.NewCompute(div, ref, schema)
			tfs = append(tfs, comp)
			schema = comp.OutSchema()
			finalAggRefs[i] = ref
		} else {
			finalAggRefs[i] = aggCellRef(specs[si])
		}
	}

	// Final projection: select columns then aggregates, renamed.
	var cols []int
	var names []string
	var renames []storage.ColRef
	for _, sel := range q.Select {
		base := baseQualifyRefs(q, []storage.ColRef{sel})[0]
		i := schema.IndexOf(base)
		if i < 0 {
			return nil, nil, nil, fmt.Errorf("optimizer: select column %v not in readout", sel)
		}
		cols = append(cols, i)
		names = append(names, sel.String())
		renames = append(renames, sel)
	}
	for i, orig := range q.Aggs {
		j := schema.IndexOf(finalAggRefs[i])
		if j < 0 {
			return nil, nil, nil, fmt.Errorf("optimizer: aggregate output %v not in readout", finalAggRefs[i])
		}
		cols = append(cols, j)
		names = append(names, orig.Name())
		renames = append(renames, storage.ColRef{Column: orig.Name()})
	}
	proj, err := exec.NewProject(cols, renames, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	collect := exec.NewCollect(proj.OutSchema())
	return &exec.Pipeline{Source: src, Transforms: append(tfs, proj), Sink: collect}, collect, names, nil
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// readoutRefs names the merged table's columns for its final scan.
func readoutRefs(agg *AggChoice) []storage.ColRef {
	var refs []storage.ColRef
	refs = append(refs, agg.GroupBase...)
	for _, s := range agg.Specs {
		refs = append(refs, aggCellRef(s))
	}
	return refs
}
