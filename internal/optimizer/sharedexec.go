package optimizer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// groupExec compiles and runs one shared plan for a group of mergeable
// queries. Bit i of every qid mask corresponds to the group's i-th
// query.
type groupExec struct {
	o       *Optimizer
	rep     *plan.Query   // representative: supplies aliases & join tree
	queries []*plan.Query // the group's queries (≤64)

	needed    map[string][]string // union of needed columns per rep alias
	pipelines []*exec.Pipeline
	pinned    []*htcache.Entry
	created   []*htcache.Entry
	// retagged are the private widened copies this batch re-tagged; the
	// overlay qid columns they carry are batch-local and reclaimed
	// eagerly once the pipelines drain.
	retagged []*hashtable.Table
	collects []*exec.Collect // one per query (aggregate path)
	spineOut *exec.Collect   // SPJ path: shared output split by qid
	columns  [][]string
}

// runSharedGroup executes queries[group...] with one shared plan,
// fully concurrent with other queries: a reused cached table is
// widened into a private copy-on-write successor and re-tagged there
// (qid masks install as an overlay column), so the batch's tags never
// touch the published snapshot other queries are probing. The group
// registers as an epoch reader for its lifetime, keeping every
// snapshot it resolved alive until its pipelines drain.
func (o *Optimizer) runSharedGroup(ctx context.Context, queries []*plan.Query, group []int) (res []*Result, err error) {
	reader := o.Cache.EnterReader()
	defer reader.Exit()
	g := &groupExec{o: o, rep: queries[group[0]]}
	// Panic boundary for the group's caller-goroutine work (planning,
	// compilation, result collection; pipeline panics are already
	// contained by the scheduler): unwind the group's pins so one
	// poisoned shared plan fails only its batch — the server then
	// degrades the members to solo.
	defer func() {
		if r := recover(); r != nil {
			g.discardAll()
			res, err = nil, hashstasherr.Internal("shared.group", r)
		}
	}()
	for _, qi := range group {
		g.queries = append(g.queries, queries[qi])
	}

	// The shared plan borrows the join-tree shape from the single-query
	// enumerator. The pass runs with never-reuse over an empty cache so
	// every node carries a full build subtree — the shared operators
	// make their own reuse decisions over qid-tagged tables.
	treePlanner := New(o.Cat, htcache.New(0), o.Model,
		Options{Strategy: NeverReuse, BenefitOriented: true})
	g.computeNeeded(treePlanner)
	tree, err := treePlanner.PlanSPJ(g.rep)
	if err != nil {
		return nil, err
	}
	if err := g.compileRoot(tree); err != nil {
		g.discardAll()
		return nil, err
	}

	// Shared-plan pipelines parallelize like single-query ones: shared
	// scans split into morsels and build sinks merge per-worker partial
	// tables. The workers only mutate the group's own (fresh or widened,
	// both private) tables, so no cross-query coordination is needed.
	// Multi-sink grouping spines split like ordinary scans (every child
	// sink merges per-worker partials), and the per-query readout
	// pipelines — independent in the pipeline DAG — run concurrently
	// once their grouping table's build finishes.
	t0 := time.Now()
	runErr := exec.RunParallel(g.pipelines, exec.Parallelism{
		Workers:    o.Opts.Parallelism,
		MorselRows: o.Opts.MorselRows,
		Ctx:        ctx,
	})
	elapsed := time.Since(t0)
	if runErr != nil {
		// A contained panic while the shared plan probed cached
		// snapshots: quarantine the pinned artifacts, same blame rule as
		// the solo path (see Prepared.Finish).
		var ie *hashstasherr.InternalError
		if errors.As(runErr, &ie) {
			for _, e := range g.pinned {
				o.Cache.Quarantine(e)
			}
		}
		g.discardAll()
		return nil, runErr
	}
	// Nothing reads the batch-local qid tags after the pipelines drain
	// (results live in the collect sinks), so the overlay columns on
	// re-tagged widened copies — one uint64 per slot — are reclaimed
	// now instead of when the whole copy becomes garbage.
	for _, ht := range g.retagged {
		ht.DropOverlay()
	}
	g.releaseAll()
	return g.collectResults(elapsed)
}

func (g *groupExec) releaseAll() {
	for _, e := range g.pinned {
		g.o.Cache.Release(e)
	}
	for _, e := range g.created {
		g.o.Cache.Release(e)
	}
	g.pinned, g.created = nil, nil
}

// discardAll unwinds a failed compile or run: reused entries are
// unpinned, but freshly created (half-built) tables are removed from
// the cache instead of being published as reuse candidates.
func (g *groupExec) discardAll() {
	for _, e := range g.pinned {
		g.o.Cache.Release(e)
	}
	for _, e := range g.created {
		g.o.Cache.Abandon(e)
	}
	// Idempotent: the panic boundary may run after a release path
	// already unwound the group.
	g.pinned, g.created = nil, nil
}

// queryBoxesBase returns every query's full filter, base-qualified.
func (g *groupExec) queryBoxesBase() []expr.Box {
	out := make([]expr.Box, len(g.queries))
	for i, q := range g.queries {
		out[i] = q.BaseQualify(q.Filter)
	}
	return out
}

// relBoxes returns, per query, the base-qualified predicates on the
// masked relations (rep-relative mask).
func (g *groupExec) relBoxes(mask int) []expr.Box {
	tables := map[string]bool{}
	for _, t := range maskTables(g.rep, mask) {
		tables[t] = true
	}
	out := g.queryBoxesBase()
	for qi, box := range out {
		var preds []expr.Pred
		for _, p := range box {
			if tables[p.Col.Table] {
				preds = append(preds, p)
			}
		}
		out[qi] = expr.NewBox(preds...)
	}
	return out
}

// aliasBoxes re-qualifies base boxes to the representative's aliases.
func (g *groupExec) aliasBoxes(boxes []expr.Box) []expr.Box {
	out := make([]expr.Box, len(boxes))
	for i, b := range boxes {
		out[i] = g.rep.AliasQualify(b)
	}
	return out
}

// computeNeeded unions, per representative alias, the columns every
// query of the group needs. The planner runs benefit-oriented, so every
// selection attribute is included: mandatory in shared plans, because
// re-tagging evaluates them.
func (g *groupExec) computeNeeded(planner *Optimizer) {
	byTable := map[string][]string{}
	for _, q := range g.queries {
		for alias, cols := range planner.neededCols(q) {
			table := q.RelByAlias(alias).Table
			byTable[table] = append(byTable[table], cols...)
		}
	}
	g.needed = map[string][]string{}
	for _, rel := range g.rep.Relations {
		cols := byTable[rel.Table]
		slices.Sort(cols)
		g.needed[rel.Alias] = slices.Compact(cols)
	}
}

// compileStream lowers the borrowed join tree into shared pipelines.
func (g *groupExec) compileStream(n *Node) (exec.Source, []exec.Transform, storage.Schema, error) {
	if n.IsScan() {
		rel := g.rep.Relations[n.RelIdx]
		boxes := g.aliasBoxes(g.relBoxes(1 << uint(n.RelIdx)))
		src, err := exec.NewSharedScan(g.o.Cat.Table(rel.Table), rel.Alias, boxes, g.needed[rel.Alias])
		if err != nil {
			return nil, nil, nil, err
		}
		return src, nil, src.Schema(), nil
	}

	ht, emitCols, emitRefs, qidLayoutCol, err := g.obtainSharedJoinHT(n)
	if err != nil {
		return nil, nil, nil, err
	}
	src, tfs, schema, err := g.compileStream(n.Probe)
	if err != nil {
		return nil, nil, nil, err
	}
	probe, err := exec.NewProbe(ht, n.ProbeKeys, emitCols, emitRefs, nil, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	probe.QidCol = qidLayoutCol
	probe.QidInCol = schema.IndexOf(exec.QidRef())
	if probe.QidInCol < 0 {
		return nil, nil, nil, fmt.Errorf("shared: probe input lacks qid column")
	}
	tfs = append(tfs, probe)
	return src, tfs, probe.OutSchema(), nil
}

// obtainSharedJoinHT reuses a cached qid-tagged table (after re-tagging)
// or builds a fresh one from a shared sub-stream.
func (g *groupExec) obtainSharedJoinHT(n *Node) (*hashtable.Table, []int, []storage.ColRef, int, error) {
	keysBase := baseQualifyRefs(g.rep, n.BuildKeys)
	probeLin := htcache.Lineage{
		Kind:    htcache.SharedJoinBuild,
		JoinSig: g.rep.SubgraphSignature(n.BuildMask),
		KeyCols: keysBase,
	}
	relBoxes := g.relBoxes(n.BuildMask)
	required := g.o.requiredBuildCols(g.rep, n.BuildMask, g.needed)

	ht, qidCol := g.retagCached(probeLin, relBoxes, required)
	if ht == nil {
		layout, err := g.o.newLayout(keysBase, required, true)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		ht = hashtable.New(layout)
		qidCol = len(layout.Cols) - 1
		bsrc, btfs, bschema, err := g.compileStream(n.Build)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		sink, err := exec.NewBuildHT(ht, bschema, buildFeed(g.rep, layout))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		g.pipelines = append(g.pipelines, &exec.Pipeline{Source: bsrc, Transforms: btfs, Sink: sink})
		// Register only when the content (union of the group's boxes) is
		// exactly expressible — lineage must never overclaim.
		if hull, ok := boxesUnion(relBoxes); ok {
			lin := probeLin
			lin.Tables = maskTables(g.rep, n.BuildMask)
			lin.Filter = hull
			lin.QidCol = qidCol
			g.created = append(g.created, g.o.Cache.Register(ht, lin))
		}
	}

	// Probe emits every needed build-side column (base refs → rep alias).
	emitCols, emitRefs, err := probeEmits(g.rep, ht.Layout(), required)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return ht, emitCols, emitRefs, qidCol, nil
}

// retagCached looks for a cached qid-tagged table matching probeLin
// whose content covers every box and whose layout stores the required
// columns plus every predicate column (re-tagging evaluates them). The
// hit is re-tagged in a private widened copy: the batch's qid masks are
// batch-local and install as an overlay, so the published snapshot
// stays untouched and the copy is dropped after the batch. It returns
// the copy and its qid column, or nil when no candidate is usable.
func (g *groupExec) retagCached(probeLin htcache.Lineage, boxes []expr.Box, required []storage.ColRef) (*hashtable.Table, int) {
	cache := g.o.Cache
	for _, cand := range cache.Candidates(probeLin) {
		qidCol := cand.Lineage.QidCol
		snap := cand.Current()
		if qidCol < 0 || snap == nil || snap.HT == nil {
			continue // untagged, or demoted since Candidates listed it
		}
		layout := snap.HT.Layout()
		usable := layoutHasCols(layout, required)
		for _, b := range boxes {
			usable = usable && snap.Filter.Covers(b) && boxColsInLayout(layout, b)
		}
		if !usable {
			continue
		}
		widened := snap.HT.Widen()
		if err := exec.ReTag(widened, qidCol, boxes); err != nil {
			continue
		}
		cache.Pin(cand)
		g.pinned = append(g.pinned, cand)
		g.retagged = append(g.retagged, widened)
		return widened, qidCol
	}
	return nil, -1
}

// boxesUnion folds boxes pairwise with unionIfBox semantics.
func boxesUnion(boxes []expr.Box) (expr.Box, bool) {
	if len(boxes) == 0 {
		return nil, true
	}
	hull := boxes[0]
	for _, b := range boxes[1:] {
		h, ok := expr.UnionIfBox(hull, b)
		if !ok {
			return nil, false
		}
		hull = h
	}
	return hull, true
}
