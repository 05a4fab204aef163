package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hashstash"
	"hashstash/internal/server"
)

// runOpts are one run's settings.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// outcome is everything one run measured.
type outcome struct {
	setup  []float64 // seconds per setup repetition
	lat    []float64 // ms per query run (every replica's)
	writes []float64 // ms per append run (every replica's)
	// tail is the p99's sample: closed loop, each query that ran on
	// every replica at its fastest run; open loop, lat.
	tail []float64

	queries    int           // answered queries
	attempted  int           // queries and appends sent
	failed     int           // errors, refusals and wrong answers
	checked    int           // answers compared to the oracle
	errs       []string      // failed operations, by name
	mismatches []string      // wrong answers, by query name
	rates      []float64     // closed loop: queries/s per throughput window
	throughput float64       // closed loop: median window rate; open loop: max sustained rate
	wall       time.Duration // timed region
	replicas   int           // closed loop: engines driven in lockstep
	batch      int           // rows per append

	memPeakMB  float64
	memSamples int
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration

	cache       cacheDelta
	final       hashstash.CacheStats
	invalidated []float64 // cache entries dropped per append (traced)

	tr   *tracer
	recs []qrec

	shardCounts  []int64
	shardCacheMB []float64

	// Through the serving front-end (serve, and sharded's closed loop).
	served    bool
	srv, srv0 server.Stats

	// Open loop only.
	steps   []stepReport
	maxRate float64
	genLag  []float64
}

func newOutcome(opt runOpts) *outcome {
	o := &outcome{}
	if opt.trace {
		o.tr = newTracer()
	}
	return o
}

func (o *outcome) fail(msg string) {
	o.failed++
	o.errs = append(o.errs, msg)
}

func (o *outcome) mismatch(msg string) {
	o.failed++
	o.mismatches = append(o.mismatches, msg)
}

func (o *outcome) finishRun(c *clock, mem *memSampler, final hashstash.CacheStats) {
	o.wall = c.used
	o.mallocs, o.allocBytes, o.gcPause = c.mallocs, c.bytes, c.pause
	o.memPeakMB = mem.peakMB() / float64(max(o.replicas, 1))
	o.memSamples = mem.n
	o.final = final
}

// traceQuery sends one query as SQL text, timing parse and execution
// separately and recording the query's spans and layer breakdown. It
// returns the answer and the latency in ms.
func (o *outcome) traceQuery(ctx context.Context, db *hashstash.DB, trace uint64, sql string) (*hashstash.Result, float64, error) {
	t0 := time.Now()
	pq, err := db.Parse(sql)
	t1 := time.Now()
	if err != nil {
		return nil, ms(t1.Sub(t0)), err
	}
	res, err := db.ExecParsed(ctx, pq)
	t2 := time.Now()
	if err != nil {
		return nil, ms(t2.Sub(t0)), err
	}
	rec := newQrec(res)
	rec.parse, rec.execParsed = t1.Sub(t0), t2.Sub(t1)
	o.recs = append(o.recs, rec)
	o.tr.addQuery(trace, t0, t1, t2, res)
	return res, ms(t2.Sub(t0)), nil
}

// traceServed sends one query through Server.Execute (the serving
// front-end without HTTP/JSON), recording it like an open-loop request
// due when sent. It returns the answer and the latency in ms.
func (o *outcome) traceServed(ctx context.Context, srv *server.Server, db *hashstash.DB, trace uint64, sql string) (*hashstash.Result, float64, error) {
	counts0 := db.ShardQueryCounts()
	t0 := time.Now()
	res, _, err := srv.Execute(ctx, serveTenants[0], sql)
	t1 := time.Now()
	if err != nil {
		return nil, ms(t1.Sub(t0)), err
	}
	rec := newQrec(res)
	rec.execParsed = t1.Sub(t0)
	rec.queue = rec.execParsed - rec.plan - rec.exec
	rec.shards = touched(counts0, db.ShardQueryCounts())
	o.recs = append(o.recs, rec)
	o.tr.addServe(trace, t0, t1, res)
	return res, ms(t1.Sub(t0)), nil
}

// touched counts the shards whose query counter advanced.
func touched(before, after []int64) int {
	n := 0
	for s := range after {
		if after[s] > before[s] {
			n++
		}
	}
	return n
}

// insert appends one batch and returns its time in ms, NaN if it
// failed. Traced, it also records the append's span and how many cached
// artifacts (hot and cold) it invalidated.
func (o *outcome) insert(db *hashstash.DB, trace uint64, w write) float64 {
	o.attempted++
	var s0 hashstash.CacheStats
	if o.tr != nil {
		s0 = db.CacheStats()
	}
	t := time.Now()
	err := db.InsertRows(w.table, w.rows)
	done := time.Now()
	if err != nil {
		o.fail(fmt.Sprintf("append to %s: %v", w.table, err))
		return math.NaN()
	}
	if o.tr != nil {
		live := func(s hashstash.CacheStats) int { return s.Entries + s.Tiering.ColdEntries }
		o.tr.add(trace, 0, "insert", t, done, false)
		o.invalidated = append(o.invalidated, float64(live(s0)-live(db.CacheStats())))
	}
	return ms(done.Sub(t))
}

// addServe records an open-loop request: serve.execute from its due time
// to its answer, holding the derived serve.queue (the part not spent in
// planning or execution: parse, admission, queueing, finishing), then
// plan and exec.
func (t *tracer) addServe(trace uint64, due, done time.Time, res *hashstash.Result) {
	root := t.add(trace, 0, "serve.execute", due, done, false)
	queueEnd := done.Add(-res.PlanTime - res.ExecTime)
	if queueEnd.Before(due) {
		queueEnd = due
	}
	planEnd := queueEnd.Add(res.PlanTime)
	if planEnd.After(done) {
		planEnd = done
	}
	t.add(trace, root, "serve.queue", due, queueEnd, true)
	t.add(trace, root, "plan", queueEnd, planEnd, true)
	t.add(trace, root, "exec", planEnd, done, true)
}

// cacheDelta accumulates cache counters over the timed segments only
// (cache clears between passes fall outside them).
type cacheDelta struct {
	hits, registered, evictions int64
	widenPublished, widenLost   int64
	demotions, spills, revivals int64
	probes, chainNodes          int64
	savedNS                     float64
}

func (d *cacheDelta) addDelta(a, b hashstash.CacheStats) {
	d.hits += b.Hits - a.Hits
	d.registered += b.Registered - a.Registered
	d.evictions += b.Evictions - a.Evictions
	d.widenPublished += b.WidenPublished - a.WidenPublished
	d.widenLost += b.WidenLost - a.WidenLost
	d.demotions += b.Tiering.Demotions - a.Tiering.Demotions
	d.spills += b.Tiering.Spills - a.Tiering.Spills
	d.revivals += b.Tiering.Revivals - a.Tiering.Revivals
	d.probes += b.Probes - a.Probes
	d.chainNodes += b.ProbeChainNodes - a.ProbeChainNodes
	d.savedNS += b.Tiering.SavedNS - a.Tiering.SavedNS
}
