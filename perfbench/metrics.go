package main

import (
	"fmt"
	"math"
	"time"

	"hashstash/internal/server"
)

// metricDef names one reported metric. For a per-layer metric, layer is
// the module it measures and moves is the end-to-end metric (and
// workload) a change in it should move.
type metricDef struct {
	name, unit, better string
	layer, moves       string
}

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them with tracing off. On serve, throughput_qps is the
// highest sustained ladder rate (max_rate_qps) and the latencies are
// those of the ladder's first, fixed-rate step.
var endToEnd = []metricDef{
	{name: "throughput_qps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "mem_peak_mb", unit: "MB", better: "lower"},
}

const (
	parseMoves = "latency_p50_ms on dashboard (on sharded, parsing sits inside server.queue_share)"
	planBound  = "latency_p50_ms/throughput_qps on dashboard and sharded; none on explore"
	execBound  = "latency_p99_ms/throughput_qps on explore; little on dashboard/sharded"
	cacheMoves = "latency_p99_ms/write_p50_ms on dashboard; mem_peak_mb on explore"
	serveMoves = "latency_p50_ms/throughput_qps on sharded; max rate and latency_p99_ms on serve (run by hand)"
)

// perLayer are the traced run's metrics, by module. A metric of a layer
// a workload does not reach reads 0.
var perLayer = []metricDef{
	{"sqlparser.parse_us_p50", "us", "lower", "sqlparser", parseMoves},
	{"sqlparser.parse_share", "frac", "lower", "sqlparser", parseMoves},
	{"optimizer.plan_us_p50", "us", "lower", "optimizer", planBound},
	{"optimizer.plan_us_p99", "us", "lower", "optimizer", planBound},
	{"optimizer.plan_share", "frac", "lower", "optimizer", planBound},
	{"optimizer.finish_us_p50", "us", "lower", "optimizer", planBound},
	{"optimizer.finish_share", "frac", "lower", "optimizer", planBound},
	{"optimizer.reused_frac", "frac", "higher", "optimizer", planBound},
	{"optimizer.mode_new_frac", "frac", "lower", "optimizer", planBound},
	{"optimizer.mode_exact_frac", "frac", "higher", "optimizer", planBound},
	{"optimizer.mode_subsuming_frac", "frac", "higher", "optimizer", planBound},
	{"optimizer.mode_partial_frac", "frac", "higher", "optimizer", planBound},
	{"optimizer.mode_overlapping_frac", "frac", "higher", "optimizer", planBound},
	{"costmodel.qerror_p50", "ratio", "lower", "costmodel", "throughput_qps on explore (reuse choices)"},
	{"costmodel.qerror_p90", "ratio", "lower", "costmodel", "throughput_qps on explore (reuse choices)"},
	{"exec.exec_us_p50", "us", "lower", "exec", execBound},
	{"exec.exec_us_p99", "us", "lower", "exec", execBound},
	{"exec.exec_share", "frac", "lower", "exec", execBound},
	{"exec.rows_in_per_query", "rows", "lower", "exec", execBound},
	{"exec.rows_in_per_row_out", "ratio", "lower", "exec", execBound},
	{"exec.ns_per_row_in", "ns", "lower", "exec", execBound},
	{"htcache.hit_ratio", "frac", "higher", "htcache", cacheMoves},
	{"htcache.entries", "count", "lower", "htcache", cacheMoves},
	{"htcache.bytes_mb", "MB", "lower", "htcache", cacheMoves},
	{"htcache.evictions", "count", "lower", "htcache", cacheMoves},
	{"htcache.demotions", "count", "lower", "htcache", cacheMoves},
	{"htcache.spills", "count", "lower", "htcache", cacheMoves},
	{"htcache.revivals", "count", "higher", "htcache", cacheMoves},
	{"htcache.widen_published", "count", "higher", "htcache", cacheMoves},
	{"htcache.widen_lost", "count", "lower", "htcache", cacheMoves},
	{"htcache.probe_chain_mean", "nodes", "lower", "htcache", cacheMoves},
	{"htcache.saved_ms", "ms", "higher", "htcache", cacheMoves},
	{"htcache.invalidated_per_write", "entries", "lower", "htcache", cacheMoves},
	{"storage.insert_us_p50", "us", "lower", "catalog/storage", "write_p50_ms on every workload"},
	{"storage.insert_share", "frac", "lower", "catalog/storage", "write_p50_ms and throughput_qps on dashboard"},
	{"shard.single_shard_frac", "frac", "higher", "shard", "throughput_qps on sharded"},
	{"shard.query_imbalance", "ratio", "lower", "shard", "throughput_qps on sharded"},
	{"shard.cache_mb_max", "MB", "lower", "shard", "throughput_qps and mem_peak_mb on sharded"},
	{"server.queue_wait_ms_p50", "ms", "lower", "server", serveMoves},
	{"server.queue_wait_ms_p99", "ms", "lower", "server", serveMoves},
	{"server.queue_share", "frac", "lower", "server", serveMoves},
	{"server.batched_frac", "frac", "higher", "server", serveMoves},
	{"server.plans_per_query", "ratio", "lower", "server", serveMoves},
	{"server.bypass_frac", "frac", "lower", "server", serveMoves},
	{"server.overloads", "count", "lower", "server", serveMoves},
	{"server.gen_lag_ms_p99", "ms", "lower", "server", serveMoves},
	{"runtime.allocs_per_query", "count", "lower", "runtime", "latency_p99_ms on serve; mem_peak_mb everywhere"},
	{"runtime.alloc_kb_per_query", "KB", "lower", "runtime", "latency_p99_ms on serve; mem_peak_mb everywhere"},
	{"runtime.gc_pause_ms_total", "ms", "lower", "runtime", "latency_p99_ms on serve; mem_peak_mb everywhere"},
	{"trace.overhead_frac", "frac", "lower", "benchmark", "none: traced minus untraced mean latency"},
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(o *outcome) (map[string]float64, error) {
	if len(o.lat) == 0 {
		return nil, fmt.Errorf("no query answered")
	}
	p99, err := percentile(o.tail, 0.99)
	if err != nil {
		return nil, fmt.Errorf("latency_p99_ms: %w", err)
	}
	if len(o.writes) == 0 {
		return nil, fmt.Errorf("write_p50_ms: no append ran")
	}
	return map[string]float64{
		"throughput_qps": o.throughput,
		"latency_p50_ms": median(o.lat),
		"latency_p99_ms": p99,
		"write_p50_ms":   median(o.writes),
		"setup_s":        median(o.setup),
		"mem_peak_mb":    o.memPeakMB,
	}, nil
}

// layerValues computes the per-layer metrics: everything from the
// traced run t except the Go runtime counters, which come from the
// untraced run u so span bookkeeping does not count.
func layerValues(u, t *outcome) (map[string]float64, error) {
	v := make(map[string]float64, len(perLayer))
	var parse, plan, exec, finish, queue []float64
	var sumIn, sumOut, sumExecNS float64
	var modes [5]float64
	var qerr []float64
	single := 0
	for _, r := range t.recs {
		parse = append(parse, us(r.parse))
		plan = append(plan, us(r.plan))
		exec = append(exec, us(r.exec))
		finish = append(finish, us(r.finish()))
		queue = append(queue, ms(r.queue))
		sumIn += float64(r.rowsIn)
		sumOut += float64(r.rowsOut)
		sumExecNS += float64(r.exec)
		for m, n := range r.modes {
			modes[m] += float64(n)
		}
		if act := float64(r.exec); act > 0 && r.est > 0 {
			qerr = append(qerr, math.Max(r.est/act, act/r.est))
		}
		if r.shards == 1 {
			single++
		}
	}
	n := float64(len(t.recs))
	self := t.tr.selfTimes()
	total := t.tr.rootTime()
	share := func(name string) float64 { return ratio(float64(self[name]), float64(total)) }
	tail := func(name string, xs []float64, q float64) error {
		x, err := percentile(xs, q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v[name] = x
		return nil
	}
	serving := t.served

	if !serving {
		v["sqlparser.parse_us_p50"] = median(parse)
	}
	v["sqlparser.parse_share"] = share("parse")
	v["optimizer.plan_us_p50"] = median(plan)
	if err := tail("optimizer.plan_us_p99", plan, 0.99); err != nil {
		return nil, err
	}
	v["optimizer.plan_share"] = share("plan")
	if !serving {
		v["optimizer.finish_us_p50"] = median(finish)
	}
	v["optimizer.finish_share"] = share("finish")
	decided := sum(modes[:])
	v["optimizer.reused_frac"] = ratio(decided-modes[0], decided)
	for m, name := range modeNames {
		v["optimizer.mode_"+name+"_frac"] = ratio(modes[m], decided)
	}
	if len(qerr) > 0 {
		v["costmodel.qerror_p50"] = median(qerr)
		if err := tail("costmodel.qerror_p90", qerr, 0.9); err != nil {
			return nil, err
		}
	}
	v["exec.exec_us_p50"] = median(exec)
	if err := tail("exec.exec_us_p99", exec, 0.99); err != nil {
		return nil, err
	}
	v["exec.exec_share"] = share("exec")
	v["exec.rows_in_per_query"] = ratio(sumIn, n)
	v["exec.rows_in_per_row_out"] = ratio(sumIn, sumOut)
	v["exec.ns_per_row_in"] = ratio(sumExecNS, sumIn)

	c := t.cache
	v["htcache.hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.registered))
	v["htcache.entries"] = float64(t.final.Entries)
	v["htcache.bytes_mb"] = float64(t.final.Bytes) / (1 << 20)
	v["htcache.evictions"] = float64(c.evictions)
	v["htcache.demotions"] = float64(c.demotions)
	v["htcache.spills"] = float64(c.spills)
	v["htcache.revivals"] = float64(c.revivals)
	v["htcache.widen_published"] = float64(c.widenPublished)
	v["htcache.widen_lost"] = float64(c.widenLost)
	v["htcache.probe_chain_mean"] = ratio(float64(c.chainNodes), float64(c.probes))
	v["htcache.saved_ms"] = c.savedNS / 1e6
	v["htcache.invalidated_per_write"] = ratio(sum(t.invalidated), float64(len(t.invalidated)))
	v["storage.insert_us_p50"] = median(t.writes) * 1e3
	v["storage.insert_share"] = share("insert")

	if len(t.shardCounts) > 0 {
		v["shard.single_shard_frac"] = ratio(float64(single), n)
		var most, all float64
		for _, q := range t.shardCounts {
			most = math.Max(most, float64(q))
			all += float64(q)
		}
		v["shard.query_imbalance"] = ratio(most, all/float64(len(t.shardCounts)))
		for _, mb := range t.shardCacheMB {
			v["shard.cache_mb_max"] = math.Max(v["shard.cache_mb_max"], mb)
		}
	}

	if serving {
		v["server.queue_wait_ms_p50"] = median(queue)
		if err := tail("server.queue_wait_ms_p99", queue, 0.99); err != nil {
			return nil, err
		}
		v["server.queue_share"] = share("serve.queue")
		d := func(f func(s server.Stats) int64) float64 { return float64(f(t.srv) - f(t.srv0)) }
		all := d(func(s server.Stats) int64 { return s.TotalQueries })
		v["server.batched_frac"] = ratio(d(func(s server.Stats) int64 { return s.BatchedQueries }), all)
		v["server.plans_per_query"] = ratio(d(func(s server.Stats) int64 { return s.PlansExecuted }), all)
		v["server.bypass_frac"] = ratio(d(func(s server.Stats) int64 {
			return s.RateBypass + s.NoGainBypass + s.DegradedDeadline + s.BreakerBypassed
		}), all)
		v["server.overloads"] = d(func(s server.Stats) int64 { return s.Overloads })
	}
	if len(t.genLag) > 0 {
		if err := tail("server.gen_lag_ms_p99", t.genLag, 0.99); err != nil {
			return nil, err
		}
	}

	v["runtime.allocs_per_query"] = ratio(float64(u.mallocs), float64(u.queries))
	v["runtime.alloc_kb_per_query"] = ratio(float64(u.allocBytes)/1024, float64(u.queries))
	v["runtime.gc_pause_ms_total"] = float64(u.gcPause) / 1e6
	v["trace.overhead_frac"] = ratio(sum(t.lat)/float64(len(t.lat)), sum(u.lat)/float64(len(u.lat))) - 1
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0
		}
	}
	return v, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
