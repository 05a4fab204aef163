package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"hashstash"
	"hashstash/internal/server"
	"hashstash/internal/workload"
)

const (
	scaleFactor = 0.01
	// setupReps is how many times a run sets the engine up; setup_s is
	// the median and the last engines built are measured.
	setupReps = 7
	// replicas is how many identical engines a closed loop drives. Each
	// chunk runs on every replica in turn, so every operation runs once
	// per replica on the same data and cache state. Medians take every
	// run; the p99 takes each query's fastest run. A stall of the host
	// (another tenant's turn on the CPU) rarely hits all of them, so the
	// p99 measures the engine, not the host.
	replicas = 3
)

// closedLoop is a closed-loop workload: one client sends each query as
// SQL text once the previous answer arrived. The stream is a sequence
// of passes (fresh sessions from derived seeds, starting from an empty
// cache); each pass is cut into chunks, and every chunk starts with one
// append of batch rows.
type closedLoop struct {
	name  string
	open  func() *hashstash.DB
	pass  func(seed uint64) []workload.Step
	every int // queries per chunk
	// window is how many queries, in whole chunks, one throughput
	// sample covers; throughput_qps is the median sample.
	window int
	write  func(r *rng, n, size int) write
	batch  int // rows per append
	// checkFrac is the share of a chunk's distinct SQL texts whose
	// answers are compared to the oracle.
	checkFrac float64
	// viaServer sends the queries through the serving front-end: the
	// HTTP/JSON handler untraced, Server.Execute traced.
	viaServer bool
}

// query is one generated query: the logical form the oracle runs and the
// rendered text the engine under test receives.
type query struct {
	name string
	sql  string
	step workload.Step
}

func (w *closedLoop) queries(seed uint64, pass int) ([]query, error) {
	steps := w.pass(derive(seed, uint64(pass)))
	out := make([]query, len(steps))
	for i, s := range steps {
		sql, err := renderSQL(s.Query)
		if err != nil {
			return nil, fmt.Errorf("pass %d query %d: %w", pass, i, err)
		}
		out[i] = query{name: fmt.Sprintf("pass %d query %d (%s)", pass, i, s.Kind), sql: sql, step: s}
	}
	return out, nil
}

// engine is one engine under test and, on the serving path, the server
// in front of it with its HTTP/JSON handler.
type engine struct {
	db      *hashstash.DB
	srv     *server.Server
	handler http.Handler
}

func newServed(db *hashstash.DB) engine {
	srv := server.New(db, server.Config{})
	return engine{db: db, srv: srv, handler: srv.Handler()}
}

func (e engine) close() {
	if e.srv != nil {
		e.srv.Close()
	}
}

func closeAll(es []engine) {
	for _, e := range es {
		e.close()
	}
}

// setup builds and loads a fresh engine setupReps times, timing each;
// the last keep engines are returned, the others closed. The memory
// baseline is taken before the first kept engine is built.
func setup(o *outcome, mem *memSampler, keep int, build func() (engine, error)) ([]engine, error) {
	var kept []engine
	for i := 0; i < setupReps; i++ {
		if i == setupReps-keep {
			mem.setBase()
		} else {
			runtime.GC()
		}
		t := time.Now()
		e, err := build()
		if err != nil {
			closeAll(kept)
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
		if i < setupReps-keep {
			e.close()
			continue
		}
		kept = append(kept, e)
	}
	runtime.GC()
	mem.sample()
	mem.settle(true)
	return kept, nil
}

func (w *closedLoop) run(opt runOpts) (*outcome, error) {
	o := newOutcome(opt)
	o.replicas, o.batch = replicas, w.batch
	orc, err := newOracle()
	if err != nil {
		return nil, err
	}
	mem := newMemSampler()
	engines, err := setup(o, mem, replicas, func() (engine, error) {
		db := w.open()
		if err := db.LoadTPCH(scaleFactor); err != nil {
			return engine{}, err
		}
		if !w.viaServer {
			return engine{db: db}, nil
		}
		return newServed(db), nil
	})
	if err != nil {
		return nil, err
	}
	defer closeAll(engines)
	// Counters and the cache's final state are replica 0's: the
	// replicas run the same operations.
	first := engines[0]
	if first.srv != nil {
		o.srv0 = first.srv.Stats()
		o.served = true
	}
	ctx := context.Background()
	wr := newRNG(derive(opt.seed, saltWrites))
	c := &clock{budget: opt.seconds}
	nWrites, chunkNo := 0, 0
	var after hashstash.CacheStats
	var winQueries int
	var winTime time.Duration

	for pass := 0; !c.done(); pass++ {
		qs, err := w.queries(opt.seed, pass)
		if err != nil {
			return nil, err
		}
		if pass > 0 {
			for _, e := range engines {
				e.db.ClearCache()
			}
		}
		for start := 0; start < len(qs) && !c.done(); start += w.every {
			chunk := qs[start:min(start+w.every, len(qs))]
			chunkNo++
			// Outside the timed region: the oracle takes the chunk's
			// append and answers the chunk's sampled queries.
			ins := w.write(wr, nWrites, w.batch)
			nWrites++
			if err := orc.insert(ins); err != nil {
				return nil, err
			}
			want := make([]*hashstash.Result, len(chunk))
			for i, q := range chunk {
				if sampled(opt.seed, chunkNo, q.sql, w.checkFrac) {
					if want[i], err = orc.answer(q.sql, q.step.Query); err != nil {
						return nil, fmt.Errorf("%s: %w", q.name, err)
					}
				}
			}
			lat := make([][]float64, len(engines))
			wlat := make([][]float64, len(engines))
			for r, e := range engines {
				lat[r] = nanSlice(len(chunk))
				runtime.GC()
				mem.sample()
				before := e.db.CacheStats()
				got := make([]*reply, len(chunk))

				used := c.used
				answered := o.queries
				c.begin()
				wlat[r] = []float64{o.insert(e.db, uint64(nWrites)<<32|uint64(r), ins)}
				mem.sample()
				for i, q := range chunk {
					if c.expired() {
						break
					}
					o.attempted++
					var rp reply
					trace := uint64(o.queries + 1)
					var t float64
					switch {
					case opt.trace && e.srv != nil:
						rp.res, t, rp.err = o.traceServed(ctx, e.srv, e.db, trace, q.sql)
					case opt.trace:
						rp.res, t, rp.err = o.traceQuery(ctx, e.db, trace, q.sql)
					case e.srv != nil:
						t0 := time.Now()
						rp.status, rp.body = post(e.handler, serveTenants[0], q.sql)
						t = ms(time.Since(t0))
						if rp.status != http.StatusOK {
							rp.err = fmt.Errorf("status %d: %s", rp.status, strings.TrimSpace(string(rp.body)))
						}
					default:
						t0 := time.Now()
						var pq *hashstash.Query
						if pq, rp.err = e.db.Parse(q.sql); rp.err == nil {
							rp.res, rp.err = e.db.ExecParsed(ctx, pq)
						}
						t = ms(time.Since(t0))
					}
					mem.sample()
					if rp.err != nil {
						o.fail(fmt.Sprintf("%s on replica %d: %v: %s", q.name, r, rp.err, q.sql))
						continue
					}
					o.queries++
					lat[r][i] = t
					if want[i] != nil {
						got[i] = &rp
					}
				}
				c.end()
				if n := o.queries - answered; n == len(chunk) {
					winQueries += n
					winTime += c.used - used
					if winQueries >= w.window {
						o.rates = append(o.rates, float64(winQueries)/winTime.Seconds())
						winQueries, winTime = 0, 0
					}
				}

				if r == 0 {
					after = e.db.CacheStats()
					o.cache.addDelta(before, after)
				}
				for i, rp := range got {
					if rp == nil {
						continue
					}
					o.checked++
					if err := checkReply(*rp, want[i], chunk[i].step.Query.OrderBy != nil); err != nil {
						o.mismatch(fmt.Sprintf("%s on replica %d: %v: %s", chunk[i].name, r, err, chunk[i].sql))
					}
				}
			}
			o.tail = append(o.tail, fastest(lat)...)
			for r := range engines {
				o.lat = appendRan(o.lat, lat[r])
				o.writes = appendRan(o.writes, wlat[r])
			}
		}
	}
	o.finishRun(c, mem, after)
	if first.srv != nil {
		o.srv = first.srv.Stats()
	}
	if first.db.Shards() > 1 {
		o.shardCounts = first.db.ShardQueryCounts()
		for _, s := range first.db.ShardCacheStats() {
			o.shardCacheMB = append(o.shardCacheMB, float64(s.Bytes)/(1<<20))
		}
	}
	o.throughput = median(o.rates)
	return o, nil
}

// Salts for the benchmark's own input streams.
const (
	saltWrites = 0x57524954
	saltServe  = 0x53455256
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// The closed-loop workloads. BENCHMARK.json records why each exists.
var (
	explore = &closedLoop{
		name: "explore",
		open: func() *hashstash.DB { return hashstash.Open() },
		pass: func(seed uint64) []workload.Step {
			return workload.Generate(workload.Config{Level: workload.Medium, N: 64, Seed: seed})
		},
		// PART holds 2000 rows and an append costs time in proportion to
		// the table, so small batches keep the cost from climbing over a
		// run.
		every:     32,
		window:    64,
		write:     partBatch,
		batch:     10,
		checkFrac: 0.25,
	}
	dashboard = &closedLoop{
		name: "dashboard",
		open: func() *hashstash.DB {
			return hashstash.Open(hashstash.WithTuning(hashstash.Tuning{
				CacheBudget:    2 << 20,
				ColdTierBudget: 8 << 20,
			}))
		},
		pass: func(seed uint64) []workload.Step {
			return workload.GenerateSkewed(workload.SkewConfig{N: 2048, Seed: seed})
		},
		every:     256,
		window:    256,
		write:     ordersBatch,
		batch:     batchRows,
		checkFrac: 0.25,
	}
	sharded = &closedLoop{
		name: "sharded",
		open: func() *hashstash.DB {
			return hashstash.Open(
				hashstash.WithTuning(hashstash.Tuning{Shards: 2}),
				hashstash.WithPartitionKey("customer", "c_custkey"),
				hashstash.WithPartitionKey("orders", "o_custkey"),
				hashstash.WithPartitionKey("lineitem", "l_orderkey"),
			)
		},
		pass: func(seed uint64) []workload.Step {
			return workload.GeneratePartitioned(workload.PartitionedConfig{N: 3072, CrossShardFrac: 0.25, Seed: seed})
		},
		every:     256,
		window:    256,
		write:     ordersBatch,
		batch:     batchRows,
		checkFrac: 1,
		viaServer: true,
	}
)
