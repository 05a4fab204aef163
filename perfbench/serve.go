package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hashstash"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// The open-loop ladder: each step offers Poisson arrivals at a fixed
// rate, doubling from firstRate. The first step is the reference whose
// latencies the run reports; it lasts --seconds (at least stepArrivals
// arrivals), every later step stepArrivals arrivals. A step is
// sustained when it has no failures, its p99 latency (from each
// request's due time) meets latencyLimit, the generator kept to its
// schedule within the limit and the backlog drained within the limit
// after the last arrival. The ladder stops at the first step that is
// not sustained.
const (
	firstRate    int = 75
	ladderSteps      = 4
	stepArrivals     = 1000
	latencyLimit     = time.Second
	// writeBurst appends run at the quiescent point before each step:
	// DB.InsertRows must not run concurrently with queries.
	writeBurst = 16
	// maxInFlight bounds outstanding requests (goroutines) the
	// generator holds; past it the generator falls behind, which the
	// lag figure shows.
	maxInFlight = 1024
)

var serveTenants = []string{"tenant-a", "tenant-b"}

// openLoop is the serve workload.
type openLoop struct{}

var serve = &openLoop{}

// reply is one request's outcome.
type reply struct {
	due, done time.Time
	status    int
	body      []byte
	res       *hashstash.Result
	err       error
}

// stepReport summarizes one ladder step.
type stepReport struct {
	rate             float64
	n, failed        int
	p50, p99, lagP99 float64 // ms
	drain            float64 // ms after the last due time
	achieved         float64 // completions per second
	sustained        bool
	batched, solo    int64
}

func (w *openLoop) run(opt runOpts) (*outcome, error) {
	o := newOutcome(opt)
	o.served = true
	o.batch = batchRows
	orc, err := newOracle()
	if err != nil {
		return nil, err
	}
	ladder := make([][]workload.Arrival, ladderSteps)
	var statements []string
	seen := map[string]bool{}
	for k := range ladder {
		n := stepArrivals
		if k == 0 {
			n = max(n, firstRate*int(opt.seconds/time.Second))
		}
		ladder[k] = workload.GenerateOpenLoop(n, float64(firstRate<<k), workload.MixSimilar,
			serveTenants, derive(opt.seed, saltServe+uint64(k)))
		for _, a := range ladder[k] {
			if !seen[a.SQL] {
				seen[a.SQL] = true
				statements = append(statements, a.SQL)
			}
		}
	}
	sort.Strings(statements)

	mem := newMemSampler()
	engines, err := setup(o, mem, 1, func() (engine, error) {
		db := hashstash.Open()
		if err := db.LoadTPCH(scaleFactor); err != nil {
			return engine{}, err
		}
		e := newServed(db)
		// Warm every statement once: a cold ladder measures first
		// builds, not serving.
		for _, sql := range statements {
			if status, body := post(e.handler, serveTenants[0], sql); status != http.StatusOK {
				e.close()
				return engine{}, fmt.Errorf("warm-up %q: status %d: %s", sql, status, body)
			}
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	defer closeAll(engines)
	db, srv, handler := engines[0].db, engines[0].srv, engines[0].handler

	wr := newRNG(derive(opt.seed, saltWrites))
	// The ladder, not a time budget, sets the open loop's length; the
	// clock only accumulates the steps' timed segments.
	c := &clock{}
	var before, after hashstash.CacheStats
	s0 := srv.Stats()
	nWrites := 0
	for k, arrivals := range ladder {
		// Quiescent point, outside the timed region: the oracle takes the
		// burst's appends and answers this step's statements.
		burst := make([]write, writeBurst)
		for i := range burst {
			burst[i] = partBatch(wr, nWrites+i, batchRows)
			if err := orc.insert(burst[i]); err != nil {
				return nil, err
			}
		}
		want := map[string]*hashstash.Result{}
		for _, a := range arrivals {
			if want[a.SQL] == nil {
				if want[a.SQL], err = orc.answerSQL(a.SQL); err != nil {
					return nil, err
				}
			}
		}
		runtime.GC()
		for _, ins := range burst {
			nWrites++
			if t := o.insert(db, uint64(nWrites)<<32, ins); !math.IsNaN(t) {
				o.writes = append(o.writes, t)
			}
		}
		mem.sample()

		before = db.CacheStats()
		st0 := srv.Stats()
		c.begin()
		replies, lags, start := dispatch(arrivals, mem, func(a workload.Arrival) reply {
			if opt.trace {
				res, _, err := srv.Execute(context.Background(), a.Tenant, a.SQL)
				return reply{res: res, err: err}
			}
			status, body := post(handler, a.Tenant, a.SQL)
			return reply{status: status, body: body}
		})
		c.end()
		after = db.CacheStats()
		st1 := srv.Stats()
		o.cache.addDelta(before, after)

		rep := stepReport{rate: float64(firstRate << k), n: len(arrivals)}
		rep.batched = st1.BatchedQueries - st0.BatchedQueries
		rep.solo = st1.SoloQueries - st0.SoloQueries
		var lat []float64
		lastDue, lastDone := start, start
		for i, r := range replies {
			o.attempted++
			name := fmt.Sprintf("step %d (%g qps) request %d (%s)", k, rep.rate, i, arrivals[i].Tenant)
			if err := checkReply(r, want[arrivals[i].SQL], false); err != nil {
				rep.failed++
				o.fail(fmt.Sprintf("%s: %v: %s", name, err, arrivals[i].SQL))
				continue
			}
			o.queries++
			o.checked++
			l := ms(r.done.Sub(r.due))
			lat = append(lat, l)
			if opt.trace {
				rec := newQrec(r.res)
				rec.execParsed = r.done.Sub(r.due)
				rec.queue = rec.execParsed - rec.plan - rec.exec
				// Layer figures, like latencies, are the reference step's.
				if k == 0 {
					o.recs = append(o.recs, rec)
					o.tr.addServe(uint64(i), r.due, r.done, r.res)
				}
			}
			if r.due.After(lastDue) {
				lastDue = r.due
			}
			if r.done.After(lastDone) {
				lastDone = r.done
			}
		}
		o.genLag = append(o.genLag, lags...)
		rep.p50 = median(lat)
		p99, tailErr := percentile(lat, 0.99)
		rep.p99 = p99
		rep.lagP99, _ = percentile(lags, 0.99) // every arrival has a lag
		rep.drain = ms(lastDone.Sub(lastDue))
		rep.achieved = float64(len(lat)) / lastDone.Sub(start).Seconds()
		limit := ms(latencyLimit)
		rep.sustained = tailErr == nil && rep.failed == 0 &&
			rep.p99 <= limit && rep.lagP99 <= limit && rep.drain <= limit
		o.steps = append(o.steps, rep)
		// Memory is reported at the reference rate, like latency.
		mem.settle(k == 0)
		if k == 0 {
			o.lat, o.tail = lat, lat
		}
		if !rep.sustained {
			break
		}
		o.maxRate = rep.achieved
	}
	o.srv = srv.Stats()
	o.srv0 = s0
	o.finishRun(c, mem, after)
	o.throughput = o.maxRate
	return o, nil
}

// dispatch sends arrivals on their schedule regardless of replies (open
// loop), each on its own goroutine, and waits for every reply. It
// returns the replies, how late each arrival was sent (ms) and the
// schedule's start.
func dispatch(arrivals []workload.Arrival, mem *memSampler, call func(workload.Arrival) reply) ([]reply, []float64, time.Time) {
	replies := make([]reply, len(arrivals))
	lags := make([]float64, len(arrivals))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, a workload.Arrival, due time.Time) {
			defer wg.Done()
			r := call(a)
			r.due, r.done = due, time.Now()
			<-sem
			replies[i] = r
			mem.sample()
		}(i, a, due)
	}
	wg.Wait()
	return replies, lags, start
}

// post sends one query through the HTTP handler in-process: JSON in,
// JSON rows out, no sockets.
func post(h http.Handler, tenant, sql string) (int, []byte) {
	body, _ := json.Marshal(map[string]string{"sql": sql, "tenant": tenant}) // strings always marshal
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// checkReply compares a reply, a result or an HTTP answer, to the
// oracle's answer.
func checkReply(r reply, want *hashstash.Result, ordered bool) error {
	if r.res != nil || r.err != nil {
		if r.err != nil {
			return r.err
		}
		return sameAnswer(r.res, want, ordered)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(string(r.body)))
	}
	got, err := decodeRows(r.body, want)
	if err != nil {
		return err
	}
	return sameAnswer(got, want, ordered)
}

// decodeRows decodes an HTTP answer, typing each cell like the oracle's
// cell in the same column.
func decodeRows(body []byte, want *hashstash.Result) (*hashstash.Result, error) {
	var resp struct {
		Columns []string        `json:"columns"`
		Rows    [][]interface{} `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	kinds := make([]types.Kind, len(resp.Columns))
	if len(want.Rows) > 0 {
		for j := range kinds {
			if j < len(want.Rows[0]) {
				kinds[j] = want.Rows[0][j].Kind
			}
		}
	}
	out := &hashstash.Result{Columns: resp.Columns, Rows: make([][]types.Value, len(resp.Rows))}
	for i, row := range resp.Rows {
		out.Rows[i] = make([]types.Value, len(row))
		for j, cell := range row {
			v, err := typedCell(cell, kinds[j])
			if err != nil {
				return nil, fmt.Errorf("row %d cell %d: %w", i, j, err)
			}
			out.Rows[i][j] = v
		}
	}
	return out, nil
}

func typedCell(cell interface{}, kind types.Kind) (types.Value, error) {
	switch c := cell.(type) {
	case json.Number:
		switch kind {
		case types.Int64:
			i, err := c.Int64()
			return types.NewInt(i), err
		case types.Float64:
			f, err := c.Float64()
			return types.NewFloat(f), err
		}
	case string:
		switch kind {
		case types.String:
			return types.NewString(c), nil
		case types.Date:
			d, err := types.ParseDate(c)
			return types.NewDate(d), err
		}
	}
	return types.Value{}, fmt.Errorf("cell %v does not read as %v", cell, kind)
}
