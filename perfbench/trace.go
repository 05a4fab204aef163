package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"hashstash"
	"hashstash/internal/optimizer"
)

// span is one timed interval of a traced run. Spans of one query or
// append share a trace ID; Parent is 0 for a root. Derived spans are
// laid out from durations the engine reports (Result.PlanTime and
// ExecTime) rather than timed by the benchmark.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps a run's spans in memory; write dumps them at the end.
// Safe for concurrent use (the open-loop workload records from many
// request goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(trace uint64, parent int, name string, start, end time.Time, derived bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Derived: derived,
	})
	return id
}

// addQuery records a query's spans: the root from start to done, parse
// and execparsed as timed, and plan, exec and finish laid out inside
// execparsed from the engine-reported durations.
func (t *tracer) addQuery(trace uint64, start, parsed, done time.Time, res *hashstash.Result) {
	q := t.add(trace, 0, "query", start, done, false)
	t.add(trace, q, "parse", start, parsed, false)
	ep := t.add(trace, q, "execparsed", parsed, done, false)
	planEnd := parsed.Add(res.PlanTime)
	execEnd := planEnd.Add(res.ExecTime)
	if execEnd.After(done) {
		execEnd = done
	}
	t.add(trace, ep, "plan", parsed, planEnd, true)
	t.add(trace, ep, "exec", planEnd, execEnd, true)
	t.add(trace, ep, "finish", execEnd, done, true)
}

// selfTimes sums each span name's self time: its duration minus the
// part its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// rootTime is the summed duration of the root spans: the time queries
// and appends took end to end, which the self times partition.
func (t *tracer) rootTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write dumps the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// qrec is one traced query's layer breakdown.
type qrec struct {
	parse, execParsed time.Duration
	plan, exec        time.Duration
	queue             time.Duration // open loop: due-to-done minus plan and exec
	rowsIn, rowsOut   int64
	est               float64
	modes             [5]int // reuse decisions by optimizer.ReuseMode
	shards            int    // shards whose query counter advanced
}

func (r *qrec) finish() time.Duration {
	f := r.execParsed - r.plan - r.exec
	if f < 0 {
		return 0
	}
	return f
}

func newQrec(res *hashstash.Result) qrec {
	r := qrec{
		plan: res.PlanTime, exec: res.ExecTime,
		rowsIn: res.RowsIn, rowsOut: res.RowsOut, est: res.EstimatedCost,
	}
	for _, d := range res.Decisions {
		if d.Action == 'X' || int(d.Mode) >= len(r.modes) {
			continue
		}
		r.modes[d.Mode]++
	}
	return r
}

// Reuse modes index qrec.modes.
var modeNames = [5]string{
	optimizer.ModeNew:         "new",
	optimizer.ModeExact:       "exact",
	optimizer.ModeSubsuming:   "subsuming",
	optimizer.ModePartial:     "partial",
	optimizer.ModeOverlapping: "overlapping",
}

// memSampler tracks the peak live Go heap above a baseline taken before
// the engine under test is set up, so the oracle's copy of the data and
// the benchmark's own state are not counted. Samples count toward the
// peak once committed; the open loop discards those of a ladder step it
// could not sustain. Safe for concurrent use.
type memSampler struct {
	mu   sync.Mutex
	s    [1]metrics.Sample
	base uint64
	cur  uint64 // peak of the uncommitted samples
	peak uint64
	n    int
}

func newMemSampler() *memSampler {
	m := &memSampler{}
	m.s[0].Name = "/gc/heap/live:bytes"
	return m
}

func (m *memSampler) read() uint64 {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64()
}

// setBase collects garbage and takes the baseline.
func (m *memSampler) setBase() {
	runtime.GC()
	m.mu.Lock()
	m.base = m.read()
	m.mu.Unlock()
}

func (m *memSampler) sample() {
	m.mu.Lock()
	if v := m.read(); v > m.cur {
		m.cur = v
	}
	m.n++
	m.mu.Unlock()
}

// settle commits (keep) or discards the samples taken since the last
// settle.
func (m *memSampler) settle(keep bool) {
	m.mu.Lock()
	if keep && m.cur > m.peak {
		m.peak = m.cur
	}
	m.cur = 0
	m.mu.Unlock()
}

func (m *memSampler) peakMB() float64 {
	m.settle(true)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.peak <= m.base {
		return 0
	}
	return float64(m.peak-m.base) / (1 << 20)
}

// clock accumulates the timed region across segments (the benchmark
// pauses it to consult the oracle) together with the Go runtime's
// allocation and GC-pause counters over those segments only.
type clock struct {
	budget  time.Duration
	used    time.Duration
	start   time.Time
	ms0     runtime.MemStats
	mallocs uint64
	bytes   uint64
	pause   time.Duration
}

func (c *clock) begin() {
	runtime.ReadMemStats(&c.ms0)
	c.start = time.Now()
}

func (c *clock) end() {
	c.used += time.Since(c.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs += ms.Mallocs - c.ms0.Mallocs
	c.bytes += ms.TotalAlloc - c.ms0.TotalAlloc
	c.pause += time.Duration(ms.PauseTotalNs - c.ms0.PauseTotalNs)
}

// expired reports, inside a segment, whether the budget is spent.
func (c *clock) expired() bool { return c.used+time.Since(c.start) >= c.budget }

// done reports, between segments, whether the budget is spent.
func (c *clock) done() bool { return c.used >= c.budget }

// layerOrder lists self-time layers in report order.
var layerOrder = []string{"query", "serve.execute", "serve.queue", "parse", "execparsed", "plan", "exec", "finish", "insert"}

func formatSelfTimes(self map[string]time.Duration, total time.Duration) []string {
	var lines []string
	for _, n := range layerOrder {
		d, ok := self[n]
		if !ok {
			continue
		}
		lines = append(lines, fmt.Sprintf("  self %-14s %10.1f ms  %5.1f%%", n, float64(d)/1e6, 100*ratio(float64(d), float64(total))))
	}
	return lines
}
