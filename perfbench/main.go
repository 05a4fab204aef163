// Command perfbench is HashStash's end-to-end and per-layer benchmark.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 30 --trace 0
//
// It generates a workload from --seed, drives the engine in-process
// from this one process for --seconds of timed work, checks answers
// against a no-reuse serial oracle outside the timed region, and prints
// a report whose last line is one JSON object. With --trace 0 the JSON
// holds the end-to-end metrics of a run with tracing off; with --trace 1
// the benchmark runs the workload untraced and then traced with the same
// seed, prints per-layer metrics, per-layer self time and the tracing
// overhead, writes the spans under .bench_build/traces, and the JSON
// holds the per-layer metrics. BENCHMARK.json at the repository root
// describes the workloads and metrics; README.md maps each per-layer
// metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// runner is one workload.
type runner interface {
	run(runOpts) (*outcome, error)
}

var workloads = map[string]runner{
	"explore":   explore,
	"dashboard": dashboard,
	"sharded":   sharded,
	"serve":     serve,
}

// traceDir receives the traced run's spans, relative to the working
// directory (the checkout's root).
const traceDir = ".bench_build/traces"

// maxListed caps how many failures the report names one per line; the
// rest are counted.
const maxListed = 50

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: dashboard, explore, serve or sharded")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "timed seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	// One process, no more workers than CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	opt := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	u, err := w.run(opt)
	if err != nil {
		return err
	}
	e2e, err := endToEndValues(u)
	if err != nil {
		return err
	}
	if *trace == 0 {
		printEndToEnd(*name, u, e2e)
		return printResult(u.failed == 0, u.attempted, u.failed, endToEnd, e2e)
	}

	opt.trace = true
	t, err := w.run(opt)
	if err != nil {
		return err
	}
	layers, err := layerValues(u, t)
	if err != nil {
		return err
	}
	path, err := t.tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	printLayers(*name, u, t, layers, path)
	failed := u.failed + t.failed
	return printResult(failed == 0, u.attempted+t.attempted, failed, perLayer, layers)
}

func printEndToEnd(name string, o *outcome, v map[string]float64) {
	fmt.Printf("end to end, tracing off (%s):\n", name)
	fastestOf, perEngine, memShare := "", "", ""
	if o.replicas > 1 {
		fastestOf = fmt.Sprintf(", fastest of %d replicas each", o.replicas)
		perEngine = fmt.Sprintf(" over %d replicas", o.replicas)
		memShare = fmt.Sprintf(" of %d engines, divided by %d", o.replicas, o.replicas)
	}
	if len(o.steps) > 0 {
		printLadder(o)
		fmt.Printf("  %-16s %12.2f 1/s  (highest sustained ladder rate, achieved completions/s)\n", "throughput_qps", v["throughput_qps"])
		fmt.Printf("  %-16s %12.2f 1/s  (same figure: the ladder's max_rate_qps)\n", "max_rate_qps", o.maxRate)
		fmt.Printf("  %-16s %12.3f ms   (step 1 at %d qps, n=%d, from due time)\n", "latency_p50_ms", v["latency_p50_ms"], firstRate, len(o.lat))
		fmt.Printf("  %-16s %12.3f ms   (step 1, n=%d, %d beyond it)\n", "latency_p99_ms", v["latency_p99_ms"], len(o.lat), beyond(len(o.lat), 0.99))
	} else {
		fmt.Printf("  %-16s %12.2f 1/s  (%d queries in %.2f s timed%s, closed loop, 1 client)\n", "throughput_qps", v["throughput_qps"], o.queries, o.wall.Seconds(), perEngine)
		fmt.Printf("  %-16s %12s      (closed loop: see throughput_qps)\n", "max_rate_qps", "n/a")
		fmt.Printf("  %-16s %12.3f ms   (n=%d query runs%s, SQL text to rows)\n", "latency_p50_ms", v["latency_p50_ms"], len(o.lat), perEngine)
		fmt.Printf("  %-16s %12.3f ms   (n=%d queries, %d beyond it%s)\n", "latency_p99_ms", v["latency_p99_ms"], len(o.tail), beyond(len(o.tail), 0.99), fastestOf)
	}
	fmt.Printf("  %-16s %12.3f ms   (n=%d appends of %d rows%s)\n", "write_p50_ms", v["write_p50_ms"], len(o.writes), o.batch, perEngine)
	fmt.Printf("  %-16s %12.4f      (%d of %d attempted: %d errors or refusals, %d wrong answers)\n", "failed_frac",
		ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted, len(o.errs), len(o.mismatches))
	fmt.Printf("  %-16s %12.4f s    (median of %d set-ups: %s)\n", "setup_s", v["setup_s"], len(o.setup), floats(o.setup, "%.4f"))
	fmt.Printf("  %-16s %12.2f MB   (peak live heap above the pre-setup baseline%s, n=%d samples)\n", "mem_peak_mb", v["mem_peak_mb"], memShare, o.memSamples)
	printChecks(o)
}

func printLadder(o *outcome) {
	fmt.Printf("  ladder (limit p99 <= %v):\n", latencyLimit)
	for i, s := range o.steps {
		fmt.Printf("    step %d %5.0f qps: n=%d failed=%d p50=%.2fms p99=%.2fms lag_p99=%.2fms drain=%.2fms achieved=%.1f/s batched=%d solo=%d sustained=%v\n",
			i+1, s.rate, s.n, s.failed, s.p50, s.p99, s.lagP99, s.drain, s.achieved, s.batched, s.solo, s.sustained)
	}
}

func printChecks(o *outcome) {
	fmt.Printf("answers: %d of %d checked against the oracle, %d wrong\n", o.checked, o.queries, len(o.mismatches))
	list := func(kind string, xs []string) {
		for i, x := range xs {
			if i == maxListed {
				fmt.Printf("  ... and %d more %s\n", len(xs)-maxListed, kind)
				return
			}
			fmt.Printf("  %s: %s\n", kind, x)
		}
	}
	list("wrong answer", o.mismatches)
	list("failed", o.errs)
}

func printLayers(name string, u, t *outcome, v map[string]float64, path string) {
	fmt.Printf("per layer, traced run (%s): %d query runs, %d append runs; untraced run: %d query runs\n", name, len(t.lat), len(t.writes), len(u.lat))
	byLayer := map[string][]metricDef{}
	var layers []string
	for _, m := range perLayer {
		if _, ok := byLayer[m.layer]; !ok {
			layers = append(layers, m.layer)
		}
		byLayer[m.layer] = append(byLayer[m.layer], m)
	}
	for _, l := range layers {
		fmt.Printf("  [%s]\n", l)
		for _, m := range byLayer[l] {
			fmt.Printf("    %-34s %14.4f %-7s moves: %s\n", m.name, v[m.name], m.unit, m.moves)
		}
	}
	fmt.Println("self time per layer (traced run; plan, exec, finish and serve.queue are derived from engine-reported durations):")
	for _, line := range formatSelfTimes(t.tr.selfTimes(), t.tr.rootTime()) {
		fmt.Println(line)
	}
	fmt.Printf("tracing overhead: mean latency traced %.4f ms vs untraced %.4f ms (%+.2f%%)\n",
		sum(t.lat)/float64(len(t.lat)), sum(u.lat)/float64(len(u.lat)), 100*v["trace.overhead_frac"])
	if len(t.steps) > 0 {
		fmt.Println("  on serve the traced run calls Server.Execute and the untraced run the HTTP handler, so this difference also holds HTTP/JSON encoding; splitting it out needs tracing inside the program")
	}
	fmt.Printf("spans: %s\n", path)
	printChecks(u)
	printChecks(t)
}

// printResult prints the final JSON line.
func printResult(correct bool, attempted, failed int, defs []metricDef, v map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, map[string]metric{}}
	for _, d := range defs {
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metric{Value: x, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func floats(xs []float64, format string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(s, " ")
}
