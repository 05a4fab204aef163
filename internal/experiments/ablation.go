package experiments

import (
	"fmt"
	"strings"
	"time"

	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/workload"
)

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name     string
	Time     time.Duration
	HitRatio float64
	// Speedup is relative to the no-reuse baseline (%).
	Speedup float64
}

// AblationResult quantifies the paper's Section 3.4 design choices on
// the high-reuse workload: how much of HashStash's win comes from the
// partial/overlapping reuse cases (prior work supports only
// exact+subsuming) and from the benefit-oriented optimizations
// (AVG rewrite is always applied; this knob covers additional payload
// attributes and the join-order tie-break).
type AblationResult struct {
	Rows []AblationRow
	SF   float64
	N    int
}

// Ablation runs the high-reuse workload under four optimizer
// configurations sharing the same data. Secondary indexes are disabled
// in every configuration so the table isolates the hash-table reuse
// design choices: a lazy index build landing in one trace but not
// another would skew the comparison with an orthogonal subsystem's
// investment (indexes have their own benchmark, BenchmarkIndexRange).
func Ablation(env *Env, n int) (*AblationResult, error) {
	steps := workload.Generate(workload.Config{Level: workload.High, N: n})
	configs := []struct {
		name string
		opts optimizer.Options
	}{
		{"no-reuse (baseline)", optimizer.Options{Strategy: optimizer.NeverReuse, BenefitOriented: true, NoSecondaryIndexes: true}},
		{"exact+subsuming only", optimizer.Options{Strategy: optimizer.CostModel, BenefitOriented: true, NoSecondaryIndexes: true}},
		{"no benefit-oriented opts", optimizer.Options{Strategy: optimizer.CostModel, EnablePartial: true, EnableOverlapping: true, NoSecondaryIndexes: true}},
		{"full HashStash", optimizer.Options{Strategy: optimizer.CostModel, BenefitOriented: true, EnablePartial: true, EnableOverlapping: true, NoSecondaryIndexes: true}},
	}
	out := &AblationResult{SF: env.SF, N: n}
	names := make([]string, len(configs))
	for i, cfg := range configs {
		names[i] = cfg.name
	}
	opts := make([]*optimizer.Optimizer, len(configs))
	times, err := lockstepTimes(steps, names, func() []traceRunner {
		runs := make([]traceRunner, len(configs))
		for i, cfg := range configs {
			opts[i] = optimizer.New(env.Cat, htcache.New(0), nil, cfg.opts)
			runs[i] = opts[i].Run
		}
		return runs
	})
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	baseline := times[0]
	for i, cfg := range configs {
		out.Rows = append(out.Rows, AblationRow{
			Name: cfg.name, Time: times[i],
			HitRatio: opts[i].Cache.Stats().HitRatio,
			Speedup:  speedupPct(baseline, times[i]),
		})
	}
	workingSet := opts[len(opts)-1].Cache.TotalBytes()

	// Eviction-policy rows: the full configuration again, but with the
	// cache budget at half the trace's working set so the policy has to
	// choose victims. The benefit row keeps the default policy plus a
	// cold tier; the LRU row is the recency ablation.
	full := configs[len(configs)-1].opts
	policies := []string{"benefit eviction, ½ budget", "LRU eviction, ½ budget"}
	caches := make([]*htcache.Cache, len(policies))
	times, err = lockstepTimes(steps, policies, func() []traceRunner {
		caches[0] = htcache.New(workingSet / 2)
		caches[0].SetColdBudget(workingSet * 2)
		caches[1] = htcache.New(workingSet / 2)
		caches[1].SetPolicy(htcache.PolicyLRU)
		runs := make([]traceRunner, len(caches))
		for i, cache := range caches {
			runs[i] = optimizer.New(env.Cat, cache, nil, full).Run
		}
		return runs
	})
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	for i, name := range policies {
		out.Rows = append(out.Rows, AblationRow{
			Name: name, Time: times[i],
			HitRatio: caches[i].Stats().HitRatio,
			Speedup:  speedupPct(baseline, times[i]),
		})
	}
	return out, nil
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — Section 3.4 design choices (high-reuse workload, SF=%.3f, %d queries)\n", r.SF, r.N)
	fmt.Fprintf(&b, "  %-28s %12s %10s %10s\n", "configuration", "time", "hit ratio", "speed-up")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-28s %12v %10.2f %9.1f%%\n",
			row.Name, row.Time.Round(time.Millisecond), row.HitRatio, row.Speedup)
	}
	return b.String()
}
