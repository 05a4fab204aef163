package hashstash

// Grouped configuration. Open takes two structs — Tuning (capacity and
// execution sizing) and Ablations (paper-experiment feature switches) —
// plus the mode and data declarations WithStrategy, WithEngine,
// WithCalibration and WithPartitionKey.

// Tuning groups the capacity and execution-sizing knobs. Zero values
// leave the engine defaults untouched, so partial literals compose:
//
//	hashstash.Open(hashstash.WithTuning(hashstash.Tuning{
//	    CacheBudget: 64 << 20,
//	    Parallelism: 8,
//	}))
type Tuning struct {
	// CacheBudget bounds the hash-table cache in bytes (0 = unlimited).
	CacheBudget int64
	// ColdTierBudget bounds the compact cold tier in bytes (0 = cold
	// tier disabled).
	ColdTierBudget int64
	// IndexBuildBudget caps the total bytes of lazily built secondary
	// indexes (0 = unlimited).
	IndexBuildBudget int64
	// Parallelism is the morsel-driven worker-pool size (0 = all CPUs,
	// 1 = serial).
	Parallelism int
	// MorselRows overrides the morsel granularity (0 = storage default).
	MorselRows int
	// Shards partitions the engine into n locality domains (<= 1 runs
	// one shard). Each shard owns a catalog fragment, its own cache
	// (byte budgets are split across shards) and its own share of the
	// worker pool. Tables with a declared partition key
	// (WithPartitionKey / PartitionTable) split into per-shard
	// fragments by key hash; undeclared tables replicate. Queries whose
	// partition-key equality constraints pin every partitioned relation
	// to one shard run on that shard alone; everything else executes
	// scatter-gather. Sharding applies to EngineHashStash; the
	// baseline engines ignore it.
	Shards int
	// SoftMemoryLimit is the memory governor's soft watermark (bytes):
	// above it the engine sheds cache, vetoes new index builds and the
	// serving front-end shrinks batch windows. 0 = no soft watermark.
	SoftMemoryLimit int64
	// HardMemoryLimit is the governor's hard watermark (bytes): above
	// it admission refuses new queries with a retriable overload error
	// and a computed Retry-After. 0 = no hard watermark.
	HardMemoryLimit int64
}

// WithTuning applies every non-zero field of t. It composes with the
// other options; later options win on overlap.
func WithTuning(t Tuning) Option {
	return func(c *config) {
		if t.CacheBudget != 0 {
			c.budget = t.CacheBudget
		}
		if t.ColdTierBudget != 0 {
			c.coldBudget = t.ColdTierBudget
		}
		if t.IndexBuildBudget != 0 {
			c.indexBudget = t.IndexBuildBudget
		}
		if t.Parallelism != 0 {
			c.parallelism = t.Parallelism
		}
		if t.MorselRows != 0 {
			c.morselRows = t.MorselRows
		}
		if t.Shards != 0 {
			c.shards = t.Shards
		}
		if t.SoftMemoryLimit != 0 {
			c.memSoft = t.SoftMemoryLimit
		}
		if t.HardMemoryLimit != 0 {
			c.memHard = t.HardMemoryLimit
		}
	}
}

// Ablations groups the feature switches used by the paper's ablation
// experiments. Every field defaults to false (= feature on); setting
// one disables the named mechanism.
type Ablations struct {
	// LRUEviction replaces benefit-per-byte eviction with plain LRU and
	// disables the cold tier.
	LRUEviction bool
	// NoBenefitOptimizations disables the Section 3.4 benefit-oriented
	// optimizations.
	NoBenefitOptimizations bool
	// NoPartialReuse disables partial reuse.
	NoPartialReuse bool
	// NoOverlappingReuse disables overlapping reuse.
	NoOverlappingReuse bool
	// NoSecondaryIndexes disables the ordered secondary-index access
	// path.
	NoSecondaryIndexes bool
	// Faults arms deterministic fault injection for resilience testing:
	// a comma-separated spec of point=mode:trigger terms, e.g.
	// "htcache.publish=err:once,sched.dispatch=panic:every:50". Modes
	// are err and panic; triggers are once, every:N and p:P[:seed].
	// Empty leaves injection disarmed (zero-overhead no-ops). The
	// HASHSTASH_FAULTS environment variable arms the same grammar when
	// this field is unset. Arming is process-global.
	Faults string
}

// WithAblations applies the set switches (unset fields leave the
// features enabled).
func WithAblations(a Ablations) Option {
	return func(c *config) {
		if a.LRUEviction {
			c.lruEviction = true
		}
		if a.NoBenefitOptimizations {
			c.benefit = false
		}
		if a.NoPartialReuse {
			c.partial = false
		}
		if a.NoOverlappingReuse {
			c.overlapping = false
		}
		if a.NoSecondaryIndexes {
			c.noSecondaryIdx = true
		}
		if a.Faults != "" {
			c.faults = a.Faults
		}
	}
}
