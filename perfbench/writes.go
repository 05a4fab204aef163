package main

import (
	"fmt"
	"hash/fnv"

	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// rng is a seeded splitmix64 stream for the benchmark's own inputs
// (appended rows, answer sampling); the workload generators keep their
// own streams.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 { r.state += 0x9e3779b97f4a7c15; return types.Mix64(r.state) }

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// derive mixes a salt into a seed, so each input stream of a run has its
// own deterministic seed.
func derive(seed, salt uint64) uint64 { return types.Mix64(seed ^ types.Mix64(salt+1)) }

// sampled reports whether the answers to sql in one chunk are checked:
// a seeded coin per (chunk, SQL text), so every repeat of a checked
// query within the chunk is checked too.
func sampled(seed uint64, chunk int, sql string, frac float64) bool {
	if frac >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(sql))
	x := types.Mix64(h.Sum64() ^ derive(seed, uint64(chunk)))
	return float64(x>>11)/(1<<53) < frac
}

// write is one DB.InsertRows call.
type write struct {
	table string
	rows  [][]types.Value
}

const (
	// batchRows is the most rows one append holds: the stride of
	// appended keys, and the size of every append but explore's.
	batchRows = 50
	// newKeyBase starts the keys of appended rows far above every
	// generated key, so appended keys never collide.
	newKeyBase = 10_000_000
)

// custKeys is the CUSTOMER key domain at the benchmark's scale factor.
var custKeys = int64(150000 * scaleFactor)

// partBatch returns size (at most batchRows) new PART rows (key order: p_partkey,
// p_name, p_mfgr, p_brand, p_type, p_size). No LINEITEM row references
// an appended part, so answers keep their meaning; the append still
// refreshes PART statistics and invalidates every cached artifact over
// PART.
func partBatch(r *rng, n, size int) write {
	rows := make([][]types.Value, size)
	for i := range rows {
		key := int64(newKeyBase + n*batchRows + i)
		m := 1 + r.intn(5)
		rows[i] = []types.Value{
			types.NewInt(key),
			types.NewString(fmt.Sprintf("part %d", key)),
			types.NewString(fmt.Sprintf("Manufacturer#%d", m)),
			types.NewString(fmt.Sprintf("Brand#%d", m*10+1+r.intn(5))),
			types.NewString("STANDARD ANODIZED TIN"),
			types.NewInt(1 + r.intn(50)),
		}
	}
	return write{table: "part", rows: rows}
}

// ordersBatch returns size (at most batchRows) new ORDERS rows for existing customers
// (o_orderkey, o_custkey, o_orderdate, o_totalprice, o_shippriority,
// o_orderstatus). They join CUSTOMER, so customer-side answers change;
// they have no LINEITEM rows.
func ordersBatch(r *rng, n, size int) write {
	lo, hi := tpch.OrderDateRange()
	rows := make([][]types.Value, size)
	for i := range rows {
		rows[i] = []types.Value{
			types.NewInt(int64(newKeyBase + n*batchRows + i)),
			types.NewInt(1 + r.intn(custKeys)),
			types.NewDate(lo + r.intn(hi-lo+1)),
			types.NewFloat(1000 + r.float()*450000),
			types.NewInt(0),
			types.NewString("O"),
		}
	}
	return write{table: "orders", rows: rows}
}
