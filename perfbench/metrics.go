package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it. For per-layer
// metrics, moves names the end-to-end metrics and workloads ("metric@workload")
// a change in the layer should move, steady the pairs it should leave alone,
// and note what the metric tells when it predicts no end-to-end move.
type metricDef struct {
	name, unit, better string
	moves, steady      []string
	note               string
}

// endToEnd lists the metrics a user of the engine sees. Every run reports all
// of them; the ones a workload's clients do not issue come from a post-run
// probe (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "apply_ops_per_s", unit: "1/s", better: "higher"},
	{name: "apply_p50_us", unit: "us", better: "lower"},
	{name: "query_p50_us", unit: "us", better: "lower"},
	{name: "heap_mb", unit: "MB", better: "lower"},
}

var (
	coreOps       = []string{"apply_ops_per_s@churn", "apply_p50_us@churn", "apply_ops_per_s@ingest"}
	churnQueries  = []string{"query_p50_us@churn"}
	hotspotMoves  = []string{"apply_ops_per_s@ingest", "apply_p50_us@ingest"}
	snapMoves     = []string{"query_p50_us@ingest"}
	procMoves     = []string{"apply_ops_per_s@churn", "query_p50_us@ingest"}
	notChurn      = []string{"*@churn"}
	notChurnApply = []string{"*@churn", "apply_ops_per_s@ingest"}
	ckptMoves     = []string{"apply_ops_per_s@ingest"}
	walMoves      = []string{"apply_p50_us@ingest"}
)

// recoverNote explains the recover.* predictions: the Open time they move is
// printed on every run but is not an end-to-end metric (README.md).
const recoverNote = "should move the recover_s line of ingest, an Open of the closed log"

// perLayer lists the metrics of the traced run, layer by layer, with the
// prediction of what each should move.
var perLayer = []metricDef{
	{name: "core.insert_us", unit: "us", better: "lower", moves: coreOps, steady: churnQueries},
	{name: "core.delete_us", unit: "us", better: "lower", moves: coreOps, steady: churnQueries},
	{name: "core.groupby_us", unit: "us", better: "lower", moves: []string{"query_p50_us@churn"}},
	{name: "core.share", unit: "ratio", better: "lower", note: "core replay time over Apply time: the most a core change can save per workload; above 1 where Apply stages batches in parallel"},
	{name: "core.cells", unit: "count", better: "lower", note: "state size"},
	{name: "core.core_cells", unit: "count", better: "lower", note: "state size"},
	{name: "core.cores", unit: "count", better: "lower", note: "state size"},
	{name: "dyncon.edges", unit: "count", better: "lower", note: "state size"},
	{name: "dyncon.components", unit: "count", better: "lower", note: "state size"},
	{name: "core.self_ms", unit: "ms", better: "lower", note: "self time of the core replay spans"},

	{name: "engine.apply_us_per_op", unit: "us", better: "lower", moves: []string{"apply_ops_per_s@ingest"}, steady: []string{"apply_ops_per_s@churn"}},
	{name: "engine.overhead_us_per_op", unit: "us", better: "lower", moves: []string{"apply_ops_per_s@ingest"}, steady: []string{"apply_ops_per_s@churn"}},
	{name: "engine.ops_per_commit", unit: "count", better: "higher", note: "workload shape"},
	{name: "engine.self_ms", unit: "ms", better: "lower", note: "self time of the Apply and GroupBy spans"},

	{name: "snapshot.fresh_ratio", unit: "ratio", better: "lower", moves: snapMoves, steady: notChurnApply},
	{name: "snapshot.build_ms", unit: "ms", better: "lower", moves: snapMoves, steady: notChurnApply},
	{name: "snapshot.hit_us", unit: "us", better: "lower", note: "cached read path; should not move"},
	{name: "snapshot.self_ms", unit: "ms", better: "lower", note: "self time of the sampled Snapshot spans"},

	{name: "events.per_commit", unit: "count", better: "lower", note: "workload shape"},
	{name: "events.sync_us", unit: "us", better: "lower", moves: []string{"apply_ops_per_s@ingest"}},
	{name: "events.self_ms", unit: "ms", better: "lower", note: "self time of the sampled Sync spans"},

	{name: "hotspot.staged_ratio", unit: "ratio", better: "higher", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.reconciles", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.reconcile_ms", unit: "ms", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.threshold", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.cool", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.delete", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.query", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.sync", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.checkpoint", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.close", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.split", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.joins.width", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "hotspot.splits", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn, note: "0 on ingest, whose policy turns splits off (README.md); a split stripe is never hot again"},
	{name: "shard.imbalance", unit: "ratio", better: "lower", moves: hotspotMoves, steady: notChurn},
	{name: "shard.stripe_cells", unit: "count", better: "lower", moves: hotspotMoves, steady: notChurn},

	{name: "wal.append_us", unit: "us", better: "lower", moves: walMoves},
	{name: "wal.wait_durable_us", unit: "us", better: "lower", moves: walMoves},
	{name: "wal.bytes_per_op", unit: "B", better: "lower", moves: walMoves},
	{name: "wal.self_ms", unit: "ms", better: "lower", note: "self time of the WAL replay spans"},
	{name: "ckpt.captures", unit: "count", better: "lower", moves: ckptMoves},
	{name: "ckpt.chain_bytes", unit: "B", better: "lower", moves: ckptMoves},
	{name: "ckpt.chain_deltas", unit: "count", better: "lower", moves: ckptMoves},
	{name: "ckpt.stall_ms", unit: "ms", better: "lower", moves: ckptMoves},
	{name: "recover.replayed", unit: "count", better: "lower", note: recoverNote},
	{name: "recover.chain_deltas", unit: "count", better: "lower", note: recoverNote},

	{name: "process.alloc_bytes_per_op", unit: "B", better: "lower", moves: procMoves},
	{name: "process.gc_cycles", unit: "count", better: "lower", moves: procMoves},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower", moves: procMoves},

	{name: "client.self_ms", unit: "ms", better: "lower", note: "benchmark-side time between calls"},
	{name: "trace.overhead", unit: "ratio", better: "lower", note: "drop in apply_ops_per_s of the traced phase against the untraced one"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// percentile returns the p-th percentile of ds (sorted in place),
// interpolating linearly between neighbouring samples, or 0 without samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := p / 100 * float64(len(ds)-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, len(ds)-1)
	return ds[lo] + time.Duration(float64(ds[hi]-ds[lo])*(rank-float64(lo)))
}

// mean returns the mean of ds, or 0 without samples.
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
