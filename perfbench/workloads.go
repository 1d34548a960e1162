package main

import (
	"math/rand"
	"strings"

	"dyndbscan"
)

// spec is one named workload: the engine configuration and the closed-loop
// call shape of its clients. Every client sends its next call only after the
// previous one returns.
type spec struct {
	name string
	why  string // the reason the workload exists, as in BENCHMARK.json

	clients int
	gen     func(*rand.Rand, int) []dyndbscan.Point

	// Call shape. With deleteEvery = 0 every Apply carries inserts fresh
	// points and deletes the client's deletes oldest handles. With
	// deleteEvery = n every n-th Apply deletes the deletes oldest handles
	// and the others insert inserts points.
	inserts, deletes, deleteEvery int
	// query makes each client follow its Apply with a GroupBy of 2..100 of
	// its own live handles.
	query bool

	shards int
	// wal logs every commit under SyncAlways: Apply returns once its record
	// is on disk.
	wal       bool
	hotspot   bool
	subscribe bool
}

var specs = []*spec{
	{
		name:    "churn",
		why:     "the paper's fully dynamic stream as a sliding window on one shard, no WAL, no subscriber: the single-thread baseline where the algorithm core does the work",
		clients: 1,
		gen:     seedSpreaderPoints,
		inserts: 512, deletes: 512,
		query:  true,
		shards: 1,
	},
	{
		name:    "ingest",
		why:     "1-op durable commits on Zipf-skewed bands with 4 shards, fsync per commit, hot-stripe staging and a subscriber: per-commit fixed costs dominate and the clients ask no queries",
		clients: 2,
		gen:     zipfBandPoints,
		inserts: 1, deletes: 16, deleteEvery: 17,
		shards:    4,
		wal:       true,
		hotspot:   true,
		subscribe: true,
	},
}

// workloadNames lists the workloads for usage messages.
func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// options returns the engine options of the workload, logging to dir when it
// has a WAL.
func (s *spec) options(dir string) []dyndbscan.Option {
	opts := baseOptions()
	if s.shards > 1 {
		opts = append(opts, dyndbscan.WithShards(s.shards))
	}
	if s.wal {
		opts = append(opts, dyndbscan.WithWAL(dir, dyndbscan.SyncAlways()))
	}
	if s.hotspot {
		opts = append(opts, dyndbscan.WithHotspot(hotspotPolicy()))
	}
	return opts
}

// hotspotPolicy is the default split-phase policy with two fields changed.
// With 1-op commits a stripe's decayed update count stays far below the
// default ScoreThreshold (384), so under the default a stripe turns hot only
// through shard-lock waits, and the share of inserts staged follows the
// host's scheduling from run to run. At 32 the update count alone keeps the
// busy stripes hot, and the staged share repeats. A stripe is split after
// SplitAfter reconciles and a split stripe is never hot again, which would
// end staging partway through a run; SplitAfter is set beyond the reconciles
// of any run.
func hotspotPolicy() dyndbscan.HotspotPolicy {
	p := dyndbscan.DefaultHotspotPolicy()
	p.ScoreThreshold = 32
	p.SplitAfter = 1 << 30
	return p
}

// baseOptions are the clustering parameters every workload shares.
func baseOptions() []dyndbscan.Option {
	return []dyndbscan.Option{
		dyndbscan.WithDims(dims),
		dyndbscan.WithEps(eps),
		dyndbscan.WithMinPts(minPts),
		dyndbscan.WithRho(0),
	}
}

// nextOps builds the client's next Apply batch: fresh points from its
// stream, then deletes of its oldest live handles.
func (s *spec) nextOps(c *client) []dyndbscan.Op {
	ins, del := s.inserts, s.deletes
	if s.deleteEvery > 0 {
		if c.calls%s.deleteEvery == 0 {
			ins = 0
		} else {
			del = 0
		}
	}
	ops := make([]dyndbscan.Op, 0, ins+del)
	for i := 0; i < ins; i++ {
		ops = append(ops, dyndbscan.InsertOp(c.s.take()))
	}
	for i := 0; i < del; i++ {
		ops = append(ops, dyndbscan.DeleteOp(c.live.pop()))
	}
	return ops
}

// nextQuery samples 2..100 distinct live handles of the client, the paper's
// |Q| distribution.
func nextQuery(c *client) []dyndbscan.PointID {
	n := 2 + c.rng.Intn(99)
	if n > c.live.len() {
		n = c.live.len()
	}
	clear(c.picked)
	q := make([]dyndbscan.PointID, 0, n)
	for len(q) < n {
		i := c.rng.Intn(c.live.len())
		if _, dup := c.picked[i]; dup {
			continue
		}
		c.picked[i] = struct{}{}
		q = append(q, c.live.at(i))
	}
	return q
}
