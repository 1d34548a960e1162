package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
	"dyndbscan/internal/wal"
)

// Span kinds. Each is a call into one layer, timed from the benchmark's side
// of the call; the layer is the kind's name up to the first dot.
const (
	kRequest uint8 = iota
	kApply
	kGroupBy
	kSnapshotBuild
	kSnapshotHit
	kSync
	kCoreApply
	kCoreGroupBy
	kWALAppend
	kWALWait
)

var kindNames = [...]string{
	kRequest:       "client.request",
	kApply:         "engine.apply",
	kGroupBy:       "engine.groupby",
	kSnapshotBuild: "snapshot.build",
	kSnapshotHit:   "snapshot.hit",
	kSync:          "events.sync",
	kCoreApply:     "core.apply",
	kCoreGroupBy:   "core.groupby",
	kWALAppend:     "wal.append",
	kWALWait:       "wal.wait_durable",
}

// Sampling periods of the traced phase, per client: Snapshot and Sync calls
// are extra work the untraced clients do not do, so they are spaced out to
// keep the traced phase close to the untraced one. Sync also folds every
// staged insert, so it stays rare where stripes stage.
const (
	snapshotEvery = time.Second
	syncEvery     = 500 * time.Millisecond
	// maxSpans bounds the spans kept in memory per client.
	maxSpans = 1 << 19
	// maxWALReplay bounds the commits replayed into the bare log: under
	// SyncAlways each costs one fsync.
	maxWALReplay = 4096
)

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// req is the client request the call served, and the request's own span has
// id == req.
type span struct {
	id, parent, req int64
	kind            uint8
	start, end      int64
}

// entry is one answered call in the order calls returned: a commit (ops and
// the handles Apply returned) or a query.
type entry struct {
	req   int64
	ops   []dyndbscan.Op
	ids   []dyndbscan.PointID
	query []dyndbscan.PointID
}

// clientTrace is one client's share of the tracer; only its client touches
// it during the phase.
type clientTrace struct {
	spans    []span
	dropped  int
	reqStart int64
	nextSnap time.Time
	nextSync time.Time
	build    []time.Duration
	hit      []time.Duration
	sync     []time.Duration
	stalls   []time.Duration
	ckpts    uint64 // WALStats.Checkpoints after the client's last Apply
}

// tracer records the traced phase. A nil *tracer records nothing.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	clients []*clientTrace

	mu  sync.Mutex
	log []entry

	maxVersion atomic.Uint64
	queries    atomic.Int64
	fresh      atomic.Int64
}

// newTracer starts tracing; ckpts is the engine's checkpoint count.
func newTracer(clients int, ckpts uint64) *tracer {
	t := &tracer{epoch: time.Now(), clients: make([]*clientTrace, clients)}
	for i := range t.clients {
		t.clients[i] = &clientTrace{ckpts: ckpts}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(c *client, s span) {
	ct := t.clients[c.id]
	if len(ct.spans) >= maxSpans {
		ct.dropped++
		return
	}
	ct.spans = append(ct.spans, s)
}

func (t *tracer) child(c *client, req int64, kind uint8, t0 time.Time, d time.Duration) {
	start := int64(t0.Sub(t.epoch))
	t.add(c, span{id: t.ids.Add(1), parent: req, req: req, kind: kind, start: start, end: start + int64(d)})
}

// begin opens a client request and returns its id.
func (t *tracer) begin(c *client) int64 {
	if t == nil {
		return 0
	}
	t.clients[c.id].reqStart = t.now()
	return t.ids.Add(1)
}

func (t *tracer) end(c *client, req int64) {
	if t == nil {
		return
	}
	t.add(c, span{id: req, req: req, kind: kRequest, start: t.clients[c.id].reqStart, end: t.now()})
}

func (t *tracer) applied(c *client, req int64, t0 time.Time, d time.Duration, ops []dyndbscan.Op, ids []dyndbscan.PointID) {
	t.child(c, req, kApply, t0, d)
	t.mu.Lock()
	t.log = append(t.log, entry{req: req, ops: ops, ids: ids})
	t.mu.Unlock()
}

func (t *tracer) queried(c *client, req int64, t0 time.Time, d time.Duration, q []dyndbscan.PointID) {
	t.child(c, req, kGroupBy, t0, d)
	t.mu.Lock()
	t.log = append(t.log, entry{req: req, query: q})
	t.mu.Unlock()
}

// noteVersion counts a query about to run at version v, and whether no
// earlier query saw v.
func (t *tracer) noteVersion(v uint64) {
	t.queries.Add(1)
	for {
		seen := t.maxVersion.Load()
		if v <= seen {
			return
		}
		if t.maxVersion.CompareAndSwap(seen, v) {
			t.fresh.Add(1)
			return
		}
	}
}

// checkpoints takes the engine's checkpoint count after an Apply of latency
// d, and records d as a stall when a checkpoint was written since the
// client's previous Apply returned.
func (t *tracer) checkpoints(c *client, n uint64, d time.Duration) {
	ct := t.clients[c.id]
	if n != ct.ckpts {
		ct.stalls = append(ct.stalls, d)
		ct.ckpts = n
	}
}

// sample times the sampled Snapshot and Sync calls after a commit: a
// Snapshot right after a commit builds the new version, a second one hits
// the cache.
func (t *tracer) sample(c *client, req int64, e *dyndbscan.Engine, sp *spec) {
	ct := t.clients[c.id]
	now := time.Now()
	if !now.Before(ct.nextSnap) {
		ct.nextSnap = now.Add(snapshotEvery)
		t0 := time.Now()
		s1 := e.Snapshot()
		d := time.Since(t0)
		t.child(c, req, kSnapshotBuild, t0, d)
		ct.build = append(ct.build, d)
		t0 = time.Now()
		s2 := e.Snapshot()
		d = time.Since(t0)
		if s2 == s1 {
			t.child(c, req, kSnapshotHit, t0, d)
			ct.hit = append(ct.hit, d)
		}
	}
	if sp.subscribe && !now.Before(ct.nextSync) {
		ct.nextSync = now.Add(syncEvery)
		t0 := time.Now()
		e.Sync()
		d := time.Since(t0)
		t.child(c, req, kSync, t0, d)
		ct.sync = append(ct.sync, d)
	}
}

// spans returns every recorded span and the number dropped at the cap.
func (t *tracer) allSpans() ([]span, int) {
	var all []span
	dropped := 0
	for _, ct := range t.clients {
		all = append(all, ct.spans...)
		dropped += ct.dropped
	}
	return all, dropped
}

// selfTimes returns each layer's self time: its spans' durations minus the
// part of each interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent == 0 {
			continue
		}
		if p, ok := byID[s.parent]; ok {
			lo, hi := max(s.start, spans[p].start), min(s.end, spans[p].end)
			if hi > lo {
				self[p] -= hi - lo
			}
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		layer, _, _ := strings.Cut(kindNames[s.kind], ".")
		out[layer] += time.Duration(self[i])
	}
	return out
}

// writeSpans writes the spans as tab-separated lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreReplay is what replaying the traced commits into a bare
// core.FullyDynamic measured.
type coreReplay struct {
	insert, delete, groupby []time.Duration
	applyTotal              time.Duration
	stats                   core.Stats
	edges, components       int
}

// replayCore loads the live set the traced phase started from into a bare
// core.FullyDynamic, then replays the log in Apply-return order, timing
// every core call. Replay spans join the requests they replay.
func (t *tracer) replayCore(startIDs []dyndbscan.PointID, startPts []dyndbscan.Point, c *client) (coreReplay, error) {
	var r coreReplay
	f, err := core.NewFullyDynamic(core.Config{Dims: dims, Eps: eps, MinPts: minPts})
	if err != nil {
		return r, err
	}
	m := make(map[dyndbscan.PointID]core.PointID, len(startIDs))
	for i, p := range startPts {
		cid, err := f.Insert(p)
		if err != nil {
			return r, fmt.Errorf("core preload: %w", err)
		}
		m[startIDs[i]] = cid
	}
	for _, en := range t.log {
		if en.query != nil {
			q := make([]core.PointID, len(en.query))
			for i, id := range en.query {
				q[i] = m[id]
			}
			g0 := time.Now()
			if _, err := f.GroupBy(q); err != nil {
				return r, fmt.Errorf("core GroupBy: %w", err)
			}
			d := time.Since(g0)
			r.groupby = append(r.groupby, d)
			t.child(c, en.req, kCoreGroupBy, g0, d)
			continue
		}
		t0 := time.Now()
		for k, op := range en.ops {
			o0 := time.Now()
			if op.Kind == dyndbscan.OpInsert {
				cid, err := f.Insert(op.Pt)
				if err != nil {
					return r, fmt.Errorf("core Insert: %w", err)
				}
				r.insert = append(r.insert, time.Since(o0))
				m[en.ids[k]] = cid
				continue
			}
			cid, ok := m[op.ID]
			if !ok {
				return r, fmt.Errorf("core replay: delete of unknown handle %d", op.ID)
			}
			if err := f.Delete(cid); err != nil {
				return r, fmt.Errorf("core Delete: %w", err)
			}
			r.delete = append(r.delete, time.Since(o0))
			delete(m, op.ID)
		}
		d := time.Since(t0)
		r.applyTotal += d
		t.child(c, en.req, kCoreApply, t0, d)
	}
	r.stats = f.Stats()
	_, r.edges, r.components = f.GraphStats()
	return r, nil
}

// walReplay is what replaying the traced commits into a bare wal.Log
// measured.
type walReplay struct {
	appendLat, waitLat []time.Duration
	ops                int
	bytes              int64
}

// replayWAL appends up to maxWALReplay traced commits to a fresh log in dir
// under the workload's sync policy, SyncAlways: a WaitDurable per record.
func (t *tracer) replayWAL(dir string, c *client) (walReplay, error) {
	var r walReplay
	l, err := wal.Open(dir, wal.Options{MustCreate: true})
	if err != nil {
		return r, err
	}
	commits := 0
	for _, en := range t.log {
		if en.ops == nil {
			continue
		}
		if commits == maxWALReplay {
			break
		}
		commits++
		wops := make([]wal.Op, len(en.ops))
		for i, op := range en.ops {
			if op.Kind == dyndbscan.OpInsert {
				wops[i] = wal.Op{Kind: wal.OpInsert, Coord: op.Pt}
			} else {
				wops[i] = wal.Op{Kind: wal.OpDelete, ID: op.ID}
			}
		}
		t0 := time.Now()
		seq, err := l.Append(wops)
		d := time.Since(t0)
		if err != nil {
			l.Close()
			return r, fmt.Errorf("wal Append: %w", err)
		}
		w0 := time.Now()
		err = l.WaitDurable(seq)
		wd := time.Since(w0)
		if err != nil {
			l.Close()
			return r, fmt.Errorf("wal WaitDurable: %w", err)
		}
		r.appendLat = append(r.appendLat, d)
		r.waitLat = append(r.waitLat, wd)
		r.ops += len(wops)
		t.child(c, en.req, kWALAppend, t0, d)
		t.child(c, en.req, kWALWait, w0, wd)
	}
	if err := l.Close(); err != nil {
		return r, fmt.Errorf("wal Close: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return r, err
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".seg") {
			info, err := ent.Info()
			if err != nil {
				return r, err
			}
			r.bytes += info.Size()
		}
	}
	return r, nil
}

// traced runs an untraced phase and a traced phase of d/2 each and derives
// the per-layer metrics from the traced one; the spans go to spanPath. The
// returned record covers both phases.
func (b *bench) traced(d time.Duration, spanPath string) (map[string]metric, record, error) {
	e := b.eng
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	elU := b.phase(d/2, nil)
	runtime.ReadMemStats(&m1)
	recU := b.totals()
	if recU.err != nil {
		return nil, recU, nil
	}

	startIDs, startPts := b.liveSet()
	var ev0, ev1 int64
	if b.sub != nil {
		e.Sync()
		ev0 = b.sub.events.Load()
	}
	hs0, ws0 := e.HotspotStats(), e.WALStats()
	tr := newTracer(len(b.clients), ws0.Checkpoints)
	elT := b.phase(d/2, tr)
	recT := b.totals()
	hs1, ws1 := e.HotspotStats(), e.WALStats()
	loads, stripe := e.ShardLoads(), e.StripeCells()
	if b.sub != nil {
		e.Sync()
		ev1 = b.sub.events.Load()
	}
	rec := recT
	rec.attempted += recU.attempted
	rec.failed += recU.failed
	if rec.err != nil {
		return nil, rec, nil
	}

	c := b.clients[0]
	cr, err := tr.replayCore(startIDs, startPts, c)
	if err != nil {
		return nil, rec, err
	}
	var wr walReplay
	if b.sp.wal {
		if wr, err = tr.replayWAL(filepath.Join(b.scratch, "walreplay"), c); err != nil {
			return nil, rec, err
		}
	}
	spans, dropped := tr.allSpans()
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, rec, err
	}
	self := selfTimes(spans)

	var applySum time.Duration
	for _, l := range recT.applyLat {
		applySum += l
	}
	var build, hit, syncs, stalls []time.Duration
	for _, ct := range tr.clients {
		build = append(build, ct.build...)
		hit = append(hit, ct.hit...)
		syncs = append(syncs, ct.sync...)
		stalls = append(stalls, ct.stalls...)
	}
	ops, commits := float64(recT.ops), recT.commits
	count := func(v float64, n int) metric { return metric{Value: v, Unit: "count", Samples: n} }
	lm := map[string]metric{
		"core.insert_us":    {Value: us(mean(cr.insert)), Unit: "us", Samples: len(cr.insert)},
		"core.delete_us":    {Value: us(mean(cr.delete)), Unit: "us", Samples: len(cr.delete)},
		"core.groupby_us":   {Value: us(mean(cr.groupby)), Unit: "us", Samples: len(cr.groupby)},
		"core.share":        {Value: ratio(float64(cr.applyTotal), float64(applySum)), Unit: "ratio", Samples: commits},
		"core.cells":        count(float64(cr.stats.Cells), 1),
		"core.core_cells":   count(float64(cr.stats.CoreCells), 1),
		"core.cores":        count(float64(cr.stats.Cores), 1),
		"dyncon.edges":      count(float64(cr.edges), 1),
		"dyncon.components": count(float64(cr.components), 1),

		"engine.apply_us_per_op":    {Value: ratio(us(applySum), ops), Unit: "us", Samples: commits},
		"engine.overhead_us_per_op": {Value: ratio(us(applySum-cr.applyTotal), ops), Unit: "us", Samples: commits},
		"engine.ops_per_commit":     count(ratio(ops, float64(commits)), commits),

		"snapshot.fresh_ratio": {Value: ratio(float64(tr.fresh.Load()), float64(tr.queries.Load())), Unit: "ratio", Samples: int(tr.queries.Load())},
		"snapshot.build_ms":    {Value: ms(mean(build)), Unit: "ms", Samples: len(build)},
		"snapshot.hit_us":      {Value: us(mean(hit)), Unit: "us", Samples: len(hit)},

		"events.per_commit": count(ratio(float64(ev1-ev0), float64(commits)), commits),
		"events.sync_us":    {Value: us(mean(syncs)), Unit: "us", Samples: len(syncs)},

		"hotspot.staged_ratio": {Value: ratio(float64(hs1.ReconciledOps-hs0.ReconciledOps)+float64(hs1.StagedOps-hs0.StagedOps), float64(recT.inserts)), Unit: "ratio", Samples: recT.inserts},
		"hotspot.reconciles":   count(float64(hs1.Reconciles-hs0.Reconciles), 1),
		"hotspot.reconcile_ms": {Value: ms(deltaMean(hs0.MeanReconcile, hs0.Reconciles, hs1.MeanReconcile, hs1.Reconciles)), Unit: "ms", Samples: int(hs1.Reconciles - hs0.Reconciles)},
		"hotspot.splits":       count(float64(hs1.Splits-hs0.Splits), 1),
		"shard.imbalance":      {Value: imbalance(loads), Unit: "ratio", Samples: len(loads)},
		"shard.stripe_cells":   count(float64(stripe), 1),

		"wal.append_us":       {Value: us(mean(wr.appendLat)), Unit: "us", Samples: len(wr.appendLat)},
		"wal.wait_durable_us": {Value: us(mean(wr.waitLat)), Unit: "us", Samples: len(wr.waitLat)},
		"wal.bytes_per_op":    {Value: ratio(float64(wr.bytes), float64(wr.ops)), Unit: "B", Samples: wr.ops},
		"ckpt.captures":       count(float64(ws1.Checkpoints-ws0.Checkpoints), 1),
		"ckpt.chain_bytes":    {Value: float64(ws1.ChainBytes), Unit: "B", Samples: 1},
		"ckpt.chain_deltas":   count(float64(ws1.ChainDeltas), 1),
		"ckpt.stall_ms":       {Value: ms(mean(stalls)), Unit: "ms", Samples: len(stalls)},

		"process.alloc_bytes_per_op": {Value: ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(recU.ops)), Unit: "B", Samples: recU.ops},
		"process.gc_cycles":          count(float64(m1.NumGC-m0.NumGC), 1),
		"process.gc_pause_ms":        {Value: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, Unit: "ms", Samples: int(m1.NumGC - m0.NumGC)},

		"trace.overhead": {Value: 1 - ratio(float64(recT.ops)/elT.Seconds(), float64(recU.ops)/elU.Seconds()), Unit: "ratio", Samples: commits},
	}
	for _, cause := range []string{"threshold", "cool", "delete", "query", "sync", "checkpoint", "close", "split", "width"} {
		lm["hotspot.joins."+cause] = count(float64(hs1.Joins[cause]-hs0.Joins[cause]), 1)
	}
	for _, layer := range []string{"client", "engine", "snapshot", "events", "core", "wal"} {
		lm[layer+".self_ms"] = metric{Value: ms(self[layer]), Unit: "ms", Samples: len(spans) - dropped}
	}
	return lm, rec, nil
}

// deltaMean returns the mean of the events counted between two cumulative
// (mean, count) readings.
func deltaMean(m0 time.Duration, n0 uint64, m1 time.Duration, n1 uint64) time.Duration {
	if n1 <= n0 {
		return 0
	}
	return (m1*time.Duration(n1) - m0*time.Duration(n0)) / time.Duration(n1-n0)
}

// imbalance returns the largest shard's resident points over the mean.
func imbalance(loads []dyndbscan.ShardLoad) float64 {
	if len(loads) == 0 {
		return 0
	}
	total, most := 0, 0
	for _, l := range loads {
		total += l.Points
		most = max(most, l.Points)
	}
	return ratio(float64(most), float64(total)/float64(len(loads)))
}
