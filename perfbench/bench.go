package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dyndbscan"
)

// client is one closed-loop caller: its input stream, its live handles
// (oldest first) and what it recorded in the current phase.
type client struct {
	id     int
	s      *stream
	live   ring
	rng    *rand.Rand
	calls  int
	picked map[int]struct{}
	rec    record
}

// record is what one client observed in one phase.
type record struct {
	applyLat  []time.Duration
	queryLat  []time.Duration
	ops       int
	inserts   int
	commits   int
	attempted int
	failed    int
	err       error
	end       time.Time
}

func (r *record) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// bench is one run of one workload.
type bench struct {
	sp      *spec
	seed    int64
	live    int
	scratch string // run directory for logs and copies; removed at the end
	streams []*stream

	eng     *dyndbscan.Engine
	walDir  string
	clients []*client
	sub     *fold
}

func newBench(sp *spec, seed int64, live int, scratch string) *bench {
	rng := rand.New(rand.NewSource(seed))
	fresh := 3 * live / sp.clients
	return &bench{
		sp:      sp,
		seed:    seed,
		live:    live,
		scratch: scratch,
		streams: makeStreams(rng, sp.gen, sp.clients, live, fresh),
	}
}

// setup builds the engine and loads the live set; the returned duration is
// the set-up time a user would wait. Each call starts from the same inputs.
func (b *bench) setup(dir string) (time.Duration, error) {
	b.clients = make([]*client, b.sp.clients)
	for i := range b.clients {
		b.clients[i] = &client{
			id:     i,
			s:      &stream{pts: b.streams[i].pts},
			rng:    rand.New(rand.NewSource(b.seed*1000 + int64(i) + 1)),
			picked: make(map[int]struct{}),
		}
	}
	b.walDir = dir
	start := time.Now()
	e, err := dyndbscan.New(b.sp.options(dir)...)
	if err != nil {
		return 0, fmt.Errorf("New: %w", err)
	}
	b.eng = e
	// One bulk Apply. In smaller batches the hotspot policy would make the
	// stripes hot while loading and split the busiest for good, a placement
	// the workload's own traffic never produces.
	owner := make([]*client, b.live)
	ops := make([]dyndbscan.Op, b.live)
	for j := range ops {
		owner[j] = b.clients[j%len(b.clients)]
		ops[j] = dyndbscan.InsertOp(owner[j].s.take())
	}
	ids, err := e.Apply(ops)
	if err == nil {
		err = checkApply(ops, ids)
	}
	if err != nil {
		return 0, fmt.Errorf("preload Apply: %w", err)
	}
	for k, id := range ids {
		owner[k].live.push(id, ops[k].Pt)
	}
	return time.Since(start), nil
}

// attachSubscriber subscribes the folding subscriber to the loaded engine.
// Nothing commits meanwhile, so the snapshot's cluster ids are the fold's
// starting point.
func (b *bench) attachSubscriber() {
	b.sub = &fold{live: make(map[dyndbscan.ClusterID]struct{})}
	b.eng.Subscribe(b.sub.on)
	b.eng.Sync()
	for _, id := range b.eng.Snapshot().ClusterIDs() {
		b.sub.live[id] = struct{}{}
	}
}

// phase runs every client in a closed loop for d and returns the wall time
// until the last client finished its last call. tr is nil on untraced
// phases.
func (b *bench) phase(d time.Duration, tr *tracer) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range b.clients {
		c.rec = record{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && c.rec.err == nil {
				b.step(c, tr)
			}
			c.rec.end = time.Now()
		}(c)
	}
	wg.Wait()
	var end time.Time
	for _, c := range b.clients {
		if c.rec.end.After(end) {
			end = c.rec.end
		}
	}
	return end.Sub(start)
}

// step issues one Apply and, on query workloads, one GroupBy.
func (b *bench) step(c *client, tr *tracer) {
	e := b.eng
	c.calls++
	req := tr.begin(c)
	ops := b.sp.nextOps(c)
	ids, t0, lat, ok := b.commit(c, ops)
	if !ok {
		return
	}
	c.rec.applyLat = append(c.rec.applyLat, lat)
	c.rec.ops += len(ops)
	c.rec.commits++
	if tr != nil {
		tr.applied(c, req, t0, lat, ops, ids)
		if b.sp.wal {
			tr.checkpoints(c, e.WALStats().Checkpoints, lat)
		}
		tr.sample(c, req, e, b.sp)
	}
	if b.sp.query {
		q := nextQuery(c)
		if tr != nil {
			tr.noteVersion(e.Version())
		}
		t0, lat, ok := b.query(c, q)
		if !ok {
			return
		}
		if tr != nil {
			tr.queried(c, req, t0, lat, q)
		}
	}
	tr.end(c, req)
}

// commit sends ops through Apply, checks the answer and gives the new
// handles to the client.
func (b *bench) commit(c *client, ops []dyndbscan.Op) (ids []dyndbscan.PointID, t0 time.Time, lat time.Duration, ok bool) {
	t0 = time.Now()
	ids, err := b.eng.Apply(ops)
	lat = time.Since(t0)
	c.rec.attempted++
	if err == nil {
		err = checkApply(ops, ids)
	}
	if err != nil {
		c.rec.fail(fmt.Errorf("Apply: %w", err))
		return nil, t0, lat, false
	}
	for k, op := range ops {
		if op.Kind == dyndbscan.OpInsert {
			c.live.push(ids[k], op.Pt)
			c.rec.inserts++
		}
	}
	return ids, t0, lat, true
}

// query sends a GroupBy of q, checks the answer and records its latency.
func (b *bench) query(c *client, q []dyndbscan.PointID) (t0 time.Time, lat time.Duration, ok bool) {
	t0 = time.Now()
	res, err := b.eng.GroupBy(q)
	lat = time.Since(t0)
	c.rec.attempted++
	if err == nil {
		err = checkCovers(q, res)
	}
	if err != nil {
		c.rec.fail(fmt.Errorf("GroupBy: %w", err))
		return t0, lat, false
	}
	c.rec.queryLat = append(c.rec.queryLat, lat)
	return t0, lat, true
}

// totals merges the clients' records of the last phase.
func (b *bench) totals() record {
	var t record
	for _, c := range b.clients {
		r := &c.rec
		t.applyLat = append(t.applyLat, r.applyLat...)
		t.queryLat = append(t.queryLat, r.queryLat...)
		t.ops += r.ops
		t.inserts += r.inserts
		t.commits += r.commits
		t.attempted += r.attempted
		t.failed += r.failed
		if t.err == nil {
			t.err = r.err
		}
	}
	return t
}

// liveSet returns every live handle with its point, in handle order.
func (b *bench) liveSet() ([]dyndbscan.PointID, []dyndbscan.Point) {
	type hp struct {
		id dyndbscan.PointID
		p  dyndbscan.Point
	}
	var all []hp
	for _, c := range b.clients {
		c.live.each(func(id dyndbscan.PointID, p dyndbscan.Point) { all = append(all, hp{id, p}) })
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	ids := make([]dyndbscan.PointID, len(all))
	pts := make([]dyndbscan.Point, len(all))
	for i, x := range all {
		ids[i], pts[i] = x.id, x.p
	}
	return ids, pts
}

// probeQueries times queries for d on a workload whose clients send none:
// client 0 commits one fresh point, then asks a GroupBy of 2..100 of its
// live handles, which must fold staged inserts and build the new version's
// snapshot first. Only the GroupBy is timed.
func (b *bench) probeQueries(d time.Duration) record {
	c := b.clients[0]
	c.rec = record{}
	for deadline := time.Now().Add(d); time.Now().Before(deadline) && c.rec.err == nil; {
		if _, _, _, ok := b.commit(c, []dyndbscan.Op{dyndbscan.InsertOp(c.s.take())}); ok {
			b.query(c, nextQuery(c))
		}
	}
	return c.rec
}

// sealLog closes the workload's engine and returns a closed log holding the
// final live state and that state's partition: the workload's own log, or on
// workloads without one, a single-shard log loaded with the live set.
func (b *bench) sealLog() (dir string, n int, want dyndbscan.Result, err error) {
	e, dir := b.eng, b.walDir
	if !b.sp.wal {
		if err := e.Close(); err != nil {
			return "", 0, want, fmt.Errorf("Close: %w", err)
		}
		dir = filepath.Join(b.scratch, "seal")
		e, err = dyndbscan.New(append(baseOptions(), dyndbscan.WithWAL(dir, dyndbscan.SyncEvery(0)))...)
		if err != nil {
			return "", 0, want, fmt.Errorf("seal New: %w", err)
		}
		_, pts := b.liveSet()
		ops := make([]dyndbscan.Op, len(pts))
		for i, p := range pts {
			ops[i] = dyndbscan.InsertOp(p)
		}
		if _, err := e.Apply(ops); err != nil {
			return "", 0, want, fmt.Errorf("seal Apply: %w", err)
		}
	}
	n = e.Len()
	if want, err = e.GroupAll(); err != nil {
		return "", 0, want, fmt.Errorf("GroupAll before Close: %w", err)
	}
	if err := e.Close(); err != nil {
		return "", 0, want, fmt.Errorf("Close: %w", err)
	}
	// Recoveries are timed next; the closed engine must not weigh on their
	// collections.
	b.eng = nil
	return dir, n, want, nil
}

// recoverTimes opens k copies of the closed log in dir. It returns the Open
// durations; the first recovered engine must hold n points partitioned as
// want, and stats is its WALStats.
func (b *bench) recoverTimes(dir string, k int, n int, want dyndbscan.Result) (times []time.Duration, stats dyndbscan.WALStats, err error) {
	for i := 0; i < k; i++ {
		cp := filepath.Join(b.scratch, fmt.Sprintf("open%d", i))
		if err := copyDir(dir, cp); err != nil {
			return nil, stats, err
		}
		runtime.GC()
		t0 := time.Now()
		e, err := dyndbscan.Open(cp)
		d := time.Since(t0)
		if err != nil {
			return nil, stats, fmt.Errorf("Open: %w", err)
		}
		times = append(times, d)
		if i == 0 {
			stats = e.WALStats()
			err = checkRecovered(e, n, want)
		}
		if cerr := e.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("Close recovered engine: %w", cerr)
		}
		if rerr := os.RemoveAll(cp); err == nil && rerr != nil {
			err = rerr
		}
		if err != nil {
			return nil, stats, err
		}
	}
	return times, stats, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fold rebuilds the live cluster-id set from the event stream.
type fold struct {
	mu     sync.Mutex
	live   map[dyndbscan.ClusterID]struct{}
	events atomic.Int64
}

func (f *fold) on(ev dyndbscan.Event) {
	f.events.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	switch ev.Kind {
	case dyndbscan.EventClusterFormed:
		f.live[ev.Cluster] = struct{}{}
	case dyndbscan.EventClusterDissolved:
		delete(f.live, ev.Cluster)
	case dyndbscan.EventClusterMerged:
		delete(f.live, ev.Absorbed)
	case dyndbscan.EventClusterSplit:
		for _, id := range ev.Fragments {
			f.live[id] = struct{}{}
		}
	}
}

var errGate = errors.New("correctness gate failed")
