package dyndbscan

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dyndbscan/internal/core"
)

// ErrDuplicateID is wrapped by DeleteBatch (and Apply) when the same live
// handle appears twice in one batch — distinguishable from ErrUnknownPoint so
// callers that skip already-gone points do not skip live ones.
var ErrDuplicateID = errors.New("dyndbscan: duplicate point id in batch")

// ClusterID is the stable identity of a cluster. Identities survive every
// update that does not merge or split the cluster: inserting into, deleting
// from, or querying a cluster never changes its id. A merge keeps one of the
// two ids; a split keeps the old id on one fragment and mints fresh ids for
// the rest.
type ClusterID = core.ClusterID

// Event describes one step of cluster evolution; see EventKind.
type Event = core.Event

// EventKind enumerates the cluster-evolution events an Engine emits.
type EventKind = core.EventKind

// The event kinds delivered to Subscribe callbacks.
const (
	EventClusterFormed    = core.EventClusterFormed
	EventClusterMerged    = core.EventClusterMerged
	EventClusterSplit     = core.EventClusterSplit
	EventClusterDissolved = core.EventClusterDissolved
	EventPointBecameCore  = core.EventPointBecameCore
	EventPointBecameNoise = core.EventPointBecameNoise
)

// extendedClusterer is the capability surface the built-in algorithms
// provide beyond the plain Clusterer contract: stable cluster identities and
// an event stream. Foreign Clusterer implementations wrapped with Wrap may
// lack it, in which case the Engine degrades gracefully (snapshot cluster
// ids are per-snapshot group indices and no events are emitted).
type extendedClusterer interface {
	Clusterer
	ClusterOf(PointID) ([]ClusterID, bool)
	SetEventFunc(func(Event))
}

// stagedInserter is the capability behind pipelined ingestion: a backend
// that accepts points whose validation, cloning, and grid cell assignment
// already happened in the parallel pre-commit phase.
type stagedInserter interface {
	InsertStaged(core.StagedPoint) (PointID, error)
}

// Engine is the recommended entry point of this package: a service-ready
// facade over one of the dynamic clustering algorithms, adding batch
// updates, stable cluster identities, versioned snapshots, a change-event
// stream, and (by default) thread safety.
//
// Construct one with New:
//
//	e, err := dyndbscan.New(
//		dyndbscan.WithAlgorithm(dyndbscan.AlgoFullyDynamic),
//		dyndbscan.WithEps(10), dyndbscan.WithMinPts(5),
//	)
//
// # Concurrency
//
// With thread safety on (the default) every method is safe for concurrent
// use, and the Engine runs a phase-split concurrent architecture:
//
//   - Lock-free read path. The current Snapshot is published through an
//     atomic pointer. Once a snapshot for the current version exists,
//     Snapshot, ClusterOf, Members, Version, GroupBy, and GroupAll are
//     served from it without touching any lock, so read throughput scales
//     with reader goroutines. Snapshot construction itself is parallelized
//     across the configured workers on the fully-dynamic algorithm.
//   - Pipelined batch ingestion. InsertBatch and Apply stage their points
//     (validation, coordinate conversion, grid cell assignment) across
//     WithWorkers-many goroutines before entering the commit phase that
//     runs the actual clustering update.
//   - Async event dispatch. Each subscriber owns a buffered queue drained
//     by its own dispatcher goroutine, so a slow callback never stalls
//     commits; see Subscribe for the overflow policies and Sync for a
//     delivery barrier.
//
// Space is partitioned into grid-aligned stripes, each shard owning its own
// backend behind its own lock, so updates touching disjoint shards commit
// concurrently (WithShards; one shard by default). Each successful update
// advances Version, invalidating the cached snapshot (an epoch scheme:
// snapshot readers never observe a half-applied update). On a one-shard
// Engine a query that finds no fresh snapshot is answered by the backend
// under the shard lock, shared between readers on AlgoFullyDynamic and
// briefly exclusive on the other algorithms; a sharded Engine answers it
// from the stitched cross-shard snapshot. Stripe placement is load-aware:
// commits feed per-stripe load accounts and hot stripes migrate to
// underloaded shards (WithRebalance / Rebalance) without disturbing
// handles, ClusterIDs, or the event stream.
type Engine struct {
	threadSafe bool // false: events are delivered synchronously (WithThreadSafety)
	roQueries  bool // backend GroupBy/ClusterOf are read-only (AlgoFullyDynamic)
	algo       Algorithm
	cfg        Config
	workers    int

	// version is the engine epoch and snap the snapshot publication slot;
	// both are written inside the update critical section and read lock-free
	// on the query fast path.
	//
	//dynlint:visibility
	version atomic.Uint64
	//dynlint:visibility
	snap atomic.Pointer[Snapshot]

	// sh holds the shards, their backends, and the routing and stitching
	// state; every update and query path runs through it (shard.go).
	sh *shardSet

	// wal is the durability attachment (WithWAL / Open), nil otherwise; see
	// persist.go.
	wal *walState

	// Event fan-out state; see events.go. Publications are ordered by
	// tickets: pubTicket is assigned inside the update critical section
	// (takeTicket), and pubNext/pubCond admit publishers in ticket order —
	// so per-subscriber event streams preserve commit order while no engine
	// lock is ever held across a blocking enqueue. All three are guarded by
	// pubMu.
	//
	//dynlint:visibility
	pubTicket uint64
	//dynlint:lock-level 80
	pubMu   sync.Mutex
	pubCond sync.Cond // signals pubNext advances; Wait on pubMu
	pubNext uint64
	//dynlint:lock-level 90
	subMu   sync.Mutex
	subs    map[int]*subscriber
	nextSub int
}

// New builds an Engine from functional options. WithEps and WithMinPts are
// required; everything else has production defaults (AlgoFullyDynamic,
// 2 dimensions, ρ = 0.001, one shard, thread safety on, one staging worker
// per CPU).
func New(opts ...Option) (*Engine, error) {
	s := newSettings()
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(s)
	if err != nil {
		return nil, err
	}
	if s.walDir != "" {
		if err := e.attachWAL(s, s.walDir, false); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newEngine builds the Engine for the settings' algorithm and shard count
// (New and Open).
func newEngine(s *engineSettings) (*Engine, error) {
	backends := make([]Clusterer, s.shards)
	for i := range backends {
		c, err := newBackend(s.algo, s.cfg)
		if err != nil {
			return nil, err
		}
		backends[i] = c
	}
	return newShardedEngine(s, s.algo, backends), nil
}

// newBackend constructs one bare clusterer for the algorithm.
func newBackend(algo Algorithm, cfg Config) (Clusterer, error) {
	switch algo {
	case AlgoFullyDynamic:
		return NewFullyDynamic(cfg)
	case AlgoSemiDynamic:
		return NewSemiDynamic(cfg)
	case AlgoIncDBSCAN:
		return NewIncDBSCAN(cfg)
	case AlgoIncDBSCANRTree:
		return NewIncDBSCANRTree(cfg)
	default:
		return nil, fmt.Errorf("dyndbscan: unknown algorithm %v", algo)
	}
}

// Wrap adapts an existing Clusterer — including the deprecated NewSemiDynamic /
// NewFullyDynamic / NewIncDBSCAN values, possibly already populated — into a
// one-shard Engine with thread safety on. The Engine assumes exclusive
// ownership: mutate the clusterer only through the Engine from then on.
// Prefer New unless you already hold a clusterer. A foreign implementation
// without ClusterOf/SetEventFunc gets per-snapshot group indices as cluster
// ids and emits no events.
func Wrap(c Clusterer) *Engine {
	algo := AlgoCustom
	switch c.(type) {
	case *FullyDynamic:
		algo = AlgoFullyDynamic
	case *SemiDynamic:
		algo = AlgoSemiDynamic
	case *IncDBSCAN:
		algo = AlgoIncDBSCAN
	}
	return newShardedEngine(newSettings(), algo, []Clusterer{c})
}

// Algorithm returns which algorithm the Engine runs (AlgoCustom for foreign
// backends adopted via Wrap).
func (e *Engine) Algorithm() Algorithm { return e.algo }

// Config returns the clustering parameters.
func (e *Engine) Config() Config { return e.cfg }

// Workers returns the resolved worker count used for pipelined staging and
// parallel snapshot construction.
func (e *Engine) Workers() int { return e.workers }

// compactLiveIDs removes tombstoned handles from ids and restores ascending
// order lazily, returning the compacted slice and the tombstone set to use
// from now on: a fresh map once the old one held entries (a cleared map
// keeps its buckets, which a burst of deletes can make large).
func compactLiveIDs(ids []PointID, dead map[PointID]struct{}, sorted *bool) ([]PointID, map[PointID]struct{}) {
	if len(dead) > 0 {
		w := 0
		for _, id := range ids {
			if _, d := dead[id]; !d {
				ids[w] = id
				w++
			}
		}
		ids = ids[:w]
		dead = make(map[PointID]struct{})
	}
	if !*sorted {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		*sorted = true
	}
	return ids, dead
}

// Insert adds one point and returns its handle.
func (e *Engine) Insert(pt Point) (PointID, error) {
	ss := e.sh
	sp, err := ss.stager.Stage(pt)
	if err != nil {
		return 0, err
	}
	if ss.hs != nil {
		if out, ok, err := ss.hotCommit([]core.StagedPoint{sp}); ok {
			if err != nil {
				return 0, err
			}
			return out[0], nil
		}
	}
	out, err := ss.commitBatch([]shOp{{insert: true, sp: sp}}, nil, nil)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// InsertBatch adds many points under one commit, validating and staging
// every point — in parallel across the configured workers for large batches
// — before the first insertion, so a malformed point fails the batch cleanly
// (no state change, ErrBadPoint with the offending index).
func (e *Engine) InsertBatch(pts []Point) ([]PointID, error) {
	ss := e.sh
	staged, err := ss.stage(pts, "InsertBatch point", nil)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, nil
	}
	if ss.hs != nil {
		if out, ok, err := ss.hotCommit(staged); ok {
			return out, err
		}
	}
	ops := make([]shOp, len(staged))
	for i, sp := range staged {
		ops[i] = shOp{insert: true, sp: sp}
	}
	return ss.commitBatch(ops, nil, func(i int, err error) error {
		return fmt.Errorf("dyndbscan: InsertBatch aborted at point %d: %w", i, err)
	})
}

// Delete removes one point.
func (e *Engine) Delete(id PointID) error {
	ss := e.sh
	if e.algo == AlgoSemiDynamic {
		return ErrDeletesUnsupported
	}
	ss.joinForDelete([]PointID{id})
	_, err := ss.commitBatch([]shOp{{gid: id}}, func(int, PointID) error {
		return ErrUnknownPoint
	}, nil)
	return err
}

// DeleteBatch removes many points under one commit. The whole batch is
// validated first: an unknown or duplicated id fails the batch with
// ErrUnknownPoint / ErrDuplicateID before any point is removed.
func (e *Engine) DeleteBatch(ids []PointID) error {
	ss := e.sh
	if len(ids) == 0 {
		return nil
	}
	ss.joinForDelete(ids)
	// Validation in ascending index order, a duplicate before existence.
	seen := make(map[PointID]struct{}, len(ids))
	for i, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("dyndbscan: DeleteBatch id %d duplicated at index %d: %w", id, i, ErrDuplicateID)
		}
		seen[id] = struct{}{}
		if !ss.has(id) {
			return fmt.Errorf("dyndbscan: DeleteBatch index %d: %w (id %d)", i, ErrUnknownPoint, id)
		}
	}
	if e.algo == AlgoSemiDynamic {
		// The insertion-only backend rejects the first delete; no state has
		// changed at that point.
		return fmt.Errorf("dyndbscan: DeleteBatch aborted at index 0: %w", ErrDeletesUnsupported)
	}
	ops := make([]shOp, len(ids))
	for i, id := range ids {
		ops[i] = shOp{gid: id}
	}
	_, err := ss.commitBatch(ops, func(i int, id PointID) error {
		return fmt.Errorf("dyndbscan: DeleteBatch index %d: %w (id %d)", i, ErrUnknownPoint, id)
	}, func(i int, err error) error {
		return fmt.Errorf("dyndbscan: DeleteBatch aborted at index %d: %w", i, err)
	})
	return err
}

// currentSnapshot returns the published snapshot when it matches the current
// version, without taking any lock. The snapshot pointer is loaded before
// the version: if the (immutable) snapshot carries the version read
// afterwards, it was current at that instant.
func (e *Engine) currentSnapshot() *Snapshot {
	if s := e.snap.Load(); s != nil && s.Version == e.version.Load() {
		return s
	}
	return nil
}

// freshSnapshot returns the published snapshot when it is current, after
// folding staged hotspot inserts: a clustering query is a join trigger, and
// staged inserts do not advance the version, so the cached snapshot must not
// answer for them until they reconcile (which does advance it).
func (e *Engine) freshSnapshot() *Snapshot {
	if e.sh.stagedVisible() {
		e.sh.joinAll(joinQuery)
	}
	return e.currentSnapshot()
}

// GroupBy answers a C-group-by query over the given handles. Served from the
// cached snapshot — without locking — when one exists for the current
// version, else from the live structure (one shard) or the stitched snapshot
// (sharded).
func (e *Engine) GroupBy(q []PointID) (Result, error) {
	if s := e.freshSnapshot(); s != nil {
		return s.GroupBy(q)
	}
	if e.sh.one {
		sh, unlock := e.sh.queryShard(e.roQueries)
		defer unlock()
		return sh.b.GroupBy(q)
	}
	return e.Snapshot().GroupBy(q)
}

// GroupAll returns the full current clustering (the degenerate C-group-by
// query with Q = P), computed atomically with respect to updates.
func (e *Engine) GroupAll() (Result, error) {
	if s := e.freshSnapshot(); s != nil {
		return s.GroupAll(), nil
	}
	if e.sh.one {
		sh, unlock := e.sh.queryShard(e.roQueries)
		defer unlock()
		return GroupAll(sh.b)
	}
	return e.Snapshot().GroupAll(), nil
}

// Len returns the number of points currently stored.
func (e *Engine) Len() int {
	// Staged hotspot inserts are live handles but absent from the cached
	// snapshot (they have not advanced the version); the staged-aware route
	// tables count them.
	if !e.sh.stagedVisible() {
		if s := e.currentSnapshot(); s != nil {
			return len(s.byPoint)
		}
	}
	return e.sh.len()
}

// IDs returns every live handle.
func (e *Engine) IDs() []PointID {
	return e.sh.ids()
}

// Has reports whether the handle is live.
func (e *Engine) Has(id PointID) bool {
	if !e.sh.stagedVisible() {
		if s := e.currentSnapshot(); s != nil {
			_, ok := s.byPoint[id]
			return ok
		}
	}
	return e.sh.has(id)
}

// Version returns the Engine's epoch: it starts at 0 and advances by one on
// every successful update (a batch counts once; on a sharded Engine a stripe
// migration counts as one update too, since it re-places live state). A
// Snapshot carries the version it was taken at. Version never takes a lock.
func (e *Engine) Version() uint64 {
	return e.version.Load()
}

// ClusterOf returns the stable cluster ids the point belongs to right now
// (empty for a live noise point; a border point may list several) and
// whether the point is live. Served lock-free from the cached snapshot when
// fresh, else from the live structure.
func (e *Engine) ClusterOf(id PointID) ([]ClusterID, bool) {
	if s := e.freshSnapshot(); s != nil {
		return s.ClusterOf(id)
	}
	if e.sh.one && !e.sh.groupIDs {
		sh, unlock := e.sh.queryShard(e.roQueries)
		defer unlock()
		return sh.b.ClusterOf(id)
	}
	return e.Snapshot().ClusterOf(id)
}

// Members returns the sorted member points of the cluster in the current
// snapshot (nil when the id names no live cluster).
func (e *Engine) Members(id ClusterID) []PointID {
	return e.Snapshot().Members(id)
}

// Snapshot returns a consistent, immutable view of the current clustering.
// Snapshots are cached per version and published through an atomic pointer:
// once some reader has built the snapshot of an epoch, every further read of
// that epoch is lock-free, so the amortized cost under a read-heavy load is
// one full-clustering pass per epoch — and zero lock traffic between epochs.
func (e *Engine) Snapshot() *Snapshot {
	if s := e.freshSnapshot(); s != nil {
		return s
	}
	return e.sh.snapshot()
}

// resolveMembers fills s with the memberships of ids (which must be
// ascending), resolving each through resolve; ids whose resolve reports
// ok=false are skipped. With workers > 1 the id space is partitioned across
// goroutines and the per-worker results merge in partition order, so
// cluster member lists come out ascending exactly as the serial walk
// produces them — resolve must then be safe for concurrent use (read-only
// ClusterOf backends, i.e. AlgoFullyDynamic).
func resolveMembers(s *Snapshot, ids []PointID, workers int, resolve func(PointID) ([]ClusterID, bool)) {
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for _, id := range ids {
			if cids, ok := resolve(id); ok {
				s.addPoint(id, cids)
			}
		}
		return
	}
	type entry struct {
		id   PointID
		cids []ClusterID
	}
	parts := make([][]entry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(ids) / workers
		hi := (w + 1) * len(ids) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			part := make([]entry, 0, hi-lo)
			for _, id := range ids[lo:hi] {
				if cids, ok := resolve(id); ok {
					part = append(part, entry{id, cids})
				}
			}
			parts[w] = part
		}(w, lo, hi)
	}
	wg.Wait()
	for _, part := range parts {
		for _, en := range part {
			s.addPoint(en.id, en.cids)
		}
	}
}

var _ Clusterer = (*Engine)(nil)
