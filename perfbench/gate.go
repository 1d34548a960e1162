package main

import (
	"fmt"
	"slices"

	"dyndbscan"
	"dyndbscan/internal/core"
)

// checkApply checks that Apply returned one handle per op and echoed every
// delete target.
func checkApply(ops []dyndbscan.Op, ids []dyndbscan.PointID) error {
	if len(ids) != len(ops) {
		return fmt.Errorf("%d handles for %d ops", len(ids), len(ops))
	}
	for k, op := range ops {
		if op.Kind == dyndbscan.OpDelete && ids[k] != op.ID {
			return fmt.Errorf("op %d deletes %d but returned %d", k, op.ID, ids[k])
		}
	}
	return nil
}

// checkCovers checks that a GroupBy result names exactly the queried
// handles: each one in the noise or in at least one group, never both, and
// nothing else.
func checkCovers(q []dyndbscan.PointID, res dyndbscan.Result) error {
	const inNoise, inGroup = 1, 2
	state := make(map[dyndbscan.PointID]uint8, len(q))
	for _, id := range q {
		state[id] = 0
	}
	for _, id := range res.Noise {
		if s, ok := state[id]; !ok || s != 0 {
			return fmt.Errorf("noise handle %d not queried or listed twice", id)
		}
		state[id] = inNoise
	}
	for _, g := range res.Groups {
		for _, id := range g {
			if s, ok := state[id]; !ok || s == inNoise {
				return fmt.Errorf("group handle %d not queried or also noise", id)
			}
			state[id] = inGroup
		}
	}
	for id, s := range state {
		if s == 0 {
			return fmt.Errorf("queried handle %d missing from the result", id)
		}
	}
	return nil
}

// reference clusters pts with a fresh single-threaded core.FullyDynamic and
// returns its partition in the caller's handles ids (exact at ρ = 0).
func reference(ids []dyndbscan.PointID, pts []dyndbscan.Point) (dyndbscan.Result, error) {
	f, err := core.NewFullyDynamic(core.Config{Dims: dims, Eps: eps, MinPts: minPts})
	if err != nil {
		return dyndbscan.Result{}, err
	}
	back := make(map[core.PointID]dyndbscan.PointID, len(ids))
	q := make([]core.PointID, len(ids))
	for i, p := range pts {
		cid, err := f.Insert(p)
		if err != nil {
			return dyndbscan.Result{}, fmt.Errorf("reference Insert: %w", err)
		}
		back[cid] = ids[i]
		q[i] = cid
	}
	res, err := f.GroupBy(q)
	if err != nil {
		return dyndbscan.Result{}, fmt.Errorf("reference GroupBy: %w", err)
	}
	return translate(res, back), nil
}

// translate renames a result's handles through m and re-normalizes it.
func translate(res core.Result, m map[core.PointID]dyndbscan.PointID) dyndbscan.Result {
	var out dyndbscan.Result
	for _, g := range res.Groups {
		ng := make([]dyndbscan.PointID, len(g))
		for i, id := range g {
			ng[i] = m[id]
		}
		out.Groups = append(out.Groups, ng)
	}
	for _, id := range res.Noise {
		out.Noise = append(out.Noise, m[id])
	}
	out.Normalize()
	return out
}

// samePartition compares two normalized results exactly.
func samePartition(got, want dyndbscan.Result) error {
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d clusters, want %d", len(got.Groups), len(want.Groups))
	}
	if !slices.Equal(got.Noise, want.Noise) {
		return fmt.Errorf("noise differs: %d points, want %d", len(got.Noise), len(want.Noise))
	}
	for i := range got.Groups {
		if !slices.Equal(got.Groups[i], want.Groups[i]) {
			return fmt.Errorf("cluster %d differs: %d members, want %d", i, len(got.Groups[i]), len(want.Groups[i]))
		}
	}
	return nil
}

// checkFinal compares the engine's full clustering with the reference built
// from the live set the clients hold.
func checkFinal(e *dyndbscan.Engine, ids []dyndbscan.PointID, pts []dyndbscan.Point) error {
	if n := e.Len(); n != len(ids) {
		return fmt.Errorf("engine holds %d points, clients hold %d", n, len(ids))
	}
	got, err := e.GroupAll()
	if err != nil {
		return fmt.Errorf("GroupAll: %w", err)
	}
	want, err := reference(ids, pts)
	if err != nil {
		return err
	}
	if err := samePartition(got, want); err != nil {
		return fmt.Errorf("final clustering vs single-threaded reference: %w", err)
	}
	return nil
}

// checkFold compares the subscriber's folded cluster ids with the snapshot's
// after a delivery barrier.
func checkFold(e *dyndbscan.Engine, f *fold) error {
	e.Sync()
	want := e.Snapshot().ClusterIDs()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.live) != len(want) {
		return fmt.Errorf("subscriber folded %d live clusters, snapshot has %d", len(f.live), len(want))
	}
	for _, id := range want {
		if _, ok := f.live[id]; !ok {
			return fmt.Errorf("snapshot cluster %d missing from the subscriber's fold", id)
		}
	}
	return nil
}

// checkRecovered compares an engine recovered by Open with the state its log
// was closed in.
func checkRecovered(e *dyndbscan.Engine, n int, want dyndbscan.Result) error {
	if got := e.Len(); got != n {
		return fmt.Errorf("recovered %d points, closed with %d", got, n)
	}
	got, err := e.GroupAll()
	if err != nil {
		return fmt.Errorf("recovered GroupAll: %w", err)
	}
	if err := samePartition(got, want); err != nil {
		return fmt.Errorf("recovered clustering vs closed state: %w", err)
	}
	return nil
}
