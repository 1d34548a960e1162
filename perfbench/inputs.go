package main

import (
	"math/rand"

	"dyndbscan"
	"dyndbscan/internal/workload"
)

// All workloads cluster 2-D points in [0, space]^2 with the paper's
// parameters for d = 2: ε = 100·d, MinPts = 10. ρ = 0 makes the clustering
// a pure function of the live point set, so every run can be checked exactly.
const (
	dims   = 2
	eps    = 200.0
	minPts = 10
	space  = 1e5
)

// stream is one client's cyclic input sequence: its share of the preload
// first, then fresh points. A client inserts the points in order and deletes
// its oldest live handle, so when the sequence wraps, the point it reuses was
// deleted long before (the sequence is longer than the client's live share
// plus one batch). The live set therefore stays a stationary sample of the
// generated data however long a run lasts.
type stream struct {
	pts  []dyndbscan.Point
	next int
}

func (s *stream) take() dyndbscan.Point {
	p := s.pts[s.next]
	s.next++
	if s.next == len(s.pts) {
		s.next = 0
	}
	return p
}

// flatPoints returns n empty 2-D points backed by one allocation.
func flatPoints(n int) []dyndbscan.Point {
	flat := make([]float64, n*dims)
	pts := make([]dyndbscan.Point, n)
	for i := range pts {
		pts[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return pts
}

// spreaderWalks is the number of walks in one seed-spreader dataset: the
// first and the paper's RestartCount (10) restarts. The generator restarts at
// random, about RestartCount times, so the number of walks varies from seed to
// seed, and with it the work per op: churn's throughput differed by 9%
// between two seeds, each repeated within 1%. Here every dataset is
// spreaderWalks walks of equal length.
const spreaderWalks = 11

// seedSpreaderPoints draws n points from the paper's seed spreader
// (Section 8.1), spreaderWalks walks each from its own random start, in
// random order, so any window of the sequence is a uniform sample of one
// dataset.
func seedSpreaderPoints(rng *rand.Rand, n int) []dyndbscan.Point {
	p := workload.DefaultParams(dims, n, 0)
	p.RestartCount = 1e-9 // no restart within a walk; 0 would select the default
	gen := workload.SeedSpreader(rng, p, n/spreaderWalks)
	for w := 1; w < spreaderWalks; w++ {
		gen = append(gen, workload.SeedSpreader(rng, p, (n+w)/spreaderWalks)...)
	}
	rng.Shuffle(len(gen), func(i, j int) { gen[i], gen[j] = gen[j], gen[i] })
	pts := flatPoints(n)
	for i, p := range gen {
		copy(pts[i], p)
	}
	return pts
}

// Skewed traffic: the space is cut into zipfBands equal x-bands and each
// point picks its band from Zipf(zipfS); y is uniform. With 100k live points
// the head band holds about a third of them, close to MinPts per ε-ball, so
// clusters keep forming and splitting there.
const (
	zipfBands = 32
	zipfS     = 1.3
)

// zipfBandPoints draws n points from the skewed band distribution. Band k
// has the k-th largest share, so the shards' stripes see the same skew
// under every seed.
func zipfBandPoints(rng *rand.Rand, n int) []dyndbscan.Point {
	z := rand.NewZipf(rng, zipfS, 1, zipfBands-1)
	width := space / zipfBands
	pts := flatPoints(n)
	for _, p := range pts {
		band := z.Uint64()
		p[0] = (float64(band) + rng.Float64()) * width
		p[1] = rng.Float64() * space
	}
	return pts
}

// makeStreams deals live preload points and fresh points per client out of
// gen's output: client c's preload share is every clients-th point of the
// first live points, so the clients' preloads interleave in a deterministic
// order.
func makeStreams(rng *rand.Rand, gen func(*rand.Rand, int) []dyndbscan.Point, clients, live, freshPerClient int) []*stream {
	all := gen(rng, live+clients*freshPerClient)
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = &stream{}
	}
	for i := 0; i < live; i++ {
		s := streams[i%clients]
		s.pts = append(s.pts, all[i])
	}
	for c, s := range streams {
		lo := live + c*freshPerClient
		s.pts = append(s.pts, all[lo:lo+freshPerClient]...)
	}
	return streams
}

// ring is a FIFO of one client's live handles and their points, oldest
// first, with random access for query sampling.
type ring struct {
	ids  []dyndbscan.PointID
	pts  []dyndbscan.Point
	head int
}

func (r *ring) len() int { return len(r.ids) - r.head }

func (r *ring) at(i int) dyndbscan.PointID { return r.ids[r.head+i] }

func (r *ring) push(id dyndbscan.PointID, p dyndbscan.Point) {
	if r.head > 0 && r.head >= len(r.ids)/2 {
		n := copy(r.ids, r.ids[r.head:])
		copy(r.pts, r.pts[r.head:])
		r.ids, r.pts = r.ids[:n], r.pts[:n]
		r.head = 0
	}
	r.ids = append(r.ids, id)
	r.pts = append(r.pts, p)
}

func (r *ring) pop() dyndbscan.PointID {
	id := r.ids[r.head]
	r.pts[r.head] = nil
	r.head++
	return id
}

// each calls fn for every live handle, oldest first.
func (r *ring) each(fn func(dyndbscan.PointID, dyndbscan.Point)) {
	for i := r.head; i < len(r.ids); i++ {
		fn(r.ids[i], r.pts[i])
	}
}
