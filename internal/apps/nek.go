package apps

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Nek5000 reproduces the paper's characterization of the Nek5000 spectral
// element CFD code (Table I): medium KB-range point-to-point over an
// irregular neighbor graph (gather-scatter of shared element faces), light
// 16-byte collectives, ~48% MPI. Dominant calls: Allreduce, Waitall, Recv.
type Nek5000 struct{}

// Name returns "Nek5000".
func (Nek5000) Name() string { return "Nek5000" }

// nekDegree is the number of gather-scatter neighbors per rank.
const nekDegree = 10

// Main returns the per-rank body.
func (Nek5000) Main(cfg Config) func(r *mpi.Rank) {
	// Node-level aggregates (64 ranks per node on Theta).
	const (
		faceBytes    = 256 * 1024 // medium gather-scatter faces
		crsBytes     = 32 * 1024  // coarse-grid solve gather
		reduceBytes  = 16
		computePerIt = 280 * sim.Microsecond
	)
	return func(r *mpi.Rank) {
		n := r.Size()
		peers := nekNeighbors(r.ID(), n, cfg.Seed)
		face := cfg.scaled(faceBytes)
		crs := cfg.scaled(crsBytes)
		for it := 0; it < cfg.Iterations; it++ {
			tag := 2000 + it
			// Gather-scatter: exchange faces with every graph neighbor.
			reqs := make([]*mpi.Request, 0, 2*len(peers))
			for _, p := range peers {
				reqs = append(reqs, r.Irecv(p, tag, face))
			}
			for _, p := range peers {
				reqs = append(reqs, r.Isend(p, tag, face))
			}
			computeSleep(r, computePerIt/2)
			r.Waitall(reqs...)
			// Coarse-grid solve: fan-in to rank 0 with blocking recvs
			// (the MPI_Recv presence in Table I), then a broadcast back.
			if r.ID() == 0 {
				for src := 1; src < n; src++ {
					r.Recv(src, tag+10000, crs)
				}
			} else {
				r.Send(0, tag+10000, crs)
			}
			r.Bcast(0, crs)
			// Pressure iteration residual checks: small allreduces.
			r.Allreduce(reduceBytes)
			r.Allreduce(reduceBytes)
			computeSleep(r, computePerIt/2)
		}
	}
}

// nekNeighbors builds a symmetric irregular graph modeling unstructured
// element connectivity: a circulant graph over hash-derived strides
// (every rank links to rank±s for each stride s), which is symmetric by
// construction so the pairwise exchange cannot deadlock.
func nekNeighbors(rank, n int, seed int64) []int {
	if n <= 1 {
		return nil
	}
	set := map[int]struct{}{}
	add := func(p int) {
		if p != rank {
			set[p] = struct{}{}
		}
	}
	add((rank + 1) % n) // ring locality
	add((rank - 1 + n) % n)
	for k := 0; k < nekDegree/2-1; k++ {
		h := (seed + int64(k+1)*2654435761) % int64(n)
		if h < 0 {
			h += int64(n)
		}
		stride := 2 + int(h)%(n-1)
		add((rank + stride) % n)
		add((rank - stride + n) % n)
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
