// Package spectral provides a small spectral toolbox for bipartite
// graphs: an estimator of the second singular value of the
// degree-normalized biadjacency matrix, obtained by deflated power
// iteration.
//
// The quantity matters to this reproduction because of the result the
// SAER paper builds on (Becchetti et al., SODA 2020, footnote 5): the
// subgraph formed by the accepted client→server assignments of a
// threshold protocol is a bounded-degree graph that, in the dense regime,
// is an expander w.h.p. A bipartite graph is a good expander exactly when
// the second singular value σ₂ of its normalized biadjacency matrix is
// bounded away from 1 (the first singular value is always 1); the
// "expander extraction" experiment (E13) measures σ₂ of the assignment
// graphs produced by SAER and RAES and compares them against natural
// non-expanding baselines.
package spectral

import (
	"errors"
	"math"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// ErrDegenerate is returned when the graph has no edges or a single
// client, in which case the second singular value is undefined.
var ErrDegenerate = errors.New("spectral: graph too small or empty")

// Options tunes the power iteration.
type Options struct {
	// Iterations is the number of power-iteration steps (default 200).
	Iterations int
	// Seed seeds the random starting vector.
	Seed uint64
}

// SecondSingularValue estimates σ₂ of P = D_C^{-1/2} · A · D_S^{-1/2},
// where A is the biadjacency matrix of g (with multiplicities) and D_C,
// D_S are the degree matrices of the two sides. The estimate is obtained
// by power iteration on the client-side operator M = P·Pᵀ with the known
// top eigenvector (proportional to √degree) deflated away, so the value
// returned is √λ₂(M) ∈ [0, 1] up to iteration error.
//
// σ₂ close to 0 means the graph mixes like a complete bipartite graph;
// σ₂ close to 1 means poor expansion (e.g. disconnected or cycle-like
// structure).
func SecondSingularValue(g *bipartite.Graph, opts Options) (float64, error) {
	n := g.NumClients()
	m := g.NumServers()
	if n < 2 || m < 1 || g.NumEdges() == 0 {
		return 0, ErrDegenerate
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 200
	}
	src := rng.New(opts.Seed)

	// Precompute inverse square roots of the degrees. Zero-degree servers
	// simply never contribute.
	invSqrtC := make([]float64, n)
	for v := 0; v < n; v++ {
		d := g.ClientDegree(v)
		if d > 0 {
			invSqrtC[v] = 1 / math.Sqrt(float64(d))
		}
	}
	invSqrtS := make([]float64, m)
	for u := 0; u < m; u++ {
		d := g.ServerDegree(u)
		if d > 0 {
			invSqrtS[u] = 1 / math.Sqrt(float64(d))
		}
	}

	// Top right-singular vector of P on the client side: φ_v ∝ √deg(v).
	phi := make([]float64, n)
	var phiNorm float64
	for v := 0; v < n; v++ {
		phi[v] = math.Sqrt(float64(g.ClientDegree(v)))
		phiNorm += phi[v] * phi[v]
	}
	phiNorm = math.Sqrt(phiNorm)
	for v := range phi {
		phi[v] /= phiNorm
	}

	// Random start vector, orthogonalized against φ.
	x := make([]float64, n)
	for v := range x {
		x[v] = src.Float64() - 0.5
	}
	deflate(x, phi)
	if norm(x) == 0 {
		// Degenerate random start (essentially impossible); fall back to a
		// deterministic perturbation.
		x[0] = 1
		deflate(x, phi)
	}
	normalize(x)

	y := make([]float64, m) // server-side scratch: Pᵀ·x
	z := make([]float64, n) // client-side scratch: P·y

	apply := func() {
		for u := range y {
			y[u] = 0
		}
		for v := 0; v < n; v++ {
			if x[v] == 0 {
				continue
			}
			w := x[v] * invSqrtC[v]
			for _, u := range g.ClientNeighbors(v) {
				y[u] += w * invSqrtS[u]
			}
		}
		for v := range z {
			z[v] = 0
		}
		for u := 0; u < m; u++ {
			if y[u] == 0 {
				continue
			}
			w := y[u] * invSqrtS[u]
			for _, v := range g.ServerNeighbors(u) {
				z[v] += w * invSqrtC[v]
			}
		}
		copy(x, z)
	}

	lambda := 0.0
	for it := 0; it < iters; it++ {
		apply()
		deflate(x, phi)
		l := norm(x)
		if l == 0 {
			// x collapsed into the top eigenspace: the deflated operator is
			// (numerically) zero, i.e. σ₂ ≈ 0.
			return 0, nil
		}
		lambda = l
		normalize(x)
	}
	// After normalizing before each application, ‖Mx‖ converges to λ₂(M) =
	// σ₂².
	sigma := math.Sqrt(lambda)
	if sigma > 1 {
		sigma = 1
	}
	return sigma, nil
}

func deflate(x, phi []float64) {
	var dot float64
	for i := range x {
		dot += x[i] * phi[i]
	}
	for i := range x {
		x[i] -= dot * phi[i]
	}
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	l := norm(x)
	if l == 0 {
		return
	}
	for i := range x {
		x[i] /= l
	}
}
