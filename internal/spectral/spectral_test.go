package spectral

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestCompleteBipartiteHasZeroSigma2(t *testing.T) {
	// The normalized biadjacency matrix of K_{n,n} has rank 1, so σ₂ = 0.
	g, err := gen.Complete(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SecondSingularValue(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.02 {
		t.Errorf("sigma2 of complete bipartite graph = %v, want ≈ 0", s)
	}
}

func TestDisconnectedGraphHasSigma2One(t *testing.T) {
	// Two disjoint complete bipartite halves: the second singular value is
	// 1 (the indicator of one component is a second top singular vector).
	b := bipartite.NewBuilder(16, 16)
	for v := 0; v < 8; v++ {
		for u := 0; u < 8; u++ {
			b.AddEdge(v, u)
		}
	}
	for v := 8; v < 16; v++ {
		for u := 8; u < 16; u++ {
			b.AddEdge(v, u)
		}
	}
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SecondSingularValue(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.99 {
		t.Errorf("sigma2 of disconnected graph = %v, want ≈ 1", s)
	}
}

func TestLongCycleHasSigma2NearOne(t *testing.T) {
	// A single long cycle (clients and servers alternating) is connected
	// but mixes very slowly: σ₂ = cos(2π/(2n)) ≈ 1.
	const n = 64
	b := bipartite.NewBuilder(n, n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, v)
		b.AddEdge(v, (v+1)%n)
	}
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SecondSingularValue(g, Options{Seed: 3, Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cos(math.Pi / n)
	if math.Abs(s-want) > 0.05 {
		t.Errorf("sigma2 of the cycle = %v, want about %v", s, want)
	}
}

func TestRandomRegularIsNearRamanujan(t *testing.T) {
	// A random Δ-regular bipartite graph has σ₂ ≈ 2√(Δ−1)/Δ, far below 1.
	const n = 512
	const delta = 16
	g, err := gen.Regular(n, delta, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := SecondSingularValue(g, Options{Seed: 4, Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	ramanujan := 2 * math.Sqrt(delta-1) / delta
	if s > 2*ramanujan {
		t.Errorf("sigma2 = %v, want below twice the Ramanujan bound %v", s, ramanujan)
	}
	if s <= 0 {
		t.Errorf("sigma2 = %v, want strictly positive for a sparse graph", s)
	}
}

func TestDegenerateInputs(t *testing.T) {
	g, err := bipartite.NewBuilder(1, 1).AddEdge(0, 0).Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SecondSingularValue(g, Options{}); err == nil {
		t.Error("single-client graph accepted")
	}
	empty, err := bipartite.NewBuilder(4, 4).Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SecondSingularValue(empty, Options{}); err == nil {
		t.Error("edgeless graph accepted")
	}
}

func TestAssignmentGraphOfSAERIsWellConnected(t *testing.T) {
	// The extension experiment in miniature: the subgraph of accepted
	// assignments produced by SAER on a dense-ish instance should mix much
	// better than a long cycle — i.e. have σ₂ bounded away from 1.
	g, err := gen.Regular(1024, 100, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Config{Variant: core.SAER, D: 3, C: 4, Seed: 13, TrackAssignments: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	sub, err := res.AssignmentGraph()
	if err != nil {
		t.Fatal(err)
	}
	s, err := SecondSingularValue(sub, Options{Seed: 17, Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	// The assignment graph is roughly 3-regular, so the best possible σ₂ is
	// around the Ramanujan value 2√2/3 ≈ 0.94; anything clearly below the
	// cycle-like regime (σ₂ → 1 as cos(π/n) ≈ 0.999) demonstrates
	// expansion.
	if s > 0.97 {
		t.Errorf("assignment graph sigma2 = %v; expected visible expansion (< 0.97)", s)
	}
}
