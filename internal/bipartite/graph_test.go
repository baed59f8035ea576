package bipartite

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// buildSmall builds the 3-client / 3-server graph used by several tests:
//
//	c0 - {s0, s1}
//	c1 - {s1, s2}
//	c2 - {s0, s2}
func buildSmall(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder(3, 3).
		AddEdge(0, 0).AddEdge(0, 1).
		AddEdge(1, 1).AddEdge(1, 2).
		AddEdge(2, 0).AddEdge(2, 2).
		Build(KeepParallelEdges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := buildSmall(t)
	if g.NumClients() != 3 || g.NumServers() != 3 {
		t.Fatalf("unexpected sizes: %d clients, %d servers", g.NumClients(), g.NumServers())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	for v := 0; v < 3; v++ {
		if g.ClientDegree(v) != 2 {
			t.Errorf("client %d degree %d, want 2", v, g.ClientDegree(v))
		}
	}
	for u := 0; u < 3; u++ {
		if g.ServerDegree(u) != 2 {
			t.Errorf("server %d degree %d, want 2", u, g.ServerDegree(u))
		}
	}
}

func TestNeighborsMatchEdges(t *testing.T) {
	g := buildSmall(t)
	want := map[int][]int{0: {0, 1}, 1: {1, 2}, 2: {0, 2}}
	for v, servers := range want {
		got := g.ClientNeighbors(v)
		if len(got) != len(servers) {
			t.Fatalf("client %d has %d neighbors, want %d", v, len(got), len(servers))
		}
		for i, u := range servers {
			if int(got[i]) != u {
				t.Errorf("client %d neighbor %d = %d, want %d", v, i, got[i], u)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := buildSmall(t)
	if !g.HasEdge(0, 0) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Error("existing edges not found")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 0) {
		t.Error("non-existent edge reported present")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) || g.HasEdge(7, 7) {
		t.Error("out-of-range endpoints reported present")
	}
}

func TestBuildRejectsBadEndpoints(t *testing.T) {
	_, err := NewBuilder(2, 2).AddEdge(0, 2).Build(KeepParallelEdges)
	if !errors.Is(err, ErrVertexOutOfSide) {
		t.Fatalf("expected ErrVertexOutOfSide, got %v", err)
	}
	_, err = NewBuilder(2, 2).AddEdge(-1, 0).Build(KeepParallelEdges)
	if !errors.Is(err, ErrVertexOutOfSide) {
		t.Fatalf("expected ErrVertexOutOfSide, got %v", err)
	}
}

func TestBuildRejectsEmptySides(t *testing.T) {
	_, err := NewBuilder(0, 3).Build(KeepParallelEdges)
	if !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("expected ErrEmptyGraph, got %v", err)
	}
	_, err = NewBuilder(3, 0).Build(KeepParallelEdges)
	if !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("expected ErrEmptyGraph, got %v", err)
	}
}

func TestDedupEdges(t *testing.T) {
	g, err := NewBuilder(2, 2).
		AddEdge(0, 0).AddEdge(0, 0).AddEdge(0, 1).
		AddEdge(1, 1).AddEdge(1, 1).AddEdge(1, 1).
		Build(DedupEdges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("deduped graph has %d edges, want 3", g.NumEdges())
	}
	if g.ClientDegree(0) != 2 || g.ClientDegree(1) != 1 {
		t.Errorf("unexpected degrees after dedup: %d, %d", g.ClientDegree(0), g.ClientDegree(1))
	}
}

func TestKeepParallelEdges(t *testing.T) {
	g, err := NewBuilder(1, 1).AddEdge(0, 0).AddEdge(0, 0).Build(KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("parallel edges not kept: %d edges", g.NumEdges())
	}
}

func TestValidateDetectsIsolatedClient(t *testing.T) {
	g, err := NewBuilder(2, 2).AddEdge(0, 0).Build(KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); !errors.Is(err, ErrIsolatedClient) {
		t.Fatalf("expected ErrIsolatedClient, got %v", err)
	}
	if err := buildSmall(t).Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	g := buildSmall(t)
	st := g.Stats()
	if st.MinClientDegree != 2 || st.MaxClientDegree != 2 {
		t.Errorf("client degrees [%d,%d], want [2,2]", st.MinClientDegree, st.MaxClientDegree)
	}
	if st.MinServerDegree != 2 || st.MaxServerDegree != 2 {
		t.Errorf("server degrees [%d,%d], want [2,2]", st.MinServerDegree, st.MaxServerDegree)
	}
	if st.RegularityRatio != 1 {
		t.Errorf("rho = %v, want 1", st.RegularityRatio)
	}
	if math.Abs(st.MeanClientDeg-2) > 1e-12 || math.Abs(st.MeanServerDeg-2) > 1e-12 {
		t.Errorf("mean degrees %v, %v, want 2", st.MeanClientDeg, st.MeanServerDeg)
	}
	logn := math.Log2(3)
	wantEta := 2 / (logn * logn)
	if math.Abs(st.Eta-wantEta) > 1e-12 {
		t.Errorf("eta = %v, want %v", st.Eta, wantEta)
	}
}

func TestStatsIsolatedClientRatioInf(t *testing.T) {
	g, err := NewBuilder(2, 2).AddEdge(0, 0).Build(KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if !math.IsInf(st.RegularityRatio, 1) {
		t.Errorf("rho = %v, want +Inf for isolated client", st.RegularityRatio)
	}
	if st.MinClientDegree != 0 {
		t.Errorf("min client degree %d, want 0", st.MinClientDegree)
	}
}

func TestIsRegular(t *testing.T) {
	g := buildSmall(t)
	if !g.IsRegular(2) {
		t.Error("2-regular graph not recognized")
	}
	if g.IsRegular(3) {
		t.Error("graph incorrectly reported 3-regular")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := buildSmall(t)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() returned %d edges, want %d", len(edges), g.NumEdges())
	}
	b := NewBuilder(3, 3)
	for _, e := range edges {
		b.AddEdge(e.Client, e.Server)
	}
	rebuilt, err := b.Build(KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuilt graph has %d edges, want %d", rebuilt.NumEdges(), g.NumEdges())
	}
}

func TestCheckConsistency(t *testing.T) {
	if err := buildSmall(t).CheckConsistency(); err != nil {
		t.Fatalf("consistent graph reported inconsistent: %v", err)
	}
}

func TestStringSummary(t *testing.T) {
	s := buildSmall(t).String()
	if s == "" {
		t.Fatal("String returned empty summary")
	}
}

func TestQuickRandomGraphsConsistent(t *testing.T) {
	// Property: graphs built from arbitrary random edge lists always have
	// consistent CSR directions and degree sums equal on both sides.
	f := func(seed uint64, ncRaw, nsRaw, neRaw uint8) bool {
		nc := int(ncRaw%20) + 1
		ns := int(nsRaw%20) + 1
		ne := int(neRaw % 200)
		r := rng.New(seed)
		b := NewBuilder(nc, ns)
		for i := 0; i < ne; i++ {
			b.AddEdge(r.Intn(nc), r.Intn(ns))
		}
		g, err := b.Build(KeepParallelEdges)
		if err != nil {
			return false
		}
		if g.CheckConsistency() != nil {
			return false
		}
		sumC, sumS := 0, 0
		for v := 0; v < nc; v++ {
			sumC += g.ClientDegree(v)
		}
		for u := 0; u < ns; u++ {
			sumS += g.ServerDegree(u)
		}
		return sumC == ne && sumS == ne
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
