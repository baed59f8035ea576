package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/rng"
)

// rowOnly hides a topology's point-query (and version) support, forcing
// the engines onto the whole-row regeneration path — the baseline the
// point-query equivalence cases and BenchmarkPointQueryDraw compare
// against. Only wrap implicit topologies: a wrapped *Graph would lose
// the engines' zero-copy special case but keep the aliasing
// AppendClientNeighbors, violating the feedback-buffer contract.
type rowOnly struct{ bipartite.Topology }

// TestPointQueryViewSelection pins which topologies the engines draw
// point-wise from: the Feistel families answer point queries, the
// sequential skip-sampler (Erdős–Rényi) does not, and the rowOnly
// wrapper hides support.
func TestPointQueryViewSelection(t *testing.T) {
	reg, err := gen.RegularImplicit(64, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(reg) == nil {
		t.Error("regular implicit topology does not answer point queries")
	}
	if bipartite.PointQuerier(rowOnly{reg}) != nil {
		t.Error("rowOnly wrapper still answers point queries")
	}
	er, err := gen.ErdosRenyiImplicit(64, 64, 0.2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(er) != nil {
		t.Error("Erdős–Rényi skip-sampler unexpectedly answers point queries")
	}
	csr, err := reg.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if bipartite.PointQuerier(csr) == nil {
		t.Error("CSR graph does not answer point queries")
	}
}

// TestPointQueryDrawEquivalence pins the two access paths in one
// place: for every point-queryable family, the point-query draw path
// and the forced row-regeneration path must produce bit-for-bit
// identical Results across worker counts and shard counts — all against
// the one-shard CSR reference. The n = 2¹⁶ regular family runs the row
// path at the implicit layer's scale. (The broader topology, steal and
// driver matrices sweep the same contract; this test isolates the two
// access paths.)
func TestPointQueryDrawEquivalence(t *testing.T) {
	type fam struct {
		name string
		topo *gen.Implicit
	}
	mk := func(name string, topo *gen.Implicit, err error) fam {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fam{name, topo}
	}
	regular, regularErr := gen.RegularImplicit(1024, 40, 0xABCD)
	trust, trustErr := gen.TrustSubsetImplicit(800, 700, 36, 0x7057)
	almost, almostErr := gen.AlmostRegularImplicit(gen.DefaultAlmostRegularConfig(512), 21)
	large, largeErr := gen.RegularImplicit(1<<16, 64, 0xCAFE)
	families := []fam{
		mk("regular", regular, regularErr),
		mk("trust-subset", trust, trustErr),
		mk("almost-regular", almost, almostErr),
		mk("regular-2^16", large, largeErr),
	}
	cfg := Config{Variant: SAER, D: 2, C: 2.5, Seed: 0xFEED,
		TrackRounds: true, TrackLoads: true, TrackAssignments: true}
	for _, fam := range families {
		if bipartite.PointQuerier(fam.topo) == nil {
			t.Fatalf("%s: family is not point-queryable", fam.name)
		}
		csr, err := fam.topo.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oneShard(cfg).Run(csr)
		if err != nil {
			t.Fatalf("%s: CSR reference: %v", fam.name, err)
		}
		paths := []struct {
			name string
			topo bipartite.Topology
		}{{"point-query", fam.topo}, {"row-regen", rowOnly{fam.topo}}}
		for _, path := range paths {
			for _, workers := range []int{1, 2, 4} {
				for _, shards := range []int{1, 3, 4} {
					c := cfg
					c.Workers = workers
					c.Shards = shards
					got, err := c.Run(path.topo)
					if err != nil {
						t.Fatalf("%s/%s workers=%d shards=%d: %v", fam.name, path.name, workers, shards, err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s/%s: workers=%d shards=%d diverges from CSR reference",
							fam.name, path.name, workers, shards)
					}
				}
			}
		}
	}
}

// TestPointQueryDrawBlocks pins the batched draw at its block edges: with
// per-client request counts drawn from [0, D] the point-query blocks
// fill to every length and flush before clients of every size, and
// D = 130 exceeds the 128-ball block, so the block grows to hold one
// client. Every case must equal the forced row path bit for bit.
func TestPointQueryDrawBlocks(t *testing.T) {
	topo, err := gen.RegularImplicit(600, 40, 0xB10C)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 3, 127, 130} {
		counts := make([]int, topo.NumClients())
		r := rng.New(uint64(d))
		for v := range counts {
			counts[v] = r.Intn(d + 1)
		}
		cfg := Config{Variant: RAES, D: d, C: 2, Seed: 0xD1CE, RequestCounts: counts,
			TrackRounds: true, TrackLoads: true, TrackAssignments: true}
		ref, err := oneShard(cfg).Run(rowOnly{topo})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			for _, shards := range []int{1, 3} {
				c := cfg
				c.Workers, c.Shards = workers, shards
				got, err := c.Run(topo)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("D=%d workers=%d shards=%d: point-query draw diverges from the row path", d, workers, shards)
				}
			}
		}
	}
}

// TestCountedReuse pins reuse on the counted path: a two-worker Runner
// and Driver on an implicit topology count their early point-query
// rounds into byte tallies, and each scan leaves them zeroed for the
// next round, so a reused front end run over seeds of an easy and a
// starving configuration, and swapped to the routed row path and back,
// must match a fresh one-shard run on the CSR twin at every seed.
func TestCountedReuse(t *testing.T) {
	topo, err := gen.RegularImplicit(2048, 32, 0xC0)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{4, 1.2} {
		cfg := Config{Variant: SAER, D: 2, C: c, Workers: 2, TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true}
		r, err := cfg.NewRunner(topo)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := NewLocalDriver(topo, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		balls := int64(2 * topo.NumClients())
		if !r.countsRound(balls) || !dr.countsRound(balls) {
			t.Fatalf("c=%v: round 1 counted %t on the Runner and %t on the Driver; want both counted", c, r.countsRound(balls), dr.countsRound(balls))
		}
		for seed := uint64(1); seed <= 6; seed++ {
			// Seeds 3 and 4 run the routed row path on the same buffers.
			bound := bipartite.Topology(topo)
			if seed == 3 || seed == 4 {
				bound = rowOnly{topo}
			}
			if err := r.SwapTopology(bound); err != nil {
				t.Fatal(err)
			}
			if err := dr.SwapTopology(bound); err != nil {
				t.Fatal(err)
			}
			if want := bound == bipartite.Topology(topo); r.countsRound(balls) != want || dr.countsRound(balls) != want {
				t.Fatalf("c=%v seed=%d: round 1 counted %t/%t after the swap, want %t", c, seed, r.countsRound(balls), dr.countsRound(balls), want)
			}
			fcfg := oneShard(cfg)
			fcfg.Seed = seed
			want, err := fcfg.Run(csr)
			if err != nil {
				t.Fatal(err)
			}
			r.Reseed(seed)
			if got := r.Run(); !reflect.DeepEqual(got, want) {
				t.Errorf("c=%v seed=%d: reused Runner diverges from the one-shard CSR run:\n  want=%+v\n  got=%+v", c, seed, want, got)
			}
			dr.Reseed(seed)
			got, err := dr.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("c=%v seed=%d: reused Driver diverges from the one-shard CSR run:\n  want=%+v\n  got=%+v", c, seed, want, got)
			}
		}
	}
}
