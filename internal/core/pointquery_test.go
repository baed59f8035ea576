package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// rowOnly hides a topology's point-query (and version) support, forcing
// the engines onto the whole-row regeneration path — the baseline the
// point-query equivalence cases and BenchmarkPointQueryDraw compare
// against, and the way the row-cache tests keep exercising the cache
// now that point-queryable families skip it. Only wrap implicit
// topologies: a wrapped *Graph would lose the engines' zero-copy
// special case but keep the aliasing AppendClientNeighbors, violating
// the feedback-buffer contract.
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

// TestPointQueryDrawEquivalence is the tentpole's proof obligation in
// one place: for every point-queryable family, the point-query draw
// path and the forced row-regeneration path must produce bit-for-bit
// identical Results across worker counts and shard counts — all against
// the one-lane CSR reference. (The broader topology/steal/driver matrices sweep the same
// contract at scale; this test isolates the two access paths.)
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
	families := []fam{
		mk("regular", regular, regularErr),
		mk("trust-subset", trust, trustErr),
		mk("almost-regular", almost, almostErr),
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
		ref, err := oneLane(cfg).Run(csr)
		if err != nil {
			t.Fatalf("%s: CSR reference: %v", fam.name, err)
		}
		paths := []struct {
			name string
			topo bipartite.Topology
		}{{"point-query", fam.topo}, {"row-regen", rowOnly{fam.topo}}}
		for _, path := range paths {
			for _, workers := range []int{1, 2, 4} {
				for _, shards := range []int{1, 3} {
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
