package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// runTopologyEquivalenceCase executes the same run on the implicit
// topology and on its materialized CSR twin under every worker count,
// shard count and variant, and fails unless all Results — PerRound
// series, load vectors, assignment lists — are bit-for-bit identical.
// This is the correctness contract of the implicit layer: the topology
// representation is a pure memory/speed knob, never an outcome knob.
// cfg's Variant is ignored: the case runs both.
func runTopologyEquivalenceCase(t *testing.T, name string, topo *gen.Implicit, cfg Config) {
	t.Helper()
	csr, err := topo.Materialize()
	if err != nil {
		t.Fatalf("%s: materialize: %v", name, err)
	}
	for _, variant := range []Variant{SAER, RAES} {
		cfg.Variant = variant
		ref, err := oneLane(cfg).Run(csr)
		if err != nil {
			t.Fatalf("%s/%s: CSR reference failed: %v", name, variant, err)
		}
		// The implicit runs draw by point query or regenerate rows (and
		// pin the frontier's rows in the row cache once they fit), on the
		// one-lane, the routed and the counted path. Round 1 of every
		// multi-worker run of a point-query family on these small
		// instances counts.
		pq := bipartite.PointQuerier(topo) != nil
		for _, workers := range equivalenceWorkerCounts() {
			for _, shards := range equivalenceShardCounts() {
				c := cfg
				c.Workers = workers
				c.Shards = shards
				r, err := c.NewRunner(topo)
				if err != nil {
					t.Fatalf("%s/%s workers=%d shards=%d: %v", name, variant, workers, shards, err)
				}
				balls := int64(c.D * topo.NumClients())
				if want := pq && r.pool.Workers() > 1; r.countsRound(balls) != want {
					t.Fatalf("%s/%s workers=%d shards=%d: round 1 counted %t, want %t", name, variant, workers, shards, r.countsRound(balls), want)
				}
				got := r.Run()
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s/%s: implicit workers=%d shards=%d diverges from the CSR one-lane reference:\n  ref=%+v\n  got=%+v",
						name, variant, workers, shards, ref, got)
				}
			}
		}
	}
}

func TestTopologyEquivalenceRegular(t *testing.T) {
	topo, err := gen.RegularImplicit(1024, 40, 0xABCD)
	if err != nil {
		t.Fatal(err)
	}
	// c=4: fast completion; c=2: heavy burning, long small-frontier tail
	// (and the starved-client exit on some seeds).
	for _, c := range []float64{4, 2} {
		runTopologyEquivalenceCase(t, "regular", topo, Config{D: 2, C: c, Seed: 0xFEED,
			TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true})
	}
}

func TestTopologyEquivalenceErdosRenyi(t *testing.T) {
	topo, err := gen.ErdosRenyiImplicit(900, 800, 0.03, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	runTopologyEquivalenceCase(t, "erdos-renyi", topo, Config{D: 3, C: 2.5, Seed: 17, MaxRounds: 400,
		TrackRounds: true, TrackLoads: true, TrackAssignments: true})
}

func TestTopologyEquivalenceTrustSubset(t *testing.T) {
	topo, err := gen.TrustSubsetImplicit(800, 700, 36, 0x7057)
	if err != nil {
		t.Fatal(err)
	}
	runTopologyEquivalenceCase(t, "trust-subset", topo, Config{D: 2, C: 2.5, Seed: 23,
		TrackRounds: true, TrackLoads: true, TrackAssignments: true})
}

func TestTopologyEquivalenceAlmostRegular(t *testing.T) {
	topo, err := gen.AlmostRegularImplicit(gen.DefaultAlmostRegularConfig(512), 21)
	if err != nil {
		t.Fatal(err)
	}
	runTopologyEquivalenceCase(t, "almost-regular", topo, Config{D: 2, C: 3, Seed: 5,
		TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true})
}

// TestTopologySwapReuse checks the E12 reuse pattern: one Runner stepped
// through several re-randomized topologies via SwapTopology + Reseed must
// produce exactly the results of fresh Runners, including carried-over
// initial loads.
func TestTopologySwapReuse(t *testing.T) {
	n := 512
	loads := make([]int, n)
	cfg := Config{Variant: SAER, D: 2, C: 4, Seed: 0, Workers: 1, InitialLoads: loads, TrackLoads: true}

	first, err := gen.RegularImplicit(n, 24, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cfg.NewRunner(first)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 4; batch++ {
		topo, err := gen.RegularImplicit(n, 24, 1000+uint64(batch))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SwapTopology(topo); err != nil {
			t.Fatal(err)
		}
		seed := uint64(7777 + batch)
		r.Reseed(seed)
		reused := r.Run()

		c := cfg
		c.Seed = seed
		fresh, err := c.Run(topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("batch %d: reused Runner diverges from fresh Runner", batch)
		}
		// Carry the accepted loads into the next batch, as E12 does.
		copy(loads, resIntLoads(reused))
	}
}

// resIntLoads returns the result's load vector as ints.
func resIntLoads(res *Result) []int {
	out := make([]int, len(res.Loads))
	copy(out, res.Loads)
	return out
}

// TestTopologySwapRejectsMismatchedDimensions guards the reuse contract.
func TestTopologySwapRejectsMismatchedDimensions(t *testing.T) {
	a, err := gen.RegularImplicit(128, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.RegularImplicit(256, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Config{Variant: SAER, D: 2, C: 4, Seed: 1}.NewRunner(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapTopology(b); err == nil {
		t.Fatal("SwapTopology accepted a topology with different dimensions")
	}
}

// TestTopologySwapCSRToImplicit exercises the scratch-buffer allocation
// path when a Runner built on a CSR graph later swaps to an implicit
// topology of the same shape.
func TestTopologySwapCSRToImplicit(t *testing.T) {
	topo, err := gen.RegularImplicit(256, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Config{Variant: SAER, D: 2, C: 3, Seed: 0, Workers: 2, TrackLoads: true}.NewRunner(csr)
	if err != nil {
		t.Fatal(err)
	}
	r.Reseed(42)
	fromCSR := r.Run()
	if err := r.SwapTopology(topo); err != nil {
		t.Fatal(err)
	}
	r.Reseed(42)
	fromImplicit := r.Run()
	if !reflect.DeepEqual(fromCSR, fromImplicit) {
		t.Fatal("same seed on CSR and implicit twins diverged after SwapTopology")
	}
}

var _ bipartite.Topology = (*gen.Implicit)(nil)
