package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// TestStealScheduleEquivalence is the work-stealing scheduler's
// determinism contract: core.Results are bit-for-bit identical across
// worker counts (every multi-worker run steals) × shard counts ×
// topology backends. The reference is the one-shard run on the
// materialized CSR graph; the implicit backend regenerates the exact
// same edge multiset (Materialize twin), so its results must match too.
func TestStealScheduleEquivalence(t *testing.T) {
	const n, delta = 1024, 40
	impl, err := gen.RegularImplicit(n, delta, 77)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := bipartite.Materialize(impl)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: SAER, D: 2, C: 2, Seed: 0xFEED, TrackRounds: true, TrackLoads: true, TrackAssignments: true}

	ref, err := oneShard(cfg).Run(csr)
	if err != nil {
		t.Fatal(err)
	}

	backends := []struct {
		name string
		topo bipartite.Topology
	}{{"csr", csr}, {"implicit", impl}, {"implicit-row", rowOnly{impl}}}
	for _, backend := range backends {
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range equivalenceShardCounts() {
				c := cfg
				c.Workers = workers
				c.Shards = shards
				got, err := c.Run(backend.topo)
				if err != nil {
					t.Fatalf("%s workers=%d shards=%d: %v", backend.name, workers, shards, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: workers=%d shards=%d diverges from reference:\n  ref=%+v\n  got=%+v",
						backend.name, workers, shards, ref, got)
				}
			}
		}
	}
}

// TestStealSkewEquivalence artificially delays one worker's chunks so the
// other workers must steal most of its deque, and checks the skewed
// schedule still produces the bit-for-bit reference result. This is the
// adversarial case of the scheduler's determinism contract: results may
// depend on chunk boundaries (pure) but never on which worker executed a
// chunk (scheduling).
func TestStealSkewEquivalence(t *testing.T) {
	g := regularGraph(t, 2048, 40, 31)
	cfg := Config{Variant: SAER, D: 2, C: 2, Seed: 0xD00F, TrackRounds: true, TrackLoads: true}

	one := cfg
	one.Workers = 1
	ref, err := one.Run(g)
	if err != nil {
		t.Fatal(err)
	}

	four := cfg
	four.Workers = 4
	r, err := four.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	// Stall worker 0 on its first chunks of each Run: a few milliseconds
	// is enough for the other deques to drain and steal from worker 0's.
	var stalls atomic.Int32
	r.pool.ChunkDelay = func(worker, chunk int) {
		if worker == 0 && stalls.Add(1) <= 3 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	for trial := 0; trial < 3; trial++ {
		stalls.Store(0)
		r.Reseed(cfg.Seed)
		got := r.Run()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: skewed steal schedule diverges from single-worker reference:\n  ref=%+v\n  got=%+v",
				trial, ref, got)
		}
	}
}
