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
// topology backends. The reference is the one-lane run on the
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
	p := Params{D: 2, C: 2, Seed: 0xFEED}
	opts := Options{TrackRounds: true, TrackLoads: true, TrackAssignments: true}

	rp, ro := oneLane(p, opts)
	refRes, err := Run(csr, SAER, rp, ro)
	if err != nil {
		t.Fatal(err)
	}
	ref := normalizedResult(refRes)

	backends := []struct {
		name string
		topo bipartite.Topology
	}{{"csr", csr}, {"implicit", impl}, {"implicit-row", rowOnly{impl}}}
	for _, backend := range backends {
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range equivalenceShardCounts() {
				pp := p
				pp.Workers = workers
				oo := opts
				oo.Shards = shards
				res, err := Run(backend.topo, SAER, pp, oo)
				if err != nil {
					t.Fatalf("%s workers=%d shards=%d: %v", backend.name, workers, shards, err)
				}
				if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
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
	p := Params{D: 2, C: 2, Seed: 0xD00F}
	opts := Options{TrackRounds: true, TrackLoads: true}

	ref, err := Run(g, SAER, func() Params { pp := p; pp.Workers = 1; return pp }(), opts)
	if err != nil {
		t.Fatal(err)
	}

	pp := p
	pp.Workers = 4
	oo := opts
	r, err := NewRunner(g, SAER, pp, oo)
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
		r.Reseed(p.Seed)
		got := r.Run()
		if !reflect.DeepEqual(normalizedResult(got), normalizedResult(ref)) {
			t.Fatalf("trial %d: skewed steal schedule diverges from single-worker reference:\n  ref=%+v\n  got=%+v",
				trial, ref, got)
		}
	}
}
